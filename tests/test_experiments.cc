/**
 * @file
 * Every experiment in the `mtdae` registry runs end to end at a tiny
 * budget and writes exactly the CSV pinned in tests/golden/experiments/,
 * so an experiment that breaks, or whose rows drift, fails here instead
 * of only when someone next runs it by hand. Each swept axis gets two
 * values, so group-relative columns such as ipc_loss_pct are pinned too.
 *
 * Regenerate the pins (only for an intended change of output) from the
 * repository root with:
 *
 *   for e in $(./build/mtdae list | cut -f1); do ./build/mtdae $e \
 *     --insts=1000 --warmup=200 --threads-list=1,2 --latencies=1,16 \
 *     --kernel-file=examples/kernels/pointer_chase.mk \
 *     --kernel-param=footprint=64K,1M --quiet \
 *     --out=tests/golden/experiments; done
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.hh"

using namespace mtdae;

TEST(Experiments, EveryRegisteredExperimentRuns)
{
    const std::string dir = ::testing::TempDir() + "mtdae_experiments";
    ASSERT_FALSE(cli::experiments().empty());
    for (const cli::Experiment &e : cli::experiments()) {
        // --kernel-file/--kernel-param only feed ablate-dsl here; the
        // other experiments ignore them.
        const std::vector<std::string> args = {
            e.name,
            "--insts=1000",
            "--warmup=200",
            "--threads-list=1,2",
            "--latencies=1,16",
            "--kernel-file=" MTDAE_SOURCE_DIR
            "/examples/kernels/pointer_chase.mk",
            "--kernel-param=footprint=64K,1M",
            "--quiet",
            "--out=" + dir};
        std::string out;
        ASSERT_EQ(test::cli(args, out), 0) << e.name;

        // The CSV is named after the experiment, '-' spelled '_'.
        std::string csv = e.name;
        std::replace(csv.begin(), csv.end(), '-', '_');
        const std::string path = dir + "/" + csv + ".csv";
        const std::string got = test::slurp(path);
        const std::string want =
            test::slurp(std::string(MTDAE_SOURCE_DIR) +
                        "/tests/golden/experiments/" + csv + ".csv");
        ASSERT_FALSE(want.empty()) << e.name;
        EXPECT_EQ(got, want) << e.name << ": rows drifted from "
                             << "tests/golden/experiments/" << csv
                             << ".csv";
        std::remove(path.c_str());
    }
}
