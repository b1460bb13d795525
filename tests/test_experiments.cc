/**
 * @file
 * Every experiment in the `mtdae` registry runs end to end at a tiny
 * budget and writes a non-empty CSV, so an experiment that breaks
 * fails here instead of only when someone next runs it by hand.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/cli.hh"

using namespace mtdae;

TEST(Experiments, EveryRegisteredExperimentRuns)
{
    const std::string dir = ::testing::TempDir() + "mtdae_experiments";
    ASSERT_FALSE(cli::experiments().empty());
    for (const cli::Experiment &e : cli::experiments()) {
        std::vector<std::string> args = {
            e.name,          "--insts=200",     "--warmup=50",
            "--threads-list=1,2", "--latencies=16", "--quiet",
            "--out=" + dir};
        if (e.name.find("dsl") != std::string::npos)
            args.push_back("--kernel-file=" MTDAE_SOURCE_DIR
                           "/examples/kernels/pointer_chase.mk");
        std::ostringstream out, err;
        ASSERT_EQ(cli::runCli(args, out, err), 0)
            << e.name << ": " << err.str();

        // The CSV is named after the experiment, '-' spelled '_'.
        std::string csv = e.name;
        std::replace(csv.begin(), csv.end(), '-', '_');
        const std::string path = dir + "/" + csv + ".csv";
        std::ifstream f(path);
        ASSERT_TRUE(f.good()) << e.name << ": no " << path;
        std::string header, row;
        EXPECT_TRUE(std::getline(f, header) && !header.empty()) << e.name;
        EXPECT_TRUE(std::getline(f, row) && !row.empty()) << e.name;
        f.close();
        std::remove(path.c_str());
    }
}
