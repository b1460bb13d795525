/**
 * @file
 * Tests of the parallel sweep engine (harness/sweep.hh): per-job seed
 * derivation, grid ordering, bit-identical serial vs. parallel results,
 * error propagation from worker threads, and the CLI plumbing
 * (--jobs / --seed).
 */

#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "test_util.hh"

using namespace mtdae;
using mtdae::test::expectSameResult;

namespace {

SimConfig
tinyCfg(std::uint32_t threads, std::uint32_t lat)
{
    SimConfig cfg = paperConfig(threads, true, lat);
    cfg.warmupInsts = 500;
    return cfg;
}

/** A small but non-trivial grid: 2 thread counts x 2 L2 latencies. */
SweepSpec
tinyGrid()
{
    SweepSpec spec;
    for (const std::uint32_t n : {1u, 2u})
        for (const std::uint32_t lat : {1u, 16u})
            spec.addSuiteMix(tinyCfg(n, lat), 3000 * n,
                             std::to_string(n) + "T L2=" +
                                 std::to_string(lat));
    return spec;
}

/** A workload recipe whose make() throws, for error propagation. */
class ThrowingFactory : public TraceSourceFactory
{
  public:
    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t, std::uint64_t) const override
    {
        throw std::runtime_error("trace source exploded");
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<ThrowingFactory>();
    }

    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "throwing";
};

} // namespace

TEST(DeriveSeed, DeterministicAndDecorrelated)
{
    EXPECT_EQ(deriveSeed(1, 0), deriveSeed(1, 0));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(1, 1));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
    // Substreams of nearby bases stay distinct (splitmix64 mixing).
    EXPECT_NE(deriveSeed(1, 1), deriveSeed(2, 0));
}

TEST(SweepSpec, AssignsIndicesLabelsAndDerivedSeeds)
{
    const SweepSpec spec = tinyGrid();
    ASSERT_EQ(spec.size(), 4u);
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const SimJob &job = spec.jobs()[i];
        EXPECT_EQ(job.index, i);
        EXPECT_FALSE(job.label.empty());
        // The base seed (paperConfig default 1) is rewritten per job.
        EXPECT_EQ(job.cfg.seed, deriveSeed(1, i));
        ASSERT_NE(job.sources, nullptr);
        EXPECT_EQ(job.sources->name(), "suite-mix");
    }
    EXPECT_EQ(spec.jobs()[1].cfg.numThreads, 1u);
    EXPECT_EQ(spec.jobs()[1].cfg.l2Latency, 16u);
    EXPECT_EQ(spec.jobs()[2].cfg.numThreads, 2u);
}

TEST(SimJob, CopyClonesTheFactoryAndRunsIdentically)
{
    SweepSpec spec;
    spec.addBenchmark(tinyCfg(1, 16), "tomcatv", 2000);
    const SimJob &original = spec.jobs()[0];
    const SimJob copy = original;  // deep copy via factory clone()
    ASSERT_NE(copy.sources, nullptr);
    EXPECT_NE(copy.sources.get(), original.sources.get());
    expectSameResult(original.run(), copy.run(), "clone");
}

TEST(JobRunner, SerialAndParallelAreBitIdentical)
{
    const SweepSpec spec = tinyGrid();
    const std::vector<RunResult> serial = JobRunner(1).run(spec);
    const std::vector<RunResult> parallel = JobRunner(8).run(spec);
    ASSERT_EQ(serial.size(), spec.size());
    ASSERT_EQ(parallel.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i)
        expectSameResult(serial[i], parallel[i],
                         "job " + spec.jobs()[i].label);
}

TEST(JobRunner, RealMemoryBackendIsBitIdenticalToo)
{
    // Same guarantee with the finite L2 + DRAM backend: its emergent
    // stats (avg fill, L2 miss, row hits, DRAM bus) are reservation
    // arithmetic inside the job, never shared across workers.
    SweepSpec spec;
    for (const std::uint32_t n : {1u, 2u}) {
        SimConfig cfg = tinyCfg(n, 16);
        cfg.perfectL2 = false;
        spec.addSuiteMix(cfg, 3000 * n,
                         std::to_string(n) + "T real backend");
    }
    const std::vector<RunResult> serial = JobRunner(1).run(spec);
    const std::vector<RunResult> parallel = JobRunner(8).run(spec);
    ASSERT_EQ(parallel.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        expectSameResult(serial[i], parallel[i],
                         "job " + spec.jobs()[i].label);
        EXPECT_GT(serial[i].avgFillLatency, 0.0);
        EXPECT_GT(serial[i].l2MissRatio, 0.0);
    }
}

TEST(JobRunner, ResultsArriveInGridOrder)
{
    // Give every job a distinct instruction budget; the result at
    // index i must come from job i no matter which worker ran it.
    SweepSpec spec;
    for (std::size_t i = 0; i < 4; ++i)
        spec.addSuiteMix(tinyCfg(1, 1), 2000 + 1000 * i);
    const std::vector<RunResult> results = JobRunner(4).run(spec);
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GE(results[i].insts, 2000 + 1000 * i) << i;
        EXPECT_LT(results[i].insts, 3000 + 1000 * i) << i;
    }
}

TEST(JobRunner, ProgressReportsEveryJobExactlyOnce)
{
    const SweepSpec spec = tinyGrid();
    std::vector<int> started(spec.size(), 0);
    JobRunner(4).run(spec, [&](const SimJob &job) {
        started.at(job.index) += 1;
    });
    for (const int n : started)
        EXPECT_EQ(n, 1);
}

TEST(JobRunner, ErrorsPropagateToTheCaller)
{
    for (const std::uint32_t workers : {1u, 4u}) {
        SweepSpec spec;
        spec.addSuiteMix(tinyCfg(1, 1), 1000);
        spec.add(tinyCfg(1, 1), std::make_unique<ThrowingFactory>(),
                 1000);
        spec.addSuiteMix(tinyCfg(1, 1), 1000);
        EXPECT_THROW(JobRunner(workers).run(spec), std::runtime_error)
            << workers << " workers";
    }
}

TEST(JobRunner, WorkerCountResolution)
{
    EXPECT_GE(defaultJobs(), 1u);
    EXPECT_EQ(JobRunner(0).workers(), defaultJobs());
    EXPECT_EQ(JobRunner(3).workers(), 3u);
    // An empty spec is a no-op at any worker count.
    EXPECT_TRUE(JobRunner(4).run(SweepSpec()).empty());
}

TEST(SweepCli, ParsesJobsAndSeedFlags)
{
    cli::Options opts;
    std::string error;
    ASSERT_TRUE(cli::parseArgs({"fig4", "--jobs=8", "--seed=42"}, opts,
                               error))
        << error;
    EXPECT_EQ(opts.jobs, 8u);
    SimConfig cfg;
    ASSERT_TRUE(cli::applyOverrides(cfg, opts, error)) << error;
    EXPECT_EQ(cfg.seed, 42u);
}

TEST(SweepCli, RejectsBadJobs)
{
    for (const char *flag : {"--jobs=0", "--jobs=x", "--jobs=-2"}) {
        cli::Options opts;
        std::string error;
        EXPECT_FALSE(cli::parseArgs({"fig4", flag}, opts, error))
            << flag;
        EXPECT_FALSE(error.empty()) << flag;
    }
}

TEST(SweepCli, ParallelJsonOutputIsByteIdenticalToSerial)
{
    const std::vector<std::string> base = {
        "fig4",   "--threads-list=1,2", "--latencies=1,16",
        "--insts=1500", "--warmup=300", "--quiet",
        "--json"};
    auto run_with = [&](const std::string &jobs) {
        std::vector<std::string> args = base;
        args.push_back(jobs);
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(args, out, err), 0) << err.str();
        return out.str();
    };
    const std::string serial = run_with("--jobs=1");
    const std::string parallel = run_with("--jobs=4");
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(SweepCli, AblateDslParallelIsByteIdenticalToSerial)
{
    // The DSL param grid is a first-class sweep axis: per-job seeds are
    // derived from the grid index, so the worker count cannot leak into
    // the results.
    const std::vector<std::string> base = {
        "ablate-dsl",
        "--kernel-file=" + std::string(MTDAE_SOURCE_DIR) +
            "/examples/kernels/hash_join.mk",
        "--kernel-param=build_bytes=64K,1M",
        "--kernel-param=hit_prob=0.5,0.9",
        "--threads-list=1,2",
        "--insts=800",
        "--warmup=300",
        "--quiet",
        "--json"};
    auto run_with = [&](const std::string &jobs) {
        std::vector<std::string> args = base;
        args.push_back(jobs);
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(args, out, err), 0) << err.str();
        return out.str();
    };
    const std::string serial = run_with("--jobs=1");
    const std::string parallel = run_with("--jobs=8");
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // All 2x2x2 grid points are present: each param axis is a column.
    EXPECT_NE(serial.find("\"kernel\": \"hash_join\", \"build_bytes\": "
                          "65536, \"hit_prob\": 0.5, \"threads\": 1"),
              std::string::npos);
    EXPECT_NE(serial.find("\"kernel\": \"hash_join\", \"build_bytes\": "
                          "1048576, \"hit_prob\": 0.9, \"threads\": 2"),
              std::string::npos);
}

TEST(SweepSpec, DslPrefixKeysFoldTheKernelParams)
{
    const std::string text =
        dsl::readKernelFile(std::string(MTDAE_SOURCE_DIR) +
                            "/examples/kernels/pointer_chase.mk");
    SweepSpec spec;
    const SimConfig cfg = tinyCfg(1, 16);
    // Same kernel+params on one seed stream: shared warmup prefix even
    // with different measure budgets. Overridden params break the
    // group.
    spec.addDsl(cfg, text, {}, 1000, "a", 5);
    spec.addDsl(cfg, text, {}, 2000, "b", 5);
    spec.addDsl(cfg, text, {{"footprint", 64 * 1024}}, 1000, "c", 5);
    const auto &jobs = spec.jobs();
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[0].prefixKey(), jobs[1].prefixKey());
    EXPECT_NE(jobs[0].prefixKey(), jobs[2].prefixKey());
}
