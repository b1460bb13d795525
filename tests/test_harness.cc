/**
 * @file
 * Tests of the experiment harness: paper configurations and run
 * drivers.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "workload/spec_fp95.hh"

using namespace mtdae;

TEST(Harness, PaperLatenciesMatchTheSweep)
{
    const auto &lats = paperLatencies();
    ASSERT_EQ(lats.size(), 6u);
    EXPECT_EQ(lats.front(), 1u);
    EXPECT_EQ(lats.back(), 256u);
}

TEST(Harness, PaperConfigSetsSweepKnobs)
{
    const SimConfig c = paperConfig(3, false, 64);
    EXPECT_EQ(c.numThreads, 3u);
    EXPECT_FALSE(c.decoupled);
    EXPECT_EQ(c.l2Latency, 64u);
    // Queue scaling applied: factor 4.
    EXPECT_EQ(c.iqEntries, 48u * 4);

    const SimConfig u = paperConfig(2, true, 64, /*scale=*/false);
    EXPECT_EQ(u.iqEntries, 48u);
    EXPECT_EQ(u.l2Latency, 64u);
}

TEST(Harness, RunBenchmarkProducesSaneResults)
{
    SimConfig cfg = paperConfig(1, true, 16);
    cfg.warmupInsts = 5000;
    const RunResult r = runBenchmark(cfg, "tomcatv", 20000);
    EXPECT_GE(r.insts, 20000u);
    EXPECT_GT(r.ipc, 0.5);
    EXPECT_LT(r.ipc, 8.0);
    EXPECT_GT(r.loadMissRatio, 0.05);
}

TEST(Harness, RunSuiteMixUsesAllThreads)
{
    SimConfig cfg = paperConfig(2, true, 16);
    cfg.warmupInsts = 5000;
    const RunResult r = runSuiteMix(cfg, 40000);
    EXPECT_GE(r.insts, 40000u);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Harness, DeterministicAcrossRuns)
{
    SimConfig cfg = paperConfig(2, true, 16);
    cfg.warmupInsts = 3000;
    const RunResult a = runSuiteMix(cfg, 30000);
    const RunResult b = runSuiteMix(cfg, 30000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.perceivedAll, b.perceivedAll);
}

TEST(Harness, SeedChangesGatherBehaviour)
{
    SimConfig a = paperConfig(1, true, 16);
    a.warmupInsts = 3000;
    SimConfig b = a;
    b.seed = 999;
    const RunResult ra = runBenchmark(a, "su2cor", 20000);
    const RunResult rb = runBenchmark(b, "su2cor", 20000);
    EXPECT_NE(ra.cycles, rb.cycles);
}
