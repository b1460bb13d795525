/**
 * @file
 * Reproduction acceptance tests: the paper's headline claims, asserted
 * on the real suite-mix workload at reduced instruction budgets. These
 * are the guard rails that keep future changes from silently breaking
 * the figures (the full tables come from `mtdae fig1` ... `fig5`).
 */

#include <gtest/gtest.h>

#include "core/slot_stats.hh"
#include "harness/experiment.hh"
#include "workload/spec_fp95.hh"

using namespace mtdae;

namespace {

RunResult
mixRun(std::uint32_t threads, bool decoupled, std::uint32_t lat,
       std::uint64_t insts_per_thread = 120000)
{
    SimConfig cfg = paperConfig(threads, decoupled, lat);
    cfg.warmupInsts = 20000;
    return runSuiteMix(cfg, insts_per_thread * threads);
}

RunResult
benchRun(const std::string &name, std::uint32_t lat,
         std::uint64_t insts = 100000)
{
    SimConfig cfg = paperConfig(1, true, lat);
    cfg.warmupInsts = 20000;
    return runBenchmark(cfg, name, insts);
}

} // namespace

TEST(SlotBreakdown, FractionsAndTotals)
{
    SlotBreakdown bd;
    bd.add(SlotUse::Useful, 6);
    bd.add(SlotUse::WaitMem, 2);
    bd.add(SlotUse::Idle);
    bd.add(SlotUse::Other);
    EXPECT_EQ(bd.total(), 10u);
    EXPECT_DOUBLE_EQ(bd.fraction(SlotUse::Useful), 0.6);
    EXPECT_DOUBLE_EQ(bd.fraction(SlotUse::WaitFu), 0.0);
    bd.reset();
    EXPECT_EQ(bd.total(), 0u);
    EXPECT_DOUBLE_EQ(bd.fraction(SlotUse::Useful), 0.0);
}

TEST(SlotBreakdown, EveryCategoryHasAName)
{
    for (std::size_t u = 0; u < kNumSlotUses; ++u)
        EXPECT_GT(std::string(slotUseName(SlotUse(u))).size(), 0u);
}

// --- Figure 1 claims ---------------------------------------------------

TEST(Fig1Claims, StreamingBenchmarksHideFpMissLatency)
{
    // ">96% of the FP load miss latency is always hidden" for the
    // well-decoupled codes, even at a 128-cycle L2.
    for (const char *name : {"tomcatv", "swim", "mgrid", "applu"}) {
        const RunResult r = benchRun(name, 128);
        EXPECT_LT(r.perceivedFp, 0.05 * 130) << name;
        EXPECT_GT(r.fpMisses, 100u) << name;
    }
}

TEST(Fig1Claims, FppppIsTheWorstFpHider)
{
    const RunResult fpppp = benchRun("fpppp", 64);
    for (const char *name : {"tomcatv", "swim", "hydro2d"}) {
        const RunResult other = benchRun(name, 64);
        EXPECT_GT(fpppp.perceivedFp, 5.0 * (other.perceivedFp + 0.1))
            << name;
    }
}

TEST(Fig1Claims, GatherCodesShowIntegerStalls)
{
    // Figure 1-b names fpppp, su2cor, turb3d and wave5.
    for (const char *name : {"su2cor", "turb3d", "wave5", "fpppp"}) {
        const RunResult r = benchRun(name, 64);
        EXPECT_GT(r.perceivedInt, 30.0) << name;
    }
    for (const char *name : {"tomcatv", "swim", "mgrid"}) {
        const RunResult r = benchRun(name, 64);
        EXPECT_LT(r.perceivedInt, 1.0) << name;
    }
}

TEST(Fig1Claims, LowMissBenchmarksBarelyDegrade)
{
    // turb3d and fpppp: high perceived latency but tiny miss ratios —
    // "they are hardly performance degraded".
    for (const char *name : {"turb3d", "fpppp"}) {
        const RunResult base = benchRun(name, 1);
        const RunResult far = benchRun(name, 128);
        EXPECT_GT(far.ipc, 0.70 * base.ipc) << name;
        EXPECT_LT(far.missRatio, 0.05) << name;
    }
}

TEST(Fig1Claims, Hydro2dHasTheHighestMissRatio)
{
    const RunResult hydro = benchRun("hydro2d", 16);
    for (const char *name : {"tomcatv", "mgrid", "applu", "apsi"}) {
        const RunResult other = benchRun(name, 16);
        EXPECT_GT(hydro.loadMissRatio, other.loadMissRatio) << name;
    }
}

// --- Figure 3 claims ---------------------------------------------------

TEST(Fig3Claims, SingleThreadBottleneckIsEpFuLatency)
{
    const RunResult r = mixRun(1, true, 16);
    EXPECT_GT(r.ep.fraction(SlotUse::WaitFu), 0.4);
    EXPECT_GT(r.ep.fraction(SlotUse::WaitFu),
              3.0 * r.ep.fraction(SlotUse::WaitMem));
}

TEST(Fig3Claims, ThreeThreadsGiveLargeSpeedup)
{
    // Paper: 2.31x from 1 to 3 threads.
    const RunResult r1 = mixRun(1, true, 16);
    const RunResult r3 = mixRun(3, true, 16);
    EXPECT_GT(r3.ipc / r1.ipc, 1.9);
    EXPECT_LT(r3.ipc / r1.ipc, 2.9);
}

TEST(Fig3Claims, GainsBeyondFourThreadsAreNegligible)
{
    const RunResult r4 = mixRun(4, true, 16);
    const RunResult r6 = mixRun(6, true, 16);
    EXPECT_LT(r6.ipc, 1.1 * r4.ipc);
}

// --- Figure 4 claims ---------------------------------------------------

TEST(Fig4Claims, DecouplingFlattensTheLatencyCurve)
{
    const RunResult d1 = mixRun(2, true, 1);
    const RunResult d64 = mixRun(2, true, 64);
    const RunResult n1 = mixRun(2, false, 1);
    const RunResult n64 = mixRun(2, false, 64);
    const double dec_loss = 1.0 - d64.ipc / d1.ipc;
    const double nodec_loss = 1.0 - n64.ipc / n1.ipc;
    EXPECT_LT(dec_loss, 0.5 * nodec_loss);
    EXPECT_GT(nodec_loss, 0.5);
}

TEST(Fig4Claims, PerceivedLatencySeparatesTheFamilies)
{
    const RunResult dec = mixRun(2, true, 128);
    const RunResult nodec = mixRun(2, false, 128);
    EXPECT_GT(nodec.perceivedAll, 4.0 * dec.perceivedAll);
}

// --- Figure 5 claims ---------------------------------------------------

TEST(Fig5Claims, FewDecoupledThreadsBeatManyNonDecoupled)
{
    // Paper: 3 decoupled threads ~ 12 non-decoupled at L2=64; we assert
    // the cheaper 2-vs-6 version at reduced budgets.
    const RunResult d2 = mixRun(2, true, 64);
    const RunResult n6 = mixRun(6, false, 64, 60000);
    EXPECT_GT(d2.ipc, n6.ipc);
}

TEST(Fig5Claims, NonDecoupledBusUtilisationClimbsWithThreads)
{
    const RunResult n2 = mixRun(2, false, 64, 60000);
    const RunResult n8 = mixRun(8, false, 64, 60000);
    EXPECT_GT(n8.busUtilization, 1.5 * n2.busUtilization);
    EXPECT_GT(n8.ipc, n2.ipc);
}
