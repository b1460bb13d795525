/**
 * @file
 * Integration tests of the full pipeline on small kernels with known
 * structure: conservation, ordering, latency and accounting invariants.
 */

#include <gtest/gtest.h>

#include "tests/test_util.hh"

using namespace mtdae;
using namespace mtdae::test;

TEST(Simulator, DrainsAFiniteTraceCompletely)
{
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, streamingKernel(), 100);
    const std::size_t body = streamingKernel().ops.size();
    while (!sim.allDone())
        sim.step();
    EXPECT_EQ(sim.totalGraduated(), body * 100);

    // A measure budget near 2^64 saturates instead of wrapping past
    // the warmup count: the run measures the rest of the trace.
    Simulator whole = makeSim(cfg, streamingKernel(), 1000);
    const RunResult r = whole.run(UINT64_MAX);
    EXPECT_EQ(whole.totalGraduated(), body * 1000);
    EXPECT_GT(r.insts, 0u);
}

TEST(Simulator, GraduationIsMonotonicAndBounded)
{
    SimConfig cfg = testConfig();
    cfg.warmupInsts = 0;
    Simulator sim = makeSim(cfg, streamingKernel());
    std::uint64_t last = 0;
    for (int i = 0; i < 2000; ++i) {
        sim.step();
        const std::uint64_t g = sim.totalGraduated();
        EXPECT_GE(g, last);
        EXPECT_LE(g - last, std::uint64_t(cfg.graduateWidth));
        last = g;
    }
    EXPECT_GT(last, 0u);
}

TEST(Simulator, IpcNeverExceedsMachineWidth)
{
    const SimConfig cfg = testConfig(4);
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(100000);
    EXPECT_LE(r.ipc, double(cfg.apUnits + cfg.epUnits));
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Simulator, SlotAccountingSumsToWidthTimesCycles)
{
    const SimConfig cfg = testConfig(2);
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(20000);
    EXPECT_EQ(r.ap.total(), r.cycles * cfg.apUnits);
    EXPECT_EQ(r.ep.total(), r.cycles * cfg.epUnits);
}

TEST(Simulator, UsefulSlotsMatchGraduatedWork)
{
    // Over a long interval, issued (useful) slots equal graduated
    // instructions minus the never-issued Nops (none here).
    SimConfig cfg = testConfig();
    cfg.warmupInsts = 0;
    Simulator sim = makeSim(cfg, streamingKernel(), 2000);
    while (!sim.allDone())
        sim.step();
    const RunResult r = sim.snapshot();
    EXPECT_EQ(r.ap.count(SlotUse::Useful) + r.ep.count(SlotUse::Useful),
              sim.totalGraduated());
}

TEST(Simulator, PureComputeNeverTouchesMemory)
{
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, computeKernel());
    const RunResult r = sim.run(20000);
    EXPECT_EQ(r.loadMissRatio, 0.0);
    EXPECT_EQ(r.busUtilization, 0.0);
    EXPECT_EQ(r.fpMisses + r.intMisses, 0u);
    EXPECT_GT(r.ipc, 0.5);
}

TEST(Simulator, ComputeKernelBoundByEpLatency)
{
    // computeKernel's FP ops form a dependence chain through x, so the
    // EP recurrence (latency 4) bounds the iteration period.
    SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, computeKernel());
    const RunResult r = sim.run(20000);
    // 5 body ops + back-edge = 6 instructions per >= 8-cycle recurrence
    // (two chained FP ops): IPC must sit below 6/8.
    EXPECT_LT(r.ipc, 0.80);
    // And the dominant EP waste must be FU-latency waits, as the paper
    // observes for a single thread.
    EXPECT_GT(r.ep.fraction(SlotUse::WaitFu), 0.3);
}

TEST(Simulator, LoadsCompleteAfterL2Latency)
{
    // With an L2 latency of 64, a single-load kernel cannot run faster
    // than one iteration per miss latency when every load misses and is
    // immediately consumed.
    SimConfig cfg = testConfig(1, true, 64);
    cfg.mshrs = 16;
    Simulator sim = makeSim(cfg, intChaseKernel(32 * 1024 * 1024));
    const RunResult r = sim.run(5000);
    // Perceived latency of those misses is (nearly) the full miss time.
    EXPECT_GT(r.perceivedInt, 50.0);
    EXPECT_LT(r.perceivedInt, 70.0);
}

TEST(Simulator, WarmupResetsMeasurement)
{
    SimConfig cfg = testConfig();
    cfg.warmupInsts = 5000;
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(10000);
    EXPECT_GE(sim.totalGraduated(), 15000u);
    EXPECT_LT(r.insts, sim.totalGraduated());
    EXPECT_GE(r.insts, 10000u);
}

TEST(Simulator, SnapshotIpcConsistent)
{
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(30000);
    EXPECT_NEAR(r.ipc, double(r.insts) / double(r.cycles), 1e-12);
}

TEST(Simulator, RequiresOneSourcePerThread)
{
    SimConfig cfg = testConfig(2);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<KernelTraceSource>(
        streamingKernel(), 0, 0x1000, 1));
    EXPECT_DEATH(Simulator(cfg, std::move(sources)), "one trace source");
}

TEST(Simulator, StoreDataArrivesFromTheEp)
{
    // An FP store whose data comes from a long FP chain must graduate
    // after the chain completes — and must not corrupt SAQ ordering.
    KernelBuilder b;
    auto s = b.strided(1 << 20, 8);
    const int x = b.ldf(s);
    const int y = b.fop(Opcode::FMul, x, x);
    const int z = b.fop(Opcode::FMul, y, y);
    b.stf(s, z);
    b.advance(s);
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, b.build("fpstore"), 5000);
    while (!sim.allDone())
        sim.step();
    EXPECT_EQ(sim.totalGraduated(), 7u * 5000);
}

TEST(Simulator, SaqForwardingServesLoadAfterStore)
{
    // Store then load the same address each iteration: the load must
    // forward from the SAQ, never missing in the cache.
    KernelBuilder b;
    auto s = b.strided(64, 8);  // 8 elements, revisited constantly
    const int i = b.intReg();
    b.iopInto(Opcode::IAdd, i, i);
    b.sti(s, i);
    auto s2 = b.stridedShared(64, 8, s.addrReg);
    // The paired load walks the same addresses one access behind.
    const int v = b.ldi(s2);
    b.iopInto(Opcode::ILogic, v, v, i);
    b.advance(s);
    const SimConfig cfg = testConfig(1, true, 256);
    Simulator sim = makeSim(cfg, b.build("fwd"), 3000);
    const RunResult r = sim.run(10000);
    // The footprint is one cache line: after the cold miss everything
    // hits or forwards; perceived latency collapses.
    EXPECT_LT(r.perceivedInt, 1.0);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Simulator, MispredictsGateFetchAndCostCycles)
{
    // A 50/50 data-dependent branch is unpredictable; the same kernel
    // with an always-taken branch is nearly free.
    auto make = [](float prob) {
        KernelBuilder b;
        const int c = b.intReg();
        b.iopInto(Opcode::ICmp, c, c);
        b.br(c, prob, 0);
        const int x = b.intReg();
        for (int i = 0; i < 6; ++i)
            b.iopInto(Opcode::IAdd, x, x);
        return b.build("br");
    };
    const SimConfig cfg = testConfig();
    Simulator predictable = makeSim(cfg, make(1.0f));
    Simulator random = makeSim(cfg, make(0.5f));
    const RunResult rp = predictable.run(30000);
    const RunResult rr = random.run(30000);
    EXPECT_LT(rp.mispredictRate, 0.02);
    // Half the conditional branches are the (predictable) back-edges,
    // so a 50/50 hammock yields ~25% overall.
    EXPECT_GT(rr.mispredictRate, 0.18);
    EXPECT_GT(rp.ipc, rr.ipc * 1.15);
    // Gated fetch shows up as idle/wrong-path issue slots.
    EXPECT_GT(rr.ap.fraction(SlotUse::Idle),
              rp.ap.fraction(SlotUse::Idle));
}

TEST(Simulator, UnresolvedBranchLimitThrottlesTightLoops)
{
    // A loop body far shorter than the fetch width: with only 4
    // unresolved branches allowed, fetch cannot run arbitrarily ahead.
    KernelBuilder b;
    const int x = b.intReg();
    b.iopInto(Opcode::IAdd, x, x);
    const Kernel k = b.build("tight");  // 3 instructions incl. back-edge
    SimConfig strict = testConfig();
    strict.maxUnresolvedBranches = 1;
    SimConfig loose = testConfig();
    loose.maxUnresolvedBranches = 16;
    Simulator s1 = makeSim(strict, k);
    Simulator s2 = makeSim(loose, k);
    EXPECT_LT(s1.run(20000).ipc, s2.run(20000).ipc);
}

TEST(Simulator, RegisterPressureStallsDispatchNotCorrectness)
{
    SimConfig cfg = testConfig();
    cfg.epPhysRegs = 34;  // almost no rename headroom
    Simulator sim = makeSim(cfg, streamingKernel(), 2000);
    while (!sim.allDone())
        sim.step();
    EXPECT_EQ(sim.totalGraduated(),
              streamingKernel().ops.size() * 2000);
}

TEST(Simulator, TinyQueuesStillDrainCorrectly)
{
    SimConfig cfg = testConfig();
    cfg.iqEntries = 1;
    cfg.apQueueEntries = 1;
    cfg.saqEntries = 1;
    cfg.robEntries = 4;
    cfg.fetchBufferSize = 2;
    Simulator sim = makeSim(cfg, streamingKernel(), 500);
    while (!sim.allDone())
        sim.step();
    EXPECT_EQ(sim.totalGraduated(), streamingKernel().ops.size() * 500);
}
