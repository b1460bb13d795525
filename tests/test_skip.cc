/**
 * @file
 * The idle-cycle fast-forward engine (Simulator::trySkipIdle): the
 * skip-vs-step byte-identity contract. Running with --cycle-skip=on
 * must produce exactly the same results, serialized state and CSV
 * bytes as stepping every cycle — across every fetch x issue policy
 * pair, both memory backends, built-in and DSL kernels, and
 * checkpoints taken at any cycle — while the skip counters themselves
 * stay observability-only. Plus the never-under-report contract of
 * MemorySystem::nextEventCycle(): no hierarchy state change may land
 * strictly inside a reported quiet interval.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/snapshot.hh"
#include "harness/cli.hh"
#include "memory/memory_system.hh"
#include "policy/policy.hh"
#include "test_util.hh"
#include "workload/dsl/interp.hh"

namespace mtdae {
namespace {

using test::intChaseKernel;
using test::makeSim;
using test::streamingKernel;
using test::testConfig;

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kDrainCap = 400000;

/** The matrix machine: 2 threads, moderate latency so spans form. */
SimConfig
skipCfg(bool perfect_l2, PolicyKind fetch, PolicyKind issue)
{
    SimConfig cfg = testConfig(2, true, 64);
    cfg.fetchPolicy = fetch;
    cfg.issuePolicy = issue;
    cfg.perfectL2 = perfect_l2;
    if (!perfect_l2)
        cfg.l2Bytes = 64 * 1024;  // small finite L2 + DRAM: real misses
    // Run everything through runWarmup() so the skip-enabled run loop
    // drives the whole execution without a statistics reset in the
    // middle (the serialized interval counters then stay comparable).
    cfg.warmupInsts = std::uint64_t(1) << 40;
    return cfg;
}

/** Drain @p sim through the skip-aware run loop; ASSERTs completion. */
void
drain(Simulator &sim)
{
    sim.runWarmup(kDrainCap);
    ASSERT_TRUE(sim.allDone()) << "simulation did not drain";
}

/** Step @p sim to completion one cycle at a time (never skips). */
void
stepToCompletion(Simulator &sim)
{
    for (std::uint64_t guard = 0; !sim.allDone(); ++guard) {
        ASSERT_LT(guard, kDrainCap) << "simulation did not drain";
        sim.step();
    }
}

struct MatrixCase
{
    PolicyKind fetch;
    PolicyKind issue;
    bool perfectL2;
};

std::string
matrixName(const ::testing::TestParamInfo<MatrixCase> &info)
{
    std::string n = std::string(policyName(info.param.fetch)) + "_" +
                    policyName(info.param.issue) + "_" +
                    (info.param.perfectL2 ? "perfectL2" : "finiteL2");
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

std::vector<MatrixCase>
matrixCases()
{
    std::vector<MatrixCase> cases;
    for (const PolicyKind fp : fetchPolicies())
        for (const PolicyKind ip : issuePolicies())
            for (const bool perfect : {true, false})
                cases.push_back({fp, ip, perfect});
    return cases;
}

class SkipMatrix : public ::testing::TestWithParam<MatrixCase>
{};

/**
 * The headline assertion, for one configuration and kernel: a full
 * skip-on execution lands on exactly the serialized state (every
 * statistic, queue, rotation and memory structure included) of the
 * skip-off execution, at the same cycle.
 */
void
expectSkipEquivalence(SimConfig cfg, const Kernel &kernel,
                      std::uint64_t iters)
{
    cfg.cycleSkip = false;
    Simulator off = makeSim(cfg, kernel, iters);
    drain(off);

    cfg.cycleSkip = true;
    Simulator on = makeSim(cfg, kernel, iters);
    drain(on);

    EXPECT_EQ(on.now(), off.now()) << "cycle count diverged";
    EXPECT_EQ(on.totalGraduated(), off.totalGraduated());
    EXPECT_EQ(on.saveSnapshot().toBytes(), off.saveSnapshot().toBytes())
        << "skip-on execution drifted from stepping";
    EXPECT_EQ(off.snapshot().cyclesSkipped, 0u);
    EXPECT_EQ(off.snapshot().skipEvents, 0u);
}

TEST_P(SkipMatrix, SkipOnEqualsSkipOffByteForByte)
{
    const MatrixCase &p = GetParam();
    expectSkipEquivalence(skipCfg(p.perfectL2, p.fetch, p.issue),
                          streamingKernel(), 150);
}

INSTANTIATE_TEST_SUITE_P(AllPolicyPairsAndBackends, SkipMatrix,
                         ::testing::ValuesIn(matrixCases()), matrixName);

TEST(SkipDsl, DslKernelsSkipIdenticallyOnBothBackends)
{
    const Kernel k = dsl::compileKernel(dsl::readKernelFile(
        std::string(MTDAE_SOURCE_DIR) +
        "/examples/kernels/pointer_chase.mk"));
    for (const bool perfect : {true, false})
        expectSkipEquivalence(skipCfg(perfect, PolicyKind::Icount,
                                      PolicyKind::RoundRobin),
                              k, 150);
}

// --- Checkpoints across the skip boundary ------------------------------

/**
 * cycleSkip is an execution strategy, not a machine parameter: a
 * checkpoint stepped out cycle by cycle must restore into a skip-on
 * simulator (and vice versa — the fingerprint ignores the knob), and
 * the fast-forwarded continuation must land on the stepped run's
 * final state byte for byte, from a checkpoint at any cycle.
 */
TEST(SkipCheckpoint, SteppedCheckpointsContinueIdenticallyUnderSkip)
{
    for (const bool perfect : {true, false}) {
        SimConfig cfg = skipCfg(perfect, PolicyKind::Icount,
                                PolicyKind::RoundRobin);
        cfg.cycleSkip = false;
        Simulator ref = makeSim(cfg, streamingKernel(), 150);
        stepToCompletion(ref);
        const std::uint64_t last = ref.now();
        const Bytes ref_final = ref.saveSnapshot().toBytes();
        ASSERT_GT(last, 2u);

        for (const std::uint64_t cycle :
             {std::uint64_t(0), last / 2, last}) {
            Simulator a = makeSim(cfg, streamingKernel(), 150);
            for (std::uint64_t c = 0; c < cycle; ++c)
                a.step();
            const Snapshot snap = a.saveSnapshot();

            SimConfig on_cfg = cfg;
            on_cfg.cycleSkip = true;
            Simulator b = makeSim(on_cfg, streamingKernel(), 150);
            ASSERT_NO_THROW(b.restoreSnapshot(snap))
                << "cycleSkip perturbed the config fingerprint";
            drain(b);
            EXPECT_EQ(b.now(), last)
                << "cycle count diverged from checkpoint at " << cycle;
            EXPECT_EQ(b.saveSnapshot().toBytes(), ref_final)
                << "skip-on continuation diverged (checkpoint at cycle "
                << cycle << ", " << (perfect ? "perfect" : "finite")
                << " L2)";
        }
    }
}

TEST(SkipCheckpoint, FingerprintIgnoresCycleSkip)
{
    SimConfig on = testConfig(2);
    SimConfig off = testConfig(2);
    on.cycleSkip = true;
    off.cycleSkip = false;
    EXPECT_EQ(configFingerprint(on), configFingerprint(off));
}

// --- The completion calendar's ring edges ------------------------------

TEST(SkipCalendar, RingEdgeLatenciesSkipIdentically)
{
    // Perfect-L2 fills land l2Latency + the line transfer after issue:
    // the first latency below is the farthest that still fits the
    // calendar's ring, the next the nearest that spills into its
    // overflow heap, and the rest (up to ten ring lengths) spill from
    // there on. Every run must end in the same result and state with
    // cycle skip on and off, and run many ring lengths, so each slot
    // is reused across the wrap.
    constexpr std::uint32_t ring = Simulator::kCalendarSlots;
    const std::uint32_t transfer = testConfig().lineTransferCycles();
    for (const std::uint32_t lat :
         {ring - transfer - 1, ring - transfer, ring - 1, ring, ring + 1,
          10 * ring}) {
        const std::string what = "l2Latency=" + std::to_string(lat);
        SimConfig cfg = testConfig(2, true, lat);
        cfg.warmupInsts = 200;

        // Oracle, stepping: every instruction completes in exactly its
        // due cycle, never a ring length early or a cycle late.
        Simulator stepped = makeSim(cfg, streamingKernel(), 200);
        for (std::uint32_t c = 0; c < 20 * ring && !stepped.allDone();
             ++c) {
            stepped.step();
            for (ThreadId t = 0; t < cfg.numThreads; ++t)
                for (const DynInst &di : stepped.context(t).rob) {
                    if (di.state == InstState::Issued) {
                        ASSERT_GE(di.readyAt, stepped.now()) << what;
                    }
                    if (di.state == InstState::Completed &&
                        di.readyAt != kNoCycle) {
                        ASSERT_LT(di.readyAt, stepped.now()) << what;
                    }
                }
        }
        RunResult result[2];
        Bytes state[2];
        for (const bool skip : {false, true}) {
            cfg.cycleSkip = skip;
            Simulator sim = makeSim(cfg, streamingKernel(), 1000);
            result[skip] = sim.run(3000, std::uint64_t(1) << 24);
            EXPECT_GE(result[skip].insts, 3000u) << what;
            EXPECT_GT(sim.now(), 8u * ring) << what;
            state[skip] = sim.saveSnapshot().toBytes();
        }
        test::expectSameResult(result[false], result[true], what);
        EXPECT_EQ(state[false], state[true]) << what;
        EXPECT_GT(result[true].cyclesSkipped, 0u) << what;
    }
}

// --- Observability ------------------------------------------------------

TEST(SkipCounters, HighLatencyStallsAreActuallySkipped)
{
    // A single-thread *dependent* pointer chase (each load's address is
    // the previous load's data) at L2=256 spends most of its life
    // quiescent: the engine must fast-forward a significant share of
    // the cycles, and report it. Strided kernels do not qualify — their
    // ready-but-rejected loads retry (and count a reject) every cycle,
    // which correctly breaks quiescence.
    const Kernel k = dsl::compileKernel(dsl::readKernelFile(
        std::string(MTDAE_SOURCE_DIR) +
        "/examples/kernels/pointer_chase.mk"));
    SimConfig cfg = testConfig(1, true, 256);
    cfg.warmupInsts = 500;
    Simulator sim = makeSim(cfg, k, 4000);
    const RunResult r = sim.run(2000, kDrainCap);
    EXPECT_GT(r.skipEvents, 0u);
    EXPECT_GT(r.cyclesSkipped, r.cycles / 4)
        << "fast-forward barely engaged on a memory-bound workload";
    EXPECT_LE(r.cyclesSkipped, r.cycles);
}

TEST(SkipCounters, SkipOffReportsZero)
{
    SimConfig cfg = testConfig(1, true, 256);
    cfg.cycleSkip = false;
    cfg.warmupInsts = 500;
    Simulator sim = makeSim(cfg, intChaseKernel(), 400);
    const RunResult r = sim.run(2000, kDrainCap);
    EXPECT_EQ(r.cyclesSkipped, 0u);
    EXPECT_EQ(r.skipEvents, 0u);
}

// --- MemorySystem::nextEventCycle: never under-report -------------------

TEST(SkipWake, MemoryNextEventCycleNeverUnderReports)
{
    // Load up the hierarchy with in-flight fills, then walk it forward
    // cycle by cycle with no new accesses: between a cycle and the
    // wake it reports, no fill may land (mshrsInUse must not change).
    for (const bool perfect : {true, false}) {
        SimConfig cfg = testConfig(1);
        cfg.perfectL2 = perfect;
        cfg.l2Latency = 48;
        if (!perfect)
            cfg.l2Bytes = 64 * 1024;
        MemorySystem mem(cfg);

        Cycle c = 0;
        for (; c < 4; ++c) {
            mem.beginCycle(c);
            for (std::uint32_t p = 0; p < cfg.l1Ports; ++p)
                mem.load(Addr((c * cfg.l1Ports + p) * 4096), c);
        }
        ASSERT_GT(mem.mshrsInUse(), 0u);

        std::uint64_t guard = 0;
        while (mem.mshrsInUse() > 0) {
            ASSERT_LT(++guard, 10000u) << "fills never drained";
            const Cycle next = mem.nextEventCycle(c - 1);
            ASSERT_NE(next, kNoCycle) << "in-flight fills but no event";
            ASSERT_GT(next, c - 1);
            const std::uint32_t in_use = mem.mshrsInUse();
            // Strictly inside the reported quiet interval: frozen.
            for (; c < next; ++c) {
                mem.beginCycle(c);
                ASSERT_EQ(mem.mshrsInUse(), in_use)
                    << "fill landed at cycle " << c
                    << " inside the quiet interval ending at " << next;
            }
            mem.beginCycle(c);  // the reported wake cycle
            ++c;
        }
    }
}

// --- CLI: CSV byte-identity and the skip columns ------------------------

TEST(SkipCli, Fig4CsvIsByteIdenticalAcrossCycleSkip)
{
    // The figure CSVs carry no skip counters, so the whole file must
    // not change by a byte when the engine is disabled.
    const std::string on_dir = ::testing::TempDir() + "mtdae_skip_on";
    const std::string off_dir = ::testing::TempDir() + "mtdae_skip_off";
    const std::vector<std::string> common = {
        "fig4", "--threads-list=1,2", "--latencies=16,128",
        "--insts=1500", "--warmup-insts=500", "--quiet"};
    std::vector<std::string> on = common, off = common;
    on.insert(on.end(), {"--cycle-skip=on", "--out=" + on_dir});
    off.insert(off.end(), {"--cycle-skip=off", "--out=" + off_dir});
    std::string out;
    ASSERT_EQ(test::cli(on, out), 0);
    ASSERT_EQ(test::cli(off, out), 0);
    const std::string a = test::slurp(on_dir + "/fig4.csv");
    const std::string b = test::slurp(off_dir + "/fig4.csv");
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "--cycle-skip changed the simulated results";
}

TEST(SkipCli, AblateQosCsvIsByteIdenticalAcrossCycleSkip)
{
    // The adaptive gate is the one policy whose fetch veto reads a
    // trailing window, so its stability hook (Policy::vetoStable)
    // is what keeps idle fast-forward sound on this grid — run the
    // full QoS experiment (weights x policy pairs, adaptive included)
    // with the engine on and off and demand identical CSV bytes.
    const std::string on_dir = ::testing::TempDir() + "mtdae_qos_skip_on";
    const std::string off_dir = ::testing::TempDir() + "mtdae_qos_skip_off";
    const std::vector<std::string> common = {
        "ablate-qos", "--insts=1200", "--warmup=300", "--quiet"};
    std::vector<std::string> on = common, off = common;
    on.insert(on.end(), {"--cycle-skip=on", "--out=" + on_dir});
    off.insert(off.end(), {"--cycle-skip=off", "--out=" + off_dir});
    std::string out;
    ASSERT_EQ(test::cli(on, out), 0);
    ASSERT_EQ(test::cli(off, out), 0);
    const std::string a = test::slurp(on_dir + "/ablate_qos.csv");
    const std::string b = test::slurp(off_dir + "/ablate_qos.csv");
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "--cycle-skip changed the QoS grid results";
}

TEST(SkipCli, RunCsvCarriesTheSkipColumns)
{
    const std::string dir = ::testing::TempDir() + "mtdae_skip_cols";
    std::string out;
    ASSERT_EQ(test::cli({"run", "--bench=dsl",
                   "--kernel-file=" + std::string(MTDAE_SOURCE_DIR) +
                       "/examples/kernels/pointer_chase.mk",
                   "--latencies=256", "--insts=1500",
                   "--warmup-insts=500", "--quiet", "--out=" + dir},
                  out),
              0);
    const std::string csv = test::slurp(dir + "/run.csv");
    ASSERT_NE(csv.find("cycles_skipped"), std::string::npos);
    ASSERT_NE(csv.find("skip_events"), std::string::npos);
    // Header line + one data row; the skip counters are the last two
    // columns — with skip on (the default) at L2=256 they engage.
    const std::size_t nl = csv.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::string row = csv.substr(nl + 1);
    const std::size_t last_comma = row.rfind(',');
    const std::size_t prev_comma = row.rfind(',', last_comma - 1);
    ASSERT_NE(prev_comma, std::string::npos);
    const std::string skipped =
        row.substr(prev_comma + 1, last_comma - prev_comma - 1);
    EXPECT_NE(skipped, "0") << "no cycles skipped at L2=256";
}

} // namespace
} // namespace mtdae
