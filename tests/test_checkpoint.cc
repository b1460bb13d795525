/**
 * @file
 * The checkpoint/warm-start engine (src/core/snapshot.hh): the
 * byte-identity contract. A simulation snapshot-restored at an
 * arbitrary cycle must be byte-identical — same snapshot bytes, same
 * final state, same statistics — to the uninterrupted run, across
 * both memory backends, every fetch x issue policy pair (including
 * the flush gating policy with a non-empty replay queue), any worker
 * count, and the versioned serialized container must reject corrupt
 * or mismatched input instead of restoring garbage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "core/snapshot.hh"
#include "harness/cli.hh"
#include "harness/sweep.hh"
#include "policy/policy.hh"
#include "test_util.hh"
#include "workload/dsl/interp.hh"

namespace mtdae {
namespace {

using test::expectSameResult;
using test::makeSim;
using test::streamingKernel;
using test::testConfig;

using Bytes = std::vector<std::uint8_t>;

/** Step @p sim to completion; ASSERTs it drains within a cycle cap. */
void
runToCompletion(Simulator &sim)
{
    for (std::uint64_t guard = 0; !sim.allDone(); ++guard) {
        ASSERT_LT(guard, 400000u) << "simulation did not drain";
        sim.step();
    }
}

/** The two machines the round-trip matrix crosses the policies with. */
SimConfig
backendCfg(bool perfect_l2, PolicyKind fetch, PolicyKind issue)
{
    SimConfig cfg = testConfig(2);
    cfg.fetchPolicy = fetch;
    cfg.issuePolicy = issue;
    cfg.perfectL2 = perfect_l2;
    if (!perfect_l2)
        cfg.l2Bytes = 64 * 1024;  // small finite L2 + DRAM: real misses
    return cfg;
}

/**
 * The headline assertion, for one configuration: capture the
 * uninterrupted run's snapshots at the checkpoint cycles {0, 1, mid,
 * last} plus its final state, then for each checkpoint restore into a
 * fresh simulator and prove (a) save-after-restore reproduces the
 * checkpoint bytes and (b) running the restored simulator to
 * completion reproduces the uninterrupted final state, byte for byte.
 */
void
expectRestoreEquivalence(const SimConfig &cfg,
                         const Kernel &kernel = streamingKernel())
{
    const std::uint64_t iters = 150;

    // Uninterrupted reference run, counting cycles.
    Simulator ref = makeSim(cfg, kernel, iters);
    runToCompletion(ref);
    const std::uint64_t last = ref.now();
    const Bytes ref_final = ref.saveSnapshot().toBytes();
    ASSERT_GT(last, 2u);

    for (const std::uint64_t cycle :
         {std::uint64_t(0), std::uint64_t(1), last / 2, last}) {
        // Re-run to the checkpoint cycle and snapshot there.
        Simulator a = makeSim(cfg, kernel, iters);
        for (std::uint64_t c = 0; c < cycle; ++c)
            a.step();
        const Snapshot snap = a.saveSnapshot();

        // Restore into a fresh simulator: its state must serialize
        // back to the very same bytes...
        Simulator b = makeSim(cfg, kernel, iters);
        b.restoreSnapshot(snap);
        EXPECT_EQ(b.saveSnapshot().toBytes(), snap.toBytes())
            << "save-after-restore drifted at cycle " << cycle;

        // ...and running it out must land on the reference final
        // state, byte for byte (statistics counters included).
        runToCompletion(b);
        EXPECT_EQ(b.now(), last) << "cycle count diverged from " << cycle;
        EXPECT_EQ(b.saveSnapshot().toBytes(), ref_final)
            << "restored run diverged from the uninterrupted run "
            << "(checkpoint at cycle " << cycle << ")";
        EXPECT_EQ(b.totalGraduated(), ref.totalGraduated());
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

class CheckpointMatrix : public ::testing::TestWithParam<MatrixCase>
{};

TEST_P(CheckpointMatrix, RestoreAtAnyCycleIsByteIdentical)
{
    const MatrixCase &p = GetParam();
    expectRestoreEquivalence(backendCfg(p.perfectL2, p.fetch, p.issue));
}

INSTANTIATE_TEST_SUITE_P(AllPolicyPairsAndBackends, CheckpointMatrix,
                         ::testing::ValuesIn(matrixCases()), matrixName);

TEST(CheckpointState, FlushPolicyWithNonEmptyReplayQueue)
{
    // The flush gating policy squashes fetch buffers into the replay
    // queue — per-context state that only exists mid-flight. Drive the
    // machine until a replay queue is non-empty, checkpoint *there*,
    // and require the round trip to hold.
    SimConfig cfg = backendCfg(false, PolicyKind::Flush,
                               PolicyKind::RoundRobin);
    cfg.l1Bytes = 1024;  // tiny L1: the gate engages constantly
    const std::uint64_t iters = 400;

    Simulator a = makeSim(cfg, streamingKernel(), iters);
    bool found = false;
    for (std::uint64_t c = 0; c < 200000 && !a.allDone(); ++c) {
        a.step();
        for (ThreadId t = 0; t < cfg.numThreads; ++t)
            if (!a.context(t).replayQ.empty())
                found = true;
        if (found)
            break;
    }
    ASSERT_TRUE(found) << "flush gating never populated a replay queue";

    const Snapshot snap = a.saveSnapshot();
    Simulator b = makeSim(cfg, streamingKernel(), iters);
    b.restoreSnapshot(snap);
    EXPECT_EQ(b.saveSnapshot().toBytes(), snap.toBytes());

    runToCompletion(a);
    runToCompletion(b);
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.saveSnapshot().toBytes(), b.saveSnapshot().toBytes());
}

TEST(CheckpointCalendar, RingAndOverflowPendingTogetherRoundTrip)
{
    // At an L2 latency of ten ring lengths, load fills wait in the
    // completion calendar's overflow heap while functional-unit
    // results wait in its ring. A snapshot taken with both pending
    // must restore to the same bytes and resume identically: the
    // restore files each Issued ROB entry back into the calendar.
    constexpr std::uint32_t ring = Simulator::kCalendarSlots;
    SimConfig cfg = testConfig(2, true, 10 * ring);
    cfg.warmupInsts = 0;
    const std::uint64_t iters = 60;
    const auto straddles = [&](const Simulator &sim) {
        bool near = false, far = false;
        for (ThreadId t = 0; t < cfg.numThreads; ++t)
            for (const DynInst &di : sim.context(t).rob)
                if (di.state == InstState::Issued)
                    (di.readyAt < sim.now() + ring ? near : far) = true;
        return near && far;
    };

    Simulator a = makeSim(cfg, streamingKernel(), iters);
    while (!straddles(a)) {
        ASSERT_FALSE(a.allDone()) << "ring and overflow never both held";
        a.step();
    }
    const Snapshot snap = a.saveSnapshot();
    Simulator b = makeSim(cfg, streamingKernel(), iters);
    b.restoreSnapshot(snap);
    EXPECT_EQ(b.saveSnapshot().toBytes(), snap.toBytes());

    runToCompletion(a);
    runToCompletion(b);
    EXPECT_GT(a.now(), 2u * 10 * ring);
    EXPECT_EQ(b.now(), a.now());
    EXPECT_EQ(b.totalGraduated(), a.totalGraduated());
    EXPECT_EQ(b.saveSnapshot().toBytes(), a.saveSnapshot().toBytes());
}

// --- The versioned container -------------------------------------------

TEST(SnapshotContainer, RoundTripIsByteStable)
{
    Simulator sim = makeSim(testConfig(2), streamingKernel(), 50);
    for (int c = 0; c < 100; ++c)
        sim.step();
    const Snapshot snap = sim.saveSnapshot();
    const Bytes bytes = snap.toBytes();
    const Snapshot back = Snapshot::fromBytes(bytes);
    EXPECT_EQ(back.configHash, snap.configHash);
    EXPECT_EQ(back.payload, snap.payload);
    EXPECT_EQ(back.toBytes(), bytes);
}

TEST(SnapshotContainer, RejectsCorruptInput)
{
    Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
    for (int c = 0; c < 50; ++c)
        sim.step();
    const Bytes good = sim.saveSnapshot().toBytes();

    Bytes bad_magic = good;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(Snapshot::fromBytes(bad_magic), SnapshotError);

    // Version-mismatch rejection: a future (unknown) format version
    // must be refused, never half-parsed.
    Bytes bad_version = good;
    bad_version[4] += 1;
    EXPECT_THROW(Snapshot::fromBytes(bad_version), SnapshotError);

    Bytes truncated = good;
    truncated.resize(truncated.size() / 2);
    EXPECT_THROW(Snapshot::fromBytes(truncated), SnapshotError);

    Bytes trailing = good;
    trailing.push_back(0);
    EXPECT_THROW(Snapshot::fromBytes(trailing), SnapshotError);

    Bytes bad_payload = good;
    bad_payload[24] ^= 0x55;  // first payload byte: checksum must trip
    EXPECT_THROW(Snapshot::fromBytes(bad_payload), SnapshotError);

    EXPECT_THROW(Snapshot::fromBytes(Bytes{}), SnapshotError);
}

TEST(SnapshotContainer, RejectsConfigMismatch)
{
    Simulator a = makeSim(testConfig(2), streamingKernel(), 20);
    const Snapshot snap = a.saveSnapshot();

    SimConfig other = testConfig(2);
    other.l2Latency = 64;
    Simulator b = makeSim(other, streamingKernel(), 20);
    EXPECT_THROW(b.restoreSnapshot(snap), SnapshotError);

    // Same config: accepted.
    Simulator c = makeSim(testConfig(2), streamingKernel(), 20);
    EXPECT_NO_THROW(c.restoreSnapshot(snap));
}

TEST(SnapshotContainer, ConfigFingerprintSeparatesConfigs)
{
    const SimConfig base = testConfig(2);
    SimConfig seed = base;
    seed.seed += 1;
    SimConfig warm = base;
    warm.warmupInsts += 1;
    EXPECT_EQ(configFingerprint(base), configFingerprint(testConfig(2)));
    EXPECT_NE(configFingerprint(base), configFingerprint(seed));
    EXPECT_NE(configFingerprint(base), configFingerprint(warm));
}

// --- Warm-start prefix sharing in the sweep engine ---------------------

/** A grid whose points share warmup prefixes within seed-stream groups. */
SweepSpec
sharedPrefixSpec()
{
    SweepSpec spec;
    std::uint64_t stream = 0;
    for (const std::uint32_t n : {1u, 2u}) {
        SimConfig cfg = testConfig(n);
        cfg.warmupInsts = 1500;
        for (const std::uint64_t mult : {1u, 2u, 3u})
            spec.addSuiteMix(cfg, 1000 * n * mult, "", stream);
        ++stream;
    }
    return spec;
}

TEST(WarmStartSweep, PrefixKeyGroupsExactlyTheSharedPoints)
{
    const SweepSpec spec = sharedPrefixSpec();
    const auto &jobs = spec.jobs();
    ASSERT_EQ(jobs.size(), 6u);
    // Same group <=> same thread count here.
    EXPECT_EQ(jobs[0].prefixKey(), jobs[1].prefixKey());
    EXPECT_EQ(jobs[0].prefixKey(), jobs[2].prefixKey());
    EXPECT_EQ(jobs[3].prefixKey(), jobs[4].prefixKey());
    EXPECT_EQ(jobs[3].prefixKey(), jobs[5].prefixKey());
    EXPECT_NE(jobs[0].prefixKey(), jobs[3].prefixKey());
    // The measure budget is *not* part of the prefix.
    EXPECT_NE(jobs[0].measureInsts, jobs[1].measureInsts);
}

TEST(WarmStartSweep, RunEqualsWarmupPlusMeasure)
{
    const SweepSpec spec = sharedPrefixSpec();
    const SimJob &job = spec.jobs()[1];
    const RunResult cold = job.run();
    const RunResult warm = job.runMeasured(job.runWarmup());
    expectSameResult(cold, warm, "run() vs runWarmup()+runMeasured()");
}

TEST(WarmStartSweep, AllJobCountsAndModesAreIdentical)
{
    // The acceptance bar: cold/warm x serial/parallel, all four ways,
    // exactly equal in every result field.
    const SweepSpec spec = sharedPrefixSpec();
    const auto cold1 = JobRunner(1, false).run(spec);
    const auto cold8 = JobRunner(8, false).run(spec);
    const auto warm1 = JobRunner(1, true).run(spec);
    const auto warm8 = JobRunner(8, true).run(spec);
    ASSERT_EQ(cold1.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const std::string what = "job " + std::to_string(i);
        expectSameResult(cold1[i], cold8[i], what + " cold1 vs cold8");
        expectSameResult(cold1[i], warm1[i], what + " cold1 vs warm1");
        expectSameResult(cold1[i], warm8[i], what + " cold1 vs warm8");
    }
}

// --- CLI: the golden figures, warm-started -----------------------------

TEST(CheckpointGolden, WarmStartedFiguresReproduceGoldenCsvs)
{
    // tests/golden/*.csv predate the checkpoint engine. Rerunning the
    // same figures through the warm-start path (and the --warmup-insts
    // spelling) must reproduce them byte for byte.
    const std::string out_dir = ::testing::TempDir() + "mtdae_ckpt_golden";

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        experiments = {
            {"fig1",
             {"fig1", "--bench=tomcatv,swim", "--latencies=1,16,64"}},
            {"fig3", {"fig3", "--threads-list=1,2,4"}},
            {"fig4",
             {"fig4", "--threads-list=1,2", "--latencies=1,16,64"}},
            {"fig5",
             {"fig5", "--threads-list=1,2,4", "--latencies=16,64"}},
        };
    for (const auto &[name, base] : experiments) {
        std::vector<std::string> args = base;
        args.insert(args.end(),
                    {"--insts=2000", "--warmup-insts=500",
                     "--warm-start=1", "--quiet", "--out=" + out_dir});
        std::string out;
        ASSERT_EQ(test::cli(args, out), 0) << name;
        const std::string got = test::slurp(out_dir + "/" + name + ".csv");
        const std::string want = test::slurp(std::string(MTDAE_SOURCE_DIR) +
                                       "/tests/golden/" + name + ".csv");
        ASSERT_FALSE(want.empty()) << name;
        EXPECT_EQ(got, want)
            << name << ": warm-started output drifted from the golden "
            << "pre-checkpoint simulator";
    }
}

TEST(CheckpointGolden, AblateCheckpointWarmAndColdAreByteIdentical)
{
    const std::string warm_dir = ::testing::TempDir() + "mtdae_ckpt_warm";
    const std::string cold_dir = ::testing::TempDir() + "mtdae_ckpt_cold";
    const std::vector<std::string> common = {
        "ablate-checkpoint", "--insts=800",  "--warmup-insts=2000",
        "--threads-list=1,2", "--quiet"};
    std::vector<std::string> warm = common, cold = common;
    warm.insert(warm.end(), {"--warm-start=1", "--jobs=4",
                             "--out=" + warm_dir});
    cold.insert(cold.end(), {"--warm-start=0", "--jobs=1",
                             "--out=" + cold_dir});
    std::string out;
    ASSERT_EQ(test::cli(warm, out), 0);
    ASSERT_EQ(test::cli(cold, out), 0);
    const std::string w = test::slurp(warm_dir + "/ablate_checkpoint.csv");
    const std::string c = test::slurp(cold_dir + "/ablate_checkpoint.csv");
    ASSERT_FALSE(w.empty());
    EXPECT_EQ(w, c);
}

TEST(CheckpointDsl, DslKernelsRestoreByteIdenticallyAtAnyCycle)
{
    // DSL-compiled kernels go through the same {0, 1, mid, last}
    // checkpoint matrix as the built-ins. pointer_chase exercises the
    // Chain stream's serialized walk offset; hash_join the
    // self-indexing gather.
    for (const char *name : {"pointer_chase", "hash_join"}) {
        const Kernel k = dsl::compileKernel(dsl::readKernelFile(
            std::string(MTDAE_SOURCE_DIR) + "/examples/kernels/" +
            name + ".mk"));
        for (const bool perfect : {true, false})
            expectRestoreEquivalence(
                backendCfg(perfect, PolicyKind::Icount,
                           PolicyKind::RoundRobin),
                k);
    }
}

TEST(CheckpointDsl, AblateDslWarmAndColdAreByteIdentical)
{
    // The DSL param grid through the sweep engine: warm-started
    // parallel execution must emit the same CSV bytes as a cold serial
    // run.
    const std::string warm_dir = ::testing::TempDir() + "mtdae_dsl_warm";
    const std::string cold_dir = ::testing::TempDir() + "mtdae_dsl_cold";
    const std::vector<std::string> common = {
        "ablate-dsl",
        "--kernel-file=" + std::string(MTDAE_SOURCE_DIR) +
            "/examples/kernels/pointer_chase.mk",
        "--kernel-param=footprint=64K,256K",
        "--insts=800",
        "--warmup-insts=1000",
        "--threads-list=1,2",
        "--quiet"};
    std::vector<std::string> warm = common, cold = common;
    warm.insert(warm.end(),
                {"--warm-start=1", "--jobs=8", "--out=" + warm_dir});
    cold.insert(cold.end(),
                {"--warm-start=0", "--jobs=1", "--out=" + cold_dir});
    std::string out;
    ASSERT_EQ(test::cli(warm, out), 0);
    ASSERT_EQ(test::cli(cold, out), 0);
    const std::string w = test::slurp(warm_dir + "/ablate_dsl.csv");
    const std::string c = test::slurp(cold_dir + "/ablate_dsl.csv");
    ASSERT_FALSE(w.empty());
    EXPECT_EQ(w, c);
}

TEST(CheckpointCli, WarmStartFlagParses)
{
    cli::Options opts;
    std::string error;
    ASSERT_TRUE(cli::parseArgs({"run", "--warm-start=0"}, opts, error))
        << error;
    EXPECT_FALSE(opts.warmStart);
    opts = {};
    ASSERT_TRUE(cli::parseArgs({"run", "--warm-start"}, opts, error))
        << error;
    EXPECT_TRUE(opts.warmStart);
    opts = {};
    EXPECT_TRUE(opts.warmStart);  // default on
    EXPECT_FALSE(cli::parseArgs({"run", "--warm-start=maybe"}, opts,
                                error));
}

} // namespace
} // namespace mtdae
