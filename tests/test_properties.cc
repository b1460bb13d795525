/**
 * @file
 * Property-based tests: randomly generated (but structurally valid)
 * kernels must run to completion on any machine configuration with all
 * conservation and accounting invariants intact.
 */

#include <fstream>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/snapshot.hh"
#include "tests/test_util.hh"
#include "workload/dsl/ast.hh"
#include "workload/dsl/interp.hh"
#include "workload/dsl/lexer.hh"
#include "workload/dsl/parser.hh"

using namespace mtdae;
using namespace mtdae::test;

namespace {

/**
 * Generate a random, valid kernel: a few streams, loads, a layer of FP
 * and integer ops on previously defined values, optional store and
 * hammock.
 */
Kernel
randomKernel(std::uint64_t seed)
{
    Rng rng(seed);
    KernelBuilder b;

    const int n_streams = 1 + int(rng.uniform(3));
    std::vector<KernelBuilder::Stream> streams;
    for (int i = 0; i < n_streams; ++i) {
        const std::uint64_t fp = 4096u << rng.uniform(10);  // 4KB..4MB
        const std::int64_t stride = 4 << rng.uniform(4);    // 4..32
        streams.push_back(b.strided(fp, stride));
    }

    std::vector<int> ints, fps;
    for (const auto &s : streams) {
        if (rng.bernoulli(0.7))
            fps.push_back(b.ldf(s));
        else
            ints.push_back(b.ldi(s));
    }
    if (fps.empty())
        fps.push_back(b.movif(ints.front()));

    const int n_ops = 2 + int(rng.uniform(12));
    for (int i = 0; i < n_ops; ++i) {
        if (rng.bernoulli(0.6)) {
            const int a = fps[rng.uniform(fps.size())];
            const int c = fps[rng.uniform(fps.size())];
            static const Opcode fop[] = {Opcode::FAdd, Opcode::FMul,
                                         Opcode::FSub, Opcode::FDiv};
            if (fps.size() < 24)
                fps.push_back(b.fop(fop[rng.uniform(4)], a, c));
        } else {
            static const Opcode iop[] = {Opcode::IAdd, Opcode::IShift,
                                         Opcode::ILogic, Opcode::IMul};
            if (!ints.empty() && ints.size() < 20) {
                const int a = ints[rng.uniform(ints.size())];
                ints.push_back(b.iop(iop[rng.uniform(4)], a));
            } else {
                ints.push_back(b.iop(Opcode::IAdd,
                                     streams[0].addrReg));
            }
        }
    }

    if (rng.bernoulli(0.5))
        b.stf(streams[rng.uniform(streams.size())],
              fps[rng.uniform(fps.size())]);
    if (rng.bernoulli(0.4)) {
        const int c = b.iop(Opcode::ICmp, streams[0].addrReg);
        b.br(c, float(rng.uniformDouble()), 1);
        b.iopInto(Opcode::IAdd, c, c);
    }
    for (auto &s : streams)
        if (rng.bernoulli(0.8))
            b.advance(s);
    return b.build("random-" + std::to_string(seed));
}

} // namespace

class RandomKernelTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomKernelTest, RunsToCompletionWithInvariants)
{
    const Kernel k = randomKernel(GetParam());
    ASSERT_NO_FATAL_FAILURE(k.validate());

    SimConfig cfg = testConfig(1 + GetParam() % 3);
    cfg.decoupled = GetParam() % 2 == 0;
    cfg.l2Latency = GetParam() % 5 == 0 ? 64 : 16;
    cfg.warmupInsts = 0;

    const std::uint64_t iters = 400;
    Simulator sim = makeSim(cfg, k, iters);
    std::uint64_t steps = 0;
    while (!sim.allDone()) {
        sim.step();
        ASSERT_LT(++steps, 4000000u) << "deadlock in " << k.name;
    }

    // Conservation: every fetched instruction graduates exactly once
    // (the trace is finite and known-length per iteration modulo
    // hammocks, so compare against per-thread emission).
    std::uint64_t expected = 0;
    for (ThreadId t = 0; t < cfg.numThreads; ++t) {
        const auto *src = dynamic_cast<const KernelTraceSource *>(
            sim.context(t).source.get());
        ASSERT_NE(src, nullptr);
        expected += src->emitted();
    }
    EXPECT_EQ(sim.totalGraduated(), expected);

    // Slot accounting covers exactly width x cycles.
    const RunResult r = sim.snapshot();
    EXPECT_EQ(r.ap.total(), r.cycles * cfg.apUnits);
    EXPECT_EQ(r.ep.total(), r.cycles * cfg.epUnits);
    EXPECT_LE(r.ap.count(SlotUse::Useful) + r.ep.count(SlotUse::Useful),
              sim.totalGraduated());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(25)));

class GridTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, bool, std::uint32_t>>
{
};

TEST_P(GridTest, SuiteMixRunsEverywhereOnTheGrid)
{
    const auto [threads, decoupled, lat] = GetParam();
    SimConfig cfg = testConfig(threads, decoupled, lat);
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(15000 * threads);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 8.0);
    EXPECT_GE(r.insts, 15000u * threads);
    EXPECT_LE(r.busUtilization, 1.05);
    EXPECT_GE(r.perceivedAll, 0.0);
    EXPECT_LE(r.perceivedFp, lat + 8.0);
    EXPECT_LE(r.perceivedInt, lat + 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GridTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Bool(),
                       ::testing::Values(1u, 16u, 64u)));

class MshrSweepTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MshrSweepTest, FewerMshrsNeverHelp)
{
    SimConfig cfg = testConfig(2, true, 64);
    cfg.mshrs = GetParam();
    Simulator sim = makeSim(cfg, streamingKernel());
    const double ipc = sim.run(40000).ipc;

    SimConfig big = cfg;
    big.mshrs = 64;
    Simulator sim_big = makeSim(big, streamingKernel());
    const double ipc_big = sim_big.run(40000).ipc;
    EXPECT_GE(ipc_big, 0.98 * ipc) << "mshrs=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Mshrs, MshrSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16));

class CheckpointFuzzTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CheckpointFuzzTest, RestoreEquivalenceAtRandomCycles)
{
    // Fuzz the checkpoint engine (src/core/snapshot.hh): a random
    // kernel on a random machine, snapshotted at random cycles, must
    // always restore into a byte-identical continuation. All
    // randomness is derived from the test seed — never wall clock —
    // so every failure replays.
    const std::uint64_t seed = GetParam();
    Rng rng(deriveSeed(0x636b7074, seed));
    const Kernel k = randomKernel(seed);

    SimConfig cfg = testConfig(1 + rng.uniform(3));
    cfg.decoupled = rng.bernoulli(0.7);
    cfg.perfectL2 = rng.bernoulli(0.5);
    cfg.fetchPolicy = fetchPolicies()[rng.uniform(fetchPolicies().size())];
    cfg.issuePolicy = issuePolicies()[rng.uniform(issuePolicies().size())];
    // QoS state must round-trip too: random weights and a random
    // adaptive gate threshold (the registries above already draw the
    // adaptive/weighted policies that consume them).
    if (rng.bernoulli(0.5))
        cfg.threadWeights = {1 + std::uint32_t(rng.uniform(16)),
                             1 + std::uint32_t(rng.uniform(16))};
    cfg.adaptiveMissThreshold = 1 + std::uint32_t(rng.uniform(3));
    cfg.warmupInsts = 0;

    const std::uint64_t iters = 150;
    Simulator ref = makeSim(cfg, k, iters);
    std::uint64_t steps = 0;
    while (!ref.allDone()) {
        ref.step();
        ASSERT_LT(++steps, 4000000u) << "deadlock in " << k.name;
    }
    const auto ref_final = ref.saveSnapshot().toBytes();

    for (int trial = 0; trial < 3; ++trial) {
        const std::uint64_t cycle = rng.uniform(ref.now() + 1);
        Simulator a = makeSim(cfg, k, iters);
        for (std::uint64_t c = 0; c < cycle; ++c)
            a.step();
        const Snapshot snap = a.saveSnapshot();

        // Serialize -> deserialize -> serialize is byte-stable.
        const auto bytes1 = snap.toBytes();
        EXPECT_EQ(Snapshot::fromBytes(bytes1).toBytes(), bytes1);

        // Restore-equivalence: the restored run finishes in the same
        // state as the uninterrupted one, byte for byte.
        Simulator b = makeSim(cfg, k, iters);
        b.restoreSnapshot(snap);
        EXPECT_EQ(b.saveSnapshot().toBytes(), bytes1)
            << k.name << " at cycle " << cycle;
        while (!b.allDone())
            b.step();
        EXPECT_EQ(b.now(), ref.now())
            << k.name << " at cycle " << cycle;
        EXPECT_EQ(b.saveSnapshot().toBytes(), ref_final)
            << k.name << " at cycle " << cycle;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzzTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(17)));

class PortSweepTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PortSweepTest, RunsCorrectlyWithAnyPortCount)
{
    SimConfig cfg = testConfig(2);
    cfg.l1Ports = GetParam();
    Simulator sim = makeSim(cfg, streamingKernel(), 2000);
    while (!sim.allDone())
        sim.step();
    EXPECT_EQ(sim.totalGraduated(),
              2 * streamingKernel().ops.size() * 2000);
}

INSTANTIATE_TEST_SUITE_P(Ports, PortSweepTest,
                         ::testing::Values(1, 2, 4, 8));

class SnapshotCacheFuzzTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SnapshotCacheFuzzTest, CachedThreadStatesMatchRecomputation)
{
    // Fuzz the incremental ThreadState cache (Simulator::
    // refreshThreadStates): on a random kernel and machine — gating
    // policies included, since flush mutates fetch state outside the
    // normal stages — every cached snapshot a policy could be served
    // must equal a from-scratch recomputation, every single cycle.
    // Also checks that the AP queue, IQ and SAQ are the ROB filters
    // Context::restore() rebuilds them from, and cross-checks the SAQ
    // word index against the reference linear walk it replaced in the
    // issue stage.
    const std::uint64_t seed = GetParam();
    Rng rng(deriveSeed(0x73636163, seed));
    const Kernel k = randomKernel(seed);

    SimConfig cfg = testConfig(1 + rng.uniform(3));
    cfg.decoupled = rng.bernoulli(0.7);
    cfg.l2Latency = rng.bernoulli(0.5) ? 64 : 16;
    cfg.fetchPolicy =
        fetchPolicies()[rng.uniform(fetchPolicies().size())];
    cfg.issuePolicy =
        issuePolicies()[rng.uniform(issuePolicies().size())];
    cfg.warmupInsts = 0;

    Simulator sim = makeSim(cfg, k, 200);
    std::uint64_t steps = 0;
    while (!sim.allDone()) {
        sim.step();
        ASSERT_LT(++steps, 4000000u) << "deadlock in " << k.name;
        ASSERT_TRUE(sim.threadStateCacheCoherent())
            << k.name << " at cycle " << sim.now();
        for (ThreadId t = 0; t < cfg.numThreads; ++t) {
            const Context &ctx = sim.context(t);
            std::vector<const DynInst *> ap, ep, stores;
            std::uint64_t deposits = 0;
            for (const DynInst &di : ctx.rob) {
                if (di.state == InstState::Dispatched)
                    (di.unit == Unit::AP ? ap : ep).push_back(&di);
                if (di.isStoreOp) {
                    stores.push_back(&di);
                    deposits += di.state != InstState::Dispatched;
                }
            }
            using View = std::vector<const DynInst *>;
            ASSERT_EQ(View(ctx.apQ.begin(), ctx.apQ.end()), ap)
                << k.name << " at cycle " << sim.now();
            ASSERT_EQ(View(ctx.iq.begin(), ctx.iq.end()), ep)
                << k.name << " at cycle " << sim.now();
            ASSERT_EQ(View(ctx.saq.begin(), ctx.saq.end()), stores)
                << k.name << " at cycle " << sim.now();
            std::uint64_t indexed = 0;
            for (const auto &word : ctx.saqWords)
                indexed += word.second;
            ASSERT_EQ(indexed, deposits)
                << k.name << " at cycle " << sim.now();

            // A probe seq newer than everything in flight makes the
            // reference walk answer the same question as the index.
            const InstSeq probe = ctx.nextSeq + 1;
            for (const DynInst *st : ctx.saq) {
                if (st->state == InstState::Dispatched)
                    continue;
                const Addr addr = st->ti.addr;
                EXPECT_TRUE(ctx.saqForwardsFast(addr));
                EXPECT_EQ(ctx.saqForwardsFast(addr),
                          ctx.saqForwards(probe, addr));
                const Addr miss = addr + 64 * 1024 * 1024;
                EXPECT_EQ(ctx.saqForwardsFast(miss),
                          ctx.saqForwards(probe, miss));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotCacheFuzzTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(21)));

class WindowOracleTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WindowOracleTest, IncrementalWindowsMatchFromScratchRecompute)
{
    // Fuzz the trailing-window statistics (Context::sampleWindows):
    // the incrementally maintained sums and the miss-window uniformity
    // tracker must equal a from-scratch recomputation over the raw
    // sample rings after every single cycle. The uniformity check is
    // the load-bearing one — the adaptive policy's vetoStable() reads
    // it, and a stale bit silently breaks idle fast-forward
    // byte-identity rather than any assertion.
    const std::uint64_t seed = GetParam();
    Rng rng(deriveSeed(0x77696e64, seed));
    const Kernel k = randomKernel(seed);

    SimConfig cfg = testConfig(1 + rng.uniform(3));
    cfg.decoupled = rng.bernoulli(0.7);
    cfg.fetchPolicy = PolicyKind::Adaptive;
    cfg.adaptiveMissThreshold = 1 + std::uint32_t(rng.uniform(3));
    if (rng.bernoulli(0.5))
        cfg.threadWeights = {1 + std::uint32_t(rng.uniform(16)),
                             1 + std::uint32_t(rng.uniform(16))};
    cfg.warmupInsts = 0;
    cfg.validate();

    Simulator sim = makeSim(cfg, k, 150);
    std::uint64_t steps = 0;
    while (!sim.allDone()) {
        sim.step();
        ASSERT_LT(++steps, 4000000u) << "deadlock in " << k.name;
        for (ThreadId t = 0; t < cfg.numThreads; ++t) {
            const Context &ctx = sim.context(t);
            std::uint32_t iq_sum = 0, miss_sum = 0;
            bool uniform = true;
            for (const std::uint32_t s : ctx.iqSamples)
                iq_sum += s;
            for (const std::uint32_t s : ctx.missSamples) {
                miss_sum += s;
                uniform &= s == ctx.perceived.outstanding();
            }
            ASSERT_EQ(ctx.iqWindowSum, iq_sum)
                << k.name << " t" << t << " at cycle " << sim.now();
            ASSERT_EQ(ctx.missWindowSum, miss_sum)
                << k.name << " t" << t << " at cycle " << sim.now();
            const ThreadState s = ctx.policyState(cfg, sim.now());
            ASSERT_EQ(s.missWindow, miss_sum);
            ASSERT_EQ(s.missWindowUniform, uniform)
                << k.name << " t" << t << " at cycle " << sim.now();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowOracleTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(13)));

// ---------------------------------------------------------------------
// DSL front-end fuzzing: no text input may crash the compiler, and any
// program that parses must round-trip through the canonical printer.
// ---------------------------------------------------------------------

namespace {

/** Vocabulary-driven token soup: plausible enough to reach deep paths. */
std::string
tokenSoup(Rng &rng)
{
    static const char *const extras[] = {
        "=", ",", "(", ")", "{", "}", ":", "+", "-", "*", "/", "%",
        "<", ">", "==", "!=", "<=", ">=",
        "a", "b", "s1", "x", "k", "foo",
        "0", "1", "4", "8", "24", "0.5", "4K", "2M", "1G", "65536",
        "\n",
    };
    const auto &words = dsl::dslKeywords();
    std::string text;
    if (rng.bernoulli(0.7))
        text += "kernel k\n";
    const int n = 3 + int(rng.uniform(60));
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.45))
            text += words[rng.uniform(words.size())];
        else
            text += extras[rng.uniform(std::size(extras))];
        text += rng.bernoulli(0.2) ? "\n" : " ";
    }
    return text;
}

/** Raw printable-character soup: exercises the lexer error paths. */
std::string
charSoup(Rng &rng)
{
    std::string text;
    const int n = int(rng.uniform(120));
    for (int i = 0; i < n; ++i)
        text += char(32 + rng.uniform(95));
    return text;
}

/**
 * Compile arbitrary text: the only acceptable outcomes are a valid
 * kernel or a positioned DslError. Returns true when it compiled.
 */
bool
compilesCleanly(const std::string &text)
{
    try {
        const Kernel k = dsl::compileKernel(text);
        k.validate();  // a compiled kernel must also be valid
        return true;
    } catch (const dsl::DslError &e) {
        EXPECT_GE(e.line, 0);
        EXPECT_GE(e.col, 0);
        EXPECT_FALSE(e.message.empty());
        return false;
    }
}

/**
 * Any program that parses must survive print -> parse -> print with a
 * byte-identical canonical form (structural equality of the ASTs).
 */
void
expectRoundTrip(const std::string &text)
{
    dsl::Program p1;
    try {
        p1 = dsl::parseProgram(text);
    } catch (const dsl::DslError &) {
        return;  // didn't parse: nothing to round-trip
    }
    const std::string s1 = dsl::printProgram(p1);
    dsl::Program p2;
    try {
        p2 = dsl::parseProgram(s1);
    } catch (const dsl::DslError &e) {
        FAIL() << "canonical print does not reparse: " << e.what()
               << "\n" << s1;
    }
    EXPECT_EQ(s1, dsl::printProgram(p2)) << "for input:\n" << text;
}

} // namespace

class DslFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DslFuzzTest, TokenSoupNeverCrashes)
{
    Rng rng(deriveSeed(0x64736c66, GetParam()));
    for (int i = 0; i < 200; ++i) {
        const std::string text = tokenSoup(rng);
        compilesCleanly(text);
        expectRoundTrip(text);
    }
}

TEST_P(DslFuzzTest, CharSoupNeverCrashes)
{
    Rng rng(deriveSeed(0x64736c63, GetParam()));
    for (int i = 0; i < 200; ++i)
        compilesCleanly(charSoup(rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DslFuzzTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(21)));

TEST(DslRoundTrip, CorpusKernelsReachAFixedPoint)
{
    const char *names[] = {"tomcatv", "swim",  "su2cor",  "hydro2d",
                           "mgrid",   "applu", "turb3d",  "apsi",
                           "fpppp",   "wave5", "pointer_chase",
                           "hash_join", "stencil"};
    for (const char *name : names) {
        const std::string path = std::string(MTDAE_SOURCE_DIR) +
                                 "/examples/kernels/" + name + ".mk";
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        expectRoundTrip(ss.str());
    }
}

TEST(DslRoundTrip, CanonicalFormCompilesIdentically)
{
    // Printing and reparsing must not change the compiled kernel: the
    // printer is a faithful, normalising serialisation.
    const std::string text = std::string("kernel rt\n") +
                             "param n = 3\n" +
                             "stream s = strided(64K, 8)\n" +
                             "reg acc : fp\n" +
                             "loop n as i {\n" +
                             "if i % 2 == 0 {\n" +
                             "let v = loadf(s)\n" +
                             "fadd acc = acc, v\n" +
                             "} else {\n" +
                             "advance s\n" +
                             "}\n" +
                             "}\n";
    const Kernel direct = dsl::compileKernel(text);
    const std::string canon =
        dsl::printProgram(dsl::parseProgram(text));
    const Kernel reparsed = dsl::compileKernel(canon);
    ASSERT_EQ(direct.ops.size(), reparsed.ops.size());
    for (std::size_t i = 0; i < direct.ops.size(); ++i) {
        EXPECT_EQ(direct.ops[i].op, reparsed.ops[i].op) << i;
        EXPECT_EQ(direct.ops[i].dst, reparsed.ops[i].dst) << i;
    }
    EXPECT_EQ(direct.numIntRegs, reparsed.numIntRegs);
    EXPECT_EQ(direct.numFpRegs, reparsed.numFpRegs);
}
