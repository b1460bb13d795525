/**
 * @file
 * Tests for the kernel DSL (src/workload/dsl/). The ten built-in SPEC
 * FP95 models are compiled into the library from examples/kernels/;
 * loading the same file through the DSL factory (--bench=dsl) must give
 * the built-in's name and layout slot, so its instruction trace is
 * byte-identical field for field and its simulated RunResult rows match
 * exactly on both memory backends. Plus coverage for the three DSL-only
 * kernels (pointer_chase, hash_join, stencil) and the param-override
 * surface.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hh"
#include "workload/dsl/interp.hh"
#include "workload/dsl/lexer.hh"
#include "workload/spec_fp95.hh"

using namespace mtdae;
using mtdae::test::expectSameResult;

namespace {

std::string
kernelPath(const std::string &name)
{
    return std::string(MTDAE_SOURCE_DIR) + "/examples/kernels/" + name +
           ".mk";
}

} // namespace

// ---------------------------------------------------------------------
// Each built-in's file through the DSL factory: name, trace, RunResult.
// ---------------------------------------------------------------------

class DslGoldenTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { text_ = test::slurp(kernelPath(GetParam())); }
    std::string text_;
};

TEST_P(DslGoldenTest, FactoryNameAndLayoutMatch)
{
    auto builtin = makeBenchmarkFactory(GetParam());
    auto ported = dsl::makeDslFactory(text_);
    EXPECT_EQ(builtin->name(), ported->name());
    // The DSL factory pins a matching benchmark name to the same layout
    // slot, so its fingerprint need not equal the built-in's — but it
    // must be stable and parameter-qualified.
    EXPECT_NE(ported->fingerprint(), ported->name());
    EXPECT_EQ(ported->fingerprint(), dsl::makeDslFactory(text_)->fingerprint());
}

TEST_P(DslGoldenTest, TraceByteIdentical)
{
    auto builtin = makeBenchmarkFactory(GetParam());
    auto ported = dsl::makeDslFactory(text_);
    auto sa = builtin->make(2, 42);
    auto sb = ported->make(2, 42);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t t = 0; t < sa.size(); ++t) {
        TraceInst ia, ib;
        for (int n = 0; n < 20000; ++n) {
            ASSERT_TRUE(sa[t]->next(ia));
            ASSERT_TRUE(sb[t]->next(ib));
            ASSERT_EQ(ia.op, ib.op) << "thread " << t << " inst " << n;
            ASSERT_EQ(ia.dst, ib.dst) << "thread " << t << " inst " << n;
            ASSERT_EQ(ia.src, ib.src) << "thread " << t << " inst " << n;
            ASSERT_EQ(ia.pc, ib.pc) << "thread " << t << " inst " << n;
            ASSERT_EQ(ia.addr, ib.addr) << "thread " << t << " inst " << n;
            ASSERT_EQ(ia.taken, ib.taken) << "thread " << t << " inst " << n;
        }
    }
}

TEST_P(DslGoldenTest, RunResultIdenticalBothBackends)
{
    auto builtin = makeBenchmarkFactory(GetParam());
    auto ported = dsl::makeDslFactory(text_);
    for (const bool perfect : {true, false}) {
        SimConfig cfg = test::testConfig(2);
        cfg.perfectL2 = perfect;
        Simulator sim_a(cfg, builtin->make(cfg.numThreads, cfg.seed));
        Simulator sim_b(cfg, ported->make(cfg.numThreads, cfg.seed));
        const RunResult ra = sim_a.run(20000);
        const RunResult rb = sim_b.run(20000);
        expectSameResult(ra, rb);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, DslGoldenTest,
                         ::testing::ValuesIn(specFp95Names()));

// ---------------------------------------------------------------------
// The DSL-only corpus kernels.
// ---------------------------------------------------------------------

TEST(DslCorpus, PointerChaseUsesChainStream)
{
    const Kernel k = dsl::compileKernel(test::slurp(kernelPath("pointer_chase")));
    EXPECT_EQ(k.name, "pointer_chase");
    ASSERT_EQ(k.streams.size(), 1u);
    EXPECT_EQ(k.streams[0].kind, StreamSpec::Kind::Chain);
    EXPECT_EQ(k.streams[0].footprint, 1u << 20);
    EXPECT_EQ(k.streams[0].elemBytes, 16u);
    // unroll=4 hops, each: loadi + ilogic + loadf + fadd + advance.
    const Kernel::Mix m = k.mix();
    EXPECT_EQ(m.loads, 8u);
    EXPECT_EQ(m.fpOps, 4u);
}

TEST(DslCorpus, HashJoinLoadsFeedTheirOwnAddress)
{
    const Kernel k = dsl::compileKernel(test::slurp(kernelPath("hash_join")));
    // The bucket loads write the gather's own index register: a true
    // load-to-address dependence.
    bool self_dep_load = false;
    for (const auto &op : k.ops)
        if (op.op == Opcode::LdI && op.stream >= 0 && op.dst >= 0 &&
            op.dst == k.streams[op.stream].addrReg)
            self_dep_load = true;
    EXPECT_TRUE(self_dep_load);
    // The hit branch skips the conflict-chain walk.
    bool skipping_branch = false;
    for (const auto &op : k.ops)
        skipping_branch |= op.op == Opcode::Br && op.skip == 2;
    EXPECT_TRUE(skipping_branch);
    EXPECT_EQ(k.ops.back().backedge, true);
}

TEST(DslCorpus, StencilConditionalsResolveAtCompileTime)
{
    const std::string text = test::slurp(kernelPath("stencil"));
    // Default taps=3 takes the else arm: exactly one store.
    const Kernel k3 = dsl::compileKernel(text);
    EXPECT_EQ(k3.mix().stores, 1u);
    // taps=5 takes the then arm (extra fadd) and unrolls more index
    // bookkeeping rows (ceil(5/2)=3 vs ceil(3/2)=2).
    const Kernel k5 = dsl::compileKernel(text, {{"taps", 5}});
    EXPECT_EQ(k5.mix().stores, 1u);
    EXPECT_EQ(k5.mix().fpOps, k3.mix().fpOps + 1);
    EXPECT_EQ(k5.mix().intOps, k3.mix().intOps + 2);
    // passes=2 doubles the sweep body.
    const Kernel k2p = dsl::compileKernel(text, {{"passes", 2}});
    EXPECT_EQ(k2p.mix().stores, 2u);
    EXPECT_EQ(k2p.mix().loads, 2 * k3.mix().loads);
}

TEST(DslCorpus, EveryCorpusKernelValidatesAndRuns)
{
    const char *names[] = {"tomcatv", "swim",  "su2cor",  "hydro2d",
                           "mgrid",   "applu", "turb3d",  "apsi",
                           "fpppp",   "wave5", "pointer_chase",
                           "hash_join", "stencil"};
    for (const char *name : names) {
        auto f = dsl::makeDslFactory(test::slurp(kernelPath(name)));
        auto sources = f->make(1, 1);
        ASSERT_EQ(sources.size(), 1u);
        TraceInst inst;
        for (int n = 0; n < 5000; ++n)
            ASSERT_TRUE(sources[0]->next(inst)) << name;
    }
}

// ---------------------------------------------------------------------
// Param overrides.
// ---------------------------------------------------------------------

TEST(DslParams, OverrideRescalesTheFootprint)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    const Kernel small = dsl::compileKernel(text, {{"footprint", 64 * 1024}});
    EXPECT_EQ(small.streams[0].footprint, 64u * 1024);
    const Kernel more = dsl::compileKernel(text, {{"unroll", 8}});
    EXPECT_EQ(more.mix().loads, 16u);
}

TEST(DslParams, OverridesChangeTheFingerprint)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    auto base = dsl::makeDslFactory(text);
    auto scaled = dsl::makeDslFactory(text, {{"footprint", 64 * 1024}});
    EXPECT_NE(base->fingerprint(), scaled->fingerprint());
    // Fingerprints are canonical: value spelling does not matter.
    auto same = dsl::makeDslFactory(text, {{"footprint", 1 << 20}});
    EXPECT_EQ(base->fingerprint(), same->fingerprint());
}

TEST(DslParams, UnknownOverrideIsAnError)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    try {
        dsl::compileKernel(text, {{"nope", 1}});
        FAIL() << "expected DslError";
    } catch (const dsl::DslError &e) {
        EXPECT_STREQ(e.what(),
                     "0:0: unknown param 'nope' (the kernel does not "
                     "declare it)");
    }
}

TEST(DslParams, CompiledParamsReportResolvedValues)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    const dsl::CompiledKernel c =
        dsl::compileDsl(text, {{"unroll", 2}});
    ASSERT_EQ(c.params.size(), 3u);
    EXPECT_EQ(c.params[0].first, "footprint");
    EXPECT_EQ(c.params[0].second, double(1 << 20));
    EXPECT_EQ(c.params[2].first, "unroll");
    EXPECT_EQ(c.params[2].second, 2.0);
}

// ---------------------------------------------------------------------
// Factory cloning and determinism.
// ---------------------------------------------------------------------

TEST(DslFactory, CloneIsIndistinguishable)
{
    const std::string text = test::slurp(kernelPath("hash_join"));
    auto f = dsl::makeDslFactory(text);
    auto c = f->clone();
    EXPECT_EQ(f->name(), c->name());
    EXPECT_EQ(f->fingerprint(), c->fingerprint());
    auto sa = f->make(1, 9);
    auto sb = c->make(1, 9);
    TraceInst ia, ib;
    for (int n = 0; n < 5000; ++n) {
        ASSERT_TRUE(sa[0]->next(ia));
        ASSERT_TRUE(sb[0]->next(ib));
        ASSERT_EQ(ia.addr, ib.addr);
        ASSERT_EQ(ia.taken, ib.taken);
    }
}

TEST(DslFactory, DistinctKernelNamesGetDistinctSlots)
{
    auto a = dsl::makeDslFactory(test::slurp(kernelPath("pointer_chase")));
    auto b = dsl::makeDslFactory(test::slurp(kernelPath("hash_join")));
    auto sa = a->make(1, 1);
    auto sb = b->make(1, 1);
    TraceInst ia, ib;
    // First memory access of each lands in a different data region.
    Addr addr_a = 0, addr_b = 0;
    while (sa[0]->next(ia))
        if (ia.addr != 0) { addr_a = ia.addr; break; }
    while (sb[0]->next(ib))
        if (ib.addr != 0) { addr_b = ib.addr; break; }
    EXPECT_NE(addr_a >> 28, addr_b >> 28);
}
