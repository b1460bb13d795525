/**
 * @file
 * Unit tests for the common infrastructure: RNG, statistics primitives,
 * table/CSV output and the machine configuration.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace mtdae;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.uniform(13), 13u);
    EXPECT_EQ(r.uniform(0), 0u);
    EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(RunningStat, Aggregates)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.sample(2.0);
    s.sample(4.0);
    s.sample(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.sum(), 12.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10);  // [0,10) [10,20) [20,30) [30,inf)
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(25);
    h.sample(1000);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_NEAR(h.mean(), (0 + 9 + 10 + 25 + 1000) / 5.0, 1e-9);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
}

TEST(RatioStat, Value)
{
    RatioStat r;
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
    r.event(true);
    r.event(false);
    r.event(false);
    r.event(true);
    EXPECT_DOUBLE_EQ(r.value(), 0.5);
    r.reset();
    EXPECT_EQ(r.den, 0u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.addRow({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rows(), 3u);
}

TEST(TextTable, FormatsDoubles)
{
    EXPECT_EQ(TextTable::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(1.0, 0), "1");
    EXPECT_EQ(TextTable::fmt(-0.5, 1), "-0.5");
}

TEST(CsvWriter, WritesRows)
{
    const std::string path = ::testing::TempDir() + "/mtdae_test.csv";
    {
        CsvWriter w(path);
        ASSERT_TRUE(w.enabled());
        w.row({"a", "b", "c"});
        w.row({"1", "2", "3"});
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "a,b,c");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "1,2,3");
    std::remove(path.c_str());
}

TEST(SimConfig, DefaultsAreThePaperMachine)
{
    const SimConfig cfg;
    EXPECT_EQ(cfg.apUnits, 4u);
    EXPECT_EQ(cfg.epUnits, 4u);
    EXPECT_EQ(cfg.apLatency, 1u);
    EXPECT_EQ(cfg.epLatency, 4u);
    EXPECT_EQ(cfg.iqEntries, 48u);
    EXPECT_EQ(cfg.saqEntries, 32u);
    EXPECT_EQ(cfg.apPhysRegs, 64u);
    EXPECT_EQ(cfg.epPhysRegs, 96u);
    EXPECT_EQ(cfg.l1Bytes, 64u * 1024);
    EXPECT_EQ(cfg.l1LineBytes, 32u);
    EXPECT_EQ(cfg.l1Ports, 4u);
    EXPECT_EQ(cfg.mshrs, 16u);
    EXPECT_EQ(cfg.l2Latency, 16u);
    EXPECT_EQ(cfg.busBytesPerCycle, 16u);
    EXPECT_EQ(cfg.bhtEntries, 2048u);
    EXPECT_EQ(cfg.maxUnresolvedBranches, 4u);
    EXPECT_EQ(cfg.fetchThreadsPerCycle, 2u);
    EXPECT_EQ(cfg.fetchWidth, 8u);
    EXPECT_TRUE(cfg.decoupled);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(SimConfig, LineTransferCycles)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.lineTransferCycles(), 2u);  // 32B line / 16B per cycle
    cfg.busBytesPerCycle = 8;
    EXPECT_EQ(cfg.lineTransferCycles(), 4u);
    cfg.busBytesPerCycle = 64;
    EXPECT_EQ(cfg.lineTransferCycles(), 1u);
}

class ScaledConfigTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ScaledConfigTest, ScalesProportionallyToLatency)
{
    const std::uint32_t lat = GetParam();
    const SimConfig base;
    const SimConfig c = base.scaledForLatency(lat);
    const std::uint32_t factor = std::max(1u, lat / 16u);
    EXPECT_EQ(c.l2Latency, lat);
    EXPECT_EQ(c.iqEntries, base.iqEntries * factor);
    EXPECT_EQ(c.saqEntries, base.saqEntries * factor);
    EXPECT_EQ(c.robEntries, base.robEntries * factor);
    // Only registers beyond the architectural 32 scale.
    EXPECT_EQ(c.apPhysRegs, 32u + (base.apPhysRegs - 32u) * factor);
    EXPECT_EQ(c.epPhysRegs, 32u + (base.epPhysRegs - 32u) * factor);
    // MSHRs scale but stay implementable.
    EXPECT_LE(c.mshrs, 64u);
    EXPECT_GE(c.mshrs, base.mshrs);
    EXPECT_NO_FATAL_FAILURE(c.validate());
}

INSTANTIATE_TEST_SUITE_P(PaperLatencies, ScaledConfigTest,
                         ::testing::Values(1, 16, 32, 64, 128, 256));

TEST(SimConfig, ScaledRegisterFilesMustFitSixteenBitNumbers)
{
    // Physical registers are numbered in 16 bits and 65535 means "no
    // register". At L2 latency 16384 the EP file would hold 65568
    // registers; past 2^32 the counts would wrap. Every such machine is
    // refused under the register limit's own name, never built.
    const SimConfig base;
    EXPECT_EQ(base.scaledForLatency(16383).firstViolation(), "");
    for (const std::uint32_t lat : {16384u, 268435456u, 4294967295u}) {
        const SimConfig c = base.scaledForLatency(lat);
        EXPECT_EQ(c.firstViolation(),
                  "apPhysRegs and epPhysRegs must be below 65535 "
                  "(physical register numbers are 16 bits)")
            << lat;
    }
    // Saturated, not wrapped.
    EXPECT_EQ(base.scaledForLatency(4294967295u).epPhysRegs, UINT32_MAX);
}

TEST(SimConfig, ValidateRejectsBadConfigs)
{
    SimConfig cfg;
    cfg.numThreads = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "numThreads");

    cfg = SimConfig{};
    cfg.l1LineBytes = 24;  // not a power of two
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "l1LineBytes");

    cfg = SimConfig{};
    cfg.apPhysRegs = 32;  // no rename headroom
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "apPhysRegs");

    cfg = SimConfig{};
    cfg.mshrs = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "MSHR");

    cfg = SimConfig{};
    cfg.bhtEntries = 1000;  // not a power of two
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "bht");
}
