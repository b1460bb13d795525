/**
 * @file
 * The QoS/adaptive arbitration fortress: registry membership of the
 * adaptive and weighted policies, the adaptive gate's exact threshold
 * boundaries and veto-stability semantics (including the
 * equal-sum-mixed-ring regression), its memory-phase ordering switch,
 * the weighted comparator's cross-multiplied order and tie-breaks,
 * the fairness arithmetic of computeQosMetrics() against hand-computed
 * values, forward progress under skewed weights for every policy pair,
 * and byte-identity of the ablate-qos grid across worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "harness/cli.hh"
#include "policy/policy.hh"
#include "test_util.hh"

namespace mtdae {
namespace {

SimConfig
qosCfg(std::uint32_t nthreads, PolicyKind fetch, PolicyKind issue)
{
    SimConfig cfg;
    cfg.numThreads = nthreads;
    cfg.fetchPolicy = fetch;
    cfg.issuePolicy = issue;
    return cfg;
}

/** n default-constructed snapshots with tids assigned. */
std::vector<ThreadState>
blankStates(std::uint32_t n)
{
    std::vector<ThreadState> ts(n);
    for (std::uint32_t i = 0; i < n; ++i)
        ts[i].tid = i;
    return ts;
}

using Order = std::vector<ThreadId>;

// --- Registry membership ------------------------------------------------

TEST(QosRegistry, AdaptiveIsFetchOnlyWeightedIsBothSeams)
{
    const auto &fp = fetchPolicies();
    const auto &ip = issuePolicies();
    EXPECT_EQ(std::count(fp.begin(), fp.end(), PolicyKind::Adaptive), 1);
    EXPECT_EQ(std::count(ip.begin(), ip.end(), PolicyKind::Adaptive), 0);
    EXPECT_EQ(std::count(fp.begin(), fp.end(), PolicyKind::Weighted), 1);
    EXPECT_EQ(std::count(ip.begin(), ip.end(), PolicyKind::Weighted), 1);
    EXPECT_TRUE(policyIsFetch(PolicyKind::Adaptive));
    EXPECT_FALSE(policyIsIssue(PolicyKind::Adaptive));
    EXPECT_TRUE(policyIsFetch(PolicyKind::Weighted));
    EXPECT_TRUE(policyIsIssue(PolicyKind::Weighted));
}

TEST(QosConfig, WeightsTileAcrossThreadsAndRejectZero)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.threadWeight(0), 1u);  // empty vector: uniform
    EXPECT_EQ(cfg.threadWeight(7), 1u);
    cfg.threadWeights = {4, 1};
    EXPECT_EQ(cfg.threadWeight(0), 4u);
    EXPECT_EQ(cfg.threadWeight(1), 1u);
    EXPECT_EQ(cfg.threadWeight(2), 4u);  // tiled modulo the vector
    EXPECT_EQ(cfg.threadWeight(3), 1u);
}

// --- Adaptive gate: exact threshold boundaries --------------------------

TEST(AdaptiveGate, GatesExactlyAtThresholdTimesWindow)
{
    SimConfig cfg = qosCfg(2, PolicyKind::Adaptive, PolicyKind::RoundRobin);
    cfg.adaptiveMissThreshold = 2;
    auto pol = makeFetchPolicy(cfg);

    ThreadState t;
    t.outstandingMisses = 1;
    t.missWindow = 2 * kPolicyWindowCycles - 1;  // one below the gate
    EXPECT_TRUE(pol->mayFetch(t));
    t.missWindow = 2 * kPolicyWindowCycles;  // exactly at the gate
    EXPECT_FALSE(pol->mayFetch(t));
    t.missWindow = 2 * kPolicyWindowCycles + 1;
    EXPECT_FALSE(pol->mayFetch(t));
}

TEST(AdaptiveGate, LargeThresholdNeverWrapsIntoAStall)
{
    // threshold * kPolicyWindowCycles passes 2^32 from threshold 2^26
    // on. The largest window a real run reaches is 64 outstanding
    // misses (the MSHR cap) for the whole window; it must not gate.
    SimConfig cfg = qosCfg(2, PolicyKind::Adaptive, PolicyKind::RoundRobin);
    cfg.adaptiveMissThreshold = 1u << 26;
    auto pol = makeFetchPolicy(cfg);

    ThreadState t;
    t.outstandingMisses = 64;
    t.missWindow = 64 * kPolicyWindowCycles;
    t.missWindowUniform = true;
    EXPECT_TRUE(pol->mayFetch(t));
}

TEST(AdaptiveGate, NeverGatesWithoutAnOutstandingMiss)
{
    SimConfig cfg = qosCfg(2, PolicyKind::Adaptive, PolicyKind::RoundRobin);
    cfg.adaptiveMissThreshold = 1;
    auto pol = makeFetchPolicy(cfg);

    ThreadState t;
    t.outstandingMisses = 0;
    t.missWindow = 100 * kPolicyWindowCycles;  // stale window, no miss
    EXPECT_TRUE(pol->mayFetch(t));
}

TEST(AdaptiveGate, VetoIsStableOnlyOnAUniformWindow)
{
    SimConfig cfg = qosCfg(2, PolicyKind::Adaptive, PolicyKind::RoundRobin);
    cfg.adaptiveMissThreshold = 1;
    auto pol = makeFetchPolicy(cfg);

    ThreadState t;
    t.outstandingMisses = 0;
    EXPECT_TRUE(pol->vetoStable(t));  // gate cannot engage at all

    t.outstandingMisses = 1;
    t.missWindowUniform = true;
    t.missWindow = kPolicyWindowCycles;
    EXPECT_TRUE(pol->vetoStable(t));

    // The regression that motivated the uniformity flag: a mixed ring
    // (say one 2-sample, one 0-sample, 62 1-samples) sums to exactly
    // outstanding * window yet keeps moving as it slides, so the sum
    // test alone would wrongly freeze the verdict mid-idle-span.
    t.missWindowUniform = false;
    EXPECT_FALSE(pol->vetoStable(t));
}

TEST(AdaptiveGate, OrderingSwitchesBetweenRotationAndIcount)
{
    SimConfig cfg = qosCfg(3, PolicyKind::Adaptive, PolicyKind::RoundRobin);
    auto pol = makeFetchPolicy(cfg);
    auto ts = blankStates(3);
    ts[0].fetchBufOccupancy = 5;
    ts[1].fetchBufOccupancy = 0;
    ts[2].fetchBufOccupancy = 3;

    // Compute phase (all miss windows empty): pure rotation, ignoring
    // the occupancies.
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({0, 1, 2}));
    pol->endCycle();
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 2, 0}));

    // Memory phase (any nonzero miss window): ICOUNT ranking.
    ts[2].missWindow = 1;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 2, 0}));  // by occupancy 0 < 3 < 5
    ts[2].missWindow = 0;
    pol->endCycle();
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({2, 0, 1}));  // back to rotation
}

// --- Weighted comparator: order and tie-breaks --------------------------

TEST(WeightedFetch, DividesOccupancyByWeightExactly)
{
    SimConfig cfg = qosCfg(2, PolicyKind::Weighted, PolicyKind::RoundRobin);
    auto ts = blankStates(2);
    ts[0].fetchBufOccupancy = 3;
    ts[0].weight = 4;
    ts[1].fetchBufOccupancy = 1;
    ts[1].weight = 1;
    auto pol = makeFetchPolicy(cfg);

    // Cross-multiplied: 3/4 < 1/1 (3*1 < 1*4), so the heavy thread
    // fetches first despite holding more instructions.
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({0, 1}));

    // 5/4 > 1/1 flips it.
    ts[0].fetchBufOccupancy = 5;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 0}));
}

TEST(WeightedFetch, EqualRatiosTieBreakByRotation)
{
    SimConfig cfg = qosCfg(2, PolicyKind::Weighted, PolicyKind::RoundRobin);
    auto ts = blankStates(2);
    ts[0].fetchBufOccupancy = 4;
    ts[0].weight = 4;
    ts[1].fetchBufOccupancy = 1;
    ts[1].weight = 1;  // 4/4 == 1/1: a tie
    auto pol = makeFetchPolicy(cfg);

    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({0, 1}));
    pol->endCycle();
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 0}));  // rotation breaks the tie
}

TEST(WeightedFetch, UniformWeightsReduceToIcount)
{
    SimConfig cfg = qosCfg(3, PolicyKind::Weighted, PolicyKind::RoundRobin);
    auto ts = blankStates(3);
    ts[0].fetchBufOccupancy = 5;
    ts[1].fetchBufOccupancy = 0;
    ts[2].fetchBufOccupancy = 3;
    auto pol = makeFetchPolicy(cfg);
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 2, 0}));
}

TEST(WeightedIssue, DispatchAndBothUnitsUseTheFrontEndKey)
{
    SimConfig cfg = qosCfg(2, PolicyKind::Icount, PolicyKind::Weighted);
    auto ts = blankStates(2);
    // Front-end occupancy = fetchBuf + apQ + iq.
    ts[0].fetchBufOccupancy = 2;
    ts[0].apQueueOccupancy = 2;
    ts[0].iqOccupancy = 2;  // 6 total at weight 4 -> 6/4
    ts[0].weight = 4;
    ts[1].apQueueOccupancy = 2;  // 2 total at weight 1 -> 2/1
    ts[1].weight = 1;
    auto pol = makeArbitrationPolicy(cfg);

    // 6/4 < 2/1 (6*1 < 2*4): the heavy thread leads on all seams.
    Order order;
    pol->dispatchOrder(ts, order);
    EXPECT_EQ(order, Order({0, 1}));
    pol->issueOrder(Unit::AP, ts, order);
    EXPECT_EQ(order, Order({0, 1}));
    pol->issueOrder(Unit::EP, ts, order);
    EXPECT_EQ(order, Order({0, 1}));
}

// --- Fairness arithmetic ------------------------------------------------

TEST(QosMetrics, MatchesHandComputedValuesUniformWeights)
{
    RunResult r;
    computeQosMetrics({300, 100}, {1, 1}, 1000, r);

    // Shares are 1/2 each; progress ratios x = (insts/total)/share:
    // x0 = (300/400)/0.5 = 1.5, x1 = (100/400)/0.5 = 0.5.
    ASSERT_EQ(r.threadSlowdown.size(), 2u);
    EXPECT_NEAR(r.threadSlowdown[0], 1.0 / 1.5, 1e-12);
    EXPECT_NEAR(r.threadSlowdown[1], 2.0, 1e-12);
    // Weighted speedup = (1*300/1000 + 1*100/1000) / 2 = 0.2.
    EXPECT_NEAR(r.weightedSpeedup, 0.2, 1e-12);
    // Harmonic mean of {1.5, 0.5} = 2 / (1/1.5 + 1/0.5) = 0.75.
    EXPECT_NEAR(r.fairnessHmean, 0.75, 1e-12);
    // Max-min = 0.5 / 1.5 = 1/3.
    EXPECT_NEAR(r.fairnessMaxMin, 1.0 / 3.0, 1e-12);
}

TEST(QosMetrics, SkewedWeightsProportionalProgressIsPerfectlyFair)
{
    RunResult r;
    // Progress exactly proportional to the 4:1 weights: every x = 1.
    computeQosMetrics({400, 100}, {4, 1}, 1000, r);
    EXPECT_NEAR(r.threadSlowdown[0], 1.0, 1e-12);
    EXPECT_NEAR(r.threadSlowdown[1], 1.0, 1e-12);
    EXPECT_NEAR(r.fairnessHmean, 1.0, 1e-12);
    EXPECT_NEAR(r.fairnessMaxMin, 1.0, 1e-12);
    EXPECT_NEAR(r.weightedSpeedup, (4 * 0.4 + 1 * 0.1) / 5.0, 1e-12);
}

TEST(QosMetrics, StarvedThreadZeroesTheFairnessIndices)
{
    RunResult r;
    computeQosMetrics({200, 0}, {1, 1}, 1000, r);
    EXPECT_EQ(r.threadSlowdown[1], 0.0);  // sentinel: no progress
    EXPECT_EQ(r.fairnessHmean, 0.0);
    EXPECT_EQ(r.fairnessMaxMin, 0.0);
}

TEST(QosMetrics, EmptyRunProducesZeroes)
{
    RunResult r;
    computeQosMetrics({0, 0}, {1, 1}, 1000, r);
    EXPECT_EQ(r.weightedSpeedup, 0.0);
    EXPECT_EQ(r.fairnessHmean, 0.0);
    EXPECT_EQ(r.fairnessMaxMin, 0.0);
}

// --- Forward progress under skewed weights ------------------------------

TEST(QosProgress, EveryPolicyPairMakesProgressWithSkewedWeights)
{
    // A 16:1 weight skew (and the adaptive gate) must never starve the
    // background thread outright, whatever the policy pair.
    const Kernel kernel = test::streamingKernel(256 * 1024);
    for (const PolicyKind fp : fetchPolicies()) {
        for (const PolicyKind ip : issuePolicies()) {
            SimConfig cfg = test::testConfig(2);
            cfg.fetchPolicy = fp;
            cfg.issuePolicy = ip;
            cfg.threadWeights = {16, 1};
            cfg.validate();
            Simulator sim = test::makeSim(cfg, kernel);
            sim.runWarmup(20000);
            const RunResult r = sim.runMeasure(2000, 40000);
            ASSERT_EQ(r.threadInsts.size(), 2u)
                << policyName(fp) << "/" << policyName(ip);
            EXPECT_GT(r.threadInsts[0], 0u)
                << policyName(fp) << "/" << policyName(ip);
            EXPECT_GT(r.threadInsts[1], 0u)
                << policyName(fp) << "/" << policyName(ip);
        }
    }
}

// --- CLI byte-identity --------------------------------------------------

TEST(QosSweep, AblateQosIsByteIdenticalAcrossWorkerCounts)
{
    const std::vector<std::string> common = {
        "ablate-qos", "--insts=1200", "--warmup=300",
        "--latencies=256", "--quiet", "--json"};
    std::vector<std::string> serial = common, parallel = common;
    serial.push_back("--jobs=1");
    parallel.push_back("--jobs=8");
    std::string serial_out, parallel_out;
    ASSERT_EQ(test::cli(serial, serial_out), 0);
    ASSERT_EQ(test::cli(parallel, parallel_out), 0);
    EXPECT_FALSE(serial_out.empty());
    EXPECT_EQ(serial_out, parallel_out);
    // The grid must actually carry the fairness columns.
    EXPECT_NE(serial_out.find("fair_hmean"), std::string::npos);
    EXPECT_NE(serial_out.find("wspeedup"), std::string::npos);
}

} // namespace
} // namespace mtdae
