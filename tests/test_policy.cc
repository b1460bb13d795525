/**
 * @file
 * The thread-arbitration policy layer (src/policy/policy.hh): ordering
 * rules of every policy, the rotation mechanics, the Simulator's
 * policy plumbing, per-policy sweep determinism at different worker
 * counts, and the golden-CSV regression pinning the default policies
 * to the pre-policy-layer simulator byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "policy/policy.hh"
#include "test_util.hh"

namespace mtdae {
namespace {

SimConfig
threadedCfg(std::uint32_t nthreads, PolicyKind fetch, PolicyKind issue)
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

TEST(PolicyNames, RoundTripAndRejects)
{
    EXPECT_EQ(allPolicies().size(), 9u);
    for (const PolicyKind k : allPolicies()) {
        PolicyKind parsed;
        ASSERT_TRUE(parsePolicy(policyName(k), parsed)) << policyName(k);
        EXPECT_EQ(parsed, k);
    }
    PolicyKind parsed;
    EXPECT_FALSE(parsePolicy("bogus", parsed));
    EXPECT_FALSE(parsePolicy("", parsed));
    EXPECT_FALSE(parsePolicy("ICOUNT", parsed));
}

TEST(PolicyNames, SeamRegistriesPartitionThePolicies)
{
    // Every policy is valid on at least one seam, the per-seam
    // registries list exactly the policies their predicate admits, and
    // the gating/per-unit policies are confined to their seam.
    EXPECT_EQ(fetchPolicies().size(), 8u);
    EXPECT_EQ(issuePolicies().size(), 6u);
    for (const PolicyKind k : allPolicies()) {
        EXPECT_TRUE(policyIsFetch(k) || policyIsIssue(k))
            << policyName(k);
        const auto &fp = fetchPolicies();
        const auto &ip = issuePolicies();
        EXPECT_EQ(std::count(fp.begin(), fp.end(), k),
                  policyIsFetch(k) ? 1 : 0)
            << policyName(k);
        EXPECT_EQ(std::count(ip.begin(), ip.end(), k),
                  policyIsIssue(k) ? 1 : 0)
            << policyName(k);
    }
    EXPECT_FALSE(policyIsIssue(PolicyKind::Stall));
    EXPECT_FALSE(policyIsIssue(PolicyKind::Flush));
    EXPECT_FALSE(policyIsFetch(PolicyKind::Split));
}

TEST(PolicyNames, FactoriesReportTheirRegistryName)
{
    for (const PolicyKind k : fetchPolicies()) {
        SimConfig cfg = threadedCfg(2, k, PolicyKind::RoundRobin);
        EXPECT_EQ(makeFetchPolicy(cfg)->name(), policyName(k));
    }
    for (const PolicyKind k : issuePolicies()) {
        SimConfig cfg = threadedCfg(2, PolicyKind::Icount, k);
        EXPECT_EQ(makeArbitrationPolicy(cfg)->name(), policyName(k));
    }
}

TEST(PolicyNames, ValidateRejectsWrongSeamAssignment)
{
    SimConfig bad_issue;
    bad_issue.issuePolicy = PolicyKind::Stall;
    EXPECT_DEATH(bad_issue.validate(), "not a dispatch/issue policy");
    SimConfig bad_fetch;
    bad_fetch.fetchPolicy = PolicyKind::Split;
    EXPECT_DEATH(bad_fetch.validate(), "not a fetch policy");
}

TEST(FetchPolicyTest, RoundRobinRotatesOneStepPerCycle)
{
    const auto ts = blankStates(3);
    auto pol = makeFetchPolicy(threadedCfg(3, PolicyKind::RoundRobin,
                                           PolicyKind::RoundRobin));
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({0, 1, 2}));
    pol->endCycle();
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 2, 0}));
    pol->endCycle();
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({2, 0, 1}));
    pol->endCycle();
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({0, 1, 2}));
}

TEST(FetchPolicyTest, IcountSortsByFetchBufferOccupancy)
{
    auto ts = blankStates(3);
    ts[0].fetchBufOccupancy = 5;
    ts[1].fetchBufOccupancy = 0;
    ts[2].fetchBufOccupancy = 3;
    auto pol = makeFetchPolicy(threadedCfg(3, PolicyKind::Icount,
                                           PolicyKind::RoundRobin));
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 2, 0}));
}

TEST(FetchPolicyTest, IcountTiesFollowTheRotation)
{
    const auto ts = blankStates(3);  // all occupancies equal
    auto pol = makeFetchPolicy(threadedCfg(3, PolicyKind::Icount,
                                           PolicyKind::RoundRobin));
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({0, 1, 2}));
    pol->endCycle();
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 2, 0}));
}

TEST(FetchPolicyTest, BrcountPrefersFewestUnresolvedBranches)
{
    auto ts = blankStates(3);
    ts[0].unresolvedBranches = 2;
    ts[1].unresolvedBranches = 4;
    ts[2].unresolvedBranches = 0;
    auto pol = makeFetchPolicy(threadedCfg(3, PolicyKind::BrCount,
                                           PolicyKind::RoundRobin));
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({2, 0, 1}));
}

TEST(FetchPolicyTest, MisscountPrefersFewestOutstandingMisses)
{
    auto ts = blankStates(4);
    ts[0].outstandingMisses = 1;
    ts[1].outstandingMisses = 0;
    ts[2].outstandingMisses = 7;
    ts[3].outstandingMisses = 0;
    auto pol = makeFetchPolicy(threadedCfg(4, PolicyKind::MissCount,
                                           PolicyKind::RoundRobin));
    Order order;
    pol->fetchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 3, 0, 2}));
}

TEST(ArbitrationPolicyTest, RoundRobinOrdersAllPointsIdentically)
{
    const auto ts = blankStates(4);
    auto pol = makeArbitrationPolicy(
        threadedCfg(4, PolicyKind::Icount, PolicyKind::RoundRobin));
    Order dispatch, ap, ep;
    pol->dispatchOrder(ts, dispatch);
    pol->issueOrder(Unit::AP, ts, ap);
    pol->issueOrder(Unit::EP, ts, ep);
    EXPECT_EQ(dispatch, Order({0, 1, 2, 3}));
    EXPECT_EQ(ap, dispatch);
    EXPECT_EQ(ep, dispatch);
    pol->endCycle();
    pol->dispatchOrder(ts, dispatch);
    EXPECT_EQ(dispatch, Order({1, 2, 3, 0}));
}

TEST(ArbitrationPolicyTest, IcountRanksByFrontEndOccupancy)
{
    auto ts = blankStates(3);
    ts[0].fetchBufOccupancy = 1;  // total 6
    ts[0].apQueueOccupancy = 2;
    ts[0].iqOccupancy = 3;
    ts[1].fetchBufOccupancy = 8;  // total 8
    ts[2].iqOccupancy = 2;        // total 2
    auto pol = makeArbitrationPolicy(
        threadedCfg(3, PolicyKind::Icount, PolicyKind::Icount));
    Order order;
    pol->issueOrder(Unit::AP, ts, order);
    EXPECT_EQ(order, Order({2, 0, 1}));
}

TEST(ArbitrationPolicyTest, MisscountRanksByOutstandingMisses)
{
    auto ts = blankStates(3);
    ts[0].outstandingMisses = 3;
    ts[1].outstandingMisses = 3;  // tie with 0: rotation order holds
    ts[2].outstandingMisses = 1;
    auto pol = makeArbitrationPolicy(
        threadedCfg(3, PolicyKind::Icount, PolicyKind::MissCount));
    Order order;
    pol->dispatchOrder(ts, order);
    EXPECT_EQ(order, Order({2, 0, 1}));
}

TEST(GatingPolicyTest, StallVetoesThreadsWithOutstandingMisses)
{
    auto ts = blankStates(3);
    ts[1].outstandingMisses = 2;
    auto pol = makeFetchPolicy(threadedCfg(3, PolicyKind::Stall,
                                           PolicyKind::RoundRobin));
    EXPECT_TRUE(pol->mayFetch(ts[0]));
    EXPECT_FALSE(pol->mayFetch(ts[1]));
    EXPECT_TRUE(pol->mayFetch(ts[2]));
    // STALL suspends fetch but never squashes the buffer.
    ts[1].fetchBufOccupancy = 4;
    EXPECT_FALSE(pol->shouldFlush(ts[1]));
}

TEST(GatingPolicyTest, FlushVetoesAndRequestsTheSquash)
{
    auto ts = blankStates(2);
    ts[0].outstandingMisses = 1;
    ts[0].fetchBufOccupancy = 4;
    auto pol = makeFetchPolicy(threadedCfg(2, PolicyKind::Flush,
                                           PolicyKind::RoundRobin));
    EXPECT_FALSE(pol->mayFetch(ts[0]));
    EXPECT_TRUE(pol->shouldFlush(ts[0]));
    EXPECT_TRUE(pol->mayFetch(ts[1]));
    EXPECT_FALSE(pol->shouldFlush(ts[1]));
}

TEST(GatingPolicyTest, GatingRanksLikeIcountAndRotates)
{
    // Ordering among non-vetoed threads is the ICOUNT shape: rotation
    // stably sorted by fetch-buffer occupancy.
    auto ts = blankStates(3);
    ts[0].fetchBufOccupancy = 5;
    ts[2].fetchBufOccupancy = 3;
    for (const PolicyKind k : {PolicyKind::Stall, PolicyKind::Flush}) {
        auto pol = makeFetchPolicy(
            threadedCfg(3, k, PolicyKind::RoundRobin));
        Order order;
        pol->fetchOrder(ts, order);
        EXPECT_EQ(order, Order({1, 2, 0})) << policyName(k);
        // Ties keep the rotation order, which advances once per cycle.
        const auto tied = blankStates(3);
        pol->endCycle();
        pol->fetchOrder(tied, order);
        EXPECT_EQ(order, Order({1, 2, 0})) << policyName(k);
        pol->endCycle();
        pol->fetchOrder(tied, order);
        EXPECT_EQ(order, Order({2, 0, 1})) << policyName(k);
    }
}

TEST(GatingPolicyTest, OrderingPoliciesNeverVetoOrFlush)
{
    auto ts = blankStates(2);
    ts[0].outstandingMisses = 9;
    ts[0].fetchBufOccupancy = 9;
    for (const PolicyKind k :
         {PolicyKind::Icount, PolicyKind::RoundRobin, PolicyKind::BrCount,
          PolicyKind::MissCount}) {
        auto pol =
            makeFetchPolicy(threadedCfg(2, k, PolicyKind::RoundRobin));
        EXPECT_TRUE(pol->mayFetch(ts[0])) << policyName(k);
        EXPECT_FALSE(pol->shouldFlush(ts[0])) << policyName(k);
    }
}

TEST(SplitPolicyTest, ApOrdersByMissesEpByWindowedIq)
{
    auto ts = blankStates(3);
    ts[0].outstandingMisses = 4;
    ts[1].outstandingMisses = 0;
    ts[2].outstandingMisses = 2;
    ts[0].iqOccupancyWindow = 10;
    ts[1].iqOccupancyWindow = 500;
    ts[2].iqOccupancyWindow = 40;
    auto pol = makeArbitrationPolicy(
        threadedCfg(3, PolicyKind::Icount, PolicyKind::Split));
    Order ap, ep;
    pol->issueOrder(Unit::AP, ts, ap);
    pol->issueOrder(Unit::EP, ts, ep);
    EXPECT_EQ(ap, Order({1, 2, 0}));  // fewest outstanding misses first
    EXPECT_EQ(ep, Order({0, 2, 1}));  // fewest windowed IQ occupancy
}

TEST(SplitPolicyTest, DispatchUsesTheFrontEndIcountKey)
{
    auto ts = blankStates(3);
    ts[0].fetchBufOccupancy = 2;  // front end 6
    ts[0].apQueueOccupancy = 1;
    ts[0].iqOccupancy = 3;
    ts[1].iqOccupancy = 1;        // front end 1
    ts[2].fetchBufOccupancy = 9;  // front end 9
    auto pol = makeArbitrationPolicy(
        threadedCfg(3, PolicyKind::Icount, PolicyKind::Split));
    Order order;
    pol->dispatchOrder(ts, order);
    EXPECT_EQ(order, Order({1, 0, 2}));
}

TEST(SplitPolicyTest, TiesFollowTheRotation)
{
    const auto ts = blankStates(3);  // all keys equal
    auto pol = makeArbitrationPolicy(
        threadedCfg(3, PolicyKind::Icount, PolicyKind::Split));
    Order order;
    pol->issueOrder(Unit::AP, ts, order);
    EXPECT_EQ(order, Order({0, 1, 2}));
    pol->endCycle();
    pol->issueOrder(Unit::EP, ts, order);
    EXPECT_EQ(order, Order({1, 2, 0}));
}

TEST(SimulatorPolicy, DefaultsAreThePaperPolicies)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.fetchPolicy, PolicyKind::Icount);
    EXPECT_EQ(cfg.issuePolicy, PolicyKind::RoundRobin);
}

TEST(SimulatorPolicy, EveryPolicyPairMakesForwardProgress)
{
    // All thirty valid fetch x issue pairs must graduate instructions
    // on a multithreaded machine — a policy that starves a thread
    // (gating included: a vetoed thread must resume when its miss
    // drains) would trip the simulator's deadlock guard or stall the
    // suite mix.
    for (const PolicyKind fp : fetchPolicies()) {
        for (const PolicyKind ip : issuePolicies()) {
            SimConfig cfg = paperConfig(2, true, 16);
            cfg.warmupInsts = 500;
            cfg.fetchPolicy = fp;
            cfg.issuePolicy = ip;
            const RunResult r = runSuiteMix(cfg, 4000);
            EXPECT_GE(r.insts, 4000u)
                << policyName(fp) << "/" << policyName(ip);
            EXPECT_GT(r.ipc, 0.0)
                << policyName(fp) << "/" << policyName(ip);
        }
    }
}

TEST(SimulatorPolicy, RepeatedRunsAreDeterministicPerPolicy)
{
    // Each policy on its valid seam(s); the other seam stays at its
    // default so gating and split are exercised in isolation.
    for (const PolicyKind k : allPolicies()) {
        SimConfig cfg = paperConfig(3, true, 64);
        cfg.warmupInsts = 500;
        if (policyIsFetch(k))
            cfg.fetchPolicy = k;
        if (policyIsIssue(k))
            cfg.issuePolicy = k;
        const RunResult a = runSuiteMix(cfg, 3000);
        const RunResult b = runSuiteMix(cfg, 3000);
        EXPECT_EQ(a.cycles, b.cycles) << policyName(k);
        EXPECT_EQ(a.insts, b.insts) << policyName(k);
        EXPECT_EQ(a.fpMisses, b.fpMisses) << policyName(k);
    }
}

TEST(SimulatorPolicy, StallNeverFetchesIntoAnOutstandingMiss)
{
    // The veto invariant, checked against the machine itself: at the
    // end of any cycle, a stall-gated thread with an outstanding L1
    // load miss has fetched nothing that cycle. A small L1 over the
    // streaming kernel makes misses plentiful.
    // Misses open at issue, which runs *before* fetch within a step,
    // so a miss outstanding at the end of a step was already visible
    // to that step's fetch snapshot: the veto makes "outstanding miss
    // at end of cycle" and "fetch buffer grew this cycle" mutually
    // exclusive.
    SimConfig cfg = test::testConfig(2, true, 64);
    cfg.fetchPolicy = PolicyKind::Stall;
    cfg.l1Bytes = 1024;
    Simulator sim = test::makeSim(cfg, test::streamingKernel());
    std::uint64_t gated_observations = 0;
    std::vector<std::size_t> buf_before(cfg.numThreads);
    for (int i = 0; i < 2000; ++i) {
        for (ThreadId t = 0; t < cfg.numThreads; ++t)
            buf_before[t] = sim.context(t).fetchBuf.size();
        sim.step();
        for (ThreadId t = 0; t < cfg.numThreads; ++t) {
            const Context &ctx = sim.context(t);
            if (ctx.perceived.outstanding() == 0)
                continue;
            EXPECT_LE(ctx.fetchBuf.size(), buf_before[t])
                << "thread " << t << " fetched at cycle " << sim.now()
                << " with " << ctx.perceived.outstanding()
                << " outstanding misses";
            gated_observations += 1;
        }
    }
    // The small L1 guarantees the gate actually engaged.
    EXPECT_GT(gated_observations, 0u);
    EXPECT_GT(sim.totalGraduated(), 0u);
}

TEST(SimulatorPolicy, FlushSquashesTheGatedThreadsBuffer)
{
    // Under the flush policy, any thread observed with an outstanding
    // miss at the end of a cycle must have an empty fetch buffer: the
    // fetch stage squashed (and vetoed) it after the miss opened.
    SimConfig cfg = test::testConfig(2, true, 64);
    cfg.fetchPolicy = PolicyKind::Flush;
    cfg.l1Bytes = 1024;
    Simulator sim = test::makeSim(cfg, test::streamingKernel());
    std::uint64_t flushed_observations = 0;
    for (int i = 0; i < 2000; ++i) {
        sim.step();
        for (ThreadId t = 0; t < cfg.numThreads; ++t) {
            const Context &ctx = sim.context(t);
            if (ctx.perceived.outstanding() > 0) {
                EXPECT_TRUE(ctx.fetchBuf.empty())
                    << "thread " << t << " at cycle " << sim.now();
                flushed_observations += 1;
            }
        }
    }
    // The small L1 guarantees the gate actually engaged.
    EXPECT_GT(flushed_observations, 0u);
    // And the machine still made forward progress past the squashes.
    EXPECT_GT(sim.totalGraduated(), 0u);
}

TEST(PolicySweep, JobsOneAndEightAreByteIdenticalPerPolicy)
{
    // The acceptance bar of the policy layer: every policy (gating
    // and per-unit included) stays a pure function of simulation
    // state, so a fig4 grid is byte-identical at any worker count.
    for (const PolicyKind k : allPolicies()) {
        std::vector<std::string> common = {
            "fig4",           "--insts=1500",
            "--warmup=300",   "--threads-list=1,2",
            "--latencies=1,16",
            "--quiet",        "--json"};
        if (policyIsFetch(k))
            common.push_back("--fetch-policy=" +
                             std::string(policyName(k)));
        if (policyIsIssue(k))
            common.push_back("--issue-policy=" +
                             std::string(policyName(k)));
        std::vector<std::string> serial = common, parallel = common;
        serial.push_back("--jobs=1");
        parallel.push_back("--jobs=8");
        std::string serial_out, parallel_out;
        ASSERT_EQ(test::cli(serial, serial_out), 0) << policyName(k);
        ASSERT_EQ(test::cli(parallel, parallel_out), 0) << policyName(k);
        EXPECT_FALSE(serial_out.empty());
        EXPECT_EQ(serial_out, parallel_out) << policyName(k);
    }
}

TEST(PolicySweep, AblatePolicyCoversTheFullGrid)
{
    std::string out;
    ASSERT_EQ(test::cli({"ablate-policy", "--insts=1000", "--warmup=200",
                   "--threads-list=1,2", "--quiet", "--json"},
                  out),
              0);
    for (const PolicyKind k : allPolicies())
        EXPECT_NE(out.find(policyName(k)), std::string::npos)
            << policyName(k);
    // 8 fetch x 6 issue x 2 thread counts = 96 valid grid rows.
    std::size_t rows = 0;
    for (std::size_t pos = out.find("\"fetch_policy\"");
         pos != std::string::npos;
         pos = out.find("\"fetch_policy\"", pos + 1))
        rows += 1;
    EXPECT_EQ(rows, 96u);
}

TEST(PolicySweep, AblateGatingChangesThroughputOnTheFiniteL2)
{
    // The point of the gating tentpole, asserted directionally: on the
    // finite-L2 backend, suspending fetch on miss pressure (stall) and
    // additionally squashing the buffer (flush) produce throughput
    // *different* from the plain icount ordering — the gate engages
    // and changes the schedule, it is not a no-op rename. (Whether
    // gating wins is workload- and pressure-dependent, exactly what
    // `mtdae ablate-gating` sweeps; here we pin only that the policies
    // are live.)
    auto run = [](PolicyKind fetch) {
        SimConfig cfg = paperConfig(4, true, 16);
        cfg.perfectL2 = false;
        cfg.l2Bytes = 64 * 1024;
        cfg.warmupInsts = 1000;
        cfg.fetchPolicy = fetch;
        return runSuiteMix(cfg, 8000);
    };
    const RunResult icount = run(PolicyKind::Icount);
    const RunResult stall = run(PolicyKind::Stall);
    const RunResult flush = run(PolicyKind::Flush);
    EXPECT_GT(icount.ipc, 0.0);
    EXPECT_GT(stall.ipc, 0.0);
    EXPECT_GT(flush.ipc, 0.0);
    EXPECT_NE(stall.cycles, icount.cycles);
    EXPECT_NE(flush.cycles, icount.cycles);
    EXPECT_NE(flush.cycles, stall.cycles);
}

TEST(PolicySweep, AblateGatingCoversItsGrid)
{
    std::string out;
    ASSERT_EQ(test::cli({"ablate-gating", "--insts=1000", "--warmup=200",
                   "--threads-list=2", "--latencies=64", "--quiet",
                   "--json"},
                  out),
              0);
    // 3 gating policies x 1 L2 size x 1 thread count = 3 rows.
    for (const char *name : {"icount", "stall", "flush"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
    std::size_t rows = 0;
    for (std::size_t pos = out.find("\"fetch_policy\"");
         pos != std::string::npos;
         pos = out.find("\"fetch_policy\"", pos + 1))
        rows += 1;
    EXPECT_EQ(rows, 3u);
}

TEST(PolicyGolden, DefaultPoliciesReproducePrePolicyLayerCsvs)
{
    // tests/golden/*.csv were generated by the simulator *before* the
    // arbitration layer existed (commit 055b469's tree), with exactly
    // these arguments. The default icount/round-robin policies must
    // reproduce them byte for byte.
    const std::string out_dir = ::testing::TempDir() + "mtdae_golden";

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
        args.insert(args.end(), {"--insts=2000", "--warmup=500",
                                 "--quiet", "--out=" + out_dir});
        std::string out;
        ASSERT_EQ(test::cli(args, out), 0) << name;
        const std::string got = test::slurp(out_dir + "/" + name + ".csv");
        const std::string want = test::slurp(std::string(MTDAE_SOURCE_DIR) +
                                       "/tests/golden/" + name + ".csv");
        ASSERT_FALSE(want.empty()) << name;
        EXPECT_EQ(got, want)
            << name << ": default-policy output drifted from the "
            << "pre-policy-layer simulator";
    }
}

TEST(PolicyContract, EveryOrderIsAFullPermutation)
{
    // The contract Simulator::accountSlots leans on (its
    // reasons[s % reasons.size()] round-robin asserts a non-empty
    // order): every policy's visit order is a permutation of all
    // thread ids — never empty, never duplicated, never filtered.
    // Eligibility is the Simulator's job, applied after the policy.
    Rng rng(0x6f72646572);
    for (std::uint32_t n : {1u, 2u, 3u, 6u}) {
        auto ts = blankStates(n);
        for (auto &t : ts) {
            t.fetchBufOccupancy = std::uint32_t(rng.uniform(9));
            t.apQueueOccupancy = std::uint32_t(rng.uniform(9));
            t.iqOccupancy = std::uint32_t(rng.uniform(9));
            t.robOccupancy = std::uint32_t(rng.uniform(17));
            t.unresolvedBranches = std::uint32_t(rng.uniform(5));
            t.outstandingMisses = std::uint32_t(rng.uniform(5));
            t.iqOccupancyWindow = std::uint32_t(rng.uniform(99));
        }
        const auto is_permutation = [n](Order order) {
            if (order.size() != n)
                return false;
            std::sort(order.begin(), order.end());
            for (std::uint32_t i = 0; i < n; ++i)
                if (order[i] != i)
                    return false;
            return true;
        };
        for (const PolicyKind fk : fetchPolicies()) {
            auto pol = makeFetchPolicy(
                threadedCfg(n, fk, PolicyKind::RoundRobin));
            Order order;
            for (int cycle = 0; cycle < 8; ++cycle) {
                pol->fetchOrder(ts, order);
                EXPECT_TRUE(is_permutation(order))
                    << policyName(fk) << " n=" << n;
                pol->endCycle();
            }
        }
        for (const PolicyKind ik : issuePolicies()) {
            auto pol = makeArbitrationPolicy(
                threadedCfg(n, PolicyKind::Icount, ik));
            Order order;
            for (int cycle = 0; cycle < 8; ++cycle) {
                pol->dispatchOrder(ts, order);
                EXPECT_TRUE(is_permutation(order))
                    << policyName(ik) << " dispatch n=" << n;
                for (const Unit u : {Unit::AP, Unit::EP}) {
                    pol->issueOrder(u, ts, order);
                    EXPECT_TRUE(is_permutation(order))
                        << policyName(ik) << " issue n=" << n;
                }
                pol->endCycle();
            }
        }
    }
}

/** The ThreadState count @p key ranks by (test-side restatement). */
std::uint32_t
keyCount(PolicyKey key, const ThreadState &t)
{
    switch (key) {
      case PolicyKey::FetchBuf: return t.fetchBufOccupancy;
      case PolicyKey::FrontEnd: return t.frontEndOccupancy();
      case PolicyKey::Branches: return t.unresolvedBranches;
      case PolicyKey::Misses: return t.outstandingMisses;
      case PolicyKey::IqWindow: return t.iqOccupancyWindow;
      default: return 0;
    }
}

/** The ranking rule restated with std::stable_sort. */
Order
referenceRank(PolicyKey key, bool weighted, std::uint32_t first,
              const std::vector<ThreadState> &ts)
{
    const std::uint32_t n = std::uint32_t(ts.size());
    Order out;
    for (std::uint32_t i = 0; i < n; ++i)
        out.push_back((first + i) % n);
    if (key == PolicyKey::Rotation)
        return out;
    std::stable_sort(out.begin(), out.end(), [&](ThreadId a, ThreadId b) {
        const std::uint64_t ka = keyCount(key, ts[a]);
        const std::uint64_t kb = keyCount(key, ts[b]);
        return weighted ? ka * ts[b].weight < kb * ts[a].weight : ka < kb;
    });
    return out;
}

TEST(PolicyRanking, MatchesAStableSortReference)
{
    // Differential test of the allocation-free ranking (rankThreads)
    // against std::stable_sort: every key, weighted and unweighted,
    // every machine size up to 16 threads and every rotation. Small
    // count ranges force ties (the rotation must break them); a few
    // huge counts and weights exercise the 64-bit weighted product.
    Rng rng(0x72616e6b);
    const PolicyKey keys[] = {PolicyKey::Rotation, PolicyKey::FetchBuf,
                              PolicyKey::FrontEnd, PolicyKey::Branches,
                              PolicyKey::Misses, PolicyKey::IqWindow};
    Order got;
    for (std::uint32_t n = 1; n <= 16; ++n) {
        for (int trial = 0; trial < 24; ++trial) {
            const std::uint32_t range = trial % 3 == 0 ? 3 : 40;
            auto ts = blankStates(n);
            for (auto &t : ts) {
                t.fetchBufOccupancy = std::uint32_t(rng.uniform(range));
                t.apQueueOccupancy = std::uint32_t(rng.uniform(range));
                t.iqOccupancy = std::uint32_t(rng.uniform(range));
                t.unresolvedBranches = std::uint32_t(rng.uniform(range));
                t.outstandingMisses = std::uint32_t(rng.uniform(range));
                t.iqOccupancyWindow =
                    trial % 4 == 1 ? 0xfffffff0u - std::uint32_t(
                                                      rng.uniform(range))
                                   : std::uint32_t(rng.uniform(64 * range));
                t.weight = trial % 5 == 2
                    ? 0xffffff00u + std::uint32_t(rng.uniform(range))
                    : 1 + std::uint32_t(rng.uniform(16));
            }
            for (const PolicyKey key : keys)
                for (const bool weighted : {false, true})
                    for (std::uint32_t first = 0; first < n; ++first) {
                        rankThreads(key, weighted, first, ts, got);
                        ASSERT_EQ(got,
                                  referenceRank(key, weighted, first, ts))
                            << "n=" << n << " key=" << int(key)
                            << " weighted=" << weighted
                            << " first=" << first;
                    }
        }
    }
}

} // namespace
} // namespace mtdae
