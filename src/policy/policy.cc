#include "policy/policy.hh"

#include <algorithm>
#include <iterator>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mtdae {

namespace {

using K = PolicyKey;
using G = FetchGate;

/**
 * Every policy, one row each, in PolicyKind order. Keys per consulting
 * point: fetch, dispatch, AP issue, EP issue.
 */
constexpr PolicyRow kPolicyTable[] = {
    {PolicyKind::Icount, "icount",
     K::FetchBuf, K::FrontEnd, K::FrontEnd, K::FrontEnd, false, G::None},
    {PolicyKind::RoundRobin, "round-robin",
     K::Rotation, K::Rotation, K::Rotation, K::Rotation, false, G::None},
    {PolicyKind::BrCount, "brcount",
     K::Branches, K::Branches, K::Branches, K::Branches, false, G::None},
    {PolicyKind::MissCount, "misscount",
     K::Misses, K::Misses, K::Misses, K::Misses, false, G::None},
    {PolicyKind::Stall, "stall",
     K::FetchBuf, K::Invalid, K::Invalid, K::Invalid, false, G::Stall},
    {PolicyKind::Flush, "flush",
     K::FetchBuf, K::Invalid, K::Invalid, K::Invalid, false, G::Flush},
    {PolicyKind::Split, "split",
     K::Invalid, K::FrontEnd, K::Misses, K::IqWindow, false, G::None},
    {PolicyKind::Adaptive, "adaptive",
     K::FetchBuf, K::Invalid, K::Invalid, K::Invalid, false, G::Adaptive},
    {PolicyKind::Weighted, "weighted",
     K::FetchBuf, K::FrontEnd, K::FrontEnd, K::FrontEnd, true, G::None},
};

constexpr bool
servesFetch(const PolicyRow &r)
{
    return r.fetch != K::Invalid;
}

/** Dispatch and both issue units are served together (wellFormed). */
constexpr bool
servesIssue(const PolicyRow &r)
{
    return r.dispatch != K::Invalid;
}

/** Rows in enum order; every policy serves a seam; the back-end seam
 *  is served whole or not at all; a gate only on a fetch policy. */
constexpr bool
wellFormed()
{
    for (std::size_t i = 0; i < std::size(kPolicyTable); ++i) {
        const PolicyRow &r = kPolicyTable[i];
        const bool issue = servesIssue(r);
        if (std::size_t(r.kind) != i ||
            (r.apIssue != K::Invalid) != issue ||
            (r.epIssue != K::Invalid) != issue ||
            (r.gate != G::None && !servesFetch(r)) ||
            (!servesFetch(r) && !issue))
            return false;
    }
    return true;
}
static_assert(wellFormed(), "malformed policy table");

/** The kinds whose rows satisfy @p pred, in table order. */
template <typename Pred>
std::vector<PolicyKind>
kindsWhere(Pred pred)
{
    std::vector<PolicyKind> kinds;
    for (const PolicyRow &r : kPolicyTable)
        if (pred(r))
            kinds.push_back(r.kind);
    return kinds;
}

/**
 * Insertion-sort @p out by the strict order @p less. An element moves
 * only past strictly greater ones, so equal elements keep their
 * relative order (stable), and nothing is allocated: the orders are
 * at most a few dozen thread ids, sorted four times per cycle.
 */
template <typename Less>
void
insertionSort(std::vector<ThreadId> &out, Less less)
{
    for (std::size_t i = 1; i < out.size(); ++i) {
        const ThreadId id = out[i];
        std::size_t j = i;
        for (; j > 0 && less(id, out[j - 1]); --j)
            out[j] = out[j - 1];
        out[j] = id;
    }
}

/**
 * Stably sort @p out (a rotation) fewest-first by @p key, or by
 * key/weight when @p weighted. Each key gets its own inlined
 * comparator: a switch on the key inside one comparator cost 11% of
 * smt-busy host throughput (docs/PERFORMANCE.md, section 6).
 */
template <typename KeyFn>
void
sortBy(const std::vector<ThreadState> &threads, bool weighted, KeyFn key,
       std::vector<ThreadId> &out)
{
    if (weighted)
        insertionSort(out, [&](ThreadId a, ThreadId b) {
            const ThreadState &ta = threads[a];
            const ThreadState &tb = threads[b];
            return std::uint64_t(key(ta)) * tb.weight <
                   std::uint64_t(key(tb)) * ta.weight;
        });
    else
        insertionSort(out, [&](ThreadId a, ThreadId b) {
            return key(threads[a]) < key(threads[b]);
        });
}

/** Does any of @p r's keys rank by ThreadState::iqOccupancyWindow? */
constexpr bool
readsIqWindowKey(const PolicyRow &r)
{
    return r.fetch == K::IqWindow || r.dispatch == K::IqWindow ||
           r.apIssue == K::IqWindow || r.epIssue == K::IqWindow;
}

const PolicyRow &
policyRow(PolicyKind kind)
{
    MTDAE_ASSERT(std::size_t(kind) < std::size(kPolicyTable),
                 "PolicyKind ", int(kind), " has no policy table row");
    return kPolicyTable[std::size_t(kind)];
}

} // namespace

const char *
policyName(PolicyKind k)
{
    return policyRow(k).name;
}

bool
parsePolicy(const std::string &s, PolicyKind &out)
{
    for (const PolicyRow &r : kPolicyTable) {
        if (s == r.name) {
            out = r.kind;
            return true;
        }
    }
    return false;
}

const std::vector<PolicyKind> &
allPolicies()
{
    static const auto kinds = kindsWhere([](const PolicyRow &) {
        return true;
    });
    return kinds;
}

const std::vector<PolicyKind> &
fetchPolicies()
{
    static const auto kinds = kindsWhere(servesFetch);
    return kinds;
}

const std::vector<PolicyKind> &
issuePolicies()
{
    static const auto kinds = kindsWhere(servesIssue);
    return kinds;
}

bool
policyIsFetch(PolicyKind k)
{
    return servesFetch(policyRow(k));
}

bool
policyIsIssue(PolicyKind k)
{
    return servesIssue(policyRow(k));
}

Policy::Policy(PolicyKind kind, const SimConfig &cfg)
    : row_(policyRow(kind)), nthreads_(cfg.numThreads),
      adaptiveGate_(std::uint64_t(cfg.adaptiveMissThreshold) *
                    kPolicyWindowCycles),
      readsIqWindow_(readsIqWindowKey(row_)),
      readsWindows_(readsIqWindow_ || row_.gate == G::Adaptive)
{}

void
Policy::fetchOrder(const std::vector<ThreadState> &threads,
                   std::vector<ThreadId> &out) const
{
    // The adaptive policy ranks by pure rotation until some thread's
    // trailing miss window shows a memory phase.
    const bool compute_phase =
        row_.gate == G::Adaptive &&
        std::all_of(threads.begin(), threads.end(),
                    [](const ThreadState &t) { return t.missWindow == 0; });
    order(compute_phase ? K::Rotation : row_.fetch, threads, out);
}

void
Policy::order(PolicyKey key, const std::vector<ThreadState> &threads,
              std::vector<ThreadId> &out) const
{
    rankThreads(key, row_.weighted, rr_, threads, out);
}

void
rankThreads(PolicyKey key, bool weighted, std::uint32_t first,
            const std::vector<ThreadState> &threads,
            std::vector<ThreadId> &out)
{
    const std::uint32_t n = std::uint32_t(threads.size());
    out.clear();
    if (n == 1) {
        // Single-thread machines dominate sweep grids; skip the
        // modular walk and the sort outright.
        out.push_back(0);
        return;
    }
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        out.push_back((first + i) % n);

    switch (key) {
      case K::Rotation:
        return;
      case K::FetchBuf:
        return sortBy(threads, weighted, [](const ThreadState &t) {
            return t.fetchBufOccupancy;
        }, out);
      case K::FrontEnd:
        return sortBy(threads, weighted, [](const ThreadState &t) {
            return t.frontEndOccupancy();
        }, out);
      case K::Branches:
        return sortBy(threads, weighted, [](const ThreadState &t) {
            return t.unresolvedBranches;
        }, out);
      case K::Misses:
        return sortBy(threads, weighted, [](const ThreadState &t) {
            return t.outstandingMisses;
        }, out);
      case K::IqWindow:
        return sortBy(threads, weighted, [](const ThreadState &t) {
            return t.iqOccupancyWindow;
        }, out);
      case K::Invalid:
        break;
    }
    MTDAE_PANIC("a policy was consulted at a seam it does not serve");
}

void
Policy::save(ByteWriter &w) const
{
    w.u32(rr_);
}

void
Policy::restore(ByteReader &r)
{
    rr_ = r.u32() % nthreads_;
}

std::unique_ptr<Policy>
makeFetchPolicy(const SimConfig &cfg)
{
    MTDAE_ASSERT(policyIsFetch(cfg.fetchPolicy),
                 "'", policyName(cfg.fetchPolicy),
                 "' is not a fetch policy (SimConfig::validate "
                 "should have rejected it)");
    return std::make_unique<Policy>(cfg.fetchPolicy, cfg);
}

std::unique_ptr<Policy>
makeArbitrationPolicy(const SimConfig &cfg)
{
    MTDAE_ASSERT(policyIsIssue(cfg.issuePolicy),
                 "'", policyName(cfg.issuePolicy),
                 "' is not a dispatch/issue policy (SimConfig::validate "
                 "should have rejected it)");
    return std::make_unique<Policy>(cfg.issuePolicy, cfg);
}

} // namespace mtdae
