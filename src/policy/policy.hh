/**
 * @file
 * Thread-arbitration policies: the scheduler of the shared pipeline
 * stages. Every policy is one mechanism — a round-robin rotation
 * advanced once per cycle, stably sorted fewest-first by one
 * ThreadState count, optionally divided by the thread's QoS weight,
 * plus an optional fetch gate — so a policy is one row of a table
 * (policy.cc), and Policy is the one class that runs any row.
 *
 * Four consulting points per cycle: fetch (which threads get the
 * I-cache ports; a gate may also veto a thread's fetch or squash its
 * fetch buffer), dispatch, and the issue of each unit (the slot
 * accounting consumes the *same* issue order, so the Figure 3
 * attribution can never drift from the arbitration). A row's key per
 * point is what lets `split` order the AP and the EP differently.
 *
 * Determinism contract: a policy's output is a pure function of its
 * rotation and of the ThreadState snapshots it is handed — never of
 * wall clock, allocation addresses or scheduling. This is what keeps
 * every sweep byte-identical at any --jobs count.
 *
 * Policies see the machine only through ThreadState: a per-context
 * occupancy/blocked snapshot taken at the start of the consulting
 * stage. They never touch Context or Simulator internals.
 */

#ifndef MTDAE_POLICY_POLICY_HH
#define MTDAE_POLICY_POLICY_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "isa/opcode.hh"

namespace mtdae {

class ByteWriter;
class ByteReader;

/**
 * Length, in cycles, of every trailing-window ThreadState statistic
 * (iqOccupancyWindow, missWindow). One shared constant so a policy can
 * reason about saturation: a value constant for a full window yields a
 * sum of `current_value * kPolicyWindowCycles`. Note the converse does
 * NOT hold — a mixed sample ring can coincidentally produce the same
 * sum — which is why ThreadState carries an explicit
 * missWindowUniform flag for stability reasoning.
 */
inline constexpr std::uint32_t kPolicyWindowCycles = 64;

/**
 * Read-only per-context snapshot handed to policies — the only state a
 * policy may base its ordering or gating on. Built by
 * Context::policyState() at the start of each consulting pipeline
 * stage (issue, dispatch, fetch), so within one stage every policy
 * call sees the same values; a later stage of the same cycle sees the
 * effects of the earlier stages. Each field below names the machine
 * state it mirrors and the pipeline point that updates that state.
 */
struct ThreadState
{
    /** Hardware context id; stable for the simulation's lifetime. */
    ThreadId tid = 0;

    /**
     * Fetched instructions pending dispatch (the ICOUNT fetch key):
     * Context::fetchBuf.size(). Grows at fetch, shrinks at dispatch,
     * and drops to zero when a flush-gating policy squashes the buffer.
     */
    std::uint32_t fetchBufOccupancy = 0;
    /** AP pending-issue queue occupancy (Context::apQ.size()): grows
     *  at dispatch, shrinks as the AP issues. */
    std::uint32_t apQueueOccupancy = 0;
    /** EP Instruction Queue occupancy (Context::iq.size()) — the
     *  decoupling queue: grows at dispatch, shrinks as the EP issues. */
    std::uint32_t iqOccupancy = 0;
    /** Reorder-buffer occupancy (Context::rob.size()): grows at
     *  dispatch, shrinks at graduation. */
    std::uint32_t robOccupancy = 0;
    /** Unresolved conditional branches (the BrCount key):
     *  incremented at fetch, decremented at branch resolution
     *  (writeback) and when a fetch-buffer flush squashes a
     *  not-yet-dispatched branch. */
    std::uint32_t unresolvedBranches = 0;
    /**
     * Outstanding L1 load misses (the MissCount key and the
     * stall/flush gating trigger): PerceivedTracker::outstanding(),
     * incremented when a load misses the L1 at issue
     * (PerceivedTracker::open()), decremented when the fill lands and
     * the load completes (close() at writeback). Unaffected by
     * statistics resets.
     */
    std::uint32_t outstandingMisses = 0;
    /**
     * Sum of the per-cycle EP Instruction Queue occupancy samples over
     * the trailing Context::kIqWindow (64) cycles — the `split`
     * policy's EP drain-rate key. Sampled once per cycle at the end of
     * Simulator::step(), so it is constant across all of a cycle's
     * consulting stages and excludes the current cycle. Both windows
     * are sampled only while a configured policy reads one
     * (Policy::readsWindows()); otherwise they stay 0.
     */
    std::uint32_t iqOccupancyWindow = 0;
    /**
     * Sum of the per-cycle outstanding-L1-load-miss samples over the
     * trailing kPolicyWindowCycles (64) cycles — the adaptive policy's
     * phase-detection key. Sampled at the same point as
     * iqOccupancyWindow (end of Simulator::step()), so the two windows
     * always cover the same cycles.
     */
    std::uint32_t missWindow = 0;
    /**
     * True when every sample in the trailing miss window equals the
     * current outstandingMisses — i.e. the window has genuinely
     * saturated and cannot move while outstandingMisses stays frozen.
     * The sum alone cannot establish this (a mixed ring can
     * coincidentally sum to outstandingMisses * kPolicyWindowCycles
     * and still decay as it slides), so policies whose vetoStable()
     * reasons about window freezing must consult this flag, never the
     * sum.
     */
    bool missWindowUniform = false;
    /**
     * The thread's QoS priority weight (SimConfig::threadWeight(tid)):
     * constant for the simulation's lifetime, >= 1, consumed by the
     * Weighted policies and the fairness metrics. 1 on uniform
     * machines.
     */
    std::uint32_t weight = 1;

    /**
     * True when the thread may fetch this cycle: not gated on a
     * mispredicted branch or redirect, instructions remain (trace not
     * exhausted, or flushed instructions awaiting replay), fetch
     * buffer not full. Computed by the Simulator; fetch policies
     * may use it but the Simulator re-checks it regardless.
     */
    bool fetchEligible = false;

    /** Occupancy of everything fetched but not yet issued. */
    std::uint32_t
    frontEndOccupancy() const
    {
        return fetchBufOccupancy + apQueueOccupancy + iqOccupancy;
    }

    /** Field-wise equality (the snapshot-cache coherence check). */
    bool operator==(const ThreadState &) const = default;
};

/** The ThreadState count a policy ranks by at one consulting point. */
enum class PolicyKey : std::uint8_t {
    Invalid,   ///< The policy does not serve this point's seam.
    Rotation,  ///< None: pure round-robin.
    FetchBuf,  ///< fetchBufOccupancy (the ICOUNT fetch key).
    FrontEnd,  ///< frontEndOccupancy() (back-end ICOUNT).
    Branches,  ///< unresolvedBranches.
    Misses,    ///< outstandingMisses.
    IqWindow,  ///< iqOccupancyWindow.
};

/** How a fetch policy may suspend a thread's fetch. */
enum class FetchGate : std::uint8_t {
    None,      ///< Never veto.
    Stall,     ///< Veto a thread with an outstanding L1 load miss.
    Flush,     ///< Stall, and squash the vetoed thread's fetch buffer.
    /** Stall only once the trailing miss window has reached
     *  SimConfig::adaptiveMissThreshold * kPolicyWindowCycles; rank by
     *  pure rotation while every thread's miss window is empty. */
    Adaptive,
};

/** One PolicyKind's whole definition: a row of the policy table. */
struct PolicyRow
{
    PolicyKind kind;
    const char *name;  ///< CLI spelling (policyName()).
    PolicyKey fetch;
    PolicyKey dispatch;
    PolicyKey apIssue;
    PolicyKey epIssue;
    /** Compare key/weight instead of key, exactly: a * w(b) < b * w(a)
     *  in 64 bits, so uniform weights reduce to the unweighted order. */
    bool weighted;
    FetchGate gate;
};

/**
 * Any policy at any of its consulting points. The Simulator holds two:
 * the fetch policy (fetchOrder and the gate hooks) and the
 * dispatch/issue policy (dispatchOrder, issueOrder). Every order holds
 * every thread id exactly once, highest priority first, in @p out
 * (cleared first); @p threads is indexed by tid. Ties keep the
 * rotation order (a stable sort, rankThreads), which is also what
 * lets the Simulator skip ineligible or vetoed threads after ranking.
 */
class Policy
{
  public:
    Policy(PolicyKind kind, const SimConfig &cfg);

    /** Registry name ("icount", ...), for labels and error messages. */
    std::string_view name() const { return row_.name; }

    /** Priority order for this cycle's I-cache ports. */
    void fetchOrder(const std::vector<ThreadState> &threads,
                    std::vector<ThreadId> &out) const;

    /** Visit order for this cycle's dispatch stage. */
    void
    dispatchOrder(const std::vector<ThreadState> &threads,
                  std::vector<ThreadId> &out) const
    {
        order(row_.dispatch, threads, out);
    }

    /** Visit order for @p unit's issue (and its slot accounting). */
    void
    issueOrder(Unit unit, const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) const
    {
        order(unit == Unit::AP ? row_.apIssue : row_.epIssue, threads,
              out);
    }

    /**
     * Gating veto: may thread @p t fetch at all this cycle? A vetoed
     * thread neither fetches nor consumes a port.
     */
    bool
    mayFetch(const ThreadState &t) const
    {
        return t.outstandingMisses == 0 || row_.gate == FetchGate::None ||
               (row_.gate == FetchGate::Adaptive &&
                t.missWindow < adaptiveGate_);
    }

    /**
     * Squash request: should the Simulator flush thread @p t's
     * not-yet-dispatched fetch buffer (Simulator::flushFetchBuffer)
     * before this cycle's fetch?
     */
    bool
    shouldFlush(const ThreadState &t) const
    {
        return row_.gate == FetchGate::Flush && t.outstandingMisses > 0;
    }

    /**
     * Is the mayFetch() verdict for @p t guaranteed to hold for as
     * long as the thread's non-window state (occupancies,
     * outstandingMisses) stays frozen? The idle fast-forward engine
     * (Simulator::trySkipIdle) treats a vetoed thread as dormant only
     * then: the trailing windows keep sliding through an idle span.
     * Only the adaptive gate reads a window, and its verdict is frozen
     * once every slot equals the frozen count (missWindowUniform — a
     * mixed ring can sum to the same value and still decay).
     */
    bool
    vetoStable(const ThreadState &t) const
    {
        return row_.gate != FetchGate::Adaptive ||
               t.outstandingMisses == 0 || t.missWindowUniform;
    }

    /** Does any order read ThreadState::iqOccupancyWindow? */
    bool readsIqWindow() const { return readsIqWindow_; }

    /**
     * Does any order or the gate read a trailing window
     * (iqOccupancyWindow, missWindow, missWindowUniform)? When neither
     * of the Simulator's policies does, it never samples the windows.
     */
    bool readsWindows() const { return readsWindows_; }

    /** Advance the rotation; called once per cycle. */
    void endCycle() { rr_ = (rr_ + 1) % nthreads_; }

    /** Advance by @p n cycles at once: exactly n endCycle() calls. */
    void
    skipCycles(std::uint64_t n)
    {
        rr_ = std::uint32_t((rr_ + n) % nthreads_);
    }

    /** Serialize / restore the rotation (one u32). */
    void save(ByteWriter &w) const;
    void restore(ByteReader &r);

  private:
    void order(PolicyKey key, const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) const;

    PolicyRow row_;
    std::uint32_t nthreads_;
    std::uint32_t rr_ = 0;
    /** The adaptive gate's window sum, computed in 64 bits so a large
     *  --adaptive-threshold cannot wrap it. */
    std::uint64_t adaptiveGate_;
    bool readsIqWindow_;
    bool readsWindows_;
};

/**
 * The ranking behind every Policy order: the rotation of
 * threads.size() ids starting at @p first, stably sorted fewest-first
 * by @p key's ThreadState count — by count/weight when @p weighted
 * (compared as a * w(b) < b * w(a) in 64 bits). Rotation leaves the
 * rotation as is; Invalid is a panic. Allocates nothing once @p out
 * has grown to the thread count.
 */
void rankThreads(PolicyKey key, bool weighted, std::uint32_t first,
                 const std::vector<ThreadState> &threads,
                 std::vector<ThreadId> &out);

/** The fetch policy selected by @p cfg.fetchPolicy. */
std::unique_ptr<Policy> makeFetchPolicy(const SimConfig &cfg);

/** The dispatch/issue policy selected by @p cfg.issuePolicy. */
std::unique_ptr<Policy> makeArbitrationPolicy(const SimConfig &cfg);

} // namespace mtdae

#endif // MTDAE_POLICY_POLICY_HH
