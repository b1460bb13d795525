/**
 * @file
 * The multithreaded decoupled access/execute processor simulator: the
 * paper's proposed machine, cycle by cycle.
 *
 * Pipeline, evaluated once per cycle:
 *   1. memory begin-cycle (ports recycle, MSHR fills land)
 *   2. completions (writeback: wake consumers, resolve branches)
 *   3. issue (per unit, in order per thread, across threads in the
 *      issue policy's visit order, full simultaneous issue; slot
 *      accounting — over the same visit order — and perceived-latency
 *      attribution)
 *   4. dispatch (rename, steer to AP queue / EP Instruction Queue,
 *      allocate ROB and SAQ entries; threads visited in the
 *      issue policy's dispatch order)
 *   5. fetch (2 threads per cycle chosen by the fetch policy — ICOUNT by
 *      default — up to 8 consecutive instructions to the first taken
 *      branch; mispredicted branches gate fetch until resolution —
 *      trace-driven wrong-path modelling. Gating policies are applied
 *      here first: Policy::shouldFlush() squashes a thread's
 *      not-yet-dispatched buffer for later replay, and
 *      Policy::mayFetch() vetoes threads from the ranked walk)
 *   6. graduate (in-order retirement; stores write the cache here)
 *
 * Thread arbitration is table-driven (src/policy/policy.hh): the two
 * policies are consulted once per cycle with read-only per-context
 * snapshots, selected by SimConfig::fetchPolicy / SimConfig::issuePolicy.
 */

#ifndef MTDAE_CORE_SIMULATOR_HH
#define MTDAE_CORE_SIMULATOR_HH

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "core/context.hh"
#include "core/profile.hh"
#include "core/slot_stats.hh"
#include "memory/memory_system.hh"
#include "policy/policy.hh"

namespace mtdae {

struct Snapshot;

/**
 * Aggregated results of a measured simulation interval.
 */
struct RunResult
{
    std::uint64_t cycles = 0;  ///< Measured cycles.
    std::uint64_t insts = 0;   ///< Instructions graduated while measured.
    double ipc = 0.0;          ///< insts / cycles.

    double perceivedFp = 0.0;   ///< Avg perceived FP-load miss latency.
    double perceivedInt = 0.0;  ///< Avg perceived int-load miss latency.
    double perceivedAll = 0.0;  ///< Avg perceived latency over all misses.
    std::uint64_t fpMisses = 0;   ///< FP-load misses in the interval.
    std::uint64_t intMisses = 0;  ///< Int-load misses in the interval.

    double loadMissRatio = 0.0;   ///< L1 load miss ratio (primary).
    double storeMissRatio = 0.0;  ///< L1 store miss ratio (primary).
    double missRatio = 0.0;       ///< Combined L1 miss ratio (primary).
    double mergedRatio = 0.0;     ///< Delayed hits / all accesses.
    double busUtilization = 0.0;  ///< L1-L2 bus utilisation.

    /** Avg end-to-end L1-miss fill latency in cycles. With the perfect
     *  L2 this is ~l2Latency + transfer; with the finite backend it is
     *  the *emergent* memory latency (docs/MEMORY.md). */
    double avgFillLatency = 0.0;
    double l2MissRatio = 0.0;        ///< L2 miss ratio (finite backend).
    double dramRowHitRatio = 0.0;    ///< DRAM row-buffer hit ratio.
    double dramBusUtilization = 0.0; ///< DRAM data bus utilisation.

    SlotBreakdown ap;  ///< AP issue-slot breakdown.
    SlotBreakdown ep;  ///< EP issue-slot breakdown.

    double mispredictRate = 0.0;  ///< Conditional-branch mispredict rate.

    /** Cycles of the interval fast-forwarded by the idle skip engine
     *  (a subset of cycles; 0 with --cycle-skip=off). Observability
     *  only: excluded from every byte-identity comparison, because the
     *  simulated statistics are identical either way. */
    std::uint64_t cyclesSkipped = 0;
    /** Quiescent spans fast-forwarded (trySkipIdle successes). */
    std::uint64_t skipEvents = 0;

    /** Per-stage wall-clock breakdown of the measured interval. All
     *  zeros (enabled == false) unless Simulator::setProfiling(true)
     *  was in force; wall-clock measurement, never part of any
     *  byte-identity comparison. */
    StageProfile profile;

    // --- Per-thread QoS / fairness metrics (docs/POLICIES.md) --------
    /** Instructions each thread graduated in the interval (indexed by
     *  tid; insts == sum of this vector). */
    std::vector<std::uint64_t> threadInsts;
    /**
     * Per-thread slowdown relative to the thread's weighted fair share:
     * (w_i / sum_w) * total_insts / insts_i. Exactly 1.0 for every
     * thread when progress is proportional to weight; > 1 for threads
     * receiving less than their share; 0 when the thread graduated
     * nothing (no meaningful slowdown is defined).
     */
    std::vector<double> threadSlowdown;
    /** Weight-averaged per-thread IPC: sum(w_i * insts_i / cycles) /
     *  sum_w. Equals ipc / numThreads-mean under uniform weights. */
    double weightedSpeedup = 0.0;
    /**
     * Harmonic mean of the per-thread normalized progress x_i =
     * (insts_i / total_insts) / (w_i / sum_w). 1.0 at perfectly
     * weight-proportional progress, pulled toward 0 by any starved
     * thread; exactly 0 when some thread graduated nothing.
     */
    double fairnessHmean = 0.0;
    /** min(x_i) / max(x_i) over the same normalized progress: the
     *  max-min fairness ratio in [0, 1]. */
    double fairnessMaxMin = 0.0;
};

/**
 * Compute the QoS metrics above from per-thread interval instruction
 * counts, per-thread weights (same length) and the interval cycle
 * count, filling RunResult::threadInsts, ::threadSlowdown,
 * ::weightedSpeedup, ::fairnessHmean and ::fairnessMaxMin of @p r.
 * Free function so tests can check the arithmetic against hand-computed
 * values without running a simulation.
 */
void computeQosMetrics(const std::vector<std::uint64_t> &insts,
                       const std::vector<std::uint32_t> &weights,
                       std::uint64_t cycles, RunResult &r);

/**
 * The simulated processor. Owns the memory system and one Context per
 * hardware thread; trace sources are supplied at construction.
 */
class Simulator
{
  public:
    /**
     * Slots in the completion calendar's ring, one per cycle: an
     * instruction due fewer than this many cycles ahead waits in a
     * slot, a farther one (a DRAM tail, a huge --l2-latency) in the
     * overflow heap. A power of two above the paper's largest L2
     * latency (256) plus the line transfer, so its grids never spill.
     */
    static constexpr std::uint32_t kCalendarSlots = 512;

    /**
     * @param cfg     machine configuration (validated here)
     * @param sources one trace source per hardware context
     */
    Simulator(const SimConfig &cfg,
              std::vector<std::unique_ptr<TraceSource>> sources);

    /**
     * Run the warm-up (cfg.warmupInsts), reset statistics, then run until
     * @p measure_insts more instructions graduate (or all traces end, or
     * @p max_cycles elapse).
     */
    RunResult run(std::uint64_t measure_insts,
                  std::uint64_t max_cycles = std::uint64_t(1) << 40);

    /**
     * Run just the warm-up phase (cfg.warmupInsts graduations). run()
     * is exactly runWarmup() followed by runMeasure(), split out so the
     * sweep engine can checkpoint between the phases.
     */
    void runWarmup(std::uint64_t max_cycles = std::uint64_t(1) << 40);

    /** Reset statistics and run the measured interval (see run()). */
    RunResult runMeasure(std::uint64_t measure_insts,
                         std::uint64_t max_cycles = std::uint64_t(1) << 40);

    /**
     * Capture the complete mutable simulator state as a versioned
     * snapshot (src/core/snapshot.hh). Restoring it into a Simulator
     * constructed from the same configuration and workload recipe
     * resumes the simulation byte-identically.
     */
    Snapshot saveSnapshot() const;

    /**
     * Restore state captured by saveSnapshot(). This simulator must
     * have been constructed with the same configuration (enforced via
     * the snapshot's config hash) and the same workload; throws
     * SnapshotError otherwise.
     */
    void restoreSnapshot(const Snapshot &snap);

    /** Advance one cycle (exposed for unit tests). */
    void step();

    /**
     * Enable or disable per-stage wall-clock profiling (core/profile.hh).
     * The accumulated breakdown is cleared by resetStats() and reported
     * in RunResult::profile, so after run() it covers exactly the
     * measured interval.
     */
    void setProfiling(bool on);

    /** True when profiling is currently enabled. */
    bool profilingEnabled() const { return profileEnabled_; }

    /**
     * Coherence check for the incremental ThreadState cache (test
     * hook): every cached snapshot the next snapshotThreads() would
     * serve without recomputing must equal a fresh
     * Context::policyState(). O(threads); call it between step()s.
     */
    bool threadStateCacheCoherent() const;

    /** Current cycle. */
    Cycle now() const { return now_; }

    /** Begin a fresh statistics interval at the current cycle. */
    void resetStats();

    /** Snapshot the statistics interval ending now. */
    RunResult snapshot() const;

    /** Total instructions graduated since construction. */
    std::uint64_t totalGraduated() const { return totalGraduated_; }

    /** True when every thread's trace is exhausted and drained. */
    bool allDone() const;

    /** Per-thread state (tests and detailed reporting). */
    Context &context(ThreadId t) { return *contexts_.at(t); }
    /** Per-thread state (const). */
    const Context &context(ThreadId t) const { return *contexts_.at(t); }

    /** The memory hierarchy. */
    const MemorySystem &memory() const { return mem_; }

    /** The configuration in force. */
    const SimConfig &config() const { return cfg_; }

  private:
    /**
     * Writeback: move the overflow events that came within the ring's
     * reach into it, then handle now_'s slot, whose list is in
     * (tid, seq) order. That canonical order, not the order of issue,
     * is what lets restoreSnapshot() rebuild the calendar from the ROBs.
     */
    void processCompletions();
    /**
     * File Issued @p di in the completion calendar, due at its readyAt
     * but no earlier than @p earliest (the first cycle whose slot is
     * still to be handled): in that cycle's ring slot when it lies
     * fewer than kCalendarSlots cycles ahead of now_, else in the
     * overflow heap.
     */
    void schedule(DynInst &di, Cycle earliest);
    /** Link @p di into the ring slot of cycle @p at, keeping the
     *  slot's list in (tid, seq) order, and mark the slot busy. */
    void calendarLink(DynInst &di, Cycle at);
    /** True when a completion is due at now_ (ring slot or overflow). */
    bool completionDue() const;
    /** Earliest cycle with a pending completion; kNoCycle when none. */
    Cycle nextCompletion() const;
    void issueStage();
    /** @return instructions issued; decrements @p slots. */
    std::uint32_t issueUnit(Unit unit, const std::vector<ThreadId> &order,
                            std::uint32_t &slots);
    bool tryIssue(Context &ctx, DynInst &di);
    void accountSlots(Unit unit, const std::vector<ThreadId> &order,
                      std::uint32_t free_slots);
    void dispatchStage();
    bool tryDispatch(Context &ctx);
    void fetchStage();
    void fetchThread(Context &ctx);
    bool ensurePending(Context &ctx);
    /** Next instruction in program order (replayed flushes first,
     *  then the trace lookahead); null when the thread is drained. */
    const TraceInst *nextInst(Context &ctx);
    /** Consume the instruction nextInst() returned. */
    void consumeNext(Context &ctx);
    /**
     * Squash @p ctx's not-yet-dispatched fetch buffer (the flush
     * gating policy): the buffered instructions move to the front of
     * the thread's replay queue for later re-fetch, fetch-time branch
     * bookkeeping is unwound, and the sequence counter rewinds to the
     * first squashed instruction (nothing younger was ever fetched).
     */
    void flushFetchBuffer(Context &ctx);
    void graduateStage();

    /** step() body; Profiled selects the timing instrumentation. */
    template <bool Profiled> void stepImpl();

    // --- Idle fast-forward engine (cfg_.cycleSkip) ---------------------
    /**
     * True when stepping the current cycle could not change any
     * simulated state except the per-cycle bookkeeping idleStepStats()
     * reproduces: no completion is due, no ROB head can graduate,
     * no queue head can issue (or attempt a memory access), no thread
     * can dispatch, fetch or flush. Conservative: any doubt returns
     * false and the cycle is stepped normally.
     */
    bool quiescent();
    /**
     * True when the head of @p ctx's non-empty fetch buffer has room to
     * dispatch: a ROB entry, a slot in its unit queue (Nops take none),
     * a SAQ entry for a store and a free register for a destination.
     */
    bool canDispatch(const Context &ctx) const;
    /**
     * Earliest cycle after now_ at which quiescence could end: the
     * completion calendar's next due cycle, the memory system's next
     * event, and every gated thread's fetchResumeAt. kNoCycle when
     * nothing is pending.
     */
    Cycle nextWakeCycle() const;
    /**
     * One cycle of quiescent bookkeeping, byte-identical to stepImpl on
     * a quiescent cycle: slot accounting + perceived stalls over the
     * policy issue orders, window sampling (when a policy reads the
     * windows), policy endCycle()s, now_ advance. No stage logic runs —
     * quiescence means none would do anything.
     */
    void idleStepStats();
    /**
     * Fast-forward a quiescent span: when quiescent(), advance now_ and
     * every cycle-indexed statistic to min(next wake, @p max_cycles,
     * deadlock-guard horizon) without evaluating the pipeline stages.
     * Byte-identical to stepping the same span.
     *
     * @return true when at least one cycle was skipped (the run loop
     *         skips its step() for this iteration)
     */
    bool trySkipIdle(std::uint64_t max_cycles);
    /**
     * Cheap gate in front of the quiescence probe: an idle span cannot
     * contain a graduation, so a recent graduation means the pipeline
     * is busy and the full quiescent() scan would be wasted work. The
     * price is at most two stepped cycles at the head of each span.
     */
    bool
    skipProbeDue() const
    {
        return cfg_.cycleSkip && now_ >= lastGraduation_ + 2;
    }

    /**
     * Hand the policy layer its per-context snapshots, recomputing only
     * threads whose Context::policyDirty flag is set (or whose cached
     * fetch-redirect gate could have reopened since it was stamped);
     * every other thread's entry is served from threadStates_ as-is.
     */
    const std::vector<ThreadState> &snapshotThreads();

    /** The recompute loop of snapshotThreads (un-instrumented). */
    void refreshThreadStates();

    /**
     * True when snapshotThreads() would serve thread @p t's cached
     * ThreadState as-is: the context is clean and the entry was
     * stamped this very cycle, or its only time-dependent input — the
     * fetch-redirect gate `now >= fetchResumeAt` — was already open at
     * stamp time (it can then never close without a field mutation,
     * which would have set policyDirty).
     */
    bool
    cachedStateReusable(ThreadId t) const
    {
        return !contexts_[t]->policyDirty &&
               (threadStateAt_[t] == now_ ||
                contexts_[t]->fetchResumeAt <= threadStateAt_[t]);
    }

    SimConfig cfg_;
    MemorySystem mem_;
    std::vector<std::unique_ptr<Context>> contexts_;

    // Completion calendar (a timing wheel): one pending completion per
    // Issued DynInst. Ring slot c % kCalendarSlots lists the
    // instructions due at cycle c, linked through DynInst::nextDue;
    // calendarBusy_ has one bit per non-empty slot. Every ring entry is
    // due within kCalendarSlots cycles of now_, so the first busy slot
    // from now_'s on is the earliest. Farther events wait in the heap.
    static constexpr std::uint32_t kCalendarMask = kCalendarSlots - 1;
    std::array<DynInst *, kCalendarSlots> calendar_{};
    std::array<std::uint64_t, kCalendarSlots / 64> calendarBusy_{};
    struct DueLater
    {
        bool
        operator()(const DynInst *a, const DynInst *b) const
        {
            return a->readyAt > b->readyAt;
        }
    };
    std::priority_queue<DynInst *, std::vector<DynInst *>, DueLater>
        overflow_;

    Cycle now_ = 0;

    // Thread arbitration (src/policy/policy.hh) and its per-stage
    // scratch: the state snapshots handed to the policies and the
    // visit orders they produce (reused to avoid per-cycle allocation).
    Policy fetchPolicy_;
    Policy issuePolicy_;
    /** Does either policy read a trailing window? When not, the
     *  windows are never sampled (Context::sampleWindows). */
    bool windowsRead_;
    std::vector<ThreadState> threadStates_;
    /** Cycle each threadStates_ entry was computed at (cache stamps). */
    std::vector<Cycle> threadStateAt_;
    std::vector<ThreadId> orderAp_;
    std::vector<ThreadId> orderEp_;
    std::vector<ThreadId> orderDispatch_;
    std::vector<ThreadId> orderFetch_;
    /** accountSlots' per-cycle stall classifications (reused scratch). */
    std::vector<SlotUse> reasonsScratch_;

    // Per-stage wall-clock profiling (core/profile.hh).
    bool profileEnabled_ = false;
    StageProfile profile_;
    /** Nanoseconds snapshotThreads spent within the current stage
     *  interval; stepImpl<true> carves it out into Stage::Snapshot. */
    std::uint64_t snapNs_ = 0;

    // Statistics for the current interval.
    SlotBreakdown slotsAp_;
    SlotBreakdown slotsEp_;
    std::uint64_t totalGraduated_ = 0;
    Cycle measureStart_ = 0;
    std::uint64_t instsBase_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t condBranches_ = 0;
    std::uint64_t forwardedLoads_ = 0;
    Cycle lastGraduation_ = 0;
    /** Cycles fast-forwarded in this interval (RunResult::cyclesSkipped);
     *  interval statistics like slotsAp_, not simulated state — never
     *  serialized into snapshots. */
    std::uint64_t cyclesSkipped_ = 0;
    /** Spans fast-forwarded in this interval (RunResult::skipEvents). */
    std::uint64_t skipEvents_ = 0;
};

} // namespace mtdae

#endif // MTDAE_CORE_SIMULATOR_HH
