/**
 * @file
 * Per-thread (hardware context) state: rename map tables, physical
 * register files with scoreboards, fetch buffer, unit queues, Store
 * Address Queue and reorder buffer. The paper replicates all of these
 * per context; the issue logic, functional units and caches are shared.
 */

#ifndef MTDAE_CORE_CONTEXT_HH
#define MTDAE_CORE_CONTEXT_HH

#include <array>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branch/predictor.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "core/perceived.hh"
#include "isa/reg.hh"
#include "policy/policy.hh"
#include "workload/trace_source.hh"

namespace mtdae {

/** What produces the value of a physical register. */
struct Producer
{
    /** Producer category, used for issue-stall classification. */
    enum class Kind : std::uint8_t {
        None,  ///< Architectural initial value (always ready).
        Fu,    ///< A functional-unit instruction.
        Load,  ///< A load (memory).
    };

    Kind kind = Kind::None;
    /** Perceived-latency token when the producing load missed. */
    std::uint32_t missToken = PerceivedTracker::kNoToken;
};

/**
 * One renamed physical register file with free list and scoreboard.
 */
class RegFile
{
  public:
    /**
     * @param arch_regs architectural registers (initially mapped 1:1)
     * @param phys_regs total physical registers (> arch_regs)
     */
    RegFile(std::uint32_t arch_regs, std::uint32_t phys_regs);

    /** True when a rename can allocate a destination. */
    bool hasFree() const { return !freeList_.empty(); }

    /** Free physical registers remaining. */
    std::size_t freeCount() const { return freeList_.size(); }

    /** Current mapping of architectural register @p arch. */
    PhysReg map(std::uint8_t arch) const { return map_[arch]; }

    /**
     * Rename @p arch to a fresh physical register.
     * @param[out] old_phys the previous mapping (to free at graduation)
     * @return the new physical register
     */
    PhysReg rename(std::uint8_t arch, PhysReg &old_phys);

    /** Return @p r to the free list. */
    void release(PhysReg r);

    /** Scoreboard: is @p r ready? (Hot path: unchecked indexing; the
     *  register numbers are internal invariants, and the sanitizer CI
     *  job keeps the indexing honest.) */
    bool ready(PhysReg r) const { return ready_[r]; }

    /** Mark @p r ready. */
    void setReady(PhysReg r) { ready_[r] = true; }

    /** Producer record of @p r. */
    Producer &producer(PhysReg r) { return producer_[r]; }

    /** Producer record of @p r (const). */
    const Producer &producer(PhysReg r) const { return producer_[r]; }

    /** Total physical registers. */
    std::size_t size() const { return ready_.size(); }

    /** Serialize scoreboard, producers, free list and map table. */
    void save(ByteWriter &w) const;

    /** Restore state saved by save(). */
    void restore(ByteReader &r);

  private:
    std::vector<std::uint8_t> ready_;
    std::vector<Producer> producer_;
    std::vector<PhysReg> freeList_;
    std::vector<PhysReg> map_;
};

/**
 * A fetched instruction awaiting dispatch. The sequence number is
 * assigned at fetch (nothing is ever squashed in trace-driven mode, so
 * fetch order is program order).
 */
struct FetchedInst
{
    TraceInst ti;
    InstSeq seq = 0;
    bool mispredicted = false;
};

/**
 * All replicated per-context state.
 */
struct Context
{
    /**
     * @param id     hardware context id
     * @param cfg    machine configuration
     * @param src    the thread's trace (owned)
     */
    Context(ThreadId id, const SimConfig &cfg,
            std::unique_ptr<TraceSource> src);

    ThreadId tid;
    std::unique_ptr<TraceSource> source;

    // Front end.
    std::deque<FetchedInst> fetchBuf; ///< Fetched, pending dispatch.
    /**
     * Instructions squashed from the fetch buffer by a flush-gating
     * policy, oldest first; fetch replays them — re-running branch
     * prediction — before consuming the trace again
     * (Simulator::flushFetchBuffer / nextInst).
     */
    std::deque<TraceInst> replayQ;
    TraceInst pendingInst;            ///< One-instruction lookahead.
    bool hasPending = false;
    bool traceDone = false;
    std::uint32_t unresolvedBranches = 0;
    bool fetchBlocked = false;        ///< Gated on a mispredicted branch.
    InstSeq blockingBranchSeq = 0;
    Cycle fetchResumeAt = 0;          ///< Earliest fetch cycle after redirect.
    std::unique_ptr<BranchPredictor> predictor;

    // Rename and scoreboard.
    RegFile intRegs;                  ///< AP physical file.
    RegFile fpRegs;                   ///< EP physical file.

    // Windows. The ROB is the only serialized one: the unit queues and
    // the SAQ are views of it, rebuilt by restore().
    std::deque<DynInst> rob;          ///< In-flight instructions, in order.
    std::deque<DynInst *> apQ;        ///< AP pending-issue queue.
    std::deque<DynInst *> iq;         ///< EP Instruction Queue (decoupling).
    /**
     * Store Address Queue: the ROB's stores, oldest first. A store's
     * address is valid (visible to younger loads) once it has issued on
     * the AP, i.e. once its state is past Dispatched; it leaves the
     * queue when it graduates.
     */
    std::deque<DynInst *> saq;

    /**
     * Deposited-word index over the SAQ: 8-byte-word address -> number
     * of address-valid stores writing it. Because all memory
     * instructions issue on the AP in strict per-thread program order,
     * every deposited store is older than any load that is issuing, so
     * "an older deposited store writes this word" reduces to a count
     * lookup (saqForwardsFast) instead of the linear saqForwards walk
     * — the SAQ scales to hundreds of entries at high L2 latencies.
     * Derived state: rebuilt from the ROB on restore, never serialized.
     */
    std::unordered_map<Addr, std::uint32_t> saqWords;

    // Sequencing.
    InstSeq nextSeq = 0;              ///< Next fetch sequence number.
    InstSeq nextIssueSeq = 0;         ///< Non-decoupled program-order gate.

    // Per-thread statistics.
    PerceivedTracker perceived;
    std::uint64_t graduated = 0;
    /**
     * graduated as of the last statistics reset
     * (Simulator::resetStats): graduated - graduatedBase is the
     * thread's measure-interval instruction count, the basis of the
     * per-thread slowdown/fairness metrics in RunResult. Serialized
     * (unlike the interval-only skip counters) because it feeds result
     * rows: a warm-started run must compute the same per-thread
     * metrics as a cold one.
     */
    std::uint64_t graduatedBase = 0;

    /**
     * Invalidation flag for the simulator's cached ThreadState
     * (Simulator::snapshotThreads). Set by every mutation of a field
     * policyState() reads; cleared when the cache recomputes. Derived
     * state: never serialized — Context::restore() just sets it.
     */
    bool policyDirty = true;

    /** Cycles in the trailing statistic windows (the split policy's
     *  EP drain-rate key and the adaptive policy's phase key;
     *  ThreadState::iqOccupancyWindow / ::missWindow). */
    static constexpr std::uint32_t kIqWindow = kPolicyWindowCycles;
    std::array<std::uint32_t, kIqWindow> iqSamples{};  ///< Ring buffer.
    std::uint32_t iqSampleAt = 0;   ///< Next ring slot to overwrite.
    std::uint32_t iqWindowSum = 0;  ///< Running sum of the ring.

    /** Trailing outstanding-L1-load-miss window, same length and
     *  sampling points as the IQ window (ThreadState::missWindow). */
    std::array<std::uint32_t, kIqWindow> missSamples{};
    std::uint32_t missSampleAt = 0;
    std::uint32_t missWindowSum = 0;

    /**
     * Uniformity tracker for the miss window
     * (ThreadState::missWindowUniform): missSlotsAtCur counts the ring
     * slots equal to missCountedFor, which sampleWindows() keeps
     * synced to perceived.outstanding(). The sum alone cannot prove
     * the window is frozen — a mixed ring can coincidentally sum to
     * outstanding * kIqWindow and still decay as it slides — so the
     * idle fast-forward stability probe needs the exact slot count.
     * Derived state: never serialized, recounted by restore().
     */
    std::uint32_t missSlotsAtCur = kIqWindow;
    std::uint32_t missCountedFor = 0;

    /**
     * Record this cycle's IQ-occupancy and outstanding-miss samples
     * into the trailing windows. Called exactly once per cycle, at the
     * end of Simulator::step(), so every policy consultation within a
     * cycle sees the same window values — and only when the fetch or
     * issue policy reads a window (Policy::readsWindows()): under any
     * other pair nothing reads them and the windows stay zero.
     */
    void sampleWindows();

    /**
     * Advance both trailing windows by @p n cycles in O(min(n, 64)):
     * byte-identical to calling sampleWindows() n times with an
     * unchanging iq.size() and outstanding-miss count — which is
     * exactly the situation during a quiescent fast-forwarded span (no
     * dispatch, no issue, no fill landing).
     */
    void advanceWindows(std::uint64_t n);

    /** Register file holding registers of @p cls. */
    RegFile &file(RegClass cls)
    {
        return cls == RegClass::Int ? intRegs : fpRegs;
    }

    /** Register file holding registers of @p cls (const). */
    const RegFile &file(RegClass cls) const
    {
        return cls == RegClass::Int ? intRegs : fpRegs;
    }

    /** True when every source of @p di is ready. */
    bool operandsReady(const DynInst &di) const;

    /** True when the address sources of a store are ready. */
    bool storeAddrReady(const DynInst &di) const;

    /** True when the data source of a store is ready (graduation). */
    bool storeDataReady(const DynInst &di) const;

    /**
     * Find the first unready source of @p di and classify its producer.
     * @param[out] tok the perceived token when a missed load produces it
     * @return Producer::Kind::Fu or Load; Kind::None when all ready
     */
    Producer::Kind stallSource(const DynInst &di, std::uint32_t &tok) const;

    /**
     * Search the SAQ for the youngest older store writing the same
     * 8-byte word as @p load_addr (reference linear walk; the issue
     * stage uses saqForwardsFast, and tests assert they agree).
     * @return true when such a store exists (forwarding)
     */
    bool saqForwards(InstSeq load_seq, Addr load_addr) const;

    /** saqForwards via the deposited-word index (see saqWords). */
    bool
    saqForwardsFast(Addr load_addr) const
    {
        return !saqWords.empty() &&
               saqWords.find(load_addr >> 3) != saqWords.end();
    }

    /** Record a store's address deposit in the word index. */
    void
    saqDeposit(Addr addr)
    {
        ++saqWords[addr >> 3];
    }

    /** Remove a graduating store's deposit from the word index. */
    void
    saqWithdraw(Addr addr)
    {
        const auto it = saqWords.find(addr >> 3);
        MTDAE_ASSERT(it != saqWords.end() && it->second > 0,
                     "SAQ word index out of sync at graduation");
        if (--it->second == 0)
            saqWords.erase(it);
    }

    /**
     * Snapshot the occupancy/blocked state the arbitration policies
     * are allowed to see (src/policy/policy.hh). Taken at the start of
     * each consulting pipeline stage.
     *
     * @param cfg the configuration in force (fetch-buffer capacity)
     * @param now current cycle (redirect-gate check)
     */
    ThreadState policyState(const SimConfig &cfg, Cycle now) const;

    /**
     * Serialize the context's complete mutable state. Of the
     * instruction windows only the ROB is written: apQ, iq, saq and
     * saqWords are functions of it (see restore()).
     */
    void save(ByteWriter &w) const;

    /**
     * Restore state saved by save() onto an identically built context.
     * One walk over the restored ROB rebuilds apQ and iq (each unit's
     * Dispatched entries), saq (the stores) and saqWords (the stores
     * past Dispatched), all in ROB order.
     */
    void restore(ByteReader &r);
};

} // namespace mtdae

#endif // MTDAE_CORE_CONTEXT_HH
