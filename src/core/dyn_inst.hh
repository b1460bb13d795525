/**
 * @file
 * DynInst: a dynamic instruction in flight, living in its thread's
 * reorder buffer from dispatch to graduation.
 */

#ifndef MTDAE_CORE_DYN_INST_HH
#define MTDAE_CORE_DYN_INST_HH

#include <array>

#include "common/types.hh"
#include "isa/inst.hh"

namespace mtdae {

/** Lifecycle of a dynamic instruction. */
enum class InstState : std::uint8_t {
    Dispatched,  ///< Renamed, waiting in a unit queue.
    Issued,      ///< Executing on a functional unit / memory access.
    Completed,   ///< Result produced; waiting to graduate in order.
    Graduated,   ///< Retired.
};

/**
 * One in-flight instruction. Owned by the per-thread ROB (a deque whose
 * element references are stable under push_back/pop_front); the unit
 * queues and the SAQ hold pointers into it.
 *
 * Field order is hot-loop-conscious: everything tryIssue reads per
 * queue-head scan (seq, state, the renamed registers, the cached opcode
 * classification) sits in the first cache line; the full trace record
 * and the stats-only fields follow.
 */
struct DynInst
{
    InstSeq seq = 0;           ///< Per-thread program order.

    PhysReg physDst = kNoPhysReg;     ///< Renamed destination.
    PhysReg oldPhysDst = kNoPhysReg;  ///< Previous mapping (freed at grad).
    std::array<PhysReg, 3> physSrc = {kNoPhysReg, kNoPhysReg,
                                      kNoPhysReg};  ///< Renamed sources.

    Unit unit = Unit::AP;      ///< Steered processing unit.
    InstState state = InstState::Dispatched;
    bool isLoadOp = false;     ///< Cached isLoad(ti.op) (set at dispatch).
    bool isStoreOp = false;    ///< Cached isStore(ti.op) (set at dispatch).
    bool mispredicted = false; ///< Conditional branch mispredicted.
    bool loadMissed = false;   ///< Load that missed in the L1.
    bool forwarded = false;    ///< Load satisfied by SAQ forwarding.
    ThreadId tid = 0;          ///< Owning context (set at dispatch).
    std::uint32_t missToken = 0xffffffffu;  ///< Perceived-latency token.

    Cycle readyAt = kNoCycle;  ///< Completion cycle, known at issue.
    TraceInst ti;              ///< The trace record.
    /** Next entry of the completion-calendar slot this Issued
     *  instruction waits in (Simulator::schedule); derived state. */
    DynInst *nextDue = nullptr;
    Cycle dispatchedAt = 0;    ///< Dispatch cycle (debug/stats).

    /** True for conditional branches (unresolved-branch bookkeeping). */
    bool isCondBr() const { return isCondBranch(ti.op); }
};

} // namespace mtdae

#endif // MTDAE_CORE_DYN_INST_HH
