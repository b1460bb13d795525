#include "core/simulator.hh"

#include <bit>
#include <chrono>

#include "common/log.hh"

namespace mtdae {

Simulator::Simulator(const SimConfig &cfg,
                     std::vector<std::unique_ptr<TraceSource>> sources)
    : cfg_(cfg),
      mem_(cfg),
      fetchPolicy_(cfg.fetchPolicy, cfg),
      issuePolicy_(cfg.issuePolicy, cfg),
      windowsRead_(fetchPolicy_.readsWindows() ||
                   issuePolicy_.readsWindows())
{
    cfg_.validate();
    MTDAE_ASSERT(sources.size() == cfg_.numThreads,
                 "need exactly one trace source per hardware context (",
                 sources.size(), " given, ", cfg_.numThreads, " threads)");
    for (ThreadId t = 0; t < cfg_.numThreads; ++t)
        contexts_.push_back(
            std::make_unique<Context>(t, cfg_, std::move(sources[t])));
    threadStates_.resize(cfg_.numThreads);
    threadStateAt_.resize(cfg_.numThreads, 0);
    reasonsScratch_.reserve(cfg_.numThreads);
}

void
Simulator::refreshThreadStates()
{
    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        if (cachedStateReusable(t))
            continue;
        Context &ctx = *contexts_[t];
        threadStates_[t] = ctx.policyState(cfg_, now_);
        threadStateAt_[t] = now_;
        ctx.policyDirty = false;
    }
}

const std::vector<ThreadState> &
Simulator::snapshotThreads()
{
    if (profileEnabled_) {
        const auto t0 = std::chrono::steady_clock::now();
        refreshThreadStates();
        snapNs_ += std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return threadStates_;
    }
    refreshThreadStates();
    return threadStates_;
}

bool
Simulator::threadStateCacheCoherent() const
{
    for (ThreadId t = 0; t < cfg_.numThreads; ++t)
        if (cachedStateReusable(t) &&
            !(threadStates_[t] == contexts_[t]->policyState(cfg_, now_)))
            return false;
    return true;
}

// ---------------------------------------------------------------------
// Completion (writeback)
// ---------------------------------------------------------------------

void
Simulator::schedule(DynInst &di, Cycle earliest)
{
    const Cycle at = di.readyAt > earliest ? di.readyAt : earliest;
    if (at - now_ < kCalendarSlots)
        calendarLink(di, at);
    else
        overflow_.push(&di);
}

void
Simulator::calendarLink(DynInst &di, Cycle at)
{
    const std::uint32_t slot = std::uint32_t(at) & kCalendarMask;
    DynInst **link = &calendar_[slot];
    while (*link && ((*link)->tid < di.tid ||
                     ((*link)->tid == di.tid && (*link)->seq < di.seq)))
        link = &(*link)->nextDue;
    di.nextDue = *link;
    *link = &di;
    calendarBusy_[slot / 64] |= std::uint64_t(1) << (slot % 64);
}

bool
Simulator::completionDue() const
{
    const std::uint32_t slot = std::uint32_t(now_) & kCalendarMask;
    return ((calendarBusy_[slot / 64] >> (slot % 64)) & 1) != 0 ||
           (!overflow_.empty() && overflow_.top()->readyAt <= now_);
}

Cycle
Simulator::nextCompletion() const
{
    Cycle next = overflow_.empty() ? kNoCycle : overflow_.top()->readyAt;
    // Scan the bitmap circularly from now_'s slot; the last pass
    // revisits the first word for the slots below now_'s.
    constexpr std::uint32_t kWords = kCalendarSlots / 64;
    const std::uint32_t start = std::uint32_t(now_) & kCalendarMask;
    const std::uint64_t from_start = ~std::uint64_t(0) << (start % 64);
    for (std::uint32_t i = 0; i <= kWords; ++i) {
        const std::uint32_t w = (start / 64 + i) % kWords;
        std::uint64_t bits = calendarBusy_[w];
        if (i == 0)
            bits &= from_start;
        else if (i == kWords)
            bits &= ~from_start;
        if (bits) {
            const std::uint32_t slot =
                w * 64 + std::uint32_t(std::countr_zero(bits));
            const Cycle at = now_ + ((slot - start) & kCalendarMask);
            return at < next ? at : next;
        }
    }
    return next;
}

void
Simulator::processCompletions()
{
    while (!overflow_.empty() &&
           overflow_.top()->readyAt < now_ + kCalendarSlots) {
        DynInst *far = overflow_.top();
        overflow_.pop();
        MTDAE_ASSERT(far->readyAt >= now_,
                     "overflow completion fell behind the calendar");
        calendarLink(*far, far->readyAt);
    }

    const std::uint32_t slot = std::uint32_t(now_) & kCalendarMask;
    DynInst *next = calendar_[slot];
    if (!next)
        return;
    calendar_[slot] = nullptr;
    calendarBusy_[slot / 64] &= ~(std::uint64_t(1) << (slot % 64));

    while (next) {
        DynInst *di = next;
        next = di->nextDue;
        Context &ctx = *contexts_[di->tid];

        MTDAE_ASSERT(di->state == InstState::Issued,
                     "completion of a non-issued instruction");
        di->state = InstState::Completed;

        if (di->ti.dst.valid())
            ctx.file(di->ti.dst.cls).setReady(di->physDst);

        if (di->loadMissed) {
            ctx.perceived.close(di->missToken);
            ctx.policyDirty = true;  // outstandingMisses changed
        }

        if (di->isCondBr()) {
            MTDAE_ASSERT(ctx.unresolvedBranches > 0,
                         "branch resolution underflow");
            ctx.unresolvedBranches -= 1;
            if (di->mispredicted && ctx.fetchBlocked &&
                ctx.blockingBranchSeq == di->seq) {
                ctx.fetchBlocked = false;
                ctx.fetchResumeAt = now_ + cfg_.redirectPenalty;
            }
            ctx.policyDirty = true;  // branch count / fetch gate changed
        }
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
Simulator::tryIssue(Context &ctx, DynInst &di)
{
    // Non-decoupled mode: the instruction queues are disabled, so a
    // thread issues in strict program order across both units.
    if (!cfg_.decoupled && di.seq != ctx.nextIssueSeq)
        return false;

    if (di.isStoreOp) {
        // A store issues on the AP when its *address* operands are
        // ready; the data may arrive later (possibly from the EP).
        if (!ctx.storeAddrReady(di))
            return false;
    } else {
        if (!ctx.operandsReady(di))
            return false;
    }

    Cycle ready_at;
    if (di.isLoadOp) {
        if (ctx.saqForwardsFast(di.ti.addr)) {
            // Forwarded from an older store in the SAQ: no cache access.
            di.forwarded = true;
            ready_at = now_ + 1;
            forwardedLoads_ += 1;
        } else {
            const MemResult r = mem_.load(di.ti.addr, now_);
            if (!r.accepted)
                return false;  // no port / no MSHR / frame conflict
            ready_at = r.readyAt;
            if (r.miss()) {
                di.loadMissed = true;
                di.missToken =
                    ctx.perceived.open(di.ti.op == Opcode::LdI);
                ctx.file(di.ti.dst.cls).producer(di.physDst).missToken =
                    di.missToken;
                ctx.policyDirty = true;  // outstandingMisses changed
            }
        }
    } else if (di.isStoreOp) {
        // Address generation: once Issued, the store's SAQ address is
        // visible to younger loads.
        ctx.saqDeposit(di.ti.addr);
        ready_at = now_ + cfg_.apLatency;
    } else {
        const std::uint32_t lat =
            di.unit == Unit::AP ? cfg_.apLatency : cfg_.epLatency;
        ready_at = now_ + lat;
    }

    di.state = InstState::Issued;
    di.readyAt = ready_at;
    // This cycle's slot has been handled: a latency-0 result (an L1
    // hit at --l1-hit-latency=0) completes next cycle.
    schedule(di, now_ + 1);
    if (!cfg_.decoupled)
        ctx.nextIssueSeq = di.seq + 1;
    return true;
}

std::uint32_t
Simulator::issueUnit(Unit unit, const std::vector<ThreadId> &order,
                     std::uint32_t &slots)
{
    std::uint32_t issued = 0;
    for (std::size_t i = 0; i < order.size() && slots > 0; ++i) {
        Context &ctx = *contexts_[order[i]];
        auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
        while (slots > 0 && !queue.empty()) {
            DynInst *di = queue.front();
            if (!tryIssue(ctx, *di))
                break;
            queue.pop_front();
            ctx.policyDirty = true;  // unit-queue occupancy changed
            slots -= 1;
            issued += 1;
        }
    }
    return issued;
}

void
Simulator::accountSlots(Unit unit, const std::vector<ThreadId> &order,
                        std::uint32_t free_slots)
{
    SlotBreakdown &bd = unit == Unit::AP ? slotsAp_ : slotsEp_;
    const std::uint32_t width =
        unit == Unit::AP ? cfg_.apUnits : cfg_.epUnits;
    bd.add(SlotUse::Useful, width - free_slots);
    if (free_slots == 0)
        return;

    // A policy returning an empty visit order would make the spreading
    // loop below divide by zero; the contract (policy.hh) requires a
    // full permutation, so fail loudly rather than skew Figure 3.
    MTDAE_ASSERT(!order.empty(),
                 "slot accounting with an empty policy visit order");

    // Classify each thread's head-of-queue stall, then spread the
    // unused slots over the classifications (paper Figure 3), walking
    // the *same* visit order the issue stage just used so the
    // attribution can never drift from the arbitration.
    std::vector<SlotUse> &reasons = reasonsScratch_;
    reasons.clear();
    for (const ThreadId t : order) {
        Context &ctx = *contexts_[t];
        auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
        if (queue.empty()) {
            // Nothing available: an idle or wrong-path-gated front end.
            reasons.push_back(SlotUse::Idle);
            continue;
        }
        DynInst *di = queue.front();
        if (!cfg_.decoupled && di->seq != ctx.nextIssueSeq) {
            // Gated by program order (the other unit holds the oldest).
            reasons.push_back(SlotUse::Other);
            continue;
        }
        std::uint32_t tok = PerceivedTracker::kNoToken;
        const Producer::Kind k = ctx.stallSource(*di, tok);
        if (k == Producer::Kind::Load) {
            reasons.push_back(SlotUse::WaitMem);
            // A free slot existed and the head could not issue because
            // of an outstanding load miss: one perceived stall cycle.
            if (tok != PerceivedTracker::kNoToken)
                ctx.perceived.stall(tok);
        } else if (k == Producer::Kind::Fu) {
            reasons.push_back(SlotUse::WaitFu);
        } else {
            // Operands ready but not issued: structural (cache port,
            // MSHR, frame conflict) or same-cycle dependence.
            reasons.push_back(SlotUse::Other);
        }
    }
    for (std::uint32_t s = 0; s < free_slots; ++s)
        bd.add(reasons[s % reasons.size()]);
}

void
Simulator::issueStage()
{
    // Both units' visit orders come from one pre-stage snapshot and
    // hold for the whole cycle (both passes and the slot accounting).
    const auto &threads = snapshotThreads();
    issuePolicy_.issueOrder(Unit::AP, threads, orderAp_);
    issuePolicy_.issueOrder(Unit::EP, threads, orderEp_);

    std::uint32_t slots_ap = cfg_.apUnits;
    std::uint32_t slots_ep = cfg_.epUnits;
    // Two passes so that, in non-decoupled mode, an AP instruction
    // unblocked by an EP issue this cycle (or vice versa) can still
    // dual-issue, as an in-order superscalar would.
    for (int pass = 0; pass < 2; ++pass) {
        std::uint32_t issued = 0;
        issued += issueUnit(Unit::AP, orderAp_, slots_ap);
        issued += issueUnit(Unit::EP, orderEp_, slots_ep);
        if (issued == 0)
            break;
    }
    accountSlots(Unit::AP, orderAp_, slots_ap);
    accountSlots(Unit::EP, orderEp_, slots_ep);
}

// ---------------------------------------------------------------------
// Dispatch (rename & steer)
// ---------------------------------------------------------------------

bool
Simulator::tryDispatch(Context &ctx)
{
    MTDAE_ASSERT(!ctx.fetchBuf.empty(), "dispatch from an empty buffer");
    if (!canDispatch(ctx))
        return false;
    const FetchedInst &fi = ctx.fetchBuf.front();
    const TraceInst &ti = fi.ti;
    const Unit unit = ti.unit();
    const bool is_store = isStore(ti.op);

    ctx.rob.emplace_back();
    DynInst &di = ctx.rob.back();
    di.ti = ti;
    di.seq = fi.seq;
    di.tid = ctx.tid;
    di.unit = unit;
    di.isLoadOp = isLoad(ti.op);
    di.isStoreOp = is_store;
    di.dispatchedAt = now_;
    di.mispredicted = fi.mispredicted;

    for (int i = 0; i < 3; ++i)
        if (ti.src[i].valid())
            di.physSrc[i] = ctx.file(ti.src[i].cls).map(ti.src[i].idx);

    if (ti.dst.valid()) {
        RegFile &rf = ctx.file(ti.dst.cls);
        di.physDst = rf.rename(ti.dst.idx, di.oldPhysDst);
        rf.producer(di.physDst).kind = di.isLoadOp
            ? Producer::Kind::Load : Producer::Kind::Fu;
    }

    if (ti.op == Opcode::Nop) {
        // Nops retire without issuing.
        di.state = InstState::Completed;
    } else {
        auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
        queue.push_back(&di);
        if (is_store)
            ctx.saq.push_back(&di);
    }

    ctx.fetchBuf.pop_front();
    ctx.policyDirty = true;  // fetch-buffer / queue / ROB occupancy
    return true;
}

void
Simulator::dispatchStage()
{
    issuePolicy_.dispatchOrder(snapshotThreads(), orderDispatch_);
    std::uint32_t budget = cfg_.dispatchWidth;
    for (std::size_t i = 0; i < orderDispatch_.size() && budget > 0;
         ++i) {
        Context &ctx = *contexts_[orderDispatch_[i]];
        while (budget > 0 && !ctx.fetchBuf.empty()) {
            if (!tryDispatch(ctx))
                break;
            budget -= 1;
        }
    }
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

bool
Simulator::ensurePending(Context &ctx)
{
    if (ctx.hasPending)
        return true;
    if (ctx.traceDone)
        return false;
    if (!ctx.source->next(ctx.pendingInst)) {
        ctx.traceDone = true;
        return false;
    }
    ctx.hasPending = true;
    return true;
}

const TraceInst *
Simulator::nextInst(Context &ctx)
{
    // Flushed instructions are older than the trace lookahead (they
    // were fetched before it), so the replay queue drains first.
    if (!ctx.replayQ.empty())
        return &ctx.replayQ.front();
    if (!ensurePending(ctx))
        return nullptr;
    return &ctx.pendingInst;
}

void
Simulator::consumeNext(Context &ctx)
{
    if (!ctx.replayQ.empty())
        ctx.replayQ.pop_front();
    else
        ctx.hasPending = false;
}

void
Simulator::flushFetchBuffer(Context &ctx)
{
    MTDAE_ASSERT(!ctx.fetchBuf.empty(), "flush of an empty fetch buffer");
    const InstSeq first = ctx.fetchBuf.front().seq;
    // Youngest first, so push_front keeps program order and lands the
    // block ahead of any earlier flush's not-yet-replayed leftovers.
    for (auto it = ctx.fetchBuf.rbegin(); it != ctx.fetchBuf.rend();
         ++it) {
        if (isCondBranch(it->ti.op)) {
            // Unwind the fetch-time speculation accounting; the branch
            // re-predicts (against the updated predictor) at replay.
            MTDAE_ASSERT(ctx.unresolvedBranches > 0,
                         "flush branch-count underflow");
            ctx.unresolvedBranches -= 1;
            if (it->mispredicted && ctx.fetchBlocked &&
                ctx.blockingBranchSeq == it->seq)
                ctx.fetchBlocked = false;  // the gate never dispatched
        }
        ctx.replayQ.push_front(it->ti);
    }
    ctx.fetchBuf.clear();
    // Replayed instructions get fresh sequence numbers; nothing
    // younger than the squashed block was ever fetched.
    ctx.nextSeq = first;
    ctx.policyDirty = true;  // buffer emptied, branch count unwound
}

void
Simulator::fetchThread(Context &ctx)
{
    // Conservative: fetching mutates the buffer, branch counts, gate
    // bits and the trace lookahead, and even a zero-instruction walk
    // can discover trace exhaustion (ensurePending sets traceDone).
    ctx.policyDirty = true;
    std::uint32_t count = 0;
    while (count < cfg_.fetchWidth &&
           ctx.fetchBuf.size() < cfg_.fetchBufferSize) {
        const TraceInst *tip = nextInst(ctx);
        if (!tip)
            break;
        const TraceInst ti = *tip;
        // Control speculation limit: cannot fetch past another
        // conditional branch while the maximum are unresolved.
        if (isCondBranch(ti.op) &&
            ctx.unresolvedBranches >= cfg_.maxUnresolvedBranches)
            break;

        FetchedInst fi;
        fi.ti = ti;
        fi.seq = ctx.nextSeq++;
        consumeNext(ctx);
        count += 1;

        bool stop = false;
        if (isCondBranch(ti.op)) {
            ctx.unresolvedBranches += 1;
            condBranches_ += 1;
            const bool predicted = ctx.predictor->predict(ti.pc);
            ctx.predictor->update(ti.pc, ti.taken);
            if (predicted != ti.taken) {
                // Trace-driven wrong path: fetch is gated until the
                // branch resolves, then redirected.
                mispredicts_ += 1;
                fi.mispredicted = true;
                ctx.fetchBlocked = true;
                ctx.blockingBranchSeq = fi.seq;
                stop = true;
            } else if (ti.taken) {
                stop = true;  // a taken branch ends the fetch block
            }
        } else if (ti.op == Opcode::Jmp) {
            stop = true;
        }

        ctx.fetchBuf.push_back(fi);
        if (stop)
            break;
    }
}

void
Simulator::fetchStage()
{
    // Gating pass, before any ordering: a flush-style policy squashes
    // the pressured threads' not-yet-dispatched buffers, handing their
    // dispatch slots to the other threads.
    bool flushed = false;
    for (const ThreadState &t : snapshotThreads()) {
        if (!contexts_[t.tid]->fetchBuf.empty() &&
            fetchPolicy_.shouldFlush(t)) {
            flushFetchBuffer(*contexts_[t.tid]);
            flushed = true;
        }
    }
    if (flushed)
        snapshotThreads();  // the squash changed the occupancies

    // The policy ranks every thread (ICOUNT by default: fewest
    // pending-dispatch instructions first over a round-robin base);
    // the first fetchThreadsPerCycle *eligible, non-vetoed* threads in
    // that order get the I-cache ports. A vetoed (gated) thread does
    // not consume a port.
    const auto &threads = threadStates_;
    fetchPolicy_.fetchOrder(threads, orderFetch_);
    std::uint32_t ports = cfg_.fetchThreadsPerCycle;
    for (const ThreadId t : orderFetch_) {
        if (ports == 0)
            break;
        if (!threads[t].fetchEligible ||
            !fetchPolicy_.mayFetch(threads[t]))
            continue;
        fetchThread(*contexts_[t]);
        ports -= 1;
    }
}

// ---------------------------------------------------------------------
// Graduation
// ---------------------------------------------------------------------

void
Simulator::graduateStage()
{
    for (auto &ctxp : contexts_) {
        Context &ctx = *ctxp;
        std::uint32_t width = cfg_.graduateWidth;
        while (width > 0 && !ctx.rob.empty()) {
            DynInst &di = ctx.rob.front();
            if (di.state != InstState::Completed)
                break;
            if (di.isStoreOp) {
                // The store leaves the SAQ and writes the cache when its
                // data is available (FP store data comes from the EP).
                if (!ctx.storeDataReady(di))
                    break;
                const MemResult r = mem_.store(di.ti.addr, now_);
                if (!r.accepted)
                    break;  // port/MSHR pressure: retry next cycle
                MTDAE_ASSERT(!ctx.saq.empty() && ctx.saq.front() == &di,
                             "SAQ out of order at graduation");
                ctx.saqWithdraw(di.ti.addr);
                ctx.saq.pop_front();
            }
            if (di.oldPhysDst != kNoPhysReg)
                ctx.file(di.ti.dst.cls).release(di.oldPhysDst);
            di.state = InstState::Graduated;
            ctx.rob.pop_front();
            ctx.policyDirty = true;  // ROB occupancy changed
            ctx.graduated += 1;
            totalGraduated_ += 1;
            lastGraduation_ = now_;
            width -= 1;
        }
    }
}

// ---------------------------------------------------------------------
// Idle fast-forward
// ---------------------------------------------------------------------

bool
Simulator::canDispatch(const Context &ctx) const
{
    const FetchedInst &fi = ctx.fetchBuf.front();
    const TraceInst &ti = fi.ti;
    const Unit unit = ti.unit();

    if (ctx.rob.size() >= cfg_.robEntries)
        return false;
    if (ti.op != Opcode::Nop) {
        const auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
        const std::size_t cap =
            unit == Unit::AP ? cfg_.apQueueEntries : cfg_.iqEntries;
        if (queue.size() >= cap)
            return false;
    }
    if (isStore(ti.op) && ctx.saq.size() >= cfg_.saqEntries)
        return false;
    if (ti.dst.valid() && !ctx.file(ti.dst.cls).hasFree())
        return false;
    return true;
}

bool
Simulator::quiescent()
{
    // A completion due this cycle wakes the whole pipeline.
    if (completionDue())
        return false;

    for (const auto &ctxp : contexts_) {
        const Context &ctx = *ctxp;

        // Graduation: a Completed ROB head would graduate this cycle.
        // Even a store whose cache write would be *rejected* breaks
        // quiescence, because the attempt mutates the reject counters.
        if (!ctx.rob.empty()) {
            const DynInst &head = ctx.rob.front();
            if (head.state == InstState::Completed &&
                (!head.isStoreOp || ctx.storeDataReady(head)))
                return false;
        }

        // Issue: a unit-queue head passing its gates would issue — or,
        // for a load denied a port/MSHR, at least attempt an access and
        // mutate the memory statistics. Only the heads matter:
        // issueUnit stops a thread's unit at the first non-issuable
        // instruction, and with both heads stuck neither two-pass round
        // can unblock the other unit.
        const auto head_can_issue = [&](const DynInst *di) {
            if (!cfg_.decoupled && di->seq != ctx.nextIssueSeq)
                return false;
            return di->isStoreOp ? ctx.storeAddrReady(*di)
                                 : ctx.operandsReady(*di);
        };
        if (!ctx.apQ.empty() && head_can_issue(ctx.apQ.front()))
            return false;
        if (!ctx.iq.empty() && head_can_issue(ctx.iq.front()))
            return false;
    }

    // Front end, consulted on the same ThreadStates the real stages
    // would see. An eligible thread *vetoed* by a gating policy does
    // not break quiescence — but only while the veto is *stable*
    // (Policy::vetoStable): occupancies and outstandingMisses are
    // frozen across an idle span, but the trailing windows keep
    // evolving, so a verdict that reads them (the adaptive policy's)
    // can flip mid-span with no other state change. An unstable veto
    // breaks quiescence outright: the cycle is stepped normally, and
    // within at most kPolicyWindowCycles stepped cycles the window
    // saturates and the veto becomes stable. Crucially the unstable
    // branch must NOT peek at the thread's next instruction — the
    // stepping fetch stage never consults the trace of a vetoed
    // thread, and nextInst's lookahead caching would desynchronize the
    // trace-source state from the stepped run's.
    const auto &threads = snapshotThreads();
    for (const ThreadState &t : threads) {
        Context &ctx = *contexts_[t.tid];
        if (!ctx.fetchBuf.empty()) {
            if (fetchPolicy_.shouldFlush(t))
                return false;
            if (canDispatch(ctx))
                return false;
        }
        if (t.fetchEligible) {
            if (!fetchPolicy_.mayFetch(t)) {
                if (!fetchPolicy_.vetoStable(t))
                    return false;
                continue;
            }
            // An eligible thread still fetches nothing when the next
            // instruction is a conditional branch beyond the control
            // speculation limit — and unresolvedBranches cannot drop
            // without an issue or completion, both of which end the
            // span anyway. The peek is idempotent (it caches into
            // pendingInst exactly as the stepping fetch stage would).
            const TraceInst *tip = nextInst(ctx);
            if (tip &&
                !(isCondBranch(tip->op) &&
                  ctx.unresolvedBranches >= cfg_.maxUnresolvedBranches))
                return false;
        }
    }
    return true;
}

Cycle
Simulator::nextWakeCycle() const
{
    Cycle wake = nextCompletion();

    const Cycle mem_next = mem_.nextEventCycle(now_);
    if (mem_next < wake)
        wake = mem_next;

    // A redirected thread resumes fetching at fetchResumeAt — a wake
    // source when the thread would actually have something to fetch
    // and room to put it (both frozen during quiescence). A thread the
    // gating policy would still veto wakes us only into a re-check and
    // re-skip, which conservatism permits.
    for (const auto &ctxp : contexts_) {
        const Context &ctx = *ctxp;
        if (ctx.fetchBlocked || ctx.fetchResumeAt <= now_)
            continue;
        if (ctx.replayQ.empty() && ctx.traceDone && !ctx.hasPending)
            continue;
        if (ctx.fetchBuf.size() >= cfg_.fetchBufferSize)
            continue;
        if (ctx.fetchResumeAt < wake)
            wake = ctx.fetchResumeAt;
    }
    return wake;
}

void
Simulator::idleStepStats()
{
    MTDAE_ASSERT(!completionDue(),
                 "completion event fired inside a fast-forwarded span");
    const auto &threads = snapshotThreads();
    issuePolicy_.issueOrder(Unit::AP, threads, orderAp_);
    issuePolicy_.issueOrder(Unit::EP, threads, orderEp_);
    // Nothing issues, so every slot is free: accountSlots classifies
    // the stalled heads and charges the perceived-latency stalls,
    // exactly as the stepped issue stage would.
    accountSlots(Unit::AP, orderAp_, cfg_.apUnits);
    accountSlots(Unit::EP, orderEp_, cfg_.epUnits);
    if (windowsRead_)
        for (auto &ctxp : contexts_)
            ctxp->sampleWindows();
    fetchPolicy_.endCycle();
    issuePolicy_.endCycle();
    now_ += 1;
}

bool
Simulator::trySkipIdle(std::uint64_t max_cycles)
{
    std::chrono::steady_clock::time_point t0;
    if (profileEnabled_)
        t0 = std::chrono::steady_clock::now();
    if (!quiescent())
        return false;

    // Jump to the earliest cycle anything can happen, clamped to the
    // run-loop horizon and to the deadlock guard's firing point so a
    // wedged pipeline panics at the identical cycle either way.
    Cycle target = nextWakeCycle();
    if (max_cycles < target)
        target = max_cycles;
    const Cycle guard_at = lastGraduation_ + 1'000'001;
    if (guard_at < target)
        target = guard_at;
    if (target < now_ + 2)
        return false;  // a one-cycle jump is just a step

    MTDAE_ASSERT(nextCompletion() >= target,
                 "fast-forward past a pending completion event");

    const std::uint64_t total = target - now_;
    std::uint64_t n = total;

    // Phase A: an issue order keyed on the windowed IQ occupancy
    // (`split`'s EP) keeps evolving for up to kIqWindow cycles after
    // the last dispatch; microstep until the window saturates and the
    // visit orders become purely rotation-periodic.
    if (issuePolicy_.readsIqWindow()) {
        std::uint64_t head =
            n < Context::kIqWindow ? n : Context::kIqWindow;
        for (; head > 0; --head, --n)
            idleStepStats();
    }

    // Phase B: with the machine state frozen, every per-cycle policy
    // consultation repeats with the rotation period (numThreads), so
    // microstep one period to measure its statistics delta, then apply
    // k more periods arithmetically.
    const std::uint64_t period = cfg_.numThreads;
    if (n >= 2 * period) {
        const std::array<std::uint64_t, kNumSlotUses> ap0 =
            slotsAp_.counts;
        const std::array<std::uint64_t, kNumSlotUses> ep0 =
            slotsEp_.counts;
        for (std::uint64_t i = 0; i < period; ++i)
            idleStepStats();
        n -= period;
        const std::uint64_t k = n / period;
        if (k > 0) {
            const std::uint64_t bulk = k * period;
            for (std::size_t u = 0; u < kNumSlotUses; ++u) {
                slotsAp_.counts[u] += (slotsAp_.counts[u] - ap0[u]) * k;
                slotsEp_.counts[u] += (slotsEp_.counts[u] - ep0[u]) * k;
            }
            // Perceived-latency stalls: accountSlots charges each
            // WaitMem-classified queue head one stall per unit per
            // cycle, independent of the visit order; the head set is
            // frozen for the whole span, so bulk cycles multiply out.
            for (const Unit unit : {Unit::AP, Unit::EP}) {
                for (auto &ctxp : contexts_) {
                    Context &ctx = *ctxp;
                    auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
                    if (queue.empty())
                        continue;
                    const DynInst *di = queue.front();
                    if (!cfg_.decoupled && di->seq != ctx.nextIssueSeq)
                        continue;
                    std::uint32_t tok = PerceivedTracker::kNoToken;
                    if (ctx.stallSource(*di, tok) ==
                            Producer::Kind::Load &&
                        tok != PerceivedTracker::kNoToken)
                        ctx.perceived.stall(tok, bulk);
                }
            }
            if (windowsRead_)
                for (auto &ctxp : contexts_)
                    ctxp->advanceWindows(bulk);
            fetchPolicy_.skipCycles(bulk);
            issuePolicy_.skipCycles(bulk);
            now_ += bulk;
            n -= bulk;
        }
    }

    // Phase C: remainder, so the rotations land exactly where stepping
    // would have left them at the wake cycle.
    for (; n > 0; --n)
        idleStepStats();

    // Stepping calls mem_.beginCycle at the start of every cycle; the
    // last call a stepped run would have made is at target - 1.
    // Fill recycling is idempotent and per-MSHR independent, so one
    // catch-up call leaves the hierarchy byte-identical.
    mem_.beginCycle(now_ - 1);

    cyclesSkipped_ += total;
    skipEvents_ += 1;
    if (profileEnabled_) {
        const std::uint64_t d = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        profile_.ns[std::size_t(Stage::Skipped)] += d;
        profile_.totalNs += d;
        profile_.cycles += total;
    }
    return true;
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

template <bool Profiled>
void
Simulator::stepImpl()
{
    // Profiled accounting: consecutive steady_clock marks tile the
    // whole step, so the stage buckets sum to totalNs exactly. Time
    // snapshotThreads spent rebuilding ThreadStates inside a stage
    // (accumulated in snapNs_) is carved out of that stage's delta and
    // credited to Stage::Snapshot.
    std::chrono::steady_clock::time_point prev;
    std::uint64_t snap_seen = 0;
    if constexpr (Profiled) {
        prev = std::chrono::steady_clock::now();
        snapNs_ = 0;
    }
    const auto mark = [&](Stage s) {
        if constexpr (Profiled) {
            const auto t = std::chrono::steady_clock::now();
            const std::uint64_t d = std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - prev)
                    .count());
            const std::uint64_t snap_delta = snapNs_ - snap_seen;
            snap_seen = snapNs_;
            const std::uint64_t snap_credit =
                snap_delta < d ? snap_delta : d;
            profile_.ns[std::size_t(s)] += d - snap_credit;
            profile_.ns[std::size_t(Stage::Snapshot)] += snap_credit;
            profile_.totalNs += d;
            prev = t;
        } else {
            (void)s;
        }
    };

    mem_.beginCycle(now_);
    processCompletions();
    mark(Stage::Complete);
    issueStage();
    mark(Stage::Issue);
    dispatchStage();
    mark(Stage::Dispatch);
    fetchStage();
    mark(Stage::Fetch);
    graduateStage();
    mark(Stage::Graduate);
    // One windowed-statistics sample per cycle, after every stage, so
    // all of next cycle's policy consultations see the same windows.
    // Only a policy that reads a window pays for it.
    if (windowsRead_)
        for (auto &ctxp : contexts_)
            ctxp->sampleWindows();
    // One rotation step per cycle, matching the historical rrIssue_/
    // rrDispatch_/rrFetch_ counters this layer replaced.
    fetchPolicy_.endCycle();
    issuePolicy_.endCycle();
    now_ += 1;
    mark(Stage::Other);
    if constexpr (Profiled)
        profile_.cycles += 1;
}

void
Simulator::step()
{
    if (profileEnabled_) {
        stepImpl<true>();
        return;
    }
    stepImpl<false>();
}

void
Simulator::setProfiling(bool on)
{
    profileEnabled_ = on;
    profile_.enabled = on;
}

bool
Simulator::allDone() const
{
    for (const auto &ctxp : contexts_) {
        const Context &ctx = *ctxp;
        if (!ctx.traceDone || ctx.hasPending || !ctx.replayQ.empty() ||
            !ctx.fetchBuf.empty() || !ctx.rob.empty())
            return false;
    }
    return true;
}

void
Simulator::resetStats()
{
    measureStart_ = now_;
    instsBase_ = totalGraduated_;
    slotsAp_.reset();
    slotsEp_.reset();
    mispredicts_ = 0;
    condBranches_ = 0;
    forwardedLoads_ = 0;
    cyclesSkipped_ = 0;
    skipEvents_ = 0;
    mem_.resetStats(now_);
    for (auto &ctxp : contexts_) {
        ctxp->graduatedBase = ctxp->graduated;
        ctxp->perceived.resetStats();
        ctxp->predictor->resetStats();
        // Interval boundary: conservatively invalidate the cached
        // ThreadStates rather than reason about resetStats side effects.
        ctxp->policyDirty = true;
    }
    profile_.reset();
    lastGraduation_ = now_;
}

void
computeQosMetrics(const std::vector<std::uint64_t> &insts,
                  const std::vector<std::uint32_t> &weights,
                  std::uint64_t cycles, RunResult &r)
{
    MTDAE_ASSERT(insts.size() == weights.size(),
                 "per-thread inst and weight vectors must match");
    const std::size_t n = insts.size();
    r.threadInsts = insts;
    r.threadSlowdown.assign(n, 0.0);
    r.weightedSpeedup = 0.0;
    r.fairnessHmean = 0.0;
    r.fairnessMaxMin = 0.0;

    std::uint64_t total = 0;
    std::uint64_t sum_w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        total += insts[i];
        sum_w += weights[i];
    }
    if (n == 0 || total == 0)
        return;

    if (cycles) {
        double ws = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            ws += double(weights[i]) * double(insts[i]) / double(cycles);
        r.weightedSpeedup = ws / double(sum_w);
    }

    // Normalized progress x_i = (insts_i / total) / (w_i / sum_w):
    // 1.0 when the thread made exactly its weighted fair share of the
    // interval's progress. slowdown_i is its reciprocal.
    bool starved = false;
    bool first = true;
    double inv_sum = 0.0;
    double x_min = 0.0;
    double x_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double share = double(weights[i]) / double(sum_w);
        if (insts[i] == 0) {
            starved = true;
            continue;
        }
        const double x =
            (double(insts[i]) / double(total)) / share;
        inv_sum += 1.0 / x;
        if (first || x < x_min)
            x_min = x;
        if (first || x > x_max)
            x_max = x;
        first = false;
        r.threadSlowdown[i] = share * double(total) / double(insts[i]);
    }
    if (!starved && inv_sum > 0.0)
        r.fairnessHmean = double(n) / inv_sum;
    if (starved)
        x_min = 0.0;
    r.fairnessMaxMin = x_max > 0.0 ? x_min / x_max : 0.0;
}

RunResult
Simulator::snapshot() const
{
    RunResult r;
    r.cycles = now_ - measureStart_;
    r.insts = totalGraduated_ - instsBase_;
    r.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;

    std::uint64_t fp_stalls = 0, int_stalls = 0;
    for (const auto &ctxp : contexts_) {
        const PerceivedTracker &p = ctxp->perceived;
        fp_stalls += p.fpStalls();
        int_stalls += p.intStalls();
        r.fpMisses += p.fpMisses();
        r.intMisses += p.intMisses();
    }
    r.perceivedFp = r.fpMisses ? double(fp_stalls) / r.fpMisses : 0.0;
    r.perceivedInt = r.intMisses ? double(int_stalls) / r.intMisses : 0.0;
    const std::uint64_t misses = r.fpMisses + r.intMisses;
    r.perceivedAll =
        misses ? double(fp_stalls + int_stalls) / misses : 0.0;

    const MemStats &ms = mem_.stats();
    r.loadMissRatio = ms.loadMiss.value();
    r.storeMissRatio = ms.storeMiss.value();
    r.missRatio = ms.missRatio();
    const std::uint64_t accesses = ms.loadMiss.den + ms.storeMiss.den;
    r.mergedRatio =
        accesses ? double(ms.mergedMisses) / accesses : 0.0;
    r.busUtilization = mem_.busUtilization(now_);
    r.avgFillLatency = ms.avgFillLatency();
    r.l2MissRatio = mem_.l2Stats().miss.value();
    r.dramRowHitRatio = mem_.dramStats().rowHit.value();
    r.dramBusUtilization = mem_.dramBusUtilization(now_);

    r.ap = slotsAp_;
    r.ep = slotsEp_;
    r.mispredictRate =
        condBranches_ ? double(mispredicts_) / condBranches_ : 0.0;
    r.cyclesSkipped = cyclesSkipped_;
    r.skipEvents = skipEvents_;
    r.profile = profile_;

    std::vector<std::uint64_t> thread_insts;
    std::vector<std::uint32_t> thread_weights;
    thread_insts.reserve(contexts_.size());
    thread_weights.reserve(contexts_.size());
    for (const auto &ctxp : contexts_) {
        thread_insts.push_back(ctxp->graduated - ctxp->graduatedBase);
        thread_weights.push_back(cfg_.threadWeight(ctxp->tid));
    }
    computeQosMetrics(thread_insts, thread_weights, r.cycles, r);
    return r;
}

namespace {

/** Deadlock guard shared by the run loops. */
void
guardProgress(Cycle now, Cycle last_graduation)
{
    if (now - last_graduation > 1000000)
        MTDAE_PANIC("no graduation for 1M cycles at cycle ", now,
                    " — pipeline deadlock");
}

} // namespace

void
Simulator::runWarmup(std::uint64_t max_cycles)
{
    while (totalGraduated_ < cfg_.warmupInsts && now_ < max_cycles &&
           !allDone()) {
        if (!skipProbeDue() || !trySkipIdle(max_cycles))
            step();
        guardProgress(now_, lastGraduation_);
    }
}

RunResult
Simulator::runMeasure(std::uint64_t measure_insts, std::uint64_t max_cycles)
{
    resetStats();
    // Saturate: a budget near 2^64 must not wrap to an empty interval.
    const std::uint64_t target =
        measure_insts > UINT64_MAX - totalGraduated_
            ? UINT64_MAX
            : totalGraduated_ + measure_insts;
    while (totalGraduated_ < target && now_ < max_cycles && !allDone()) {
        if (!skipProbeDue() || !trySkipIdle(max_cycles))
            step();
        guardProgress(now_, lastGraduation_);
    }
    return snapshot();
}

RunResult
Simulator::run(std::uint64_t measure_insts, std::uint64_t max_cycles)
{
    runWarmup(max_cycles);
    return runMeasure(measure_insts, max_cycles);
}

} // namespace mtdae
