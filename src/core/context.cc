#include "core/context.hh"

#include "common/log.hh"
#include "common/serialize.hh"

namespace mtdae {

namespace {

void
saveTraceInst(ByteWriter &w, const TraceInst &ti)
{
    w.u8(std::uint8_t(ti.op));
    w.u8(std::uint8_t(ti.dst.cls));
    w.u8(ti.dst.idx);
    for (const RegRef &s : ti.src) {
        w.u8(std::uint8_t(s.cls));
        w.u8(s.idx);
    }
    w.u64(ti.pc);
    w.u64(ti.addr);
    w.b(ti.taken);
}

TraceInst
restoreTraceInst(ByteReader &r)
{
    TraceInst ti;
    ti.op = Opcode(r.u8());
    ti.dst.cls = RegClass(r.u8());
    ti.dst.idx = r.u8();
    for (RegRef &s : ti.src) {
        s.cls = RegClass(r.u8());
        s.idx = r.u8();
    }
    ti.pc = r.u64();
    ti.addr = r.u64();
    ti.taken = r.b();
    return ti;
}

void
saveDynInst(ByteWriter &w, const DynInst &di)
{
    saveTraceInst(w, di.ti);
    w.u64(di.seq);
    w.u8(std::uint8_t(di.unit));
    w.u8(std::uint8_t(di.state));
    w.u16(di.physDst);
    w.u16(di.oldPhysDst);
    for (const PhysReg p : di.physSrc)
        w.u16(p);
    w.u64(di.dispatchedAt);
    w.u64(di.readyAt);
    w.b(di.mispredicted);
    w.b(di.loadMissed);
    w.b(di.forwarded);
    w.u32(di.missToken);
}

void
restoreDynInst(ByteReader &r, DynInst &di)
{
    di.ti = restoreTraceInst(r);
    di.seq = r.u64();
    di.unit = Unit(r.u8());
    di.state = InstState(r.u8());
    di.physDst = r.u16();
    di.oldPhysDst = r.u16();
    for (PhysReg &p : di.physSrc)
        p = r.u16();
    di.dispatchedAt = r.u64();
    di.readyAt = r.u64();
    di.mispredicted = r.b();
    di.loadMissed = r.b();
    di.forwarded = r.b();
    di.missToken = r.u32();
    // Derived fields, not part of the byte stream.
    di.isLoadOp = isLoad(di.ti.op);
    di.isStoreOp = isStore(di.ti.op);
}

} // namespace

RegFile::RegFile(std::uint32_t arch_regs, std::uint32_t phys_regs)
    : ready_(phys_regs, 1),
      producer_(phys_regs),
      map_(arch_regs)
{
    MTDAE_ASSERT(phys_regs > arch_regs,
                 "need more physical than architectural registers");
    // Architectural register i starts mapped to physical i, ready.
    for (std::uint32_t i = 0; i < arch_regs; ++i)
        map_[i] = PhysReg(i);
    freeList_.reserve(phys_regs - arch_regs);
    // Pop from the back: hand out the lowest-numbered registers first.
    for (std::uint32_t i = phys_regs; i > arch_regs; --i)
        freeList_.push_back(PhysReg(i - 1));
}

PhysReg
RegFile::rename(std::uint8_t arch, PhysReg &old_phys)
{
    MTDAE_ASSERT(!freeList_.empty(), "rename with an empty free list");
    const PhysReg fresh = freeList_.back();
    freeList_.pop_back();
    old_phys = map_.at(arch);
    map_.at(arch) = fresh;
    ready_.at(fresh) = 0;
    producer_.at(fresh) = Producer{};
    return fresh;
}

void
RegFile::release(PhysReg r)
{
    MTDAE_ASSERT(r < ready_.size(), "release of a bad physical register");
    ready_.at(r) = 1;
    producer_.at(r) = Producer{};
    freeList_.push_back(r);
}

Context::Context(ThreadId id, const SimConfig &cfg,
                 std::unique_ptr<TraceSource> src)
    : tid(id),
      source(std::move(src)),
      predictor(makePredictor(cfg)),
      intRegs(SimConfig::kArchIntRegs, cfg.apPhysRegs),
      fpRegs(SimConfig::kArchFpRegs, cfg.epPhysRegs)
{
    MTDAE_ASSERT(source, "context without a trace source");
}

bool
Context::operandsReady(const DynInst &di) const
{
    for (int i = 0; i < 3; ++i) {
        if (!di.ti.src[i].valid())
            continue;
        if (!file(di.ti.src[i].cls).ready(di.physSrc[i]))
            return false;
    }
    return true;
}

bool
Context::storeAddrReady(const DynInst &di) const
{
    // src[0] is the address register of both StI and StF.
    if (!di.ti.src[0].valid())
        return true;
    return file(di.ti.src[0].cls).ready(di.physSrc[0]);
}

bool
Context::storeDataReady(const DynInst &di) const
{
    // src[1] is the data register of both StI and StF.
    if (!di.ti.src[1].valid())
        return true;
    return file(di.ti.src[1].cls).ready(di.physSrc[1]);
}

Producer::Kind
Context::stallSource(const DynInst &di, std::uint32_t &tok) const
{
    tok = PerceivedTracker::kNoToken;
    Producer::Kind kind = Producer::Kind::None;
    for (int i = 0; i < 3; ++i) {
        if (!di.ti.src[i].valid())
            continue;
        // Stores stall at issue only on their address operand.
        if (di.isStoreOp && i != 0)
            continue;
        const RegFile &rf = file(di.ti.src[i].cls);
        if (rf.ready(di.physSrc[i]))
            continue;
        const Producer &p = rf.producer(di.physSrc[i]);
        // Prefer reporting a load-miss producer: it carries the token
        // the perceived-latency metric needs.
        if (p.kind == Producer::Kind::Load) {
            kind = Producer::Kind::Load;
            if (p.missToken != PerceivedTracker::kNoToken) {
                tok = p.missToken;
                return kind;
            }
        } else if (kind == Producer::Kind::None) {
            kind = p.kind;
        }
    }
    return kind;
}

void
Context::sampleWindows()
{
    std::uint32_t &slot = iqSamples[iqSampleAt];
    const std::uint32_t evicted = slot;
    iqWindowSum -= slot;
    slot = std::uint32_t(iq.size());
    iqWindowSum += slot;
    iqSampleAt = (iqSampleAt + 1) % kIqWindow;
    // The windows feed ThreadState::iqOccupancyWindow / ::missWindow;
    // an unchanged sum keeps the cached snapshot valid.
    if (slot != evicted)
        policyDirty = true;

    const std::uint32_t cur = perceived.outstanding();
    if (cur != missCountedFor) {
        // Outstanding changed since the count was last taken: recount
        // the slots equal to the new value. The recount can flip the
        // uniformity observable even when no slot is rewritten.
        missCountedFor = cur;
        missSlotsAtCur = 0;
        for (const std::uint32_t s : missSamples)
            if (s == cur)
                ++missSlotsAtCur;
        policyDirty = true;
    }
    std::uint32_t &mslot = missSamples[missSampleAt];
    const std::uint32_t mevicted = mslot;
    missWindowSum -= mslot;
    if (mevicted == cur)
        --missSlotsAtCur;
    mslot = cur;
    ++missSlotsAtCur;
    missWindowSum += mslot;
    missSampleAt = (missSampleAt + 1) % kIqWindow;
    if (mslot != mevicted)
        policyDirty = true;
}

void
Context::advanceWindows(std::uint64_t n)
{
    if (n < kIqWindow) {
        for (std::uint64_t i = 0; i < n; ++i)
            sampleWindows();
        return;
    }
    // Every ring slot is overwritten at least once: the windows
    // saturate at n samples of the constant values. The fill can make
    // a mixed-but-equal-sum miss ring uniform, so the uniformity
    // tracker must invalidate the cache too.
    const std::uint32_t v = std::uint32_t(iq.size());
    const std::uint32_t m = perceived.outstanding();
    if (iqWindowSum != v * kIqWindow || missWindowSum != m * kIqWindow ||
        missSlotsAtCur != kIqWindow || missCountedFor != m)
        policyDirty = true;
    iqSamples.fill(v);
    iqWindowSum = v * kIqWindow;
    missSamples.fill(m);
    missWindowSum = m * kIqWindow;
    missSlotsAtCur = kIqWindow;
    missCountedFor = m;
    iqSampleAt = std::uint32_t((iqSampleAt + n) % kIqWindow);
    missSampleAt = std::uint32_t((missSampleAt + n) % kIqWindow);
}

ThreadState
Context::policyState(const SimConfig &cfg, Cycle now) const
{
    ThreadState s;
    s.tid = tid;
    s.fetchBufOccupancy = std::uint32_t(fetchBuf.size());
    s.apQueueOccupancy = std::uint32_t(apQ.size());
    s.iqOccupancy = std::uint32_t(iq.size());
    s.robOccupancy = std::uint32_t(rob.size());
    s.unresolvedBranches = unresolvedBranches;
    s.outstandingMisses = perceived.outstanding();
    s.iqOccupancyWindow = iqWindowSum;
    s.missWindow = missWindowSum;
    // The count is synced lazily at the next sample, so guard on the
    // value it was taken against; a stale count reads as non-uniform,
    // which is always a safe (conservative) answer.
    s.missWindowUniform = missCountedFor == s.outstandingMisses &&
                          missSlotsAtCur == kIqWindow;
    s.weight = cfg.threadWeight(tid);
    s.fetchEligible = !fetchBlocked && now >= fetchResumeAt &&
                      (!replayQ.empty() || !traceDone || hasPending) &&
                      fetchBuf.size() < cfg.fetchBufferSize;
    return s;
}

void
RegFile::save(ByteWriter &w) const
{
    w.u64(ready_.size());
    for (const std::uint8_t rdy : ready_)
        w.u8(rdy);
    for (const Producer &p : producer_) {
        w.u8(std::uint8_t(p.kind));
        w.u32(p.missToken);
    }
    w.u64(freeList_.size());
    for (const PhysReg r : freeList_)
        w.u16(r);
    w.u64(map_.size());
    for (const PhysReg r : map_)
        w.u16(r);
}

void
RegFile::restore(ByteReader &r)
{
    if (r.u64() != ready_.size())
        throw SnapshotError("physical register count mismatch in snapshot");
    for (std::uint8_t &rdy : ready_)
        rdy = r.u8();
    for (Producer &p : producer_) {
        p.kind = Producer::Kind(r.u8());
        p.missToken = r.u32();
    }
    freeList_.resize(r.u64());
    for (PhysReg &reg : freeList_)
        reg = r.u16();
    if (r.u64() != map_.size())
        throw SnapshotError("map table size mismatch in snapshot");
    for (PhysReg &reg : map_)
        reg = r.u16();
}

void
Context::save(ByteWriter &w) const
{
    source->save(w);

    w.u64(fetchBuf.size());
    for (const FetchedInst &fi : fetchBuf) {
        saveTraceInst(w, fi.ti);
        w.u64(fi.seq);
        w.b(fi.mispredicted);
    }
    w.u64(replayQ.size());
    for (const TraceInst &ti : replayQ)
        saveTraceInst(w, ti);
    saveTraceInst(w, pendingInst);
    w.b(hasPending);
    w.b(traceDone);
    w.u32(unresolvedBranches);
    w.b(fetchBlocked);
    w.u64(blockingBranchSeq);
    w.u64(fetchResumeAt);
    predictor->save(w);

    intRegs.save(w);
    fpRegs.save(w);

    w.u64(rob.size());
    for (const DynInst &di : rob)
        saveDynInst(w, di);

    w.u64(nextSeq);
    w.u64(nextIssueSeq);
    perceived.save(w);
    w.u64(graduated);

    for (const std::uint32_t s : iqSamples)
        w.u32(s);
    w.u32(iqSampleAt);
    w.u32(iqWindowSum);

    for (const std::uint32_t s : missSamples)
        w.u32(s);
    w.u32(missSampleAt);
    w.u32(missWindowSum);
    w.u64(graduatedBase);
}

void
Context::restore(ByteReader &r)
{
    source->restore(r);

    fetchBuf.resize(r.u64());
    for (FetchedInst &fi : fetchBuf) {
        fi.ti = restoreTraceInst(r);
        fi.seq = r.u64();
        fi.mispredicted = r.b();
    }
    replayQ.resize(r.u64());
    for (TraceInst &ti : replayQ)
        ti = restoreTraceInst(r);
    pendingInst = restoreTraceInst(r);
    hasPending = r.b();
    traceDone = r.b();
    unresolvedBranches = r.u32();
    fetchBlocked = r.b();
    blockingBranchSeq = r.u64();
    fetchResumeAt = r.u64();
    predictor->restore(r);

    intRegs.restore(r);
    fpRegs.restore(r);

    rob.resize(r.u64());
    apQ.clear();
    iq.clear();
    saq.clear();
    saqWords.clear();
    for (DynInst &di : rob) {
        restoreDynInst(r, di);
        di.tid = tid;
        // Queues issue in order from the front and the SAQ drains at
        // graduation, so each is exactly a filter of the ROB.
        if (di.state == InstState::Dispatched)
            (di.unit == Unit::AP ? apQ : iq).push_back(&di);
        if (di.isStoreOp) {
            saq.push_back(&di);
            if (di.state != InstState::Dispatched)
                saqDeposit(di.ti.addr);
        }
    }

    nextSeq = r.u64();
    nextIssueSeq = r.u64();
    perceived.restore(r);
    graduated = r.u64();

    for (std::uint32_t &s : iqSamples)
        s = r.u32();
    iqSampleAt = r.u32();
    iqWindowSum = r.u32();

    for (std::uint32_t &s : missSamples)
        s = r.u32();
    missSampleAt = r.u32();
    missWindowSum = r.u32();
    graduatedBase = r.u64();

    // Rebuild the derived miss-window uniformity count. Snapshots are
    // taken at cycle boundaries, where sampleWindows() has just synced
    // the count to perceived.outstanding(), so the recount reproduces
    // the continued run's tracker exactly. (When no policy reads the
    // windows they are never sampled and stay all zero; the recount
    // then reads as uniform exactly when nothing is outstanding, as
    // the continued run's never-synced tracker does.)
    missCountedFor = perceived.outstanding();
    missSlotsAtCur = 0;
    for (const std::uint32_t s : missSamples)
        if (s == missCountedFor)
            ++missSlotsAtCur;

    policyDirty = true;
}

bool
Context::saqForwards(InstSeq load_seq, Addr load_addr) const
{
    const Addr word = load_addr >> 3;
    for (auto it = saq.rbegin(); it != saq.rend(); ++it) {
        const DynInst &st = **it;
        if (st.seq >= load_seq)
            continue;
        if (st.state != InstState::Dispatched && (st.ti.addr >> 3) == word)
            return true;
    }
    return false;
}

} // namespace mtdae
