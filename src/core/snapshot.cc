#include "core/snapshot.hh"

#include "core/simulator.hh"

namespace mtdae {

void
serializeConfig(const SimConfig &cfg, ByteWriter &w)
{
    w.u32(cfg.numThreads);
    w.b(cfg.decoupled);
    w.u32(cfg.apUnits);
    w.u32(cfg.epUnits);
    w.u32(cfg.apLatency);
    w.u32(cfg.epLatency);
    w.u32(cfg.fetchThreadsPerCycle);
    w.u32(cfg.fetchWidth);
    w.u32(cfg.fetchBufferSize);
    w.u32(cfg.dispatchWidth);
    w.u8(std::uint8_t(cfg.fetchPolicy));
    w.u8(std::uint8_t(cfg.issuePolicy));
    w.u64(cfg.threadWeights.size());
    for (const std::uint32_t tw : cfg.threadWeights)
        w.u32(tw);
    w.u32(cfg.adaptiveMissThreshold);
    w.u32(cfg.maxUnresolvedBranches);
    w.u32(cfg.redirectPenalty);
    w.u32(cfg.bhtEntries);
    w.u8(std::uint8_t(cfg.predictor));
    w.u32(cfg.gshareHistoryBits);
    w.u32(cfg.iqEntries);
    w.u32(cfg.apQueueEntries);
    w.u32(cfg.saqEntries);
    w.u32(cfg.robEntries);
    w.u32(cfg.apPhysRegs);
    w.u32(cfg.epPhysRegs);
    w.u32(cfg.graduateWidth);
    w.u32(cfg.l1Bytes);
    w.u32(cfg.l1LineBytes);
    w.u32(cfg.l1Ports);
    w.u32(cfg.mshrs);
    w.u32(cfg.l1HitLatency);
    w.u32(cfg.l2Latency);
    w.u32(cfg.busBytesPerCycle);
    w.b(cfg.perfectL2);
    w.u32(cfg.l2Bytes);
    w.u32(cfg.l2Assoc);
    w.u32(cfg.l2Ports);
    w.u32(cfg.l2Mshrs);
    w.u32(cfg.dramBanks);
    w.u32(cfg.dramRowBytes);
    w.u32(cfg.dramCas);
    w.u32(cfg.dramRas);
    w.u32(cfg.dramPrecharge);
    w.u32(cfg.dramBusCycles);
    w.u64(cfg.seed);
    w.u64(cfg.warmupInsts);
    // cfg.cycleSkip is deliberately not serialized: like SimJob::profile
    // it is an execution strategy with byte-identical results, so it
    // must not perturb configFingerprint()/prefixKey() — a skip-on run
    // may warm-start from a skip-off checkpoint and vice versa.
}

std::uint64_t
configFingerprint(const SimConfig &cfg)
{
    ByteWriter w;
    serializeConfig(cfg, w);
    return fnv1a(w.data());
}

std::vector<std::uint8_t>
Snapshot::toBytes() const
{
    ByteWriter w;
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.u64(configHash);
    w.u64(payload.size());
    for (const std::uint8_t byte : payload)
        w.u8(byte);
    w.u64(fnv1a(payload));
    return w.take();
}

Snapshot
Snapshot::fromBytes(const std::vector<std::uint8_t> &bytes)
{
    ByteReader r(bytes);
    if (r.u32() != kSnapshotMagic)
        throw SnapshotError("not an mtdae snapshot (bad magic)");
    const std::uint32_t version = r.u32();
    if (version != kSnapshotVersion)
        throw SnapshotError(
            "unsupported snapshot version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kSnapshotVersion) + ")");
    Snapshot snap;
    snap.configHash = r.u64();
    const std::uint64_t len = r.u64();
    if (len > r.remaining())
        throw SnapshotError("snapshot payload truncated");
    snap.payload.resize(std::size_t(len));
    for (std::uint8_t &byte : snap.payload)
        byte = r.u8();
    const std::uint64_t checksum = r.u64();
    if (!r.atEnd())
        throw SnapshotError("trailing bytes after snapshot container");
    if (checksum != fnv1a(snap.payload))
        throw SnapshotError("snapshot payload checksum mismatch");
    return snap;
}

Snapshot
Simulator::saveSnapshot() const
{
    ByteWriter w;
    w.u64(now_);
    mem_.save(w);
    w.u64(contexts_.size());
    for (const auto &ctxp : contexts_)
        ctxp->save(w);
    // The completion calendar is not written: each Issued ROB entry
    // has exactly one completion, due at its readyAt (restoreSnapshot
    // rebuilds the calendar from the ROBs).

    fetchPolicy_.save(w);
    issuePolicy_.save(w);

    for (const std::uint64_t count : slotsAp_.counts)
        w.u64(count);
    for (const std::uint64_t count : slotsEp_.counts)
        w.u64(count);
    w.u64(totalGraduated_);
    w.u64(measureStart_);
    w.u64(instsBase_);
    w.u64(mispredicts_);
    w.u64(condBranches_);
    w.u64(forwardedLoads_);
    w.u64(lastGraduation_);

    Snapshot snap;
    snap.configHash = configFingerprint(cfg_);
    snap.payload = w.take();
    return snap;
}

void
Simulator::restoreSnapshot(const Snapshot &snap)
{
    if (snap.configHash != configFingerprint(cfg_))
        throw SnapshotError(
            "snapshot belongs to a different configuration "
            "(config hash mismatch)");

    ByteReader r(snap.payload);
    now_ = r.u64();
    mem_.restore(r);
    if (r.u64() != contexts_.size())
        throw SnapshotError("context count mismatch in snapshot");
    // A calendar slot keeps its list in (tid, seq) order, so the
    // rebuilt calendar is the continued run's, whatever the walk order.
    calendar_.fill(nullptr);
    calendarBusy_.fill(0);
    overflow_ = {};
    for (auto &ctxp : contexts_) {
        ctxp->restore(r);
        for (DynInst &di : ctxp->rob)
            if (di.state == InstState::Issued)
                schedule(di, now_);
    }

    fetchPolicy_.restore(r);
    issuePolicy_.restore(r);

    for (std::uint64_t &count : slotsAp_.counts)
        count = r.u64();
    for (std::uint64_t &count : slotsEp_.counts)
        count = r.u64();
    totalGraduated_ = r.u64();
    measureStart_ = r.u64();
    instsBase_ = r.u64();
    mispredicts_ = r.u64();
    condBranches_ = r.u64();
    forwardedLoads_ = r.u64();
    lastGraduation_ = r.u64();

    if (!r.atEnd())
        throw SnapshotError("trailing bytes in snapshot payload");
}

} // namespace mtdae
