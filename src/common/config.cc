#include "common/config.hh"

#include <algorithm>

#include "common/log.hh"

namespace mtdae {

namespace {

/** "a, b, c": the CLI spellings of @p kinds. */
std::string
policyNames(const std::vector<PolicyKind> &kinds)
{
    std::string names;
    for (const PolicyKind k : kinds)
        names += (names.empty() ? "" : ", ") + std::string(policyName(k));
    return names;
}

} // namespace

SimConfig
SimConfig::scaledForLatency(std::uint32_t l2_latency) const
{
    SimConfig c = *this;
    c.l2Latency = l2_latency;
    const std::uint32_t factor = std::max(1u, l2_latency / 16u);
    if (factor == 1)
        return c;
    // Multiply in 64 bits and saturate rather than wrap: an oversized
    // count then fails firstViolation() under its own name.
    const auto scale = [factor](std::uint32_t n, std::uint32_t base = 0) {
        return std::uint32_t(std::min<std::uint64_t>(
            base + std::uint64_t(n - base) * factor, UINT32_MAX));
    };
    c.iqEntries = scale(iqEntries);
    c.apQueueEntries = scale(apQueueEntries);
    c.saqEntries = scale(saqEntries);
    c.robEntries = scale(robEntries);
    c.fetchBufferSize = scale(fetchBufferSize);
    // The lockup-free miss capacity must also grow, or the MSHR count
    // (not decoupling) caps every benchmark at 16 lines per L2 latency:
    // the paper's near-flat Figure 1-d curves for the well-decoupled
    // programs are impossible otherwise. It stays bounded by what is
    // buildable, which is what separates the moderate-bandwidth programs
    // (flat) from the bandwidth-monsters like hydro2d (degraded).
    c.mshrs = std::min(scale(mshrs), 64u);
    // The L2's own miss capacity scales with the same reasoning (only
    // observable when the finite backend is enabled).
    c.l2Mshrs = std::min(scale(l2Mshrs), 32u);
    // Only the registers beyond the architectural ones buffer in-flight
    // results, so only those scale (too few stay too few).
    if (apPhysRegs > kArchIntRegs)
        c.apPhysRegs = scale(apPhysRegs, kArchIntRegs);
    if (epPhysRegs > kArchFpRegs)
        c.epPhysRegs = scale(epPhysRegs, kArchFpRegs);
    return c;
}

std::string
SimConfig::firstViolation() const
{
    if (numThreads == 0)
        return "numThreads must be >= 1";
    if (!policyIsFetch(fetchPolicy))
        return detail::concat("'", policyName(fetchPolicy),
                              "' is not a fetch policy (valid: ",
                              policyNames(fetchPolicies()), ")");
    if (!policyIsIssue(issuePolicy))
        return detail::concat("'", policyName(issuePolicy),
                              "' is not a dispatch/issue policy (valid: ",
                              policyNames(issuePolicies()), ")");
    for (const std::uint32_t w : threadWeights)
        if (w == 0)
            return "thread weights must be >= 1";
    if (adaptiveMissThreshold == 0)
        return "adaptiveMissThreshold must be >= 1";
    if (apUnits == 0 || epUnits == 0)
        return "both units need at least one functional unit";
    if (apLatency == 0 || epLatency == 0)
        return "functional unit latencies must be >= 1";
    if (apPhysRegs <= kArchIntRegs)
        return detail::concat("apPhysRegs must exceed the ", kArchIntRegs,
                              " architectural integer registers");
    if (epPhysRegs <= kArchFpRegs)
        return detail::concat("epPhysRegs must exceed the ", kArchFpRegs,
                              " architectural FP registers");
    if (apPhysRegs >= kNoPhysReg || epPhysRegs >= kNoPhysReg)
        return detail::concat("apPhysRegs and epPhysRegs must be below ",
                              kNoPhysReg,
                              " (physical register numbers are 16 bits)");
    if (iqEntries == 0 || apQueueEntries == 0 || saqEntries == 0)
        return "queues must have at least one entry";
    if (robEntries == 0)
        return "robEntries must be >= 1";
    if (l1LineBytes == 0 || (l1LineBytes & (l1LineBytes - 1)) != 0)
        return "l1LineBytes must be a power of two";
    if (l1Bytes == 0 || l1Bytes % l1LineBytes != 0)
        return "l1Bytes must be a multiple of the line size";
    if ((l1Bytes / l1LineBytes) & (l1Bytes / l1LineBytes - 1))
        return "L1 line count must be a power of two (direct-mapped)";
    if (mshrs == 0)
        return "a lockup-free cache needs at least one MSHR";
    if (busBytesPerCycle == 0)
        return "busBytesPerCycle must be >= 1";
    if (fetchThreadsPerCycle == 0 || fetchWidth == 0 || dispatchWidth == 0)
        return "front-end widths must be >= 1";
    if (fetchBufferSize == 0)
        return "fetchBufferSize must be >= 1";
    if (maxUnresolvedBranches == 0)
        return "maxUnresolvedBranches must be >= 1 (no conditional "
               "branch could ever be fetched)";
    if (graduateWidth == 0)
        return "graduateWidth must be >= 1";
    if (l1Ports == 0)
        return "l1Ports must be >= 1";
    if (l2Assoc == 0)
        return "l2Assoc must be >= 1";
    if (l2Bytes == 0 || l2Bytes % (l1LineBytes * l2Assoc) != 0)
        return "l2Bytes must be a multiple of l1LineBytes * l2Assoc";
    const std::uint32_t l2_sets = l2Bytes / (l1LineBytes * l2Assoc);
    if (l2_sets & (l2_sets - 1))
        return "L2 set count must be a power of two";
    if (l2Ports == 0 || l2Mshrs == 0)
        return "the L2 needs at least one port and one MSHR";
    if (dramBanks == 0)
        return "dramBanks must be >= 1";
    if (dramRowBytes < l1LineBytes || dramRowBytes % l1LineBytes != 0)
        return "dramRowBytes must be a multiple of the line size";
    if (dramCas == 0 || dramRas == 0 || dramBusCycles == 0)
        return "DRAM CAS/RAS latencies and bus cycles must be >= 1";
    if (bhtEntries == 0 || (bhtEntries & (bhtEntries - 1)) != 0)
        return "bhtEntries must be a power of two";
    if (predictor == PredictorKind::Gshare &&
        (gshareHistoryBits == 0 || gshareHistoryBits > 32))
        return "gshareHistoryBits must be in 1..32";
    return "";
}

void
SimConfig::validate() const
{
    if (const std::string rule = firstViolation(); !rule.empty())
        MTDAE_FATAL(rule);
}

} // namespace mtdae
