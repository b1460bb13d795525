/**
 * @file
 * Mix explorer: run the paper's Section 3 workload (every hardware
 * context executes the full SPEC FP95 suite in a rotated order) on an
 * arbitrary machine point and print the complete measurement set —
 * IPC, both units' issue-slot breakdowns, perceived latencies, cache
 * and bus behaviour.
 *
 * Usage: mix_explorer [threads] [l2_latency] [decoupled 0|1] [insts]
 *                     [fetch_policy] [issue_policy]
 *
 * The policy arguments take the names `mtdae help` lists for
 * --fetch-policy / --issue-policy (docs/POLICIES.md; an invalid name
 * prints the seam's valid ones), e.g.:
 * mix_explorer 4 64 1 0 adaptive weighted
 */

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/slot_stats.hh"
#include "harness/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace mtdae;

    const std::uint32_t threads =
        argc > 1 ? std::uint32_t(std::atoi(argv[1])) : 4;
    const std::uint32_t l2 =
        argc > 2 ? std::uint32_t(std::atoi(argv[2])) : 16;
    const bool decoupled = argc > 3 ? std::atoi(argv[3]) != 0 : true;
    std::uint64_t insts = argc > 4
        ? std::strtoull(argv[4], nullptr, 10) : 0;
    if (insts == 0)
        insts = instsBudget(150000) * threads;

    SimConfig cfg = paperConfig(threads, decoupled, l2);
    for (int i : {5, 6}) {
        if (argc <= i)
            break;
        const bool is_fetch = i == 5;
        PolicyKind &slot = is_fetch ? cfg.fetchPolicy : cfg.issuePolicy;
        const auto &valid = is_fetch ? fetchPolicies() : issuePolicies();
        if (!parsePolicy(argv[i], slot) ||
            std::find(valid.begin(), valid.end(), slot) == valid.end()) {
            std::cerr << "mix_explorer: '" << argv[i] << "' is not a "
                      << (is_fetch ? "fetch" : "dispatch/issue")
                      << " policy (valid:";
            for (const PolicyKind k : valid)
                std::cerr << ' ' << policyName(k);
            std::cerr << ")\n";
            return 2;
        }
    }
    const RunResult r = runSuiteMix(cfg, insts);

    std::cout << std::fixed << std::setprecision(3);
    std::cout << "machine: " << threads << " thread(s), L2=" << l2
              << " cycles, " << (decoupled ? "decoupled" : "non-decoupled")
              << ", fetch=" << policyName(cfg.fetchPolicy)
              << ", issue=" << policyName(cfg.issuePolicy) << "\n"
              << "cycles=" << r.cycles << " insts=" << r.insts
              << " IPC=" << r.ipc << "\n"
              << "perceived miss latency: fp=" << r.perceivedFp
              << " int=" << r.perceivedInt << " all=" << r.perceivedAll
              << " (fp misses=" << r.fpMisses
              << ", int misses=" << r.intMisses << ")\n"
              << "L1: load miss=" << r.loadMissRatio
              << " store miss=" << r.storeMissRatio
              << " delayed hits=" << r.mergedRatio << "\n"
              << "bus utilization=" << r.busUtilization
              << "  mispredict rate=" << r.mispredictRate << "\n";

    for (const bool is_ap : {true, false}) {
        const SlotBreakdown &bd = is_ap ? r.ap : r.ep;
        std::cout << (is_ap ? "AP" : "EP") << " slots:";
        for (std::size_t u = 0; u < kNumSlotUses; ++u) {
            const auto use = static_cast<SlotUse>(u);
            std::cout << "  " << slotUseName(use) << "="
                      << std::setprecision(1)
                      << 100.0 * bd.fraction(use) << "%";
        }
        std::cout << std::setprecision(3) << "\n";
    }
    return 0;
}
