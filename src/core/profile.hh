/**
 * @file
 * Per-stage wall-clock profiling of the simulator hot loop.
 *
 * Profiling is off until Simulator::setProfiling(true) — the only
 * disabled-path cost is one predictable branch per step().
 *
 * The accounting invariant: every nanosecond of a profiled step() lands
 * in exactly one stage bucket, so the buckets sum to totalNs exactly
 * (tests/test_profile.cc asserts this). Time spent rebuilding
 * ThreadState snapshots is carved out of whichever stage triggered the
 * rebuild and credited to Stage::Snapshot, making the cost the
 * incremental-snapshot cache avoids directly visible.
 *
 * The profile is wall-clock measurement state, not simulated state: it
 * is excluded from checkpoints (snapshot.cc) and from every byte-
 * identity contract.
 */

#ifndef MTDAE_CORE_PROFILE_HH
#define MTDAE_CORE_PROFILE_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace mtdae {

/** One bucket per pipeline stage of Simulator::step(). */
enum class Stage : std::uint8_t {
    Complete,  ///< memory beginCycle + completion-event drain
    Issue,     ///< issue arbitration + unit issue on both clusters
    Dispatch,  ///< rename/dispatch from the fetch buffers
    Fetch,     ///< flush checks + fetch arbitration + predictor
    Graduate,  ///< in-order retirement from the ROBs
    Snapshot,  ///< ThreadState rebuilds for the policy layer
    Other,     ///< IQ-window sampling, policy endCycle, loop overhead
    Skipped,   ///< fast-forwarded quiescent spans (trySkipIdle)
};

inline constexpr std::size_t kNumStages = 8;

/** Stable lowercase stage name (CLI/JSON/bench output). */
inline const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::Complete: return "complete";
    case Stage::Issue: return "issue";
    case Stage::Dispatch: return "dispatch";
    case Stage::Fetch: return "fetch";
    case Stage::Graduate: return "graduate";
    case Stage::Snapshot: return "snapshot";
    case Stage::Other: return "other";
    case Stage::Skipped: return "skipped";
    }
    return "?";
}

/**
 * Accumulated per-stage wall time for one run. Cleared by
 * Simulator::resetStats(), so after run() it covers exactly the
 * measure phase.
 */
struct StageProfile {
    std::array<std::uint64_t, kNumStages> ns{};  ///< per-stage wall ns
    std::uint64_t totalNs = 0;  ///< sum of ns[] (the whole stepped loop)
    std::uint64_t cycles = 0;   ///< profiled cycles
    bool enabled = false;       ///< was profiling on for this run?

    void
    reset()
    {
        ns.fill(0);
        totalNs = 0;
        cycles = 0;
    }

    std::uint64_t
    operator[](Stage s) const
    {
        return ns[static_cast<std::size_t>(s)];
    }
};

} // namespace mtdae

#endif // MTDAE_CORE_PROFILE_HH
