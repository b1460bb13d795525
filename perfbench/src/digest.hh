/**
 * @file
 * The benchmark's correctness gate. Simulated statistics are a pure
 * function of the grid, so every job's RunResult hashes to a digest that
 * must not change between repetitions, worker counts or warm/cold
 * execution, and must match the digest recorded in kDigestFile for the
 * seeds recorded there.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"

namespace perfbench {

/** Hash of every RunResult field except the wall-clock profile. */
std::uint64_t resultDigest(const mtdae::RunResult &r);

/** Digests of @p results, in job order. */
std::vector<std::uint64_t>
resultDigests(const std::vector<mtdae::RunResult> &results);

/**
 * Jobs of @p jobs that failed: graduated fewer instructions than their
 * budget, or (when @p expected is non-empty) whose digest differs from
 * the expected one. @p results holds one entry per job.
 */
std::size_t countFailures(const std::vector<mtdae::SimJob> &jobs,
                          const std::vector<mtdae::RunResult> &results,
                          const std::vector<std::uint64_t> &expected);

/** The recorded digests, relative to the repository root. */
inline const std::string kDigestFile = "perfbench/digests.txt";

/** Seeds with recorded digests: the published seed 1 and a held-out
 *  seed 2. The steadiness record uses other seeds (perfbench/steady.py). */
inline constexpr std::uint64_t kRecordedSeeds[] = {1, 2};

/** Recorded digests, keyed by (workload, seed). */
using DigestTable =
    std::map<std::pair<std::string, std::uint64_t>,
             std::vector<std::uint64_t>>;

/**
 * Read a table written by writeDigests(). A missing file gives an empty
 * table; a malformed one throws std::runtime_error.
 */
DigestTable readDigests(const std::string &path);

/** Write @p table as "workload seed index hex" lines. */
void writeDigests(const std::string &path, const DigestTable &table);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
