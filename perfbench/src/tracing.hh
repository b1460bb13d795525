/**
 * @file
 * The traced run's span recorder. Spans are kept in memory and written
 * as JSON lines when the benchmark ends. Every span is recorded from
 * the benchmark's side of a layer boundary:
 *
 *   harness.grid   JobRunner::run over the whole grid (root)
 *   harness.job    JobRunner's start callback .. the job's last trace
 *                  source destroyed
 *   workload.make  TraceSourceFactory::make
 *   core.sim       lifetime of one set of trace sources, i.e. one
 *                  Simulator (a warm-started job owns two: the shared
 *                  warmup and its own measured run)
 *   <layer>.*      the layer microbenchmarks (layers.hh)
 *
 * TraceSource::next is too hot for a span per call: one call in
 * kNextSample is timed and the total is scaled up, and that estimate
 * is moved from core's self time to workload's.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "workload/trace_source.hh"

namespace perfbench {

/** One timed interval; parent is a span id (index) or -1. */
struct Span
{
    std::string name;
    std::uint64_t start = 0;  ///< ns since the recorder was created
    std::uint64_t end = 0;
    std::int64_t parent = -1;
    std::int64_t job = -1;    ///< grid index, -1 outside the grid
};

/** TraceSource::next calls per timed call. */
inline constexpr std::uint64_t kNextSample = 64;

/** Per-layer figures of one traced grid pass. */
struct GridTrace
{
    double wallS = 0;         ///< harness.grid duration
    std::size_t jobs = 0;
    std::size_t warmups = 0;  ///< factory make() calls beyond one per job
    double busyFrac = 0;      ///< summed job time / (wall x workers)
    double prefixWaitS = 0;   ///< start callback .. first make(), summed
    double tailS = 0;         ///< first idle worker .. end of grid
    double selfHarnessS = 0;  ///< self time by layer, summed over spans
    double selfCoreS = 0;
    double selfWorkloadS = 0;
};

/** Thread-safe in-memory span store plus per-job grid bookkeeping. */
class Recorder
{
  public:
    Recorder();
    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Nanoseconds since construction (steady clock). */
    std::uint64_t now() const;

    /** Open a span starting now; returns its id. */
    std::size_t open(std::string name, std::int64_t parent = -1,
                     std::int64_t job = -1);
    /** End span @p id now. */
    void close(std::size_t id);

    /** Start a grid pass of @p jobs jobs: opens harness.grid. */
    void beginGrid(std::size_t jobs);
    /** End the grid pass. */
    void endGrid();
    /** JobRunner start callback: opens the job's harness.job span. */
    void jobStarted(std::size_t job);

    /**
     * Summarise the last grid pass. @p grouped marks the jobs that
     * share a warm-start prefix; only those can wait for one.
     */
    GridTrace summarize(std::uint32_t workers,
                        const std::vector<bool> &grouped) const;

    /** Wrap @p inner so that grid job @p job is traced here. */
    std::unique_ptr<mtdae::TraceSourceFactory>
    wrap(std::unique_ptr<mtdae::TraceSourceFactory> inner,
         std::size_t job);

    /** Write every span as one JSON object per line. */
    void write(const std::string &path) const;

    /** A copy of the spans recorded so far. */
    std::vector<Span> spans() const;

  private:
    friend class TracedFactory;
    friend struct SourceSet;

    struct JobState
    {
        std::int64_t span = -1;
        std::uint64_t start = 0;
        std::uint64_t firstMake = 0;
        std::uint64_t end = 0;
        std::size_t makes = 0;
    };

    /** Record a workload.make span and open a core.sim span. */
    std::size_t madeSources(std::size_t job, std::uint64_t start);
    /** A core.sim span ended; @p next_ns is the scaled next() time. */
    void setDone(std::size_t job, std::size_t span, std::uint64_t next_ns);

    const std::chrono::steady_clock::time_point t0_;
    mutable std::mutex mu_;  // guards everything below
    std::vector<Span> spans_;
    std::size_t gridSpan_ = 0;
    std::vector<JobState> jobs_;
    std::map<std::thread::id, std::uint64_t> workerEnd_;
    std::uint64_t nextNs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
