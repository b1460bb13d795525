/**
 * @file
 * The parallel sweep engine: every experiment the paper defines is a
 * grid of *independent* simulation points, so the harness decomposes a
 * sweep into share-nothing SimJobs and executes them on a worker pool.
 *
 * The three pieces:
 *
 *  - SimJob    — one self-contained point: a SimConfig (with a
 *                per-job derived seed), a cloneable trace-source
 *                factory it owns, and an instruction budget. Running a
 *                job touches no state outside the job, so any number
 *                of jobs can run concurrently.
 *  - SweepSpec — the declarative grid: an ordered list of jobs. The
 *                order *is* the result order; consumers format rows
 *                exactly as they would have from a serial loop.
 *  - JobRunner — executes a spec's jobs on N std::threads and returns
 *                the RunResults ordered by job index. Results are a
 *                pure function of the spec: bit-identical at any
 *                worker count (per-job seeds are derived from grid
 *                position, never from scheduling).
 *
 * This is the seam the scaling roadmap builds on: anything that can
 * phrase itself as "run these points" (figure sweeps, ablations,
 * parameter searches, distributed shards) goes through SweepSpec and
 * inherits parallelism and determinism for free. Every SimConfig
 * axis is sweepable by construction — the ablate-policy experiment
 * grids SimConfig::fetchPolicy x issuePolicy, and ablate-gating
 * crosses the stall/flush fetch-gating policies with L2 size; both
 * rely on the policies' own determinism contract
 * (src/policy/policy.hh, docs/POLICIES.md) to keep results
 * byte-identical at any worker count.
 */

#ifndef MTDAE_HARNESS_SWEEP_HH
#define MTDAE_HARNESS_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/simulator.hh"
#include "core/snapshot.hh"
#include "workload/dsl/interp.hh"
#include "workload/trace_source.hh"

namespace mtdae {

/**
 * One self-contained simulation point of a sweep.
 *
 * A job owns everything its simulation needs — configuration, workload
 * recipe and instruction budget — and builds its own trace sources when
 * run, so concurrently executing jobs share no mutable state. Jobs are
 * copyable: copying clones the owned factory.
 */
struct SimJob
{
    /** Position in the sweep grid; results are ordered by this. */
    std::size_t index = 0;

    /** Human-readable point description ("2T decoupled L2=64"). */
    std::string label;

    /** Machine to simulate; cfg.seed is the per-job derived seed. */
    SimConfig cfg;

    /** Instructions to measure (after cfg.warmupInsts of warm-up). */
    std::uint64_t measureInsts = 0;

    /**
     * Collect the per-stage wall-clock breakdown while running
     * (Simulator::setProfiling). Deliberately *not* part of SimConfig:
     * profiling never changes simulated behaviour, so it must not
     * perturb configFingerprint()/prefixKey() either.
     */
    bool profile = false;

    /** Workload recipe; owned, cloned on job copy. */
    std::unique_ptr<TraceSourceFactory> sources;

    SimJob() = default;
    SimJob(SimJob &&) = default;
    SimJob &operator=(SimJob &&) = default;
    SimJob(const SimJob &o)
        : index(o.index), label(o.label), cfg(o.cfg),
          measureInsts(o.measureInsts), profile(o.profile),
          sources(o.sources ? o.sources->clone() : nullptr)
    {}
    SimJob &
    operator=(const SimJob &o)
    {
        if (this != &o) {
            index = o.index;
            label = o.label;
            cfg = o.cfg;
            measureInsts = o.measureInsts;
            profile = o.profile;
            sources = o.sources ? o.sources->clone() : nullptr;
        }
        return *this;
    }

    /**
     * Execute this point: build fresh sources from the factory, run a
     * private Simulator, return its results. Const and share-nothing —
     * safe to call from any thread, any number of times.
     */
    RunResult run() const;

    /**
     * Run only the warm-up phase of this point and checkpoint the
     * state. Jobs with equal prefixKey() produce byte-identical
     * snapshots, so one warmup can fan out to all of them.
     */
    Snapshot runWarmup() const;

    /**
     * Execute this point warm-started from @p prefix (a snapshot
     * produced by runWarmup() on a job with the same prefixKey()).
     * run() == runMeasured(runWarmup()) byte for byte: run() is the
     * composition of the same two loops on the same simulator.
     */
    RunResult runMeasured(const Snapshot &prefix) const;

    /**
     * Canonical warm-start prefix key: the hash of the full serialized
     * configuration (which includes the per-job seed and warmupInsts)
     * chained with the workload factory's fingerprint. Jobs with equal
     * keys reach byte-identical states after warm-up regardless of
     * their measure budgets, so they may share one checkpoint.
     */
    std::uint64_t prefixKey() const;
};

/**
 * A declarative sweep grid: an ordered list of SimJobs.
 *
 * Builders append points in the same nested-loop order a serial driver
 * would run them; the add*() helpers derive each job's seed from the
 * configured base seed and the job's grid index (see deriveSeed in
 * common/rng.hh), which makes results independent of execution order.
 */
class SweepSpec
{
  public:
    /**
     * Seed-stream sentinel: derive the job's seed from its grid index
     * (the default, giving every point an independent random stream).
     * Pass an explicit stream id instead to give several points the
     * *same* derived seed — the warm-start fan-out needs grid
     * neighbours that share (config, seed, workload) so their warmup
     * prefixes coincide (SimJob::prefixKey()).
     */
    static constexpr std::uint64_t kSeedFromIndex = ~std::uint64_t(0);

    /**
     * Append one point. @p cfg.seed is treated as the base seed and
     * rewritten to deriveSeed(base, seed_stream) on the stored job
     * (stream = the job's grid index under the kSeedFromIndex
     * default); the configuration is validated here, on the caller's
     * thread, so a bad point fatal()s before any worker starts.
     *
     * @return the stored job; the reference is invalidated by the
     *         next add*() call (it points into the grid vector)
     */
    SimJob &add(const SimConfig &cfg,
                std::unique_ptr<TraceSourceFactory> sources,
                std::uint64_t measure_insts, std::string label = "",
                std::uint64_t seed_stream = kSeedFromIndex);

    /** Append a suite-mix point (the paper's Section 3 workload). */
    SimJob &addSuiteMix(const SimConfig &cfg,
                        std::uint64_t measure_insts,
                        std::string label = "",
                        std::uint64_t seed_stream = kSeedFromIndex);

    /** Append a single-benchmark point (the Figure 1 workload shape). */
    SimJob &addBenchmark(const SimConfig &cfg, const std::string &bench,
                         std::uint64_t measure_insts,
                         std::string label = "",
                         std::uint64_t seed_stream = kSeedFromIndex);

    /**
     * Append a DSL-kernel point: @p kernel_text is compiled (with
     * @p params overriding its declared defaults) into a factory that
     * binds the kernel to every context, the same workload shape as
     * addBenchmark. Throws DslError, on the caller's thread, when the
     * text does not compile.
     */
    SimJob &addDsl(const SimConfig &cfg, const std::string &kernel_text,
                   const dsl::ParamOverrides &params,
                   std::uint64_t measure_insts, std::string label = "",
                   std::uint64_t seed_stream = kSeedFromIndex);

    /** The grid, in result order. */
    const std::vector<SimJob> &jobs() const { return jobs_; }

    /**
     * Request the per-stage wall-clock profile (SimJob::profile) on
     * every job already in the grid. Profiling never changes simulated
     * results, only RunResult::profile.
     */
    void
    setProfile(bool on)
    {
        for (SimJob &job : jobs_)
            job.profile = on;
    }

    /** Number of points. */
    std::size_t size() const { return jobs_.size(); }

    /** True when the grid is empty. */
    bool empty() const { return jobs_.empty(); }

  private:
    std::vector<SimJob> jobs_;
};

/**
 * Executes a SweepSpec's jobs on a pool of worker threads.
 *
 * Results are collected into a vector ordered by job index, so the
 * output is bit-identical no matter how many workers run the sweep or
 * how the scheduler interleaves them. An exception thrown by a job is
 * captured, the remaining unstarted jobs are cancelled, and the
 * lowest-index captured error is rethrown on the calling thread after
 * every in-flight job has drained.
 */
class JobRunner
{
  public:
    /** Serialized per-job callback, invoked as a worker starts a job. */
    using Progress = std::function<void(const SimJob &)>;

    /**
     * @param workers    pool size; 0 means defaultJobs()
     * @param warm_start share warmup prefixes: jobs with equal
     *        SimJob::prefixKey() (and a non-zero warmup) fan out from
     *        one lazily created checkpoint instead of each
     *        re-simulating the prefix. Results are byte-identical
     *        either way (the checkpoint restore-equivalence contract,
     *        tests/test_checkpoint.cc); only wall time changes.
     */
    explicit JobRunner(std::uint32_t workers = 0, bool warm_start = true);

    /** The resolved pool size (>= 1). */
    std::uint32_t workers() const { return workers_; }

    /** True when warm-start prefix sharing is enabled. */
    bool warmStart() const { return warmStart_; }

    /**
     * Run every job of @p spec; @p on_start (when set) is called under
     * a lock as each job begins, for progress reporting.
     *
     * @return one RunResult per job, ordered by SimJob::index
     */
    std::vector<RunResult> run(const SweepSpec &spec,
                               const Progress &on_start = {}) const;

  private:
    std::uint32_t workers_;
    bool warmStart_;
};

/** Worker count matching the hardware: hardware_concurrency, >= 1. */
std::uint32_t defaultJobs();

} // namespace mtdae

#endif // MTDAE_HARNESS_SWEEP_HH
