#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "workload/spec_fp95.hh"

namespace mtdae {

RunResult
SimJob::run() const
{
    MTDAE_ASSERT(sources != nullptr, "SimJob ", index, " has no sources");
    Simulator sim(cfg, sources->make(cfg.numThreads, cfg.seed));
    sim.setProfiling(profile);
    return sim.run(measureInsts);
}

Snapshot
SimJob::runWarmup() const
{
    MTDAE_ASSERT(sources != nullptr, "SimJob ", index, " has no sources");
    Simulator sim(cfg, sources->make(cfg.numThreads, cfg.seed));
    sim.runWarmup();
    return sim.saveSnapshot();
}

RunResult
SimJob::runMeasured(const Snapshot &prefix) const
{
    MTDAE_ASSERT(sources != nullptr, "SimJob ", index, " has no sources");
    Simulator sim(cfg, sources->make(cfg.numThreads, cfg.seed));
    sim.restoreSnapshot(prefix);
    sim.setProfiling(profile);
    return sim.runMeasure(measureInsts);
}

std::uint64_t
SimJob::prefixKey() const
{
    MTDAE_ASSERT(sources != nullptr, "SimJob ", index, " has no sources");
    ByteWriter w;
    serializeConfig(cfg, w);
    w.str(sources->fingerprint());
    return fnv1a(w.data());
}

SimJob &
SweepSpec::add(const SimConfig &cfg,
               std::unique_ptr<TraceSourceFactory> sources,
               std::uint64_t measure_insts, std::string label,
               std::uint64_t seed_stream)
{
    // Validate here, on the caller's thread: a bad configuration must
    // fatal() before the pool starts, not from inside a worker racing
    // std::exit() against in-flight jobs.
    cfg.validate();
    SimJob job;
    job.index = jobs_.size();
    job.cfg = cfg;
    job.cfg.seed = deriveSeed(
        cfg.seed, seed_stream == kSeedFromIndex ? job.index : seed_stream);
    job.measureInsts = measure_insts;
    job.label = label.empty() && sources ? sources->name()
                                         : std::move(label);
    job.sources = std::move(sources);
    jobs_.push_back(std::move(job));
    return jobs_.back();
}

SimJob &
SweepSpec::addSuiteMix(const SimConfig &cfg, std::uint64_t measure_insts,
                       std::string label, std::uint64_t seed_stream)
{
    return add(cfg, makeSuiteMixFactory(), measure_insts,
               std::move(label), seed_stream);
}

SimJob &
SweepSpec::addBenchmark(const SimConfig &cfg, const std::string &bench,
                        std::uint64_t measure_insts, std::string label,
                        std::uint64_t seed_stream)
{
    return add(cfg, makeBenchmarkFactory(bench), measure_insts,
               std::move(label), seed_stream);
}

SimJob &
SweepSpec::addDsl(const SimConfig &cfg, const std::string &kernel_text,
                  const dsl::ParamOverrides &params,
                  std::uint64_t measure_insts, std::string label,
                  std::uint64_t seed_stream)
{
    return add(cfg, dsl::makeDslFactory(kernel_text, params),
               measure_insts, std::move(label), seed_stream);
}

JobRunner::JobRunner(std::uint32_t workers, bool warm_start)
    : workers_(workers ? workers : defaultJobs()), warmStart_(warm_start)
{}

std::vector<RunResult>
JobRunner::run(const SweepSpec &spec, const Progress &on_start) const
{
    const std::vector<SimJob> &jobs = spec.jobs();
    std::vector<RunResult> results(jobs.size());
    if (jobs.empty())
        return results;

    // Warm-start prefix sharing: group jobs whose warmup prefixes
    // coincide (equal prefixKey()); each group of two or more shares
    // one lazily created checkpoint. Singleton groups and jobs without
    // a warmup run cold — restoring a checkpoint there saves nothing.
    struct SharedPrefix
    {
        std::mutex mu;
        std::shared_ptr<const Snapshot> snap;
        std::size_t remaining = 0;
    };
    std::map<std::uint64_t, std::unique_ptr<SharedPrefix>> groups;
    std::vector<SharedPrefix *> prefix_of(jobs.size(), nullptr);
    if (warmStart_) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!jobs[i].sources || jobs[i].cfg.warmupInsts == 0)
                continue;
            auto &group = groups[jobs[i].prefixKey()];
            if (!group)
                group = std::make_unique<SharedPrefix>();
            group->remaining += 1;
            prefix_of[i] = group.get();
        }
        for (auto &[key, group] : groups)
            if (group->remaining < 2)
                for (auto &entry : prefix_of)
                    if (entry == group.get())
                        entry = nullptr;
    }

    auto run_one = [&](std::size_t i) {
        SharedPrefix *group = prefix_of[i];
        if (!group)
            return jobs[i].run();
        std::shared_ptr<const Snapshot> snap;
        {
            // The first job of the group to arrive simulates the
            // shared warmup under the group lock; the rest block here
            // and then restore. Determinism is unaffected: restoring
            // is byte-equivalent to having warmed up privately.
            const std::lock_guard<std::mutex> lock(group->mu);
            if (!group->snap)
                group->snap = std::make_shared<const Snapshot>(
                    jobs[i].runWarmup());
            snap = group->snap;
        }
        const RunResult res = jobs[i].runMeasured(*snap);
        {
            // Drop the group's reference once every member has its
            // own, so big checkpoints don't outlive their usefulness.
            const std::lock_guard<std::mutex> lock(group->mu);
            if (--group->remaining == 0)
                group->snap.reset();
        }
        return res;
    };

    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex mu;  // guards on_start, firstError/errorIndex
    std::exception_ptr first_error;
    std::size_t error_index = jobs.size();

    auto work = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size() ||
                cancelled.load(std::memory_order_relaxed))
                return;
            if (on_start) {
                const std::lock_guard<std::mutex> lock(mu);
                on_start(jobs[i]);
            }
            try {
                // Each slot is written by exactly one worker and read
                // only after the join, so no lock is needed here.
                results[i] = run_one(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (i < error_index) {
                    error_index = i;
                    first_error = std::current_exception();
                }
                cancelled.store(true, std::memory_order_relaxed);
            }
        }
    };

    const std::size_t pool =
        std::min<std::size_t>(workers_, jobs.size());
    if (pool <= 1) {
        work();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (std::size_t w = 0; w < pool; ++w)
            threads.emplace_back(work);
        for (auto &t : threads)
            t.join();
    }

    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

std::uint32_t
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace mtdae
