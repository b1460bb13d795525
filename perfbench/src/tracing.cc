#include "tracing.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using namespace mtdae;

/**
 * State shared by the sources of one make() call. The last source to be
 * destroyed (the Simulator going away) ends the set's core.sim span.
 */
struct SourceSet
{
    Recorder *rec;
    std::size_t job;
    std::size_t span;
    std::uint64_t sampledNs = 0;

    ~SourceSet()
    {
        try {
            rec->setDone(job, span, sampledNs * kNextSample);
        } catch (...) {
            // Only allocation can throw here; the span stays open and
            // summarize() skips it.
        }
    }
};

namespace {

/** Forwards every call to the wrapped source; times 1 next() in 64. */
class TracedSource : public TraceSource
{
  public:
    TracedSource(std::unique_ptr<TraceSource> inner,
                 std::shared_ptr<SourceSet> set)
        : inner_(std::move(inner)), set_(std::move(set))
    {}

    bool
    next(TraceInst &out) override
    {
        if (++calls_ % kNextSample != 0)
            return inner_->next(out);
        const std::uint64_t t0 = set_->rec->now();
        const bool more = inner_->next(out);
        set_->sampledNs += set_->rec->now() - t0;
        return more;
    }

    const std::string &name() const override { return inner_->name(); }
    void save(ByteWriter &w) const override { inner_->save(w); }
    void restore(ByteReader &r) override { inner_->restore(r); }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::shared_ptr<SourceSet> set_;
    std::uint64_t calls_ = 0;
};

} // namespace

/**
 * Wraps a job's factory. name(), fingerprint() and clone() forward, so
 * labels, SimJob::prefixKey() and the simulated results are exactly
 * those of the unwrapped grid.
 */
class TracedFactory : public TraceSourceFactory
{
  public:
    TracedFactory(std::unique_ptr<TraceSourceFactory> inner, Recorder *rec,
                  std::size_t job)
        : inner_(std::move(inner)), rec_(rec), job_(job)
    {}

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        const std::uint64_t t0 = rec_->now();
        auto sources = inner_->make(num_threads, seed);
        auto set = std::make_shared<SourceSet>();
        set->rec = rec_;
        set->job = job_;
        set->span = rec_->madeSources(job_, t0);
        std::vector<std::unique_ptr<TraceSource>> out;
        out.reserve(sources.size());
        for (auto &s : sources)
            out.push_back(std::make_unique<TracedSource>(std::move(s), set));
        return out;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<TracedFactory>(inner_->clone(), rec_, job_);
    }

    const std::string &name() const override { return inner_->name(); }
    std::string fingerprint() const override { return inner_->fingerprint(); }

  private:
    std::unique_ptr<TraceSourceFactory> inner_;
    Recorder *rec_;
    std::size_t job_;
};

Recorder::Recorder() : t0_(std::chrono::steady_clock::now()) {}

std::uint64_t
Recorder::now() const
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0_)
                             .count());
}

std::size_t
Recorder::open(std::string name, std::int64_t parent, std::int64_t job)
{
    const std::uint64_t t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, 0, parent, job});
    return spans_.size() - 1;
}

void
Recorder::close(std::size_t id)
{
    const std::uint64_t t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id).end = t;
}

void
Recorder::beginGrid(std::size_t jobs)
{
    const std::size_t id = open("harness.grid");
    const std::lock_guard<std::mutex> lock(mu_);
    gridSpan_ = id;
    jobs_.assign(jobs, JobState{});
    workerEnd_.clear();
    nextNs_ = 0;
}

void
Recorder::endGrid()
{
    close(gridSpan_);
}

void
Recorder::jobStarted(std::size_t job)
{
    const std::uint64_t t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    JobState &j = jobs_.at(job);
    j.start = t;
    j.span = std::int64_t(spans_.size());
    spans_.push_back({"harness.job", t, 0, std::int64_t(gridSpan_),
                      std::int64_t(job)});
}

std::size_t
Recorder::madeSources(std::size_t job, std::uint64_t start)
{
    const std::uint64_t t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    JobState &j = jobs_.at(job);
    if (j.makes++ == 0)
        j.firstMake = start;
    spans_.push_back({"workload.make", start, t, j.span, std::int64_t(job)});
    spans_.push_back({"core.sim", t, 0, j.span, std::int64_t(job)});
    return spans_.size() - 1;
}

void
Recorder::setDone(std::size_t job, std::size_t span, std::uint64_t next_ns)
{
    const std::uint64_t t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(span).end = t;
    JobState &j = jobs_.at(job);
    j.end = std::max(j.end, t);
    if (j.span >= 0)
        spans_[std::size_t(j.span)].end = j.end;
    workerEnd_[std::this_thread::get_id()] = t;
    nextNs_ += next_ns;
}

std::unique_ptr<TraceSourceFactory>
Recorder::wrap(std::unique_ptr<TraceSourceFactory> inner, std::size_t job)
{
    return std::make_unique<TracedFactory>(std::move(inner), this, job);
}

namespace {

/** Layer of a span: its name up to the first '.'. */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

GridTrace
Recorder::summarize(std::uint32_t workers,
                    const std::vector<bool> &grouped) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    GridTrace g;
    const Span &grid = spans_.at(gridSpan_);
    const double wall_ns = double(grid.end - grid.start);
    g.wallS = wall_ns * 1e-9;
    g.jobs = jobs_.size();

    double busy_ns = 0, wait_ns = 0;
    std::size_t makes = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const JobState &j = jobs_[i];
        busy_ns += double(j.end - j.start);
        makes += j.makes;
        if (i < grouped.size() && grouped[i])
            wait_ns += double(j.firstMake - j.start);
    }
    g.warmups = makes - std::min(makes, jobs_.size());
    const std::size_t pool =
        std::max<std::size_t>(1, std::min<std::size_t>(workers,
                                                       jobs_.size()));
    g.busyFrac = wall_ns > 0 ? busy_ns / (wall_ns * double(pool)) : 0;
    g.prefixWaitS = wait_ns * 1e-9;
    std::uint64_t first_idle = grid.end;
    for (const auto &[tid, end] : workerEnd_)
        first_idle = std::min(first_idle, end);
    g.tailS = double(grid.end - first_idle) * 1e-9;

    // Self time: each span's duration minus the union of its
    // children's intervals, summed per layer.
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = gridSpan_ + 1; i < spans_.size(); ++i)
        if (spans_[i].parent >= std::int64_t(gridSpan_))
            children[std::size_t(spans_[i].parent)].push_back(i);
    std::map<std::string, double> self;
    for (std::size_t i = gridSpan_; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < s.start || (i != gridSpan_ && s.parent < 0))
            continue;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (const std::size_t c : children[i])
            iv.emplace_back(std::max(spans_[c].start, s.start),
                            std::min(std::max(spans_[c].end,
                                              spans_[c].start),
                                     s.end));
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = s.start;
        for (const auto &[a, b] : iv) {
            const std::uint64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[layerOf(s.name)] += double(s.end - s.start - covered);
    }
    g.selfHarnessS = self["harness"] * 1e-9;
    g.selfCoreS = (self["core"] - double(nextNs_)) * 1e-9;
    g.selfWorkloadS = (self["workload"] + double(nextNs_)) * 1e-9;
    return g;
}

void
Recorder::write(const std::string &path) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
            << ", \"parent\": " << s.parent << ", \"job\": " << s.job
            << "}\n";
    }
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

std::vector<Span>
Recorder::spans() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

} // namespace perfbench
