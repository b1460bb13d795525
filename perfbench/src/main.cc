/**
 * @file
 * mtbench: the repository's benchmark. perfbench/run.py builds it and
 * runs
 *
 *   mtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * which repeats the workload's grid through JobRunner for the given
 * wall time and prints one JSON object as its last line of output:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. `mtbench --record-digests` rewrites perfbench/digests.txt,
 * the digests the correctness gate compares against. Both run from the
 * root of a checkout.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "digest.hh"
#include "layers.hh"
#include "metrics.hh"
#include "tracing.hh"
#include "workloads.hh"

using namespace mtdae;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps the calibration loop's result from being optimised away. */
volatile std::uint64_t g_sink = 0;

double
secondsSince(Clock::time_point t0, Clock::time_point t1 = Clock::now())
{
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
    std::string spans;
};

/** Repository root: the benchmark runs from the root of a checkout. */
const std::string kRoot = ".";

struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

std::uint64_t
parseU64(const std::string &key, const std::string &v)
{
    std::size_t used = 0;
    std::uint64_t n = 0;
    try {
        n = std::stoull(v, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != v.size() || v[0] == '-')
        throw UsageError("--" + key + " needs a whole number, got '" + v +
                         "'");
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i], value;
        if (key.rfind("--", 0) != 0)
            throw UsageError("unexpected argument '" + key + "'");
        key = key.substr(2);
        if (const auto eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            throw UsageError("--" + key + " needs a value");
        }
        if (key == "workload")
            o.workload = value;
        else if (key == "seed")
            o.seed = parseU64(key, value);
        else if (key == "seconds")
            o.seconds = int(std::min<std::uint64_t>(parseU64(key, value),
                                                    3600));
        else if (key == "trace")
            o.trace = int(std::min<std::uint64_t>(parseU64(key, value), 2));
        else if (key == "spans")
            o.spans = value;
        else
            throw UsageError("unknown flag --" + key);
    }
    bool known = false;
    for (const std::string &n : workloadNames())
        known |= n == o.workload;
    if (!known)
        throw UsageError("--workload must name a workload, got '" +
                         o.workload + "'");
    if (o.seconds < 1)
        throw UsageError("--seconds must be at least 1");
    if (o.trace != 0 && o.trace != 1)
        throw UsageError("--trace must be 0 or 1");
    return o;
}

/** Keys sorted and searched by one calibration loop. */
constexpr std::size_t kCalKeys = 1 << 16;
/** Entries of the search tree each calibration loop probes. */
constexpr std::size_t kCalTree = 10000;

/**
 * Host speed probe: the seconds one fixed sort-and-search loop takes
 * when it runs on @p threads threads at once. It shares no code with
 * the simulator, so no change to the simulator can move it, while a
 * busier or slower host slows it about as much as it slows a grid pass
 * on as many threads. perfbench/README.md says how it is used.
 */
double
calibrationSeconds(std::uint32_t threads)
{
    const auto loop = [](std::uint64_t x) {
        std::vector<std::uint64_t> keys(kCalKeys);
        for (std::uint64_t &k : keys) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            k = x >> 20;
        }
        std::sort(keys.begin(), keys.end());
        std::map<std::uint64_t, std::uint64_t> tree;
        for (std::size_t i = 0; i < kCalTree; ++i)
            tree[keys[i * (kCalKeys / kCalTree)]] = i;
        std::uint64_t sum = 0;
        for (const std::uint64_t k : keys)
            if (const auto it = tree.lower_bound(k); it != tree.end())
                sum += it->second;
        return sum;
    };
    std::vector<std::uint64_t> sink(threads);
    std::vector<std::exception_ptr> errors(threads);
    const auto t0 = Clock::now();
    {
        std::vector<std::thread> pool;
        for (std::uint32_t i = 0; i < threads; ++i)
            pool.emplace_back([&, i] {
                try {
                    sink[i] = loop(i + 1);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        for (std::thread &t : pool)
            t.join();
    }
    const double s = secondsSince(t0);
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    g_sink = g_sink + sink[0];
    return s;
}

/** Builds of the grid per pass; setup_s is the median of their times. */
constexpr int kSetupRepeats = 5;

/** One pass over a freshly built grid. */
struct Pass
{
    Workload w;
    std::vector<RunResult> results;
    bool ok = false;
    double setupS = 0;  ///< median time of one build of the grid
    double gridS = 0;   ///< JobRunner::run
    double insts = 0;   ///< measured instructions graduated

    double insts_per_s() const { return gridS > 0 ? insts / gridS : 0; }
};

/**
 * Build the workload kSetupRepeats times, then run the last build once.
 * With @p rec, that build's factories are wrapped, the per-stage profile
 * is on and the grid is recorded.
 */
Pass
runPass(const Options &o, Recorder *rec)
{
    Pass p;
    FactoryWrap wrap;
    if (rec)
        wrap = [rec](std::unique_ptr<TraceSourceFactory> f,
                     std::size_t job) { return rec->wrap(std::move(f), job); };
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        p.w = Workload{};  // so that two builds are never alive at once
        const auto t0 = Clock::now();
        p.w = buildWorkload(o.workload, o.seed, kRoot,
                            i + 1 < kSetupRepeats ? FactoryWrap{} : wrap);
        setup.push_back(secondsSince(t0));
    }
    p.setupS = median(setup);
    // Called under JobRunner's lock, on the worker starting the job.
    const auto on_start = [rec](const SimJob &job) {
        if (rec)
            rec->jobStarted(job.index);
    };
    if (rec) {
        p.w.spec.setProfile(true);
        rec->beginGrid(p.w.spec.size());
    }
    const JobRunner runner(p.w.workers, p.w.warmStart);
    const auto g0 = Clock::now();
    try {
        p.results = runner.run(p.w.spec, on_start);
        p.ok = true;
    } catch (const std::exception &e) {
        std::cerr << "mtbench: a job failed: " << e.what() << "\n";
    }
    const auto g1 = Clock::now();
    if (rec)
        rec->endGrid();
    p.gridS = secondsSince(g0, g1);
    for (const RunResult &r : p.results)
        p.insts += double(r.insts);
    return p;
}

/**
 * The correctness gate: every job of every pass must reach its budget
 * and match the recorded digests (or, for a seed without any, the first
 * pass of this run).
 */
struct Gate
{
    std::vector<std::uint64_t> reference;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    check(const Pass &p)
    {
        const std::size_t n = p.w.spec.size();
        attempted += n;
        if (!p.ok) {
            failed += n;
            return;
        }
        failed += countFailures(p.w.spec.jobs(), p.results, reference);
        if (reference.empty())
            reference = resultDigests(p.results);
    }

    /** Rerun a few jobs cold on this thread; they must match too. */
    void
    crossCheck(const Workload &w, std::size_t count)
    {
        for (std::size_t k = 0; k < count && k < w.spec.size(); ++k) {
            const SimJob &job = w.spec.jobs()[k * w.spec.size() / count];
            ++attempted;
            try {
                const RunResult r = job.run();
                failed += r.insts < job.measureInsts ||
                          job.index >= reference.size() ||
                          resultDigest(r) != reference[job.index];
            } catch (const std::exception &e) {
                std::cerr << "mtbench: cross-check job failed: " << e.what()
                          << "\n";
                ++failed;
            }
        }
    }
};

/** Jobs that share a warm-start prefix with another job. */
std::vector<bool>
groupedJobs(const Workload &w)
{
    std::vector<bool> grouped(w.spec.size(), false);
    if (!w.warmStart)
        return grouped;
    std::map<std::uint64_t, std::size_t> count;
    for (const SimJob &job : w.spec.jobs())
        if (job.cfg.warmupInsts > 0)
            ++count[job.prefixKey()];
    for (const SimJob &job : w.spec.jobs())
        grouped[job.index] =
            job.cfg.warmupInsts > 0 && count[job.prefixKey()] >= 2;
    return grouped;
}

/** Per-layer figures of one traced pass. */
Metrics
tracedMetrics(const Pass &p, const GridTrace &g)
{
    Metrics m;
    m["harness.jobs"] = double(g.jobs);
    m["harness.warmups_run"] = double(g.warmups);
    m["harness.busy_frac"] = g.busyFrac;
    m["harness.prefix_wait_s"] = g.prefixWaitS;
    m["harness.tail_s"] = g.tailS;
    const double self = g.selfHarnessS + g.selfCoreS + g.selfWorkloadS;
    m["harness.self_frac"] = self > 0 ? g.selfHarnessS / self : 0;
    m["core.self_frac"] = self > 0 ? g.selfCoreS / self : 0;
    m["workload.self_frac"] = self > 0 ? g.selfWorkloadS / self : 0;

    StageProfile sum;
    double cycles = 0, skipped = 0, events = 0, insts = 0;
    double l1 = 0, l2 = 0, row = 0, fill = 0, dram_insts = 0;
    for (std::size_t i = 0; i < p.results.size(); ++i) {
        const RunResult &r = p.results[i];
        for (std::size_t s = 0; s < kNumStages; ++s)
            sum.ns[s] += r.profile.ns[s];
        sum.totalNs += r.profile.totalNs;
        sum.cycles += r.profile.cycles;
        cycles += double(r.cycles);
        skipped += double(r.cyclesSkipped);
        events += double(r.skipEvents);
        const double n = double(r.insts);
        insts += n;
        l1 += r.missRatio * n;
        fill += r.avgFillLatency * n;
        if (!p.w.spec.jobs()[i].cfg.perfectL2) {
            l2 += r.l2MissRatio * n;
            row += r.dramRowHitRatio * n;
            dram_insts += n;
        }
    }
    const double pc = sum.cycles ? double(sum.cycles) : 1;
    for (std::size_t s = 0; s < kNumStages; ++s)
        m[std::string("core.stage.") + stageName(Stage(s)) +
          "_ns_per_cycle"] = double(sum.ns[s]) / pc;
    m["core.stage.arbitration_share"] =
        sum.totalNs ? double(sum[Stage::Fetch] + sum[Stage::Dispatch] +
                             sum[Stage::Issue] + sum[Stage::Snapshot]) /
                          double(sum.totalNs)
                    : 0;
    m["core.skip_frac"] = cycles > 0 ? skipped / cycles : 0;
    m["core.skip_events"] = events;
    m["memory.l1_miss_ratio"] = insts > 0 ? l1 / insts : 0;
    m["memory.avg_fill_cycles"] = insts > 0 ? fill / insts : 0;
    m["memory.l2_miss_ratio"] = dram_insts > 0 ? l2 / dram_insts : 0;
    m["memory.dram_row_hit_ratio"] = dram_insts > 0 ? row / dram_insts : 0;
    return m;
}

/**
 * Return freed heap pages to the system and reset the peak resident set
 * to the current one (writing "5" to /proc/self/clear_refs), so that
 * peakRssMiB() reports only what runs after this call.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    if (!(out << "5" << std::flush))
        throw std::runtime_error("cannot reset the peak resident set "
                                 "through /proc/self/clear_refs");
}

/**
 * Peak resident set of this process image since the last resetPeakRss(),
 * in MiB: VmHWM from /proc/self/status. getrusage's ru_maxrss is not
 * used because it survives execve, so it would report the launching
 * process's peak when that was larger, and it cannot be reset.
 */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
printResult(const Gate &gate, const std::vector<MetricDef> &defs,
            const Metrics &m)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << gate.attempted
        << ", \"failed\": " << gate.failed << ", \"metrics\": {";
    const char *sep = "";
    for (const MetricDef &d : defs) {
        const auto it = m.find(d.name);
        if (it == m.end() || !std::isfinite(it->second))
            throw std::logic_error("metric " + d.name + " was not measured");
        out << sep << '"' << d.name << "\": {\"value\": " << it->second
            << ", \"unit\": \"" << d.unit << "\"}";
        sep = ", ";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

int
recordDigests()
{
    DigestTable table;
    for (const std::string &name : workloadNames())
        for (const std::uint64_t seed : kRecordedSeeds) {
            Options one;
            one.workload = name;
            one.seed = seed;
            const Pass p = runPass(one, nullptr);
            if (!p.ok || countFailures(p.w.spec.jobs(), p.results, {}))
                throw std::runtime_error("workload " + name +
                                         " failed; nothing recorded");
            table[{name, seed}] = resultDigests(p.results);
            std::cerr << "recorded " << name << " seed " << seed << ": "
                      << p.results.size() << " jobs\n";
        }
    writeDigests(kRoot + "/" + kDigestFile, table);
    return 0;
}

int
run(const Options &o)
{
    const auto start = Clock::now();
    Gate gate;
    const DigestTable table = readDigests(kRoot + "/" + kDigestFile);
    if (const auto it = table.find({o.workload, o.seed}); it != table.end())
        gate.reference = it->second;

    // Each untimed pass is bracketed by two calibration runs on as many
    // threads as the grid's workers; sim_insts_per_cal is the pass's
    // throughput times their mean. The peak resident set is reset after
    // the first and read before the second, so it is the pass's alone;
    // peak_rss_mb is its median over passes.
    const std::uint32_t workers = buildWorkload(o.workload, o.seed, kRoot).workers;
    std::vector<double> ips, per_cal, cal, setup, peak_rss;
    const auto plainPass = [&] {
        const double before = calibrationSeconds(workers);
        resetPeakRss();
        Pass p = runPass(o, nullptr);
        peak_rss.push_back(peakRssMiB());
        const double after = calibrationSeconds(workers);
        gate.check(p);
        ips.push_back(p.insts_per_s());
        cal.push_back(0.5 * (before + after));
        per_cal.push_back(ips.back() * cal.back());
        setup.push_back(p.setupS);
        return p;
    };

    Metrics m;
    if (o.trace == 0) {
        Workload last;
        do {
            last = plainPass().w;
        } while (secondsSince(start) < o.seconds);
        gate.crossCheck(last, 2);
        m["sim_insts_per_cal"] = median(per_cal);
        m["setup_s"] = median(setup);
        m["peak_rss_mb"] = median(peak_rss);
        std::cerr << "mtbench: " << ips.size() << " passes, median "
                  << median(ips) << " insts/s, calibration "
                  << median(cal) * 1e3 << " ms, peak RSS median "
                  << m["peak_rss_mb"] << " max "
                  << *std::max_element(peak_rss.begin(), peak_rss.end())
                  << " MiB\n";
        printResult(gate, endToEndMetrics(), m);
        return 0;
    }

    Recorder rec;
    std::vector<double> ips_traced;
    std::map<std::string, std::vector<double>> per_pass;
    do {
        plainPass();
        const Pass traced = runPass(o, &rec);
        gate.check(traced);
        ips_traced.push_back(traced.insts_per_s());
        const GridTrace g = rec.summarize(traced.w.workers,
                                          groupedJobs(traced.w));
        for (const auto &[name, value] : tracedMetrics(traced, g))
            per_pass[name].push_back(value);
    } while (secondsSince(start) < o.seconds);
    for (const auto &[name, values] : per_pass)
        m[name] = median(values);
    m["trace_overhead_frac"] = 1.0 - median(ips_traced) / median(ips);
    m["sim_insts_per_s"] = median(ips);
    m["calibration_ms"] = median(cal) * 1e3;

    const Workload plain = buildWorkload(o.workload, o.seed, kRoot);
    measureCore(plain, rec, m);
    measurePolicy(o.seed, rec, m);
    measureMemory(plain, rec, m);
    measureWorkload(plain, kRoot, o.seed, rec, m);
    measureSnapshot(plain, rec, m);
    if (!o.spans.empty())
        rec.write(o.spans);
    std::cerr << "mtbench: " << ips_traced.size() << " traced passes\n";
    printResult(gate, perLayerMetrics(kRoot), m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--record-digests") {
        try {
            return recordDigests();
        } catch (const std::exception &e) {
            std::cerr << "mtbench: " << e.what() << "\n";
            return 1;
        }
    }
    Options o;
    try {
        o = parseArgs(argc, argv);
    } catch (const UsageError &e) {
        std::cerr << "mtbench: " << e.what()
                  << "\nusage: mtbench --workload <smt-busy|memory-wall|"
                     "warm-sweep> --seed <n> --seconds <s> --trace <0|1> "
                     "[--spans <file>]\n"
                     "       mtbench --record-digests\n";
        return 2;
    }
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "mtbench: " << e.what() << "\n";
        return 1;
    }
}
