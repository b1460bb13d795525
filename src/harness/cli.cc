#include "harness/cli.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>

#include "common/log.hh"
#include "common/table.hh"
#include "core/slot_stats.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workload/dsl/interp.hh"
#include "workload/spec_fp95.hh"

namespace mtdae::cli {

namespace {

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    // strtoull accepts leading whitespace and '-' (wrapping negatives
    // to huge values); only bare digit strings are valid here.
    if (s.empty() || s[0] < '0' || s[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseU32(const std::string &s, std::uint32_t &out)
{
    std::uint64_t v = 0;
    if (!parseU64(s, v) || v > 0xffffffffull)
        return false;
    out = std::uint32_t(v);
    return true;
}

bool
parseBool(const std::string &s, bool &out)
{
    if (s == "1" || s == "true" || s == "yes" || s == "on") {
        out = true;
        return true;
    }
    if (s == "0" || s == "false" || s == "no" || s == "off") {
        out = false;
        return true;
    }
    return false;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> parts;
    std::istringstream is(s);
    std::string part;
    while (std::getline(is, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

bool
parseU32List(const std::string &s, std::vector<std::uint32_t> &out,
             std::string &error)
{
    out.clear();
    for (const auto &part : splitCommas(s)) {
        std::uint32_t v = 0;
        if (!parseU32(part, v)) {
            error = "bad number '" + part + "' in list '" + s + "'";
            return false;
        }
        out.push_back(v);
    }
    if (out.empty()) {
        error = "empty list '" + s + "'";
        return false;
    }
    return true;
}

/**
 * Parse one --kernel-param value: a number with an optional binary
 * K/M/G suffix, matching the DSL's own numeric literals.
 */
bool
parseParamValue(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str())
        return false;
    double mult = 1.0;
    if (*end == 'K') {
        mult = 1024.0;
        ++end;
    } else if (*end == 'M') {
        mult = 1024.0 * 1024.0;
        ++end;
    } else if (*end == 'G') {
        mult = 1024.0 * 1024.0 * 1024.0;
        ++end;
    }
    if (*end != '\0')
        return false;
    out = v * mult;
    return true;
}

/** Shortest decimal form that parses back to the same double. */
std::string
paramText(double v)
{
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/**
 * The --kernel-param overrides as single values (`run --bench=dsl`):
 * comma lists are grid axes and only ablate-dsl crosses them.
 *
 * @throws dsl::DslError on a malformed value (runCli reports it as a
 *         usage error)
 */
dsl::ParamOverrides
singleKernelOverrides(const Options &opts)
{
    dsl::ParamOverrides ov;
    for (const auto &[name, value] : opts.kernelParams) {
        double v = 0.0;
        if (!parseParamValue(value, v))
            throw dsl::DslError(
                0, 0,
                "bad --kernel-param value '" + value + "' for '" +
                    name +
                    "' (one number; comma lists are ablate-dsl grid "
                    "axes)");
        ov.emplace_back(name, v);
    }
    return ov;
}

/** One ablate-dsl sweep axis: a param name and its grid values. */
struct KernelAxis
{
    std::string name;
    std::vector<double> values;
};

/**
 * The --kernel-param flags as sweep axes, in flag order.
 *
 * @throws dsl::DslError on a malformed value
 */
std::vector<KernelAxis>
kernelAxes(const Options &opts)
{
    std::vector<KernelAxis> axes;
    for (const auto &[name, value] : opts.kernelParams) {
        KernelAxis axis;
        axis.name = name;
        for (const auto &part : splitCommas(value)) {
            double v = 0.0;
            if (!parseParamValue(part, v))
                throw dsl::DslError(0, 0,
                                    "bad --kernel-param value '" +
                                        part + "' for '" + name + "'");
            axis.values.push_back(v);
        }
        if (axis.values.empty())
            throw dsl::DslError(0, 0,
                                "empty --kernel-param value for '" +
                                    name + "'");
        axes.push_back(std::move(axis));
    }
    return axes;
}

/** One SimConfig override knob: apply a string value to a config. */
struct Knob
{
    std::function<bool(SimConfig &, const std::string &)> set;
};

const std::map<std::string, Knob> &
knobs()
{
    auto u32 = [](std::uint32_t SimConfig::*field) {
        return Knob{[field](SimConfig &c, const std::string &v) {
            return parseU32(v, c.*field);
        }};
    };
    auto u64 = [](std::uint64_t SimConfig::*field) {
        return Knob{[field](SimConfig &c, const std::string &v) {
            return parseU64(v, c.*field);
        }};
    };
    static const std::map<std::string, Knob> k = {
        {"threads", u32(&SimConfig::numThreads)},
        {"decoupled", Knob{[](SimConfig &c, const std::string &v) {
             return parseBool(v, c.decoupled);
         }}},
        {"ap-units", u32(&SimConfig::apUnits)},
        {"ep-units", u32(&SimConfig::epUnits)},
        {"ap-latency", u32(&SimConfig::apLatency)},
        {"ep-latency", u32(&SimConfig::epLatency)},
        {"fetch-threads", u32(&SimConfig::fetchThreadsPerCycle)},
        {"fetch-width", u32(&SimConfig::fetchWidth)},
        {"fetch-buffer", u32(&SimConfig::fetchBufferSize)},
        {"dispatch-width", u32(&SimConfig::dispatchWidth)},
        {"fetch-policy", Knob{[](SimConfig &c, const std::string &v) {
             return parsePolicy(v, c.fetchPolicy) &&
                    policyIsFetch(c.fetchPolicy);
         }}},
        {"issue-policy", Knob{[](SimConfig &c, const std::string &v) {
             return parsePolicy(v, c.issuePolicy) &&
                    policyIsIssue(c.issuePolicy);
         }}},
        {"thread-weights", Knob{[](SimConfig &c, const std::string &v) {
             std::string err;
             if (!parseU32List(v, c.threadWeights, err))
                 return false;
             for (const std::uint32_t w : c.threadWeights)
                 if (w == 0)
                     return false;
             return true;
         }}},
        {"adaptive-threshold", u32(&SimConfig::adaptiveMissThreshold)},
        {"max-branches", u32(&SimConfig::maxUnresolvedBranches)},
        {"redirect-penalty", u32(&SimConfig::redirectPenalty)},
        {"bht-entries", u32(&SimConfig::bhtEntries)},
        {"predictor", Knob{[](SimConfig &c, const std::string &v) {
             if (v == "bimodal")
                 c.predictor = SimConfig::PredictorKind::Bimodal;
             else if (v == "gshare")
                 c.predictor = SimConfig::PredictorKind::Gshare;
             else
                 return false;
             return true;
         }}},
        {"gshare-bits", u32(&SimConfig::gshareHistoryBits)},
        {"iq-entries", u32(&SimConfig::iqEntries)},
        {"apq-entries", u32(&SimConfig::apQueueEntries)},
        {"saq-entries", u32(&SimConfig::saqEntries)},
        {"rob-entries", u32(&SimConfig::robEntries)},
        {"ap-regs", u32(&SimConfig::apPhysRegs)},
        {"ep-regs", u32(&SimConfig::epPhysRegs)},
        {"graduate-width", u32(&SimConfig::graduateWidth)},
        {"l1-bytes", u32(&SimConfig::l1Bytes)},
        {"l1-line", u32(&SimConfig::l1LineBytes)},
        {"l1-ports", u32(&SimConfig::l1Ports)},
        {"mshrs", u32(&SimConfig::mshrs)},
        {"l1-hit-latency", u32(&SimConfig::l1HitLatency)},
        {"l2-latency", u32(&SimConfig::l2Latency)},
        {"bus-bytes", u32(&SimConfig::busBytesPerCycle)},
        {"perfect-l2", Knob{[](SimConfig &c, const std::string &v) {
             return parseBool(v, c.perfectL2);
         }}},
        {"l2-size", u32(&SimConfig::l2Bytes)},
        {"l2-assoc", u32(&SimConfig::l2Assoc)},
        {"l2-ports", u32(&SimConfig::l2Ports)},
        {"l2-mshrs", u32(&SimConfig::l2Mshrs)},
        {"dram-banks", u32(&SimConfig::dramBanks)},
        {"dram-row-bytes", u32(&SimConfig::dramRowBytes)},
        {"dram-cas", u32(&SimConfig::dramCas)},
        {"dram-ras", u32(&SimConfig::dramRas)},
        {"dram-precharge", u32(&SimConfig::dramPrecharge)},
        {"dram-bus-cycles", u32(&SimConfig::dramBusCycles)},
        {"seed", u64(&SimConfig::seed)},
        {"warmup", u64(&SimConfig::warmupInsts)},
        // Alias of --warmup: the checkpoint docs spell the knob out.
        {"warmup-insts", u64(&SimConfig::warmupInsts)},
        {"cycle-skip", Knob{[](SimConfig &c, const std::string &v) {
             return parseBool(v, c.cycleSkip);
         }}},
    };
    return k;
}

std::string
fmt(double v, int precision = 4)
{
    return TextTable::fmt(v, precision);
}

/** opts.insts when given, else the experiment's default @p fallback. */
std::uint64_t
budget(const Options &opts, std::uint64_t fallback)
{
    return opts.insts > 0 ? opts.insts : fallback;
}

/**
 * A command-line mistake that only shows while a grid is built (a job
 * budget that does not fit in uint64_t, an override that makes the
 * config invalid or contradicts a swept axis): runCli reports it as a
 * usage error.
 */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

const char *const kBudgetHint =
    " does not fit in 64 bits (lower --insts or --warmup)";

/**
 * One job's measure budget, @p insts x @p factor (the thread count, or
 * a multiple of it).
 *
 * @throws UsageError when the product does not fit in uint64_t
 */
std::uint64_t
jobInsts(std::uint64_t insts, std::uint64_t factor)
{
    if (factor != 0 && insts > UINT64_MAX / factor)
        throw UsageError("instruction budget " + std::to_string(insts) +
                         " x " + std::to_string(factor) + kBudgetHint);
    return insts * factor;
}

/**
 * A swept value @p v times @p factor, for a 32-bit config field (an L2
 * size from KiB, a DRAM timing from its slowdown factor).
 *
 * @throws UsageError when the product does not fit in uint32_t
 */
std::uint32_t
scaled(std::uint32_t v, std::uint32_t factor, const std::string &what)
{
    if (std::uint64_t(v) * factor > UINT32_MAX)
        throw UsageError(what + " " + std::to_string(v) + " x " +
                         std::to_string(factor) +
                         " does not fit in 32 bits");
    return v * factor;
}

/**
 * The paper machine with the CLI's scaling choice and overrides, its
 * structures scaled for @p l2_latency (paperConfig). A @p dram_l2 hit
 * latency moves the machine onto the finite L2 + DRAM backend before
 * the overrides, so they still win (--perfect-l2 turns such a sweep
 * into its reference run); callers pin their swept knobs afterwards.
 */
SimConfig
makeCfg(const Options &opts, std::uint32_t threads, bool decoupled,
        std::uint32_t l2_latency,
        std::optional<std::uint32_t> dram_l2 = std::nullopt)
{
    SimConfig cfg = paperConfig(threads, decoupled, l2_latency,
                                opts.scaleQueues);
    if (dram_l2) {
        cfg.l2Latency = *dram_l2;
        cfg.perfectL2 = false;
    }
    std::string error;
    if (!applyOverrides(cfg, opts, error))
        throw UsageError("bad override: " + error);
    return cfg;
}

/**
 * @p cfg itself when it is consistent.
 *
 * @throws UsageError naming the first rule it breaks (an override such
 *         as --threads=0 or --l1-bytes=3)
 */
const SimConfig &
checked(const SimConfig &cfg)
{
    const std::string rule = cfg.firstViolation();
    if (!rule.empty())
        throw UsageError("invalid configuration: " + rule);
    return cfg;
}

/**
 * The job's own value for a row column that names a SimConfig field,
 * or nullopt for any other column. Those column names are the override
 * keys with '-' spelled '_'.
 */
std::optional<std::string>
configCell(const std::string &column, const SimConfig &cfg)
{
    if (column == "threads")
        return std::to_string(cfg.numThreads);
    if (column == "decoupled")
        return cfg.decoupled ? "1" : "0";
    if (column == "l2_latency")
        return std::to_string(cfg.l2Latency);
    return std::nullopt;
}

using Row = std::vector<std::string>;
using Rows = std::vector<Row>;

/** IPC lost against the group baseline @p base, in percent. */
double
ipcLossPct(const RunResult &r, const RunResult &base)
{
    return base.ipc > 0 ? 100.0 * (1.0 - r.ipc / base.ipc) : 0.0;
}

/**
 * One experiment's grid, walked once. Each job is added together with
 * the leading row cells its grid point fixes; run() executes the sweep
 * and appends, for every job in grid order, those cells followed by
 * each measured tail its formatter returns. Results come back in grid
 * order at any worker count (JobRunner), so rows do too.
 */
class Grid
{
  public:
    /**
     * Formats one job's measured cells: one tail per output row (fig3
     * gives two, AP and EP). @p base is the first job of the job's
     * group() (the ipc_loss_pct baseline).
     */
    using Tail =
        std::function<Rows(const RunResult &r, const RunResult &base)>;

    Grid(std::string name, Row header)
    {
        rs_.name = std::move(name);
        rs_.header = std::move(header);
    }

    /** The next job added is the baseline of the jobs that follow it. */
    void group() { groupStart_ = cells_.size(); }

    void
    addSuiteMix(Row cells, const SimConfig &cfg, std::uint64_t insts,
                std::string label,
                std::uint64_t stream = SweepSpec::kSeedFromIndex)
    {
        record(std::move(cells), spec_.addSuiteMix(checked(cfg), insts,
                                                   std::move(label), stream));
    }

    void
    addBenchmark(Row cells, const SimConfig &cfg, const std::string &bench,
                 std::uint64_t insts, std::string label)
    {
        record(std::move(cells), spec_.addBenchmark(checked(cfg), bench,
                                                    insts, std::move(label)));
    }

    void
    addDsl(Row cells, const SimConfig &cfg, const std::string &text,
           const dsl::ParamOverrides &params, std::uint64_t insts,
           std::string label)
    {
        record(std::move(cells), spec_.addDsl(checked(cfg), text, params,
                                              insts, std::move(label)));
    }

    /**
     * Execute the grid on the worker pool selected by --jobs, echoing
     * each job's label to @p err as it starts (unless --quiet), and
     * format its rows. Under --profile the per-stage breakdowns of all
     * jobs are summed onto the ResultSet; the rows are unaffected.
     * Call once: the ResultSet is moved out.
     */
    ResultSet run(const Options &opts, std::ostream &err,
                  const Tail &tail);

  private:
    /**
     * @throws UsageError when a cell in a config-field column (threads,
     *         decoupled, l2_latency) differs from the job's own value:
     *         a config override has replaced the swept axis, and the
     *         row would be mislabelled
     */
    void record(Row cells, const SimJob &job);

    SweepSpec spec_;
    ResultSet rs_;
    Rows cells_;                     ///< per job, in grid order
    std::vector<std::size_t> base_;  ///< per job: its group's first job
    std::size_t groupStart_ = 0;
};

void
Grid::record(Row cells, const SimJob &job)
{
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const std::string &column = rs_.header.at(c);
        const auto own = configCell(column, job.cfg);
        if (!own || *own == cells[c])
            continue;
        std::string key = column;
        std::replace(key.begin(), key.end(), '_', '-');
        throw UsageError("--" + key + " overrides the swept '" + column +
                         "' axis: a row labelled " + cells[c] +
                         " would simulate " + *own +
                         "; drop the override (sweep threads and L2 "
                         "latency with --threads-list and --latencies)");
    }
    cells_.push_back(std::move(cells));
    base_.push_back(groupStart_);
}

ResultSet
Grid::run(const Options &opts, std::ostream &err, const Tail &tail)
{
    for (const SimJob &job : spec_.jobs())
        if (job.measureInsts > UINT64_MAX - job.cfg.warmupInsts)
            throw UsageError("instruction budget " +
                             std::to_string(job.measureInsts) +
                             " plus warmup " +
                             std::to_string(job.cfg.warmupInsts) +
                             kBudgetHint);
    spec_.setProfile(opts.profile);
    const JobRunner runner(opts.jobs, opts.warmStart);
    JobRunner::Progress on_start;
    if (!opts.quiet)
        on_start = [&err](const SimJob &job) {
            err << "  running " << job.label << "\n";
        };
    const std::vector<RunResult> results = runner.run(spec_, on_start);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        for (const Row &measured : tail(r, results[base_[i]])) {
            Row row = cells_[i];
            row.insert(row.end(), measured.begin(), measured.end());
            rs_.rows.push_back(std::move(row));
        }
        if (!r.profile.enabled)
            continue;
        for (std::size_t s = 0; s < kNumStages; ++s)
            rs_.profile.ns[s] += r.profile.ns[s];
        rs_.profile.totalNs += r.profile.totalNs;
        rs_.profile.cycles += r.profile.cycles;
        rs_.profile.enabled = true;
        rs_.profiled = true;
    }
    return std::move(rs_);
}

std::vector<std::uint32_t>
sweepOr(const std::vector<std::uint32_t> &user,
        std::vector<std::uint32_t> fallback)
{
    return user.empty() ? fallback : user;
}

// --- Experiment implementations ---------------------------------------

ResultSet
expRun(const Options &opts, std::ostream &err)
{
    Grid g("run",
           {"benchmark", "threads",     "decoupled", "l2_latency",
            "cycles",    "insts",       "ipc",       "perceived_fp",
            "perceived_int", "perceived_all", "load_miss",
            "store_miss", "delayed_hit", "bus_util",  "mispredict",
            "ap_useful", "ep_useful",   "cycles_skipped",
            "skip_events"});
    const std::uint64_t insts = budget(opts, 300000);
    std::vector<std::string> benches = opts.benchmarks;
    if (benches.empty())
        benches = {"suite-mix"};
    const auto threads = sweepOr(opts.threads, {1});
    const auto lats = sweepOr(opts.latencies, {16});
    // The DSL workload is compiled once here so a bad kernel file
    // fails before any job is queued (runCli reports the DslError).
    std::string dsl_text;
    dsl::ParamOverrides dsl_params;
    if (std::find(benches.begin(), benches.end(), "dsl") !=
        benches.end()) {
        dsl_text = dsl::readKernelFile(opts.kernelFile);
        dsl_params = singleKernelOverrides(opts);
        (void)dsl::compileKernel(dsl_text, dsl_params);
    }
    for (const auto &bench : benches) {
        for (const std::uint32_t n : threads) {
            for (const std::uint32_t lat : lats) {
                const SimConfig cfg = makeCfg(opts, n, true, lat);
                // A single run labels, budgets and prints its job's own
                // machine, so config overrides such as --threads=4 or
                // --l2-latency=64 describe it correctly.
                const std::uint32_t t = cfg.numThreads;
                const std::string label =
                    bench + " " + std::to_string(t) + "T L2=" +
                    std::to_string(cfg.l2Latency);
                const std::uint64_t job_insts = jobInsts(insts, t);
                Row cells = {bench, std::to_string(t),
                             cfg.decoupled ? "1" : "0",
                             std::to_string(cfg.l2Latency)};
                if (bench == "suite-mix")
                    g.addSuiteMix(std::move(cells), cfg, job_insts, label);
                else if (bench == "dsl")
                    g.addDsl(std::move(cells), cfg, dsl_text, dsl_params,
                             job_insts, label);
                else
                    g.addBenchmark(std::move(cells), cfg, bench, job_insts,
                                   label);
            }
        }
    }
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        return Rows{{std::to_string(r.cycles), std::to_string(r.insts),
                     fmt(r.ipc), fmt(r.perceivedFp), fmt(r.perceivedInt),
                     fmt(r.perceivedAll), fmt(r.loadMissRatio),
                     fmt(r.storeMissRatio), fmt(r.mergedRatio),
                     fmt(r.busUtilization), fmt(r.mispredictRate),
                     fmt(r.ap.fraction(SlotUse::Useful)),
                     fmt(r.ep.fraction(SlotUse::Useful)),
                     std::to_string(r.cyclesSkipped),
                     std::to_string(r.skipEvents)}};
    });
}

ResultSet
expFig1(const Options &opts, std::ostream &err)
{
    Grid g("fig1", {"benchmark", "l2_latency", "ipc", "ipc_loss_pct",
                    "perceived_fp", "perceived_int", "load_miss",
                    "store_miss", "delayed_hit"});
    const std::uint64_t insts = budget(opts, 250000);
    const auto benches =
        opts.benchmarks.empty() ? specFp95Names() : opts.benchmarks;
    const auto lats = sweepOr(opts.latencies, paperLatencies());
    for (const auto &bench : benches) {
        g.group();
        for (const std::uint32_t lat : lats)
            g.addBenchmark({bench, std::to_string(lat)},
                           makeCfg(opts, 1, true, lat), bench, insts,
                           bench + " L2=" + std::to_string(lat));
    }
    return g.run(opts, err,
                 [](const RunResult &r, const RunResult &base) {
                     return Rows{{fmt(r.ipc), fmt(ipcLossPct(r, base), 2),
                                  fmt(r.perceivedFp, 2),
                                  fmt(r.perceivedInt, 2),
                                  fmt(r.loadMissRatio),
                                  fmt(r.storeMissRatio),
                                  fmt(r.mergedRatio)}};
                 });
}

ResultSet
expFig3(const Options &opts, std::ostream &err)
{
    Grid g("fig3", {"threads", "ipc", "unit", "useful", "wait_mem",
                    "wait_fu", "idle", "other"});
    const std::uint64_t insts = budget(opts, 300000);
    const auto threads = sweepOr(opts.threads, {1, 2, 3, 4, 5, 6});
    const std::uint32_t lat =
        opts.latencies.empty() ? 16 : opts.latencies.front();
    for (const std::uint32_t n : threads)
        g.addSuiteMix({std::to_string(n)}, makeCfg(opts, n, true, lat),
                      jobInsts(insts, n),
                      std::to_string(n) + "T suite mix");
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        const auto unit = [&r](const char *name, const SlotBreakdown &bd) {
            return Row{fmt(r.ipc),
                       name,
                       fmt(bd.fraction(SlotUse::Useful)),
                       fmt(bd.fraction(SlotUse::WaitMem)),
                       fmt(bd.fraction(SlotUse::WaitFu)),
                       fmt(bd.fraction(SlotUse::Idle)),
                       fmt(bd.fraction(SlotUse::Other))};
        };
        return Rows{unit("AP", r.ap), unit("EP", r.ep)};
    });
}

ResultSet
expFig4(const Options &opts, std::ostream &err)
{
    Grid g("fig4", {"threads", "decoupled", "l2_latency", "ipc",
                    "ipc_loss_pct", "perceived_all"});
    const std::uint64_t insts = budget(opts, 300000);
    const auto threads = sweepOr(opts.threads, {1, 2, 3, 4});
    const auto lats = sweepOr(opts.latencies, paperLatencies());
    for (const std::uint32_t n : threads) {
        for (const bool dec : {true, false}) {
            g.group();
            for (const std::uint32_t lat : lats)
                g.addSuiteMix({std::to_string(n), dec ? "1" : "0",
                               std::to_string(lat)},
                              makeCfg(opts, n, dec, lat),
                              jobInsts(insts, n),
                              std::to_string(n) + "T " +
                                  (dec ? "decoupled"
                                       : "non-decoupled") +
                                  " L2=" + std::to_string(lat));
        }
    }
    return g.run(opts, err,
                 [](const RunResult &r, const RunResult &base) {
                     return Rows{{fmt(r.ipc), fmt(ipcLossPct(r, base), 2),
                                  fmt(r.perceivedAll, 2)}};
                 });
}

ResultSet
expFig5(const Options &opts, std::ostream &err)
{
    Grid g("fig5", {"l2_latency", "threads", "decoupled", "ipc",
                    "bus_util"});
    const std::uint64_t insts = budget(opts, 200000);
    // Default: the paper's two sweeps — L2=16 to 7T, L2=64 to 16T.
    std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
        sweeps;
    if (opts.latencies.empty() && opts.threads.empty()) {
        sweeps.push_back({16, {1, 2, 3, 4, 5, 6, 7}});
        sweeps.push_back(
            {64, {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16}});
    } else {
        const auto lats = sweepOr(opts.latencies, {16, 64});
        const auto threads =
            sweepOr(opts.threads, {1, 2, 3, 4, 5, 6, 7, 8});
        for (const std::uint32_t lat : lats)
            sweeps.push_back({lat, threads});
    }
    for (const auto &[lat, threads] : sweeps)
        for (const std::uint32_t n : threads)
            for (const bool dec : {true, false})
                g.addSuiteMix({std::to_string(lat), std::to_string(n),
                               dec ? "1" : "0"},
                              makeCfg(opts, n, dec, lat),
                              jobInsts(insts, n),
                              std::to_string(n) + "T " +
                                  (dec ? "decoupled"
                                       : "non-decoupled") +
                                  " L2=" + std::to_string(lat));
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        return Rows{{fmt(r.ipc), fmt(r.busUtilization)}};
    });
}

/**
 * A single-knob ablation, declared as data. Each point gives one value
 * per swept column, spelled as a user would pass `--<key>=v`; every
 * point runs on the suite mix, decoupled, at one L2 latency (the first
 * --latencies value, else @c latency).
 */
struct KnobSweep
{
    const char *csv;
    /** Swept columns, each with the override key it sets. */
    std::vector<std::pair<const char *, const char *>> columns;
    std::vector<std::vector<const char *>> points;
    /**
     * True: each point runs at every --threads-list count (default
     * 1,4), in a threads column. False: at the first one (default 4).
     */
    bool threadColumn;
    std::uint32_t latency;
    std::uint64_t insts;  ///< default budget per thread
    /** Add a row of 0s per thread count: the non-decoupled machine. */
    bool nonDecoupledRef = false;
    std::vector<std::string> metrics;  ///< result columns (knobMetric)
};

/** The measured value of knob-sweep result column @p column. */
double
knobMetric(const std::string &column, const RunResult &r)
{
    if (column == "ipc")
        return r.ipc;
    if (column == "bus_util")
        return r.busUtilization;
    if (column == "perceived")
        return r.perceivedAll;
    if (column == "mispredict")
        return r.mispredictRate;
    if (column == "ap_useful")
        return r.ap.fraction(SlotUse::Useful);
    if (column == "ep_useful")
        return r.ep.fraction(SlotUse::Useful);
    if (column == "ap_idle")
        return r.ap.fraction(SlotUse::Idle);
    MTDAE_PANIC("no knob-sweep metric '", column, "'");
}

/**
 * Walk one KnobSweep. Each point is applied after makeCfg through the
 * CLI's own setters (applyOverride), so the swept value wins over a
 * user override of the same key.
 */
ResultSet
runKnobSweep(const KnobSweep &s, const Options &opts, std::ostream &err)
{
    Row header;
    for (const auto &[column, key] : s.columns)
        header.push_back(column);
    if (s.threadColumn)
        header.push_back("threads");
    header.insert(header.end(), s.metrics.begin(), s.metrics.end());
    Grid g(s.csv, std::move(header));
    const std::uint64_t insts = budget(opts, s.insts);
    const std::uint32_t lat =
        opts.latencies.empty() ? s.latency : opts.latencies.front();
    std::vector<std::uint32_t> threads = sweepOr(opts.threads, {1, 4});
    if (!s.threadColumn)
        threads = {opts.threads.empty() ? 4 : opts.threads.front()};
    const auto add = [&](Row cells, std::uint32_t n, const SimConfig &cfg,
                         const std::string &point) {
        if (s.threadColumn)
            cells.push_back(std::to_string(n));
        g.addSuiteMix(std::move(cells), cfg, jobInsts(insts, n),
                      point + " " + std::to_string(n) + "T");
    };
    for (const auto &point : s.points) {
        for (const std::uint32_t n : threads) {
            SimConfig cfg = makeCfg(opts, n, true, lat);
            std::string label;
            for (std::size_t c = 0; c < point.size(); ++c) {
                const std::string key = s.columns[c].second;
                std::string error;
                const bool ok = applyOverride(cfg, key, point[c], error);
                MTDAE_ASSERT(ok, s.csv, ": ", error);
                label += (c ? " " : "") + key + "=" + point[c];
            }
            add(Row(point.begin(), point.end()), n, cfg, label);
        }
    }
    if (s.nonDecoupledRef)
        for (const std::uint32_t n : threads)
            add(Row(s.columns.size(), "0"), n, makeCfg(opts, n, false, lat),
                "non-decoupled");
    return g.run(opts, err, [&s](const RunResult &r, const RunResult &) {
        Row row;
        for (const std::string &column : s.metrics)
            row.push_back(fmt(knobMetric(column, r)));
        return Rows{row};
    });
}

ResultSet
expAblateL2(const Options &opts, std::ostream &err)
{
    Grid g("ablate_l2", {"l2_kb", "threads", "ipc", "l1_miss", "l2_miss",
                         "avg_fill", "dram_row_hit", "dram_bus_util"});
    const std::uint64_t insts = budget(opts, 120000);
    const std::uint32_t lat =
        opts.latencies.empty() ? 16 : opts.latencies.front();
    const auto threads = sweepOr(opts.threads, {1, 4});
    for (const std::uint32_t kb : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
        for (const std::uint32_t n : threads) {
            SimConfig cfg = makeCfg(opts, n, true, lat, lat);
            cfg.l2Bytes = kb * 1024;
            g.addSuiteMix({std::to_string(kb), std::to_string(n)}, cfg,
                          jobInsts(insts, n),
                          "L2 " + std::to_string(kb) + "KB " +
                              std::to_string(n) + "T");
        }
    }
    // l2_kb = 0 marks the paper's perfect-L2 reference machine: the
    // gap against it is the cost of a real memory system.
    for (const std::uint32_t n : threads)
        g.addSuiteMix({"0", std::to_string(n)},
                      makeCfg(opts, n, true, lat), jobInsts(insts, n),
                      "perfect L2 " + std::to_string(n) + "T");
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        return Rows{{fmt(r.ipc), fmt(r.missRatio), fmt(r.l2MissRatio),
                     fmt(r.avgFillLatency, 1), fmt(r.dramRowHitRatio),
                     fmt(r.dramBusUtilization)}};
    });
}

/**
 * The fig4 latency-tolerance sweep against the real backend: instead of
 * dialling an abstract L2 latency, successive points slow the *DRAM*
 * down (CAS/RAS/precharge scaled by dram_scale), and the tolerated
 * latency is the emergent avg_fill the machine actually experienced.
 * Structures scale with the backend slowdown exactly as the paper
 * scales them with L2 latency (factor dram_scale, unless --no-scale).
 */
ResultSet
expFig4Dram(const Options &opts, std::ostream &err)
{
    Grid g("fig4_dram",
           {"threads", "decoupled", "dram_scale", "ipc", "ipc_loss_pct",
            "avg_fill", "perceived_all", "l2_miss", "dram_bus_util"});
    const std::uint64_t insts = budget(opts, 300000);
    const auto threads = sweepOr(opts.threads, {1, 2, 3, 4});
    // --latencies overrides the DRAM slowdown factors, not L2 cycles.
    const auto scales = sweepOr(opts.latencies, {1, 2, 4, 8});
    for (const std::uint32_t n : threads) {
        for (const bool dec : {true, false}) {
            g.group();
            for (const std::uint32_t s : scales) {
                // The real L2 hit cost stays at 16 cycles.
                SimConfig cfg = makeCfg(
                    opts, n, dec, scaled(16, s, "L2 latency"), 16);
                // The swept slowdown scales the (possibly overridden)
                // base DRAM timings last.
                cfg.dramCas = scaled(cfg.dramCas, s, "DRAM CAS latency");
                cfg.dramRas = scaled(cfg.dramRas, s, "DRAM RAS latency");
                cfg.dramPrecharge =
                    scaled(cfg.dramPrecharge, s, "DRAM precharge latency");
                g.addSuiteMix({std::to_string(n), dec ? "1" : "0",
                               std::to_string(s)},
                              cfg, jobInsts(insts, n),
                              std::to_string(n) + "T " +
                                  (dec ? "decoupled"
                                       : "non-decoupled") +
                                  " DRAMx" + std::to_string(s));
            }
        }
    }
    return g.run(opts, err,
                 [](const RunResult &r, const RunResult &base) {
                     return Rows{{fmt(r.ipc), fmt(ipcLossPct(r, base), 2),
                                  fmt(r.avgFillLatency, 1),
                                  fmt(r.perceivedAll, 2),
                                  fmt(r.l2MissRatio),
                                  fmt(r.dramBusUtilization)}};
                 });
}

/**
 * The thread-arbitration policy grid: every fetch policy crossed with
 * every dispatch/issue policy, at each swept thread count. The
 * icount/round-robin row is the paper's machine; the spread across the
 * other rows is what the scheduler choice is worth. Policies matter
 * most when threads compete for long-latency memory, so the default
 * point is the L2=64 machine.
 */
ResultSet
expAblatePolicy(const Options &opts, std::ostream &err)
{
    Grid g("ablate_policy",
           {"fetch_policy", "issue_policy", "threads", "ipc",
            "perceived_all", "mispredict", "ap_useful", "ep_useful"});
    const std::uint64_t insts = budget(opts, 120000);
    const std::uint32_t lat =
        opts.latencies.empty() ? 64 : opts.latencies.front();
    const auto threads = sweepOr(opts.threads, {1, 4});
    for (const PolicyKind fp : fetchPolicies()) {
        for (const PolicyKind ip : issuePolicies()) {
            for (const std::uint32_t n : threads) {
                SimConfig cfg = makeCfg(opts, n, true, lat);
                // The policy pair is the swept knob: it wins over any
                // --fetch-policy/--issue-policy override.
                cfg.fetchPolicy = fp;
                cfg.issuePolicy = ip;
                g.addSuiteMix({policyName(fp), policyName(ip),
                               std::to_string(n)},
                              cfg, jobInsts(insts, n),
                              std::string(policyName(fp)) + "/" +
                                  policyName(ip) + " " +
                                  std::to_string(n) + "T");
            }
        }
    }
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        return Rows{{fmt(r.ipc), fmt(r.perceivedAll, 2),
                     fmt(r.mispredictRate),
                     fmt(r.ap.fraction(SlotUse::Useful)),
                     fmt(r.ep.fraction(SlotUse::Useful))}};
    });
}

/**
 * The fetch-gating grid: the STALL/FLUSH gating policies against the
 * plain ICOUNT baseline, crossed with L2 size and thread count, on the
 * finite L2 + DRAM backend — the regime where miss pressure is real
 * and gating the AP's runahead has something to trade. `--latencies`
 * overrides the swept L2 sizes (in KiB), mirroring fig4-dram's reuse
 * of the flag for its swept axis.
 */
ResultSet
expAblateGating(const Options &opts, std::ostream &err)
{
    Grid g("ablate_gating",
           {"fetch_policy", "l2_kb", "threads", "ipc", "perceived_all",
            "l1_miss", "l2_miss", "avg_fill"});
    const std::uint64_t insts = budget(opts, 120000);
    const auto sizes_kb = sweepOr(opts.latencies, {64, 256, 1024});
    const auto threads = sweepOr(opts.threads, {2, 4});
    for (const PolicyKind fp :
         {PolicyKind::Icount, PolicyKind::Stall, PolicyKind::Flush}) {
        for (const std::uint32_t kb : sizes_kb) {
            for (const std::uint32_t n : threads) {
                SimConfig cfg = makeCfg(opts, n, true, 16, 16);
                cfg.l2Bytes = scaled(kb, 1024, "--latencies L2 size (KiB)");
                cfg.fetchPolicy = fp;
                g.addSuiteMix({policyName(fp), std::to_string(kb),
                               std::to_string(n)},
                              cfg, jobInsts(insts, n),
                              std::string(policyName(fp)) + " L2 " +
                                  std::to_string(kb) + "KB " +
                                  std::to_string(n) + "T");
            }
        }
    }
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        return Rows{{fmt(r.ipc), fmt(r.perceivedAll, 2), fmt(r.missRatio),
                     fmt(r.l2MissRatio), fmt(r.avgFillLatency, 1)}};
    });
}

/**
 * The QoS grid: thread-weight vectors crossed with arbitration-policy
 * pairs and L2 size on the finite L2 + DRAM backend, reporting the
 * fairness metrics (weighted speedup, harmonic-mean and max-min
 * fairness, per-thread slowdowns) alongside raw throughput — the
 * evidence for whether a weighted or adaptive policy actually converts
 * priority into proportional progress. `--latencies` overrides the
 * swept L2 sizes in KiB (the ablate-gating convention); `--threads`
 * overrides the thread count (first value only; the weight vectors
 * tile across it).
 */
ResultSet
expAblateQos(const Options &opts, std::ostream &err)
{
    Grid g("ablate_qos",
           {"weights", "fetch_policy", "issue_policy", "l2_kb", "ipc",
            "wspeedup", "fair_hmean", "fair_maxmin", "slow_t0",
            "slow_max"});
    const std::uint64_t insts = budget(opts, 60000);
    const std::uint32_t n =
        opts.threads.empty() ? 4 : opts.threads.front();
    const std::vector<std::vector<std::uint32_t>> weight_vectors = {
        {1, 1}, {4, 1}, {16, 1}};
    const std::vector<std::pair<PolicyKind, PolicyKind>> pairs = {
        {PolicyKind::Icount, PolicyKind::RoundRobin},
        {PolicyKind::Weighted, PolicyKind::Weighted},
        {PolicyKind::Adaptive, PolicyKind::RoundRobin},
        {PolicyKind::Adaptive, PolicyKind::Weighted},
    };
    const auto sizes_kb = sweepOr(opts.latencies, {256, 1024});
    for (const auto &ws : weight_vectors) {
        // ':'-separated so the label survives the CSV untouched.
        std::string weights;
        for (std::size_t i = 0; i < ws.size(); ++i)
            weights += (i ? ":" : "") + std::to_string(ws[i]);
        for (const auto &[fp, ip] : pairs) {
            for (const std::uint32_t kb : sizes_kb) {
                SimConfig cfg = makeCfg(opts, n, true, 16, 16);
                cfg.l2Bytes = scaled(kb, 1024, "--latencies L2 size (KiB)");
                cfg.fetchPolicy = fp;
                cfg.issuePolicy = ip;
                cfg.threadWeights = ws;
                g.addSuiteMix({weights, policyName(fp), policyName(ip),
                               std::to_string(kb)},
                              cfg, jobInsts(insts, n),
                              weights + " " + policyName(fp) + "/" +
                                  policyName(ip) + " L2 " +
                                  std::to_string(kb) + "KB");
            }
        }
    }
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        double slow_max = 0.0;
        for (const double s : r.threadSlowdown)
            if (s > slow_max)
                slow_max = s;
        return Rows{{fmt(r.ipc), fmt(r.weightedSpeedup),
                     fmt(r.fairnessHmean), fmt(r.fairnessMaxMin),
                     fmt(r.threadSlowdown.empty()
                             ? 0.0
                             : r.threadSlowdown.front()),
                     fmt(slow_max)}};
    });
}

/**
 * The warm-start fan-out grid: per thread count, three points that
 * differ only in measure budget, all on one explicit seed stream so
 * the group shares a warmup prefix (SimJob::prefixKey()). With
 * --warm-start=1 (the default) each group simulates its warmup once
 * and fans the checkpoint out; with --warm-start=0 every point runs
 * cold. The rows are byte-identical either way (tests/test_checkpoint.cc
 * and CI's checkpoint smoke compare them byte for byte).
 */
ResultSet
expAblateCheckpoint(const Options &opts, std::ostream &err)
{
    Grid g("ablate_checkpoint",
           {"threads", "measure_x", "ipc", "cycles", "insts"});
    const std::uint64_t insts = budget(opts, 60000);
    const std::uint32_t lat =
        opts.latencies.empty() ? 16 : opts.latencies.front();
    const auto threads = sweepOr(opts.threads, {1, 2, 4});
    std::uint64_t stream = 0;
    for (const std::uint32_t n : threads) {
        const SimConfig cfg = makeCfg(opts, n, true, lat);
        for (const std::uint64_t m : {1u, 2u, 4u})
            g.addSuiteMix({std::to_string(n), std::to_string(m)}, cfg,
                          jobInsts(insts, n * m),
                          std::to_string(n) + "T x" + std::to_string(m),
                          stream);
        ++stream;
    }
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        return Rows{{fmt(r.ipc), std::to_string(r.cycles),
                     std::to_string(r.insts)}};
    });
}

/**
 * ablate-dsl: a DSL kernel file as a first-class sweep axis. Every
 * comma-listed --kernel-param becomes a grid dimension (crossed in flag
 * order, first flag outermost), swept against the thread counts; the
 * kernel is recompiled per point with that point's param values, so the
 * text file plays the role the ten C++ benchmark models play in the
 * figure sweeps.
 */
ResultSet
expAblateDsl(const Options &opts, std::ostream &err)
{
    const std::string text = dsl::readKernelFile(opts.kernelFile);
    const std::string kname = dsl::compileKernel(text).name;
    const auto axes = kernelAxes(opts);
    const auto threads = sweepOr(opts.threads, {1, 4});
    const std::uint32_t lat =
        opts.latencies.empty() ? 16 : opts.latencies.front();
    const std::uint64_t insts = budget(opts, 150000);

    Row header = {"kernel"};
    for (const auto &axis : axes)
        header.push_back(axis.name);
    for (const char *h : {"threads", "l2_latency", "ipc",
                          "perceived_fp", "perceived_int", "load_miss",
                          "bus_util", "cycles", "insts"})
        header.push_back(h);
    Grid g("ablate_dsl", std::move(header));

    // The full cross product of the param axes, first flag outermost:
    // the row order is the nested-loop order, like every other sweep.
    std::vector<std::vector<double>> combos = {{}};
    for (const auto &axis : axes) {
        std::vector<std::vector<double>> next;
        for (const auto &combo : combos) {
            for (const double v : axis.values) {
                next.push_back(combo);
                next.back().push_back(v);
            }
        }
        combos = std::move(next);
    }

    for (const auto &combo : combos) {
        dsl::ParamOverrides params;
        std::string point = kname;
        Row cells = {kname};
        for (std::size_t i = 0; i < axes.size(); ++i) {
            params.emplace_back(axes[i].name, combo[i]);
            point += " " + axes[i].name + "=" + paramText(combo[i]);
            cells.push_back(paramText(combo[i]));
        }
        for (const std::uint32_t n : threads) {
            Row row = cells;
            row.push_back(std::to_string(n));
            row.push_back(std::to_string(lat));
            g.addDsl(std::move(row), makeCfg(opts, n, true, lat), text,
                     params, jobInsts(insts, n),
                     point + " " + std::to_string(n) + "T");
        }
    }
    return g.run(opts, err, [](const RunResult &r, const RunResult &) {
        return Rows{{fmt(r.ipc), fmt(r.perceivedFp), fmt(r.perceivedInt),
                     fmt(r.loadMissRatio), fmt(r.busUtilization),
                     std::to_string(r.cycles), std::to_string(r.insts)}};
    });
}

using ExperimentFn =
    std::function<ResultSet(const Options &, std::ostream &)>;

/** The experiment that walks @p s. */
ExperimentFn
sweep(KnobSweep s)
{
    return [s = std::move(s)](const Options &opts, std::ostream &err) {
        return runKnobSweep(s, opts, err);
    };
}

struct Entry
{
    Experiment info;
    ExperimentFn fn;
};

/**
 * Every experiment, in `mtdae list` order. A single-knob ablation is
 * one KnobSweep row; the others have their own grid walk above.
 */
const std::vector<Entry> &
registry()
{
    static const std::vector<Entry> entries = {
        {{"run", "single configuration run (suite mix or --bench=...)"},
         expRun},
        {{"fig1", "latency hiding, 1T decoupled, per-benchmark L2 sweep"},
         expFig1},
        {{"fig3", "AP/EP issue-slot breakdown vs. hardware contexts"},
         expFig3},
        {{"fig4", "latency tolerance of 1-4T (non-)decoupled machines"},
         expFig4},
        {{"fig5", "IPC vs. contexts at L2=16/64 with bus utilisation"},
         expFig5},
        {{"fig4-dram",
          "latency tolerance against the finite L2 + DRAM backend"},
         expFig4Dram},
        {{"ablate-width", "AP/EP issue-width split at total width 8"},
         sweep({.csv = "ablate_width",
                .columns = {{"ap_units", "ap-units"},
                            {"ep_units", "ep-units"}},
                .points = {{"2", "6"}, {"3", "5"}, {"4", "4"}, {"5", "3"},
                           {"6", "2"}},
                .threadColumn = false, .latency = 16, .insts = 200000,
                .metrics = {"ipc", "ap_useful", "ep_useful"}})},
        {{"ablate-predictor",
          "bimodal vs. gshare and speculation depth"},
         sweep({.csv = "ablate_predictor",
                .columns = {{"predictor", "predictor"},
                            {"max_branches", "max-branches"}},
                .points = {{"bimodal", "1"}, {"bimodal", "4"},
                           {"bimodal", "16"}, {"gshare", "1"},
                           {"gshare", "4"}, {"gshare", "16"}},
                .threadColumn = false, .latency = 16, .insts = 200000,
                .metrics = {"ipc", "mispredict", "ap_idle"}})},
        {{"ablate-mshrs", "MSHR count sweep (lockup-free-ness)"},
         sweep({.csv = "ablate_mshrs", .columns = {{"mshrs", "mshrs"}},
                .points = {{"1"}, {"2"}, {"4"}, {"8"}, {"16"}, {"32"},
                           {"64"}},
                .threadColumn = true, .latency = 64, .insts = 120000,
                .metrics = {"ipc", "bus_util"}})},
        {{"ablate-ports", "L1 data-cache port sweep"},
         sweep({.csv = "ablate_ports", .columns = {{"ports", "l1-ports"}},
                .points = {{"1"}, {"2"}, {"4"}, {"8"}},
                .threadColumn = true, .latency = 64, .insts = 120000,
                .metrics = {"ipc"}})},
        {{"ablate-iq", "EP instruction-queue depth sweep"},
         sweep({.csv = "ablate_iq",
                .columns = {{"iq_entries", "iq-entries"}},
                .points = {{"1"}, {"2"}, {"4"}, {"8"}, {"16"}, {"32"},
                           {"48"}, {"96"}, {"192"}, {"384"}},
                .threadColumn = true, .latency = 64, .insts = 120000,
                .nonDecoupledRef = true,
                .metrics = {"ipc", "perceived"}})},
        {{"ablate-l2", "L2 size sweep on the DRAM backend"},
         expAblateL2},
        {{"ablate-policy",
          "fetch x issue thread-arbitration policy grid"},
         expAblatePolicy},
        {{"ablate-gating",
          "fetch gating (stall/flush) x L2 size on the DRAM backend"},
         expAblateGating},
        {{"ablate-qos",
          "thread-weight x policy x L2 fairness grid (QoS metrics)"},
         expAblateQos},
        {{"ablate-checkpoint",
          "warm-start fan-out grid (shared warmup checkpoints)"},
         expAblateCheckpoint},
        {{"ablate-dsl",
          "DSL kernel-file param grid (--kernel-file, --kernel-param)"},
         expAblateDsl},
    };
    return entries;
}

/** mkdir -p: create every component of @p path; true when it exists. */
bool
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty() && partial != ".")
            ::mkdir(partial.c_str(), 0755);
        if (i < path.size())
            partial.push_back('/');
    }
    struct ::stat st = {};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

bool
looksNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    (void)std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && end != s.c_str();
}

} // namespace

bool
applyOverride(SimConfig &cfg, const std::string &key,
              const std::string &value, std::string &error)
{
    const auto it = knobs().find(key);
    if (it == knobs().end()) {
        error = "unknown config key '--" + key + "'";
        return false;
    }
    if (!it->second.set(cfg, value)) {
        error = "bad value '" + value + "' for --" + key;
        return false;
    }
    return true;
}

bool
applyOverrides(SimConfig &cfg, const Options &opts, std::string &error)
{
    for (const auto &[key, value] : opts.overrides)
        if (!applyOverride(cfg, key, value, error))
            return false;
    return true;
}

const std::vector<std::string> &
overrideKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const auto &[key, knob] : knobs())
            k.push_back(key);
        return k;
    }();
    return keys;
}

bool
parseArgs(const std::vector<std::string> &args, Options &opts,
          std::string &error)
{
    SimConfig scratch;  // overrides are validated at parse time
    for (const std::string &a : args) {
        if (a == "--help" || a == "-h") {
            opts.experiment = "help";
            continue;
        }
        if (a.rfind("--", 0) != 0) {
            if (opts.experiment.empty()) {
                opts.experiment = a;
                continue;
            }
            error = "unexpected argument '" + a + "'";
            return false;
        }
        const std::string flag = a.substr(2);
        const auto eq = flag.find('=');
        const std::string key = flag.substr(0, eq);
        const bool has_value = eq != std::string::npos;
        const std::string value =
            has_value ? flag.substr(eq + 1) : std::string();

        if (key == "json" && !has_value) {
            opts.format = Options::Format::Json;
        } else if (key == "perfect-l2" && !has_value) {
            // Bare escape hatch: --perfect-l2 == --perfect-l2=true.
            opts.overrides.emplace_back("perfect-l2", "1");
        } else if (key == "csv" && !has_value) {
            opts.format = Options::Format::Csv;
        } else if (key == "quiet" && !has_value) {
            opts.quiet = true;
        } else if (key == "no-scale" && !has_value) {
            opts.scaleQueues = false;
        } else if (key == "format") {
            if (value == "csv")
                opts.format = Options::Format::Csv;
            else if (value == "json")
                opts.format = Options::Format::Json;
            else {
                error = "bad --format '" + value + "' (csv or json)";
                return false;
            }
        } else if (key == "out") {
            if (value.empty()) {
                error = "--out needs a directory";
                return false;
            }
            opts.outDir = value;
        } else if (key == "insts") {
            if (!parseU64(value, opts.insts) || opts.insts == 0) {
                error = "bad --insts '" + value + "'";
                return false;
            }
        } else if (key == "bench") {
            opts.benchmarks = splitCommas(value);
            if (opts.benchmarks.empty()) {
                error = "--bench needs a benchmark list";
                return false;
            }
        } else if (key == "kernel-file") {
            if (value.empty()) {
                error = "--kernel-file needs a path";
                return false;
            }
            opts.kernelFile = value;
        } else if (key == "kernel-param") {
            const auto peq = value.find('=');
            if (peq == std::string::npos || peq == 0 ||
                peq + 1 == value.size()) {
                error = "bad --kernel-param '" + value +
                        "' (need NAME=VALUE)";
                return false;
            }
            opts.kernelParams.emplace_back(value.substr(0, peq),
                                           value.substr(peq + 1));
        } else if (key == "threads-list") {
            if (!parseU32List(value, opts.threads, error))
                return false;
        } else if (key == "latencies") {
            if (!parseU32List(value, opts.latencies, error))
                return false;
        } else if (key == "jobs") {
            if (!parseU32(value, opts.jobs) || opts.jobs == 0) {
                error = "bad --jobs '" + value +
                        "' (need a worker count >= 1)";
                return false;
            }
        } else if (key == "profile" && !has_value) {
            opts.profile = true;
        } else if (key == "warm-start") {
            if (!has_value) {
                opts.warmStart = true;
            } else if (!parseBool(value, opts.warmStart)) {
                error = "bad --warm-start '" + value + "'";
                return false;
            }
        } else if (has_value) {
            if (!applyOverride(scratch, key, value, error))
                return false;
            opts.overrides.emplace_back(key, value);
        } else {
            error = "unknown flag '" + a + "'";
            return false;
        }
    }
    return true;
}

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> infos = [] {
        std::vector<Experiment> v;
        for (const auto &e : registry())
            v.push_back(e.info);
        return v;
    }();
    return infos;
}

bool
isExperiment(const std::string &name)
{
    for (const auto &e : registry())
        if (e.info.name == name)
            return true;
    return false;
}

ResultSet
runExperiment(const Options &opts, std::ostream &err)
{
    for (const auto &e : registry()) {
        if (e.info.name == opts.experiment)
            return e.fn(opts, err);
    }
    MTDAE_FATAL("unknown experiment '", opts.experiment, "'");
}

void
writeJson(const ResultSet &rs, std::ostream &os)
{
    os << "{\n  \"experiment\": \"" << jsonEscape(rs.name)
       << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rs.rows.size(); ++i) {
        os << "    {";
        const auto &row = rs.rows[i];
        for (std::size_t c = 0; c < rs.header.size() && c < row.size();
             ++c) {
            if (c)
                os << ", ";
            os << '"' << jsonEscape(rs.header[c]) << "\": ";
            if (looksNumeric(row[c]))
                os << row[c];
            else
                os << '"' << jsonEscape(row[c]) << '"';
        }
        os << (i + 1 < rs.rows.size() ? "},\n" : "}\n");
    }
    os << "  ]";
    // The profile block exists only under --profile, so default JSON
    // output is unchanged byte for byte.
    if (rs.profiled) {
        os << ",\n  \"profile\": {\n    \"cycles\": "
           << rs.profile.cycles << ",\n    \"total_ns\": "
           << rs.profile.totalNs << ",\n    \"stages_ns\": {";
        for (std::size_t s = 0; s < kNumStages; ++s) {
            if (s)
                os << ", ";
            os << '"' << stageName(Stage(s))
               << "\": " << rs.profile.ns[s];
        }
        os << "}\n  }";
    }
    os << "\n}\n";
}

void
printHelp(std::ostream &os)
{
    // The names from the policy table, wrapped under the flag text.
    const auto policyList = [&os](const std::vector<PolicyKind> &kinds) {
        std::size_t col = 76;
        for (const PolicyKind k : kinds) {
            const std::string name = policyName(k);
            if (col + 1 + name.size() > 76) {
                os << "\n" << std::string(19, ' ');
                col = 19;
            }
            os << ' ' << name;
            col += 1 + name.size();
        }
        os << "\n";
    };
    os << "usage: mtdae <experiment> [options] [--<config-key>=<value>]\n"
          "\n"
          "experiments:\n";
    for (const auto &e : experiments())
        os << "  " << e.name << std::string(18 - e.name.size(), ' ')
           << e.summary << "\n";
    os << "  list              print this experiment list\n"
          "  help              print this help\n"
          "\n"
          "options:\n"
          "  --insts=N         instructions to measure per run\n"
          "  --bench=A,B       benchmark subset (fig1/run); 'suite-mix'"
          " allowed for run\n"
          "  --kernel-file=F   kernel DSL file (docs/KERNEL_DSL.md)"
          " for\n"
          "                    --bench=dsl and ablate-dsl\n"
          "  --kernel-param=K=V  override a DSL param (repeatable);"
          " a comma-\n"
          "                    listed value is an ablate-dsl grid"
          " axis\n"
          "  --threads-list=L  override the swept thread counts\n"
          "  --latencies=L     override the swept L2 latencies\n"
          "                    (for fig4-dram: the DRAM slowdown"
          " factors;\n"
          "                    for ablate-gating and ablate-qos: the L2"
          " sizes\n"
          "                    in KiB)\n"
          "  --perfect-l2      force the paper's never-missing L2"
          " (default for\n"
          "                    every experiment except fig4-dram,"
          " ablate-l2,\n"
          "                    ablate-gating and ablate-qos)\n"
          "  --fetch-policy=P  thread fetch arbitration (default icount):";
    policyList(fetchPolicies());
    os << "  --issue-policy=P  dispatch/issue arbitration (default"
          " round-robin):";
    policyList(issuePolicies());
    os << "                    (docs/POLICIES.md describes each policy)\n"
          "  --thread-weights=W  comma-listed QoS priority weights,"
          " tiled\n"
          "                    across threads (default all 1; consumed"
          " by the\n"
          "                    weighted policies and fairness metrics)\n"
          "  --adaptive-threshold=T  adaptive gating engages once the\n"
          "                    64-cycle miss window reaches T*64"
          " (default 1)\n"
          "  --jobs=N          sweep worker threads (default: hardware"
          " concurrency);\n"
          "                    results are identical at any N\n"
          "  --warm-start[=B]  share warmup checkpoints between sweep"
          " points with\n"
          "                    identical prefixes (default: on);"
          " --warm-start=0\n"
          "                    re-simulates every warmup; results are\n"
          "                    byte-identical either way\n"
          "  --seed=S          base RNG seed; each sweep point derives"
          " its own\n"
          "                    deterministic seed from S and its grid"
          " position\n"
          "  --profile         collect the per-stage wall-clock"
          " breakdown of the\n"
          "                    simulator's cycle loop (reported on"
          " stderr and in\n"
          "                    the JSON 'profile' object; result rows"
          " unchanged)\n"
          "  --format=csv|json result encoding (also --csv / --json)\n"
          "  --out=DIR         result directory (default: results)\n"
          "  --no-scale        disable paper-style queue scaling with"
          " L2 latency\n"
          "  --quiet           suppress the stdout table\n"
          "\n"
          "config keys (applied to every swept machine):\n  ";
    std::size_t col = 2;
    for (const auto &key : overrideKeys()) {
        if (col + key.size() + 2 > 76) {
            os << "\n  ";
            col = 2;
        }
        os << "--" << key << " ";
        col += key.size() + 3;
    }
    os << "\n\nexamples:\n"
          "  mtdae fig1 --insts=50000\n"
          "  mtdae fig4 --jobs=8 --seed=42\n"
          "  mtdae fig4 --threads-list=1,4 --latencies=1,32 --json\n"
          "  mtdae fig4-dram --latencies=1,4 --dram-banks=4\n"
          "  mtdae ablate-l2 --threads-list=4 --json\n"
          "  mtdae ablate-policy --threads-list=1,4 --latencies=64\n"
          "  mtdae ablate-gating --threads-list=2,4 --latencies=64\n"
          "  mtdae ablate-qos --thread-weights=4,1"
          " --latencies=256\n"
          "  mtdae ablate-checkpoint --warmup-insts=20000"
          " --warm-start=1\n"
          "  mtdae fig5 --issue-policy=misscount --quiet\n"
          "  mtdae fig5 --fetch-policy=stall --issue-policy=split\n"
          "  mtdae run --bench=tomcatv --threads=4 --l2-latency=64\n"
          "  mtdae run --bench=dsl"
          " --kernel-file=examples/kernels/pointer_chase.mk\n"
          "  mtdae ablate-dsl"
          " --kernel-file=examples/kernels/pointer_chase.mk \\\n"
          "        --kernel-param=footprint=64K,4M"
          " --threads-list=1,4\n";
}

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    Options opts;
    std::string error;
    if (!parseArgs(args, opts, error)) {
        err << "mtdae: " << error << "\n"
            << "run 'mtdae help' for usage\n";
        return 2;
    }
    if (opts.experiment.empty()) {
        printHelp(err);
        return 2;
    }
    if (opts.experiment == "help") {
        printHelp(out);
        return 0;
    }
    if (opts.experiment == "list") {
        for (const auto &e : experiments())
            out << e.name << "\t" << e.summary << "\n";
        return 0;
    }
    if (!isExperiment(opts.experiment)) {
        err << "mtdae: unknown experiment '" << opts.experiment
            << "'\nrun 'mtdae list' for the experiment list\n";
        return 2;
    }
    if (opts.experiment == "ablate-dsl" && opts.kernelFile.empty()) {
        err << "mtdae: ablate-dsl needs --kernel-file=PATH\n";
        return 2;
    }
    for (const auto &bench : opts.benchmarks) {
        const auto &names = specFp95Names();
        if (bench == "dsl") {
            // The DSL workload rides only on `run`, and needs a file.
            if (opts.experiment != "run") {
                err << "mtdae: --bench=dsl is only supported by the "
                       "run experiment\n";
                return 2;
            }
            if (opts.kernelFile.empty()) {
                err << "mtdae: --bench=dsl needs --kernel-file=PATH\n";
                return 2;
            }
            continue;
        }
        // Only `run` knows how to drive the suite-mix workload; the
        // figure sweeps need a concrete benchmark model.
        const bool mix_ok =
            bench == "suite-mix" && opts.experiment == "run";
        if (!mix_ok && std::find(names.begin(), names.end(), bench) ==
                           names.end()) {
            err << "mtdae: unknown benchmark '" << bench << "' (have: ";
            for (std::size_t i = 0; i < names.size(); ++i)
                err << (i ? ", " : "") << names[i];
            err << (opts.experiment == "run" ? ", suite-mix)\n" : ")\n");
            return 2;
        }
    }

    // Create the CSV directory before the (possibly long) run so a
    // bad --out fails fast instead of discarding the results.
    if (opts.format == Options::Format::Csv && !makeDirs(opts.outDir)) {
        err << "mtdae: cannot create output directory '" << opts.outDir
            << "'\n";
        return 2;
    }

    ResultSet rs;
    try {
        rs = runExperiment(opts, err);
    } catch (const UsageError &e) {
        err << "mtdae: " << e.what() << "\n";
        return 2;
    } catch (const dsl::DslError &e) {
        // A kernel file that fails to read or compile is user input,
        // not a simulator fault: report the position and exit as a
        // usage error.
        err << "mtdae: ";
        if (e.line > 0) {
            // Positioned compile error: file:line:col: message.
            if (!opts.kernelFile.empty())
                err << opts.kernelFile << ":";
            err << e.what();
        } else {
            // Positionless (bad file, bad override): message only.
            err << e.message;
        }
        err << "\n";
        return 2;
    }

    if (!opts.quiet) {
        TextTable t;
        t.addRow(rs.header);
        for (const auto &row : rs.rows)
            t.addRow(row);
        // In JSON mode stdout must stay machine-parseable, so the
        // human-readable table joins the progress lines on stderr.
        std::ostream &tbl =
            opts.format == Options::Format::Json ? err : out;
        tbl << "\n== " << opts.experiment << " ==\n";
        t.print(tbl);
    }

    // The per-stage breakdown goes to stderr next to the progress
    // lines: stdout (JSON) and the CSV file stay byte-identical with
    // or without --profile.
    if (rs.profiled && !opts.quiet) {
        err << "profile: " << rs.profile.cycles << " cycles in "
            << rs.profile.totalNs << " ns\n";
        for (std::size_t s = 0; s < kNumStages; ++s) {
            const double pct =
                rs.profile.totalNs
                    ? 100.0 * double(rs.profile.ns[s]) /
                          double(rs.profile.totalNs)
                    : 0.0;
            err << "  " << stageName(Stage(s)) << ": "
                << rs.profile.ns[s] << " ns (" << fmt(pct, 1)
                << "%)\n";
        }
    }

    if (opts.format == Options::Format::Json) {
        writeJson(rs, out);
    } else {
        const std::string path = opts.outDir + "/" + rs.name + ".csv";
        CsvWriter csv(path);
        csv.row(rs.header);
        for (const auto &row : rs.rows)
            csv.row(row);
        err << "wrote " << path << "\n";
    }
    return 0;
}

} // namespace mtdae::cli
