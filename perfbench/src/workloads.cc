#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <stdexcept>

#include "harness/experiment.hh"
#include "layers.hh"
#include "workload/spec_fp95.hh"

namespace perfbench {

using namespace mtdae;

namespace {

// Instruction budgets, per hardware thread. Chosen so one pass over a
// grid takes about a second on a 4-core x86 host: long enough to time,
// short enough that a run repeats the grid several times and reports
// the median.
constexpr std::uint64_t kSmtWarmup = 500;
constexpr std::uint64_t kSmtMeasure = 1500;
// memory-wall budgets are divided by the DRAM slowdown, so that every
// point costs about the same host time; otherwise the slowest DRAM
// machine alone would set the grid's wall time.
constexpr std::uint64_t kWallWarmup = 6000;
constexpr std::uint64_t kWallMeasure = 18000;
// warm-sweep: each prefix fans out to kWarmBudgets x kWarmMeasure, and
// its warmup is kWarmWarmupMult times the base budget.
constexpr std::uint64_t kWarmMeasure = 1200;
constexpr std::uint64_t kWarmWarmupMult = 8;
constexpr std::uint64_t kWarmBudgets[] = {1, 2, 3};

/**
 * The suite mix with segments short enough that each thread visits all
 * ten benchmarks within @p insts_per_thread instructions. With the
 * default 30000-instruction segments a short job would run only the
 * first benchmark of each thread's seed-dependent rotation, and the
 * grid's cost would depend on the seed.
 */
std::unique_ptr<TraceSourceFactory>
suiteMix(std::uint64_t insts_per_thread)
{
    return makeSuiteMixFactory(insts_per_thread / specFp95Names().size());
}

std::unique_ptr<TraceSourceFactory>
wrapped(const FactoryWrap &wrap, std::unique_ptr<TraceSourceFactory> f,
        std::size_t job)
{
    return wrap ? wrap(std::move(f), job) : std::move(f);
}

std::string
machineLabel(std::uint32_t threads, bool dec)
{
    return std::to_string(threads) + "T " + (dec ? "dec" : "non-dec");
}

void
buildSmtBusy(Workload &w, std::uint64_t seed, const FactoryWrap &wrap)
{
    w.workers = 1;
    w.warmStart = false;
    for (const std::uint32_t t : {4u, 8u, 16u})
        for (const bool dec : {true, false})
            for (const std::uint32_t lat : {1u, 16u})
                for (std::size_t p = 0; p < std::size(kFetchPolicies);
                     ++p) {
                    SimConfig cfg = paperConfig(t, dec, lat);
                    cfg.seed = seed;
                    cfg.warmupInsts = kSmtWarmup * t;
                    cfg.fetchPolicy = kFetchPolicies[p];
                    cfg.issuePolicy = kIssuePolicies[p];
                    if (cfg.fetchPolicy == PolicyKind::Weighted)
                        cfg.threadWeights = {1, 2, 4};
                    w.spec.add(cfg,
                               wrapped(wrap,
                                       suiteMix(kSmtWarmup + kSmtMeasure),
                                       w.spec.size()),
                               kSmtMeasure * t,
                               machineLabel(t, dec) + " L2=" +
                                   std::to_string(lat) + " " +
                                   policyName(cfg.fetchPolicy) + "x" +
                                   policyName(cfg.issuePolicy));
                }
}

void
buildMemoryWall(Workload &w, std::uint64_t seed, const std::string &root,
                const FactoryWrap &wrap)
{
    w.workers = defaultJobs();
    w.warmStart = false;
    const std::string chase = dsl::readKernelFile(
        root + "/examples/kernels/pointer_chase.mk");
    // Whole-machine footprints: inside the 64 KiB L1, inside the
    // 512 KiB L2, and eight times the L2. Each thread walks its share.
    const std::uint64_t footprints[] = {32 << 10, 256 << 10, 4 << 20};
    // Largest machines first: their jobs run longest, and starting them
    // first keeps the grid's tail short and its wall time steady.
    for (const std::uint32_t t : {4u, 2u, 1u}) {
        for (const bool dec : {true, false}) {
            // The fig4-dram shape: slow the DRAM, keep the L2 hit cost.
            for (const std::uint32_t s : {1u, 2u, 4u, 8u}) {
                SimConfig cfg = paperConfig(t, dec, 16 * s);
                cfg.seed = seed;
                cfg.l2Latency = 16;
                cfg.perfectL2 = false;
                cfg.warmupInsts = kWallWarmup * t / s;
                cfg.dramCas *= s;
                cfg.dramRas *= s;
                cfg.dramPrecharge *= s;
                w.spec.add(cfg,
                           wrapped(wrap,
                                   suiteMix((kWallWarmup + kWallMeasure) / s),
                                   w.spec.size()),
                           kWallMeasure * t / s,
                           machineLabel(t, dec) + " DRAMx" +
                               std::to_string(s));
            }
            for (const std::uint64_t fp : footprints) {
                SimConfig cfg = paperConfig(t, dec, 16);
                cfg.seed = seed;
                cfg.perfectL2 = false;
                cfg.warmupInsts = kWallWarmup * t;
                DslInput in{chase,
                            {{"footprint", double(fp / t)}}};
                w.spec.add(cfg,
                           wrapped(wrap,
                                   dsl::makeDslFactory(in.text, in.params),
                                   w.spec.size()),
                           kWallMeasure * t,
                           machineLabel(t, dec) + " chase " +
                               std::to_string(fp >> 10) + "KiB");
                w.dsl.push_back(std::move(in));
            }
        }
    }
}

void
buildWarmSweep(Workload &w, std::uint64_t seed, const std::string &root,
               const FactoryWrap &wrap)
{
    w.workers = defaultJobs();
    w.warmStart = true;
    // One compiled factory per kernel, cloned into every job that runs
    // it, plus the built-in suite mix.
    std::vector<std::pair<std::string,
                          std::unique_ptr<TraceSourceFactory>>> kernels;
    for (auto &[stem, text] : loadKernels(root)) {
        kernels.emplace_back(stem, dsl::makeDslFactory(text));
        w.dsl.push_back({std::move(text), {}});
    }
    kernels.emplace_back(
        "suite-mix",
        suiteMix(kWarmMeasure * (kWarmWarmupMult + std::size(kWarmBudgets))));

    std::uint64_t stream = 0;
    for (const auto &[kname, factory] : kernels) {
        for (const std::uint32_t t : {1u, 2u, 4u}) {
            for (const std::uint32_t lat : {16u, 64u}) {
                SimConfig cfg = paperConfig(t, true, lat);
                cfg.seed = seed;
                cfg.warmupInsts = kWarmWarmupMult * kWarmMeasure * t;
                // Every budget of this prefix draws the same seed
                // stream, so the jobs share one warmup checkpoint.
                for (const std::uint64_t m : kWarmBudgets)
                    w.spec.add(cfg,
                               wrapped(wrap, factory->clone(),
                                       w.spec.size()),
                               kWarmMeasure * t * m,
                               kname + " " + machineLabel(t, true) +
                                   " L2=" + std::to_string(lat) + " x" +
                                   std::to_string(m),
                               stream);
                ++stream;
            }
        }
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"smt-busy",
                                                   "memory-wall",
                                                   "warm-sweep"};
    return names;
}

std::vector<std::pair<std::string, std::string>>
loadKernels(const std::string &root)
{
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, std::string>> out;
    const fs::path dir = fs::path(root) / "examples" / "kernels";
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".mk")
            out.emplace_back(entry.path().stem().string(),
                             dsl::readKernelFile(entry.path().string()));
    std::sort(out.begin(), out.end());
    return out;
}

Workload
buildWorkload(const std::string &name, std::uint64_t seed,
              const std::string &root, const FactoryWrap &wrap)
{
    Workload w;
    w.name = name;
    if (name == "smt-busy")
        buildSmtBusy(w, seed, wrap);
    else if (name == "memory-wall")
        buildMemoryWall(w, seed, root, wrap);
    else if (name == "warm-sweep")
        buildWarmSweep(w, seed, root, wrap);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    return w;
}

} // namespace perfbench
