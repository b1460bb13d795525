#include "harness/experiment.hh"

#include <cerrno>
#include <cstdlib>
#include <sys/stat.h>

#include "common/log.hh"
#include "workload/spec_fp95.hh"

namespace mtdae {

const std::vector<std::uint32_t> &
paperLatencies()
{
    static const std::vector<std::uint32_t> lats = {1, 16, 32, 64, 128,
                                                    256};
    return lats;
}

SimConfig
paperConfig(std::uint32_t threads, bool decoupled,
            std::uint32_t l2_latency, bool scale_queues)
{
    SimConfig cfg;  // defaults are the paper's Figure 2 machine
    cfg.numThreads = threads;
    cfg.decoupled = decoupled;
    if (scale_queues)
        cfg = cfg.scaledForLatency(l2_latency);
    else
        cfg.l2Latency = l2_latency;
    return cfg;
}

RunResult
runBenchmark(const SimConfig &cfg, const std::string &bench,
             std::uint64_t measure_insts)
{
    Simulator sim(cfg,
                  makeBenchmarkFactory(bench)->make(cfg.numThreads,
                                                    cfg.seed));
    return sim.run(measure_insts);
}

RunResult
runSuiteMix(const SimConfig &cfg, std::uint64_t measure_insts)
{
    Simulator sim(cfg,
                  makeSuiteMixFactory()->make(cfg.numThreads, cfg.seed));
    return sim.run(measure_insts);
}

std::uint64_t
instsBudget(std::uint64_t fallback)
{
    if (const char *env = std::getenv("MTDAE_MEASURE_INSTS")) {
        // strtoull skips blanks and wraps "-1" to 2^64-1: only a bare,
        // in-range, positive digit string is a budget.
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (env[0] >= '0' && env[0] <= '9' && *end == '\0' &&
            errno != ERANGE && v > 0)
            return v;
        warn("ignoring bad MTDAE_MEASURE_INSTS value '", env, "'");
    }
    return fallback;
}

std::string
resultsDir()
{
    std::string dir = "results";
    if (const char *env = std::getenv("MTDAE_RESULTS_DIR"))
        dir = env;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

} // namespace mtdae
