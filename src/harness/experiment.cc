#include "harness/experiment.hh"

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

} // namespace mtdae
