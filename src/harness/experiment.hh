/**
 * @file
 * Experiment harness: canonical paper configurations and single-run
 * drivers shared by the experiment CLI and the integration tests.
 * Multi-point experiments are declared as SweepSpec grids and executed
 * on the worker pool (harness/sweep.hh); the runBenchmark/runSuiteMix
 * drivers here are the serial single-point equivalents used by tests.
 */

#ifndef MTDAE_HARNESS_EXPERIMENT_HH
#define MTDAE_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/simulator.hh"

namespace mtdae {

/** The L2 latencies the paper sweeps (Figures 1 and 4). */
const std::vector<std::uint32_t> &paperLatencies();

/**
 * The paper's Figure 2 machine.
 *
 * @param threads      hardware contexts
 * @param decoupled    false disables the instruction queues (the paper's
 *                     non-decoupled baseline)
 * @param l2_latency   L2 hit latency in cycles
 * @param scale_queues scale queues/registers with the latency (paper §2)
 */
SimConfig paperConfig(std::uint32_t threads, bool decoupled,
                      std::uint32_t l2_latency, bool scale_queues = true);

/**
 * Run one benchmark on thread 0 of the given machine (single-threaded
 * machines for Figure 1; every thread runs the same benchmark when the
 * machine is multithreaded).
 */
RunResult runBenchmark(const SimConfig &cfg, const std::string &bench,
                       std::uint64_t measure_insts);

/**
 * Run the paper's Section 3 workload: every thread executes the full
 * SPEC FP95 suite in a thread-specific rotation.
 */
RunResult runSuiteMix(const SimConfig &cfg, std::uint64_t measure_insts);

} // namespace mtdae

#endif // MTDAE_HARNESS_EXPERIMENT_HH
