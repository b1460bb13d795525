/**
 * @file
 * Layer microbenchmarks for the traced run. Each one calls a layer's
 * public functions directly, on inputs taken from the workload being
 * measured, and records a span around each call.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/config.hh"
#include "tracing.hh"
#include "workloads.hh"

namespace perfbench {

/** Metric name -> value. */
using Metrics = std::map<std::string, double>;

/** Thread counts the per-thread-count core metrics are reported for. */
inline constexpr std::uint32_t kCoreThreadCounts[] = {1, 2, 4, 8, 16};

/** Thread counts the policy replay is reported for. */
inline constexpr std::uint32_t kPolicyThreadCounts[] = {4, 8, 16};

/** The fetch and dispatch/issue policies smt-busy pairs up, in order. */
inline constexpr mtdae::PolicyKind kFetchPolicies[] = {
    mtdae::PolicyKind::Icount, mtdae::PolicyKind::Adaptive,
    mtdae::PolicyKind::Weighted};
inline constexpr mtdae::PolicyKind kIssuePolicies[] = {
    mtdae::PolicyKind::RoundRobin, mtdae::PolicyKind::Split,
    mtdae::PolicyKind::Weighted};

/**
 * core.ns_per_inst[.tN]: Simulator::runMeasure timed on sampled jobs;
 * memory.reject_frac from the same simulators. A thread count the
 * workload has no machine for reads 0.
 */
void measureCore(const Workload &w, Recorder &rec, Metrics &m);

/**
 * policy.*_order_ns.<policy>.tN and policy.state_ns.tN: ThreadState
 * vectors sampled from smt-busy-shaped simulations (Context::policyState)
 * replayed through makeFetchPolicy / makeArbitrationPolicy.
 */
void measurePolicy(std::uint64_t seed, Recorder &rec, Metrics &m);

/**
 * memory.access_ns.{perfect,dram}: the workload's own load/store
 * address streams replayed through a standalone MemorySystem.
 */
void measureMemory(const Workload &w, Recorder &rec, Metrics &m);

/**
 * workload.trace_ns_per_inst.<kernel> for every examples/kernels/<name>.mk
 * kernel and the suite mix, and workload.dsl_compile_ms for the
 * workload's own kernels.
 */
void measureWorkload(const Workload &w, const std::string &root,
                     std::uint64_t seed, Recorder &rec, Metrics &m);

/**
 * snapshot.{save_ms,restore_ms,bytes}: medians over sampled warm-start
 * prefixes. 0 on workloads that run cold (they take no checkpoints).
 */
void measureSnapshot(const Workload &w, Recorder &rec, Metrics &m);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
