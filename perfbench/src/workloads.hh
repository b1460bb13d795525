/**
 * @file
 * The benchmark's three workloads, each a SweepSpec grid built from a
 * seed. perfbench/README.md explains why each grid was chosen and which
 * layer it is meant to stress.
 *
 *  - smt-busy    suite mix, 4/8/16 threads, perfect L2, one worker, cold
 *  - memory-wall suite mix on L2+DRAM at four DRAM slowdowns, plus the
 *                pointer_chase kernel at three footprints, nproc
 *                workers, cold
 *  - warm-sweep  all examples/kernels/<name>.mk plus the suite mix, warm
 *                start on, several measure budgets per warmup prefix,
 *                nproc workers
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"
#include "workload/dsl/interp.hh"

namespace perfbench {

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Hook applied to every job's trace-source factory as the grid is built;
 * @p job is the index the job gets in the grid. The traced run uses it
 * to wrap factories; the untimed runs leave it empty.
 */
using FactoryWrap = std::function<std::unique_ptr<mtdae::TraceSourceFactory>(
    std::unique_ptr<mtdae::TraceSourceFactory>, std::size_t job)>;

/** One kernel text and the params it was compiled with. */
struct DslInput
{
    std::string text;
    mtdae::dsl::ParamOverrides params;
};

/** A built workload: the grid and how to run it. */
struct Workload
{
    std::string name;
    mtdae::SweepSpec spec;
    /** JobRunner pool size. */
    std::uint32_t workers = 1;
    /** JobRunner warm-start prefix sharing. */
    bool warmStart = false;
    /** Every DSL kernel compiled while building the grid. */
    std::vector<DslInput> dsl;
};

/**
 * Build workload @p name for base seed @p seed. Kernel files are read
 * from @p root/examples/kernels. Throws std::invalid_argument on an
 * unknown name and DslError when a kernel does not compile.
 */
Workload buildWorkload(const std::string &name, std::uint64_t seed,
                       const std::string &root,
                       const FactoryWrap &wrap = {});

/** The examples/kernels/<name>.mk files under @p root as (stem, text), sorted. */
std::vector<std::pair<std::string, std::string>>
loadKernels(const std::string &root);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
