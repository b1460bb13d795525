/**
 * @file
 * Every metric the benchmark reports, with its unit. BENCHMARK.json
 * lists the same names; the self-test keeps the two in step.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The --trace 0 metrics. */
std::vector<MetricDef> endToEndMetrics();

/** The --trace 1 metrics; kernel names are read from @p root. */
std::vector<MetricDef> perLayerMetrics(const std::string &root);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
