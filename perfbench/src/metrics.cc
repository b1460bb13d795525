#include "metrics.hh"

#include "common/config.hh"
#include "core/profile.hh"
#include "layers.hh"
#include "workloads.hh"

namespace perfbench {

using namespace mtdae;

std::vector<MetricDef>
endToEndMetrics()
{
    return {{"sim_insts_per_cal", "insts/cal"},
            {"setup_s", "s"},
            {"peak_rss_mb", "MiB"}};
}

std::vector<MetricDef>
perLayerMetrics(const std::string &root)
{
    std::vector<MetricDef> m = {
        {"harness.jobs", "count"},
        {"harness.warmups_run", "count"},
        {"harness.busy_frac", "frac"},
        {"harness.prefix_wait_s", "s"},
        {"harness.tail_s", "s"},
        {"harness.self_frac", "frac"},
        {"core.ns_per_inst", "ns"},
    };
    for (const std::uint32_t t : kCoreThreadCounts)
        m.push_back({"core.ns_per_inst.t" + std::to_string(t), "ns"});
    for (std::size_t s = 0; s < kNumStages; ++s)
        m.push_back({std::string("core.stage.") + stageName(Stage(s)) +
                         "_ns_per_cycle",
                     "ns"});
    m.push_back({"core.stage.arbitration_share", "frac"});
    m.push_back({"core.skip_frac", "frac"});
    m.push_back({"core.skip_events", "count"});
    m.push_back({"core.self_frac", "frac"});
    const auto policies = [&](const char *kind, const auto &kinds) {
        for (const PolicyKind p : kinds)
            for (const std::uint32_t t : kPolicyThreadCounts)
                m.push_back({std::string("policy.") + kind + "_order_ns." +
                                 policyName(p) + ".t" + std::to_string(t),
                             "ns"});
    };
    policies("fetch", kFetchPolicies);
    policies("dispatch", kIssuePolicies);
    policies("issue", kIssuePolicies);
    for (const std::uint32_t t : kPolicyThreadCounts)
        m.push_back({"policy.state_ns.t" + std::to_string(t), "ns"});
    for (const MetricDef &d : std::vector<MetricDef>{
             {"memory.access_ns.perfect", "ns"},
             {"memory.access_ns.dram", "ns"},
             {"memory.l1_miss_ratio", "frac"},
             {"memory.l2_miss_ratio", "frac"},
             {"memory.dram_row_hit_ratio", "frac"},
             {"memory.avg_fill_cycles", "cycles"},
             {"memory.reject_frac", "frac"}})
        m.push_back(d);
    for (const auto &[stem, text] : loadKernels(root))
        m.push_back({"workload.trace_ns_per_inst." + stem, "ns"});
    m.push_back({"workload.trace_ns_per_inst.suite-mix", "ns"});
    m.push_back({"workload.dsl_compile_ms", "ms"});
    m.push_back({"workload.self_frac", "frac"});
    m.push_back({"snapshot.save_ms", "ms"});
    m.push_back({"snapshot.restore_ms", "ms"});
    m.push_back({"snapshot.bytes", "bytes"});
    m.push_back({"trace_overhead_frac", "frac"});
    m.push_back({"sim_insts_per_s", "1/s"});
    m.push_back({"calibration_ms", "ms"});
    return m;
}

} // namespace perfbench
