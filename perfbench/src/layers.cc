#include "layers.hh"

#include <algorithm>
#include <map>

#include "common/rng.hh"
#include "core/snapshot.hh"
#include "harness/experiment.hh"
#include "isa/opcode.hh"
#include "memory/memory_system.hh"
#include "policy/policy.hh"
#include "workload/spec_fp95.hh"

namespace perfbench {

using namespace mtdae;

namespace {

/** Jobs sampled per thread count for core.ns_per_inst. */
constexpr std::size_t kCoreSamples = 4;
/** ThreadState vectors sampled per thread count, and replay passes. */
constexpr std::size_t kPolicySamples = 256;
constexpr std::size_t kPolicyPasses = 64;
/** Cycles stepped between two ThreadState samples. */
constexpr int kPolicyStride = 5;
/** policyState() rebuilds timed per sample (one clock pair per batch). */
constexpr int kStateBatch = 8;
/** Jobs whose address streams the memory replay uses. */
constexpr std::size_t kMemoryJobs = 4;
/** Memory operations collected per replayed job, and accesses tried
 *  per replayed cycle. */
constexpr std::size_t kMemoryOps = 40000;
constexpr int kReplayWidth = 2;
/** Instructions pulled per kernel by the TraceSource::next loop. */
constexpr std::size_t kTraceInsts = 100000;
/** Warm-start prefixes sampled for the snapshot metrics. */
constexpr std::size_t kSnapshotPrefixes = 6;

/** Sink that keeps measured results from being optimised away. */
volatile std::uint64_t g_sink = 0;

/** Up to @p n elements of @p v, evenly spaced. */
template <typename T>
std::vector<T>
spread(const std::vector<T> &v, std::size_t n)
{
    if (v.size() <= n)
        return v;
    std::vector<T> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(v[i * v.size() / n]);
    return out;
}

/** Runs @p fn inside a span named @p name; returns its duration in ns. */
template <typename Fn>
double
timed(Recorder &rec, const char *name, Fn &&fn)
{
    const std::size_t id = rec.open(name);
    const std::uint64_t t0 = rec.now();
    fn();
    const std::uint64_t t1 = rec.now();
    rec.close(id);
    return double(t1 - t0);
}

std::string
suffix(std::uint32_t threads)
{
    return ".t" + std::to_string(threads);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
measureCore(const Workload &w, Recorder &rec, Metrics &m)
{
    std::map<std::uint32_t, std::vector<std::size_t>> by_threads;
    for (const SimJob &job : w.spec.jobs())
        by_threads[job.cfg.numThreads].push_back(job.index);

    double all_ns = 0, all_insts = 0;
    double rejects = 0, attempts = 0;
    for (const std::uint32_t t : kCoreThreadCounts) {
        double ns = 0, insts = 0;
        for (const std::size_t i : spread(by_threads[t], kCoreSamples)) {
            const SimJob &job = w.spec.jobs()[i];
            Simulator sim(job.cfg,
                          job.sources->make(job.cfg.numThreads, job.cfg.seed));
            sim.runWarmup();
            RunResult r;
            ns += timed(rec, "core.run_measure",
                        [&] { r = sim.runMeasure(job.measureInsts); });
            insts += double(r.insts);
            const MemStats &ms = sim.memory().stats();
            rejects += double(ms.rejects);
            attempts += double(ms.rejects + ms.loadMiss.den +
                               ms.storeMiss.den);
        }
        m["core.ns_per_inst" + suffix(t)] = insts > 0 ? ns / insts : 0;
        all_ns += ns;
        all_insts += insts;
    }
    m["core.ns_per_inst"] = all_insts > 0 ? all_ns / all_insts : 0;
    m["memory.reject_frac"] = attempts > 0 ? rejects / attempts : 0;
}

void
measurePolicy(std::uint64_t seed, Recorder &rec, Metrics &m)
{
    for (const std::uint32_t t : kPolicyThreadCounts) {
        SimConfig cfg = paperConfig(t, true, 16);
        cfg.seed = deriveSeed(seed, t);
        cfg.warmupInsts = 500 * t;
        cfg.threadWeights = {1, 2, 4};
        Simulator sim(cfg, makeSuiteMixFactory()->make(t, cfg.seed));
        sim.runWarmup();

        std::vector<std::vector<ThreadState>> samples;
        std::vector<ThreadState> states(t);
        double state_ns = 0;
        for (std::size_t s = 0; s < kPolicySamples; ++s) {
            for (int c = 0; c < kPolicyStride; ++c)
                sim.step();
            state_ns += timed(rec, "policy.state", [&] {
                for (int b = 0; b < kStateBatch; ++b)
                    for (std::uint32_t i = 0; i < t; ++i)
                        states[i] = sim.context(ThreadId(i))
                                        .policyState(cfg, sim.now());
            });
            samples.push_back(states);
        }
        m["policy.state_ns" + suffix(t)] =
            state_ns / double(kPolicySamples * kStateBatch);

        const double calls = double(kPolicySamples * kPolicyPasses);
        std::vector<ThreadId> out;
        for (const PolicyKind k : kFetchPolicies) {
            SimConfig pc = cfg;
            pc.fetchPolicy = k;
            auto policy = makeFetchPolicy(pc);
            const double ns = timed(rec, "policy.fetch_order", [&] {
                for (std::size_t p = 0; p < kPolicyPasses; ++p)
                    for (const auto &st : samples) {
                        policy->fetchOrder(st, out);
                        policy->endCycle();
                        g_sink = g_sink + out[0];
                    }
            });
            m[std::string("policy.fetch_order_ns.") + policyName(k) +
              suffix(t)] = ns / calls;
        }
        for (const PolicyKind k : kIssuePolicies) {
            SimConfig pc = cfg;
            pc.issuePolicy = k;
            auto policy = makeArbitrationPolicy(pc);
            const double dns = timed(rec, "policy.dispatch_order", [&] {
                for (std::size_t p = 0; p < kPolicyPasses; ++p)
                    for (const auto &st : samples) {
                        policy->dispatchOrder(st, out);
                        policy->endCycle();
                        g_sink = g_sink + out[0];
                    }
            });
            const double ins = timed(rec, "policy.issue_order", [&] {
                for (std::size_t p = 0; p < kPolicyPasses; ++p)
                    for (const auto &st : samples) {
                        policy->issueOrder(p % 2 ? Unit::EP : Unit::AP,
                                           st, out);
                        policy->endCycle();
                        g_sink = g_sink + out[0];
                    }
            });
            const std::string tail = std::string(".") + policyName(k) +
                                     suffix(t);
            m["policy.dispatch_order_ns" + tail] = dns / calls;
            m["policy.issue_order_ns" + tail] = ins / calls;
        }
    }
}

void
measureMemory(const Workload &w, Recorder &rec, Metrics &m)
{
    std::vector<std::size_t> all(w.spec.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    double ns[2] = {0, 0}, accesses[2] = {0, 0};
    for (const std::size_t i : spread(all, kMemoryJobs)) {
        const SimJob &job = w.spec.jobs()[i];
        const std::uint32_t t = job.cfg.numThreads;
        // The job's address stream: its threads' traces interleaved
        // one instruction at a time, memory operations only.
        auto sources = job.sources->make(t, job.cfg.seed);
        std::vector<std::pair<Addr, bool>> ops;
        TraceInst inst;
        for (std::size_t n = 0; ops.size() < kMemoryOps && n < 10 * kMemoryOps;
             ++n)
            if (sources[n % t]->next(inst) && isMem(inst.op))
                ops.emplace_back(inst.addr, isStore(inst.op));

        for (const int dram : {0, 1}) {
            SimConfig cfg = job.cfg;
            cfg.perfectL2 = dram == 0;
            MemorySystem mem(cfg);
            ns[dram] += timed(rec, "memory.replay", [&] {
                Cycle now = 1;
                for (std::size_t k = 0; k < ops.size(); ++now) {
                    mem.beginCycle(now);
                    for (int p = 0; p < kReplayWidth && k < ops.size();
                         ++p) {
                        const auto &[addr, store] = ops[k];
                        const MemResult r = store ? mem.store(addr, now)
                                                  : mem.load(addr, now);
                        if (!r.accepted)
                            break;
                        ++k;
                    }
                }
                g_sink = g_sink + mem.stats().rejects;
            });
            accesses[dram] += double(ops.size());
        }
    }
    m["memory.access_ns.perfect"] = accesses[0] > 0 ? ns[0] / accesses[0] : 0;
    m["memory.access_ns.dram"] = accesses[1] > 0 ? ns[1] / accesses[1] : 0;
}

void
measureWorkload(const Workload &w, const std::string &root,
                std::uint64_t seed, Recorder &rec, Metrics &m)
{
    std::vector<std::pair<std::string, std::unique_ptr<TraceSourceFactory>>>
        factories;
    for (const auto &[stem, text] : loadKernels(root))
        factories.emplace_back(stem, dsl::makeDslFactory(text));
    factories.emplace_back("suite-mix", makeSuiteMixFactory());
    for (const auto &[name, factory] : factories) {
        auto source = std::move(factory->make(1, seed).front());
        TraceInst inst;
        std::size_t got = 0;
        const double ns = timed(rec, "workload.next_loop", [&] {
            while (got < kTraceInsts && source->next(inst))
                ++got;
        });
        g_sink = g_sink + inst.addr;
        m["workload.trace_ns_per_inst." + name] = got ? ns / double(got) : 0;
    }

    double compile_ns = 0;
    for (const DslInput &in : w.dsl)
        compile_ns += timed(rec, "workload.dsl_compile", [&] {
            g_sink = g_sink + dsl::compileDsl(in.text, in.params)
                                  .kernel.ops.size();
        });
    m["workload.dsl_compile_ms"] = compile_ns * 1e-6;
}

void
measureSnapshot(const Workload &w, Recorder &rec, Metrics &m)
{
    std::vector<double> save_ms, restore_ms, bytes;
    if (w.warmStart) {
        // One representative job per prefix, in grid order.
        std::vector<std::size_t> firsts;
        std::map<std::uint64_t, bool> seen;
        for (const SimJob &job : w.spec.jobs())
            if (!seen[job.prefixKey()]) {
                seen[job.prefixKey()] = true;
                firsts.push_back(job.index);
            }
        for (const std::size_t i : spread(firsts, kSnapshotPrefixes)) {
            const SimJob &job = w.spec.jobs()[i];
            const std::uint32_t t = job.cfg.numThreads;
            Simulator warm(job.cfg, job.sources->make(t, job.cfg.seed));
            warm.runWarmup();
            Snapshot snap;
            save_ms.push_back(
                timed(rec, "snapshot.save",
                      [&] { snap = warm.saveSnapshot(); }) *
                1e-6);
            bytes.push_back(double(snap.toBytes().size()));
            Simulator cold(job.cfg, job.sources->make(t, job.cfg.seed));
            restore_ms.push_back(
                timed(rec, "snapshot.restore",
                      [&] { cold.restoreSnapshot(snap); }) *
                1e-6);
        }
    }
    m["snapshot.save_ms"] = median(save_ms);
    m["snapshot.restore_ms"] = median(restore_ms);
    m["snapshot.bytes"] = median(bytes);
}

} // namespace perfbench
