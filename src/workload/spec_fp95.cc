#include "workload/spec_fp95.hh"

#include "common/log.hh"
#include "workload/dsl/interp.hh"

namespace mtdae {

namespace {

/** A built-in model: its name and the text of examples/kernels/<name>.mk. */
struct ModelText
{
    const char *name;
    const char *text;
};

/** Generated at configure time from examples/kernels/, Figure 1 order. */
const ModelText kModels[] = {
#include "spec_fp95_models.inc"
};

/**
 * The ten models, compiled once per process in kModels order. Factories
 * touch this on the thread that constructs them, so the compile never
 * runs inside a sweep worker.
 */
const std::vector<Kernel> &
models()
{
    static const std::vector<Kernel> kernels = [] {
        std::vector<Kernel> k;
        for (const ModelText &m : kModels) {
            try {
                k.push_back(dsl::compileKernel(m.text));
            } catch (const dsl::DslError &e) {
                MTDAE_PANIC("built-in model ", m.name, ".mk: ", e.what());
            }
        }
        return k;
    }();
    return kernels;
}

} // namespace

const std::vector<std::string> &
specFp95Names()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const ModelText &m : kModels)
            n.push_back(m.name);
        return n;
    }();
    return names;
}

std::size_t
specFp95Index(const std::string &name)
{
    const auto &names = specFp95Names();
    std::size_t idx = 0;
    while (idx < names.size() && names[idx] != name)
        ++idx;
    return idx;
}

Addr
workloadRegionBase(ThreadId thread, std::size_t slot)
{
    // Threads are staggered by 8 KB so identical programs on different
    // threads do not collide frame-for-frame.
    return (Addr(thread) << 34) + (Addr(slot + 1) << 28) +
           Addr(thread) * 8 * 1024;
}

Addr
workloadPcBase(std::size_t slot)
{
    return Addr(slot + 1) << 20;
}

std::uint64_t
workloadSourceSeed(std::uint64_t seed, ThreadId thread, std::size_t slot)
{
    return seed * 0x9e3779b97f4a7c15ULL + (std::uint64_t(thread) << 32) +
           slot + 1;
}

Kernel
buildSpecFp95(const std::string &name)
{
    const std::size_t idx = specFp95Index(name);
    if (idx == specFp95Names().size())
        MTDAE_FATAL("unknown SPEC FP95 model: ", name);
    return models()[idx];
}

std::unique_ptr<KernelTraceSource>
makeSpecFp95Source(const std::string &name, ThreadId thread,
                   std::uint64_t seed)
{
    const std::size_t idx = specFp95Index(name);
    MTDAE_ASSERT(idx < specFp95Names().size(), "unknown benchmark ", name);
    return std::make_unique<KernelTraceSource>(
        models()[idx], workloadRegionBase(thread, idx), workloadPcBase(idx),
        workloadSourceSeed(seed, thread, idx));
}

std::unique_ptr<SequenceTraceSource>
makeSuiteMixSource(ThreadId thread, std::uint64_t seed,
                   std::uint64_t segment_insts)
{
    const auto &names = specFp95Names();
    std::vector<std::unique_ptr<KernelTraceSource>> sources;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::size_t idx = (i + thread) % names.size();
        sources.push_back(makeSpecFp95Source(names[idx], thread, seed));
    }
    return std::make_unique<SequenceTraceSource>(std::move(sources),
                                                 segment_insts);
}

namespace {

/** One benchmark on every context (the Figure 1 workload shape). */
class BenchmarkFactory : public TraceSourceFactory
{
  public:
    explicit BenchmarkFactory(std::string bench)
        : bench_(std::move(bench))
    {
        // Reject unknown names at construction, not inside a worker;
        // a bad name is a user error, so fatal() rather than panic.
        if (specFp95Index(bench_) == specFp95Names().size())
            MTDAE_FATAL("unknown benchmark '", bench_, "'");
        models();
    }

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < num_threads; ++t)
            sources.push_back(makeSpecFp95Source(bench_, t, seed));
        return sources;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<BenchmarkFactory>(bench_);
    }

    const std::string &name() const override { return bench_; }

  private:
    std::string bench_;
};

/** The rotated full-suite workload of the paper's Section 3. */
class SuiteMixFactory : public TraceSourceFactory
{
  public:
    explicit SuiteMixFactory(std::uint64_t segment_insts)
        : segmentInsts_(segment_insts)
    {
        models();
    }

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < num_threads; ++t)
            sources.push_back(
                makeSuiteMixSource(t, seed, segmentInsts_));
        return sources;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<SuiteMixFactory>(segmentInsts_);
    }

    const std::string &name() const override { return name_; }

    std::string
    fingerprint() const override
    {
        // The segment length parameterises the trace, so two mixes
        // with different segment sizes must never share a warm-start
        // prefix even though their display names coincide.
        return name_ + "@" + std::to_string(segmentInsts_);
    }

  private:
    std::uint64_t segmentInsts_;
    std::string name_ = "suite-mix";
};

} // namespace

std::unique_ptr<TraceSourceFactory>
makeBenchmarkFactory(const std::string &name)
{
    return std::make_unique<BenchmarkFactory>(name);
}

std::unique_ptr<TraceSourceFactory>
makeSuiteMixFactory(std::uint64_t segment_insts)
{
    return std::make_unique<SuiteMixFactory>(segment_insts);
}

} // namespace mtdae
