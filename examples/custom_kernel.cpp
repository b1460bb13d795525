/**
 * @file
 * Build your own workload with the kernel DSL and measure how well the
 * decoupled machine hides its memory latency.
 *
 * The example constructs two kernels that differ only in how the FP-load
 * address is produced: from induction arithmetic (decouples perfectly)
 * versus from a just-loaded index (the access/execute slip collapses).
 * It then runs both, decoupled and non-decoupled, across the latency
 * sweep — a miniature of the paper's Figure 4 for your own code.
 */

#include <iomanip>
#include <iostream>

#include "common/rng.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workload/kernel.hh"
#include "workload/trace_source.hh"

using namespace mtdae;

namespace {

/**
 * A user-defined workload recipe: the same custom kernel on every
 * hardware context. Implementing TraceSourceFactory is all it takes to
 * run your own code through the parallel sweep engine.
 */
class KernelFactory : public TraceSourceFactory
{
  public:
    explicit KernelFactory(Kernel k) : kernel_(std::move(k)) {}

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < num_threads; ++t)
            sources.push_back(std::make_unique<KernelTraceSource>(
                kernel_, 0x10000000 + (Addr(t) << 34), 0x1000,
                deriveSeed(seed, t)));
        return sources;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<KernelFactory>(kernel_);
    }

    const std::string &name() const override { return kernel_.name; }

  private:
    Kernel kernel_;
};

/** Streaming: addresses come from induction variables only. */
Kernel
makeStreaming()
{
    KernelBuilder b;
    auto src = b.strided(8 * 1024 * 1024, 8);   // 8 MB input
    auto dst = b.strided(8 * 1024 * 1024, 8);   // 8 MB output
    const int x = b.ldf(src);
    const int y = b.fop(Opcode::FMul, x, x);
    const int z = b.fop(Opcode::FAdd, y, x);
    const int acc = b.fpReg();
    b.fopInto(Opcode::FMA, acc, y, z, acc);
    b.stf(dst, z);
    b.advance(src);
    b.advance(dst);
    return b.build("streaming");
}

/** Dependent: every FP-load address comes from an integer load. */
Kernel
makeDependent()
{
    KernelBuilder b;
    auto idx = b.strided(8 * 1024 * 1024, 8);   // index array
    const int i = b.ldi(idx);
    auto table = b.gather(8 * 1024 * 1024, i);  // data table
    const int x = b.ldf(table);
    const int y = b.fop(Opcode::FMul, x, x);
    const int acc = b.fpReg();
    b.fopInto(Opcode::FMA, acc, y, x, acc);
    b.advance(idx);
    return b.build("dependent");
}

void
report(const Kernel &k)
{
    std::cout << "\nkernel '" << k.name << "' ("
              << k.ops.size() << " ops/iteration)\n"
              << "  L2 lat | dec IPC | dec perceived | "
                 "non-dec IPC | non-dec perceived\n";
    SweepSpec spec;
    for (const std::uint32_t lat : paperLatencies()) {
        for (const bool dec : {true, false}) {
            spec.add(paperConfig(1, dec, lat),
                     std::make_unique<KernelFactory>(k), 100000,
                     k.name + (dec ? " dec" : " non-dec") + " L2=" +
                         std::to_string(lat));
        }
    }
    const std::vector<RunResult> runs = JobRunner().run(spec);

    std::size_t j = 0;
    for (const std::uint32_t lat : paperLatencies()) {
        double vals[4];
        int idx = 0;
        for (const bool dec : {true, false}) {
            (void)dec;
            const RunResult &r = runs.at(j++);
            vals[idx++] = r.ipc;
            vals[idx++] = r.perceivedAll;
        }
        std::cout << std::fixed << std::setprecision(2) << "  "
                  << std::setw(6) << lat << " | " << std::setw(7)
                  << vals[0] << " | " << std::setw(13) << vals[1]
                  << " | " << std::setw(11) << vals[2] << " | "
                  << std::setw(14) << vals[3] << "\n";
    }
}

} // namespace

int
main()
{
    std::cout << "Decoupling hides what the AP can run ahead of — and "
                 "nothing else.\n";
    report(makeStreaming());
    report(makeDependent());
    return 0;
}
