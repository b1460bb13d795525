#include "digest.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/serialize.hh"

namespace perfbench {

using namespace mtdae;

std::uint64_t
resultDigest(const RunResult &r)
{
    ByteWriter w;
    w.u64(r.cycles);
    w.u64(r.insts);
    for (const double d :
         {r.ipc, r.perceivedFp, r.perceivedInt, r.perceivedAll})
        w.f64(d);
    w.u64(r.fpMisses);
    w.u64(r.intMisses);
    for (const double d :
         {r.loadMissRatio, r.storeMissRatio, r.missRatio, r.mergedRatio,
          r.busUtilization, r.avgFillLatency, r.l2MissRatio,
          r.dramRowHitRatio, r.dramBusUtilization})
        w.f64(d);
    for (const SlotBreakdown *s : {&r.ap, &r.ep})
        for (const std::uint64_t c : s->counts)
            w.u64(c);
    w.f64(r.mispredictRate);
    w.u64(r.cyclesSkipped);
    w.u64(r.skipEvents);
    w.u64(r.threadInsts.size());
    for (const std::uint64_t n : r.threadInsts)
        w.u64(n);
    w.u64(r.threadSlowdown.size());
    for (const double d : r.threadSlowdown)
        w.f64(d);
    for (const double d :
         {r.weightedSpeedup, r.fairnessHmean, r.fairnessMaxMin})
        w.f64(d);
    return fnv1a(w.data());
}

std::vector<std::uint64_t>
resultDigests(const std::vector<RunResult> &results)
{
    std::vector<std::uint64_t> out;
    out.reserve(results.size());
    for (const RunResult &r : results)
        out.push_back(resultDigest(r));
    return out;
}

std::size_t
countFailures(const std::vector<SimJob> &jobs,
              const std::vector<RunResult> &results,
              const std::vector<std::uint64_t> &expected)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const bool short_run = results[i].insts < jobs[i].measureInsts;
        const bool mismatch =
            !expected.empty() &&
            (i >= expected.size() ||
             resultDigest(results[i]) != expected[i]);
        failed += short_run || mismatch;
    }
    return failed;
}

DigestTable
readDigests(const std::string &path)
{
    DigestTable table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string workload, hex;
        std::uint64_t seed = 0;
        std::size_t index = 0;
        if (!(ss >> workload >> seed >> index >> hex))
            throw std::runtime_error("malformed digest line: " + line);
        auto &v = table[{workload, seed}];
        if (index != v.size())
            throw std::runtime_error("digest lines out of order: " + line);
        v.push_back(std::stoull(hex, nullptr, 16));
    }
    return table;
}

void
writeDigests(const std::string &path, const DigestTable &table)
{
    std::ofstream out(path);
    out << "# workload seed job digest -- written by mtbench "
           "--record-digests\n";
    for (const auto &[key, digests] : table)
        for (std::size_t i = 0; i < digests.size(); ++i) {
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(digests[i]));
            out << key.first << ' ' << key.second << ' ' << i << ' '
                << hex << '\n';
        }
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace perfbench
