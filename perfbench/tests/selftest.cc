/**
 * @file
 * Self-tests of the benchmark: its inputs are a pure function of the
 * seed, its names follow the BENCHMARK.json rules and match that file,
 * the correctness gate counts a perturbed result as failed, the traced
 * run's factory wrapper changes no prefix key and no result, and
 * warm-sweep really shares warmup prefixes.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "digest.hh"
#include "metrics.hh"
#include "tracing.hh"
#include "workloads.hh"

using namespace mtdae;
using namespace perfbench;

namespace {

const std::string kRoot = PERFBENCH_ROOT;

std::vector<std::uint64_t>
prefixKeys(const Workload &w)
{
    std::vector<std::uint64_t> keys;
    for (const SimJob &job : w.spec.jobs())
        keys.push_back(job.prefixKey());
    return keys;
}

std::vector<std::string>
labels(const Workload &w)
{
    std::vector<std::string> out;
    for (const SimJob &job : w.spec.jobs())
        out.push_back(job.label + " " + std::to_string(job.measureInsts));
    return out;
}

/** The "name" values of BENCHMARK.json's @p section array. */
std::set<std::string>
benchmarkNames(const std::string &section)
{
    std::ifstream in(kRoot + "/BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::size_t begin = text.find("\"" + section + "\"");
    EXPECT_NE(begin, std::string::npos) << section;
    const std::size_t end = text.find(']', begin);
    const std::string body = text.substr(begin, end - begin);
    std::set<std::string> names;
    const std::regex name_re("\"name\": \"([^\"]+)\"");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1]);
    return names;
}

TEST(Workloads, SameSeedSameJobsOtherSeedOtherKeys)
{
    for (const std::string &name : workloadNames()) {
        const Workload a = buildWorkload(name, 7, kRoot);
        const Workload b = buildWorkload(name, 7, kRoot);
        const Workload c = buildWorkload(name, 8, kRoot);
        ASSERT_FALSE(a.spec.empty()) << name;
        EXPECT_EQ(labels(a), labels(b)) << name;
        EXPECT_EQ(prefixKeys(a), prefixKeys(b)) << name;
        EXPECT_EQ(labels(a), labels(c)) << name;
        const auto ka = prefixKeys(a), kc = prefixKeys(c);
        for (std::size_t i = 0; i < ka.size(); ++i)
            EXPECT_NE(ka[i], kc[i]) << name << " job " << i;
    }
}

TEST(Names, FollowTheRulesAndMatchBenchmarkJson)
{
    const std::regex ok("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    std::set<std::string> e2e, layer, workloads;
    for (const MetricDef &d : endToEndMetrics()) {
        EXPECT_TRUE(std::regex_match(d.name, ok)) << d.name;
        EXPECT_TRUE(e2e.insert(d.name).second) << d.name;
    }
    for (const MetricDef &d : perLayerMetrics(kRoot)) {
        EXPECT_TRUE(std::regex_match(d.name, ok)) << d.name;
        EXPECT_TRUE(layer.insert(d.name).second) << d.name;
    }
    for (const std::string &w : workloadNames()) {
        EXPECT_TRUE(std::regex_match(w, ok)) << w;
        workloads.insert(w);
    }
    EXPECT_EQ(e2e, benchmarkNames("end_to_end"));
    EXPECT_EQ(layer, benchmarkNames("per_layer"));
    EXPECT_EQ(workloads, benchmarkNames("workloads"));
}

TEST(Gate, PerturbedOrShortResultCountsAsFailed)
{
    Workload w = buildWorkload("smt-busy", 3, kRoot);
    const std::vector<SimJob> jobs(w.spec.jobs().begin(),
                                   w.spec.jobs().begin() + 1);
    const std::vector<RunResult> good = {jobs[0].run()};
    const std::vector<std::uint64_t> expected = resultDigests(good);
    EXPECT_EQ(countFailures(jobs, good, expected), 0u);
    EXPECT_EQ(countFailures(jobs, good, {}), 0u);

    auto bad = good;
    bad[0].cycles += 1;
    EXPECT_EQ(countFailures(jobs, bad, expected), 1u);
    bad = good;
    bad[0].ap.counts[0] += 1;
    EXPECT_EQ(countFailures(jobs, bad, expected), 1u);
    bad = good;
    bad[0].threadSlowdown.push_back(1.0);
    EXPECT_EQ(countFailures(jobs, bad, expected), 1u);

    // The wall-clock profile is not a simulated statistic.
    bad = good;
    bad[0].profile.totalNs += 1000;
    EXPECT_EQ(countFailures(jobs, bad, expected), 0u);

    bad = good;
    bad[0].insts = jobs[0].measureInsts - 1;
    EXPECT_EQ(countFailures(jobs, bad, {}), 1u);
}

TEST(Gate, RecordedDigestsCoverThePublishedAndHeldOutSeeds)
{
    const DigestTable table = readDigests(kRoot + "/" + kDigestFile);
    for (const std::string &name : workloadNames())
        for (const std::uint64_t seed : kRecordedSeeds) {
            const auto it = table.find({name, seed});
            ASSERT_NE(it, table.end()) << name << " seed " << seed;
            EXPECT_EQ(it->second.size(),
                      buildWorkload(name, seed, kRoot).spec.size())
                << name;
        }
}

TEST(Gate, DigestFileRoundTrips)
{
    const DigestTable table = {{{"smt-busy", 5}, {1, 0xfedcba9876543210ull}},
                               {{"warm-sweep", 6}, {42}}};
    const std::string path = "selftest_digests.txt";
    writeDigests(path, table);
    EXPECT_EQ(readDigests(path), table);
    std::remove(path.c_str());
}

/** Run @p w through JobRunner, recording into @p rec when given. */
std::vector<RunResult>
runGrid(const Workload &w, Recorder *rec)
{
    if (rec)
        rec->beginGrid(w.spec.size());
    const auto results = JobRunner(w.workers, w.warmStart)
                             .run(w.spec, [&](const SimJob &job) {
                                 if (rec)
                                     rec->jobStarted(job.index);
                             });
    if (rec)
        rec->endGrid();
    return results;
}

TEST(Tracing, WrapperKeepsKeysAndResultsAndWarmSweepSharesPrefixes)
{
    Recorder rec;
    const Workload plain = buildWorkload("warm-sweep", 11, kRoot);
    const Workload traced = buildWorkload(
        "warm-sweep", 11, kRoot,
        [&](std::unique_ptr<TraceSourceFactory> f, std::size_t job) {
            return rec.wrap(std::move(f), job);
        });
    EXPECT_EQ(prefixKeys(plain), prefixKeys(traced));
    EXPECT_EQ(labels(plain), labels(traced));

    const auto want = resultDigests(runGrid(plain, nullptr));
    const auto got = resultDigests(runGrid(traced, &rec));
    EXPECT_EQ(want, got);

    std::vector<bool> grouped(traced.spec.size(), true);
    const GridTrace g = rec.summarize(traced.workers, grouped);
    EXPECT_EQ(g.jobs, traced.spec.size());
    EXPECT_GT(g.warmups, 0u);
    EXPECT_LT(g.warmups, g.jobs);
    EXPECT_GT(g.selfCoreS, 0.0);

    // Every span is closed, and children start inside their parent.
    const auto spans = rec.spans();
    for (const Span &s : spans) {
        EXPECT_GE(s.end, s.start) << s.name;
        if (s.parent >= 0) {
            EXPECT_GE(s.start, spans[std::size_t(s.parent)].start) << s.name;
        }
    }
}

} // namespace
