/**
 * @file
 * Tests of the unified `mtdae` experiment CLI: argument parsing, config
 * overrides, error paths and an end-to-end smoke run of the default
 * paper machine.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "harness/cli.hh"

using namespace mtdae;
using cli::Options;

namespace {

/** Parse and expect success. */
Options
parseOk(const std::vector<std::string> &args)
{
    Options opts;
    std::string error;
    const bool ok = cli::parseArgs(args, opts, error);
    EXPECT_TRUE(ok) << error;
    return opts;
}

/** Parse and return the error message (expects failure). */
std::string
parseErr(const std::vector<std::string> &args)
{
    Options opts;
    std::string error;
    EXPECT_FALSE(cli::parseArgs(args, opts, error));
    EXPECT_FALSE(error.empty());
    return error;
}

} // namespace

TEST(CliParse, ExperimentAndDefaults)
{
    const Options opts = parseOk({"fig4"});
    EXPECT_EQ(opts.experiment, "fig4");
    EXPECT_EQ(opts.format, Options::Format::Csv);
    EXPECT_TRUE(opts.scaleQueues);
    EXPECT_FALSE(opts.quiet);
    EXPECT_EQ(opts.insts, 0u);
    EXPECT_TRUE(opts.benchmarks.empty());
    EXPECT_TRUE(opts.overrides.empty());
}

TEST(CliParse, OptionsAndLists)
{
    const Options opts = parseOk({"fig1", "--insts=5000", "--json",
                                  "--quiet", "--no-scale",
                                  "--bench=tomcatv,swim",
                                  "--threads-list=1,2,4",
                                  "--latencies=1,64"});
    EXPECT_EQ(opts.experiment, "fig1");
    EXPECT_EQ(opts.format, Options::Format::Json);
    EXPECT_TRUE(opts.quiet);
    EXPECT_FALSE(opts.scaleQueues);
    EXPECT_EQ(opts.insts, 5000u);
    ASSERT_EQ(opts.benchmarks.size(), 2u);
    EXPECT_EQ(opts.benchmarks[0], "tomcatv");
    EXPECT_EQ(opts.threads, (std::vector<std::uint32_t>{1, 2, 4}));
    EXPECT_EQ(opts.latencies, (std::vector<std::uint32_t>{1, 64}));
}

TEST(CliParse, ConfigOverridesRecordedAndApplied)
{
    const Options opts = parseOk({"run", "--threads=4",
                                  "--decoupled=false", "--mshrs=8",
                                  "--predictor=gshare", "--seed=42"});
    ASSERT_EQ(opts.overrides.size(), 5u);

    SimConfig cfg;
    std::string error;
    ASSERT_TRUE(cli::applyOverrides(cfg, opts, error)) << error;
    EXPECT_EQ(cfg.numThreads, 4u);
    EXPECT_FALSE(cfg.decoupled);
    EXPECT_EQ(cfg.mshrs, 8u);
    EXPECT_EQ(cfg.predictor, SimConfig::PredictorKind::Gshare);
    EXPECT_EQ(cfg.seed, 42u);
}

TEST(CliParse, RejectsUnknownAndMalformedFlags)
{
    EXPECT_NE(parseErr({"run", "--no-such-knob=3"}).find("no-such-knob"),
              std::string::npos);
    EXPECT_NE(parseErr({"run", "--threads=banana"}).find("banana"),
              std::string::npos);
    EXPECT_NE(parseErr({"run", "--frobnicate"}).find("frobnicate"),
              std::string::npos);
    parseErr({"run", "--insts=0"});
    parseErr({"run", "--format=xml"});
    parseErr({"run", "--latencies=1,x"});
    parseErr({"fig1", "extra-positional"});
}

TEST(CliParse, EveryDocumentedKeyIsSettable)
{
    SimConfig cfg;
    std::string error;
    for (const auto &key : cli::overrideKeys()) {
        const std::string value =
            key == "decoupled" || key == "perfect-l2" ||
                    key == "cycle-skip"               ? "true"
            : key == "predictor"                      ? "gshare"
            : key == "fetch-policy" || key == "issue-policy"
                ? "round-robin"
                : "8";
        EXPECT_TRUE(cli::applyOverride(cfg, key, value, error))
            << key << ": " << error;
    }
}

TEST(CliRegistry, PaperExperimentsRegistered)
{
    for (const char *name : {"run", "fig1", "fig3", "fig4", "fig5",
                             "fig4-dram", "ablate-l2", "ablate-iq",
                             "ablate-mshrs"})
        EXPECT_TRUE(cli::isExperiment(name)) << name;
    EXPECT_FALSE(cli::isExperiment("fig2"));
    EXPECT_FALSE(cli::isExperiment(""));
    EXPECT_GE(cli::experiments().size(), 12u);
}

TEST(CliDriver, PerfectL2FlagReproducesFixedLatencyModelByteForByte)
{
    // The paper-model experiments default to the perfect L2, and
    // tests/test_l2.cc pins that model to the pre-finite-L2 timing
    // formula — so flag and default must be byte-identical output.
    const std::vector<std::string> common = {
        "fig4",           "--insts=800",         "--warmup=200",
        "--quiet",        "--json",              "--seed=7",
        "--threads-list=1,2", "--latencies=1,64"};
    std::ostringstream out1, err1, out2, err2;
    ASSERT_EQ(cli::runCli(common, out1, err1), 0);
    auto with_flag = common;
    with_flag.push_back("--perfect-l2");
    ASSERT_EQ(cli::runCli(with_flag, out2, err2), 0);
    EXPECT_EQ(out1.str(), out2.str());
    EXPECT_FALSE(out1.str().empty());
}

TEST(CliDriver, BarePerfectL2FlagParses)
{
    cli::Options opts;
    std::string error;
    ASSERT_TRUE(cli::parseArgs({"run", "--perfect-l2"}, opts, error))
        << error;
    SimConfig cfg;
    cfg.perfectL2 = false;
    ASSERT_TRUE(cli::applyOverrides(cfg, opts, error)) << error;
    EXPECT_TRUE(cfg.perfectL2);
}

TEST(CliDriver, AblateL2RunsOnTheRealBackend)
{
    std::ostringstream out, err;
    const int rc = cli::runCli({"ablate-l2", "--insts=400",
                                "--warmup=100", "--quiet", "--json",
                                "--threads-list=1"},
                               out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("\"experiment\": \"ablate_l2\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"l2_miss\""), std::string::npos);
    // The l2_kb = 0 perfect-L2 reference row rides along.
    EXPECT_NE(out.str().find("\"l2_kb\": 0"), std::string::npos);
}

TEST(CliDriver, Fig4DramSweepsDramSlowdowns)
{
    std::ostringstream out, err;
    const int rc = cli::runCli({"fig4-dram", "--insts=400",
                                "--warmup=100", "--quiet", "--json",
                                "--threads-list=1", "--latencies=1,4"},
                               out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("\"experiment\": \"fig4_dram\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"dram_scale\": 4"), std::string::npos);
    EXPECT_NE(out.str().find("\"avg_fill\""), std::string::npos);
}

TEST(CliDriver, UnknownExperimentFailsWithUsageHint)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"bogus"}, out, err), 2);
    EXPECT_NE(err.str().find("unknown experiment 'bogus'"),
              std::string::npos);
    EXPECT_NE(err.str().find("mtdae list"), std::string::npos);
}

TEST(CliDriver, UnknownBenchmarkFailsCleanly)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"run", "--bench=nonexistent"}, out, err), 2);
    EXPECT_NE(err.str().find("unknown benchmark 'nonexistent'"),
              std::string::npos);
    EXPECT_NE(err.str().find("suite-mix"), std::string::npos);
}

TEST(CliDriver, SuiteMixOnlyValidForRun)
{
    // Only `run` drives the suite mix; fig1 must reject it as a usage
    // error instead of tripping the workload-layer assertion.
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"fig1", "--bench=suite-mix"}, out, err), 2);
    EXPECT_NE(err.str().find("unknown benchmark 'suite-mix'"),
              std::string::npos);
}

TEST(CliParse, RejectsNegativeAndOverflowingNumbers)
{
    parseErr({"run", "--warmup=-1"});
    parseErr({"run", "--insts=-5"});
    parseErr({"run", "--seed=99999999999999999999999"});
    parseErr({"run", "--threads= 4"});
    // A per-job budget (insts x threads, plus warmup) that wraps
    // uint64_t is a usage error at run time, not an empty row.
    for (std::vector<std::string> args :
         {std::vector<std::string>{"run", "--insts=18446744073709551615"},
          {"run", "--insts=9223372036854775808", "--threads-list=2",
           "--warmup=0"},
          {"ablate-checkpoint", "--insts=4611686018427387904",
           "--threads-list=1", "--warmup=0"}}) {
        args.push_back("--json");
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(args, out, err), 2) << args[1];
        EXPECT_NE(err.str().find("does not fit"), std::string::npos);
        EXPECT_TRUE(out.str().empty());
    }
}

TEST(CliDriver, UncreatableOutDirFailsBeforeRunning)
{
    const std::string file = ::testing::TempDir() + "mtdae_not_a_dir";
    std::ofstream(file).put('x');  // a plain file blocks mkdir
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"run", "--insts=500", "--quiet",
                           "--out=" + file + "/sub"},
                          out, err), 2);
    EXPECT_NE(err.str().find("cannot create output directory"),
              std::string::npos);
    std::remove(file.c_str());
}

TEST(CliDriver, OverrideOfASweptAxisIsAUsageError)
{
    // Each job would simulate the override's value under the swept
    // axis's label (2 threads in rows labelled 1 and 4; L2=64 in rows
    // labelled 1 and 16).
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"fig4", "--threads=2",
                                   "--threads-list=1,4", "--latencies=1"},
          {"fig4", "--l2-latency=64", "--latencies=1,16"}}) {
        std::vector<std::string> a = args;
        a.insert(a.end(), {"--insts=2000", "--warmup=200", "--json"});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(a, out, err), 2) << args[1];
        EXPECT_NE(err.str().find("overrides the swept"), std::string::npos)
            << err.str();
        EXPECT_NE(err.str().find("--threads-list"), std::string::npos);
        EXPECT_NE(err.str().find("--latencies"), std::string::npos);
        EXPECT_TRUE(out.str().empty());
    }
    // `run` prints its job's own machine, so overriding it is fine.
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"run", "--bench=tomcatv", "--threads=4",
                           "--l2-latency=64", "--insts=500",
                           "--warmup=100", "--quiet", "--json"},
                          out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("\"threads\": 4, \"decoupled\": 1, "
                             "\"l2_latency\": 64"),
              std::string::npos)
        << out.str();
}

TEST(CliDriver, InvalidConfigIsAUsageError)
{
    // Each override parses but breaks a SimConfig rule; the grid must
    // report it as a usage error, not die in SimConfig::validate().
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"run", "--threads=0"},
          {"run", "--iq-entries=0"},
          {"run", "--mshrs=0"},
          {"run", "--l1-bytes=3"},
          {"run", "--dram-banks=0", "--perfect-l2=false"},
          {"fig4", "--mshrs=0", "--threads-list=1", "--latencies=1"}}) {
        std::vector<std::string> a = args;
        a.insert(a.end(), {"--insts=500", "--warmup=100", "--json"});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(a, out, err), 2) << args[1];
        EXPECT_NE(err.str().find("mtdae: invalid configuration: "),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(err.str().find("fatal:"), std::string::npos) << err.str();
        EXPECT_TRUE(out.str().empty());
    }
}

TEST(CliDriver, KnobsThatWouldWedgeThePipelineAreUsageErrors)
{
    // Each value parses but describes a machine that cannot run: with
    // no graduation slot, L1 port, fetch-buffer entry or unresolved
    // branch allowed, the pipeline never retires an instruction and
    // the deadlock guard would abort at cycle 1000001; a gshare
    // history beyond 32 bits would trip the predictor's constructor
    // (and, at 64, shift out of range).
    const std::pair<std::vector<std::string>, std::string> cases[] = {
        {{"--graduate-width=0"}, "graduateWidth must be >= 1"},
        {{"--l1-ports=0"}, "l1Ports must be >= 1"},
        {{"--fetch-buffer=0"}, "fetchBufferSize must be >= 1"},
        {{"--max-branches=0"}, "maxUnresolvedBranches must be >= 1"},
        {{"--predictor=gshare", "--gshare-bits=40"},
         "gshareHistoryBits must be in 1..32"},
        {{"--predictor=gshare", "--gshare-bits=64"},
         "gshareHistoryBits must be in 1..32"},
        {{"--predictor=gshare", "--gshare-bits=0"},
         "gshareHistoryBits must be in 1..32"},
    };
    for (const auto &[flags, rule] : cases) {
        std::vector<std::string> a = {"run"};
        a.insert(a.end(), flags.begin(), flags.end());
        a.insert(a.end(), {"--insts=500", "--warmup=100", "--json"});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(a, out, err), 2) << flags.back();
        EXPECT_NE(err.str().find("mtdae: invalid configuration: " + rule),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(err.str().find("running"), std::string::npos)
            << err.str();
        EXPECT_TRUE(out.str().empty()) << flags.back();
    }

    // The bound is inclusive, and the bits only matter under gshare.
    for (const std::vector<std::string> &flags :
         {std::vector<std::string>{"--predictor=gshare", "--gshare-bits=32"},
          {"--gshare-bits=64"}}) {
        std::vector<std::string> a = {"run"};
        a.insert(a.end(), flags.begin(), flags.end());
        a.insert(a.end(), {"--insts=500", "--warmup=100", "--quiet",
                           "--json"});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(a, out, err), 0) << err.str();
    }
}

TEST(CliDriver, KnobSweepPointWinsOverAnOverrideOfItsKey)
{
    // A single-knob ablation applies each point after the user's
    // overrides, so overriding the swept key changes no row.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"ablate-mshrs", "--mshrs=8"},
          {"ablate-ports", "--l1-ports=2"},
          {"ablate-width", "--ap-units=3", "--ep-units=3"}}) {
        const std::vector<std::string> common = {
            args[0], "--threads-list=1", "--insts=500", "--warmup=100",
            "--quiet", "--json"};
        std::vector<std::string> a = common;
        a.insert(a.end(), args.begin() + 1, args.end());
        std::ostringstream out1, err1, out2, err2;
        ASSERT_EQ(cli::runCli(common, out1, err1), 0) << err1.str();
        ASSERT_EQ(cli::runCli(a, out2, err2), 0) << err2.str();
        EXPECT_EQ(out1.str(), out2.str()) << args[1];
    }
}

TEST(CliDriver, SweptSizesThatWrap32BitsAreUsageErrors)
{
    // Each swept value times its unit overflows a uint32_t config
    // field: 4194305 KiB would wrap to a 1 KiB L2, a 268435456x DRAM
    // slowdown to a 0-cycle L2 latency. The grid must refuse the value
    // before any job runs, never simulate the wrapped machine.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"ablate-gating", "--latencies=4194305,1",
                                   "--threads-list=2"},
          {"ablate-qos", "--latencies=4194304", "--threads-list=2"},
          {"fig4-dram", "--latencies=268435456", "--threads-list=1"},
          {"fig4-dram", "--latencies=2", "--dram-cas=4000000000",
           "--threads-list=1"}}) {
        std::vector<std::string> a = args;
        a.insert(a.end(), {"--insts=500", "--warmup=100", "--json"});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(a, out, err), 2) << args[1];
        EXPECT_NE(err.str().find("does not fit in 32 bits"),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(err.str().find("running"), std::string::npos)
            << err.str();
        EXPECT_TRUE(out.str().empty());
    }
}

TEST(CliDriver, ScaledRegisterFilesBeyondSixteenBitsAreUsageErrors)
{
    // At L2 latency 16384 the scaled EP register file (65568) would
    // reach register numbers 65535 (kNoPhysReg) and beyond.
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"fig4", "--latencies=16384", "--threads-list=1",
                           "--insts=500", "--warmup=100", "--json"},
                          out, err),
              2);
    EXPECT_NE(err.str().find("physical register numbers are 16 bits"),
              std::string::npos)
        << err.str();
    EXPECT_EQ(err.str().find("running"), std::string::npos) << err.str();
    EXPECT_TRUE(out.str().empty());

    std::ostringstream ok_out, ok_err;
    EXPECT_EQ(cli::runCli({"fig4", "--latencies=16383", "--threads-list=1",
                           "--insts=500", "--warmup=100", "--json"},
                          ok_out, ok_err),
              0)
        << ok_err.str();
}

TEST(CliDriver, BadOverrideIsAUsageError)
{
    // parseArgs vets every override; a library caller that fills
    // Options itself gets a catchable error rather than an exit.
    Options opts;
    opts.experiment = "run";
    opts.overrides = {{"no-such-knob", "1"}};
    std::ostringstream err;
    try {
        (void)cli::runExperiment(opts, err);
        ADD_FAILURE() << "runExperiment accepted a bad override";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad override"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CliDriver, RunBudgetsAndLabelsTheJobsOwnThreadCount)
{
    // --threads=4 and --threads-list=4 describe the same machine: both
    // measure --insts per thread and log a 4-thread label.
    std::string rows[2];
    for (int i = 0; i < 2; ++i) {
        std::ostringstream out, err;
        ASSERT_EQ(cli::runCli({"run", i ? "--threads-list=4" : "--threads=4",
                               "--insts=1000", "--warmup=100", "--json"},
                              out, err),
                  0)
            << err.str();
        EXPECT_NE(err.str().find("running suite-mix 4T L2=16"),
                  std::string::npos)
            << err.str();
        rows[i] = out.str();
    }
    EXPECT_EQ(rows[0], rows[1]);
    const auto at = rows[0].find("\"insts\": ");
    ASSERT_NE(at, std::string::npos) << rows[0];
    EXPECT_GE(std::stoull(rows[0].substr(at + 9)), 4000u) << rows[0];
}

TEST(CliDriver, JsonModeKeepsStdoutParseable)
{
    // Without --quiet the table must go to stderr, leaving stdout as a
    // single JSON document.
    std::ostringstream out, err;
    const int rc = cli::runCli({"run", "--insts=500", "--warmup=100",
                                "--json", "--bench=tomcatv"},
                               out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(out.str().front(), '{');
    EXPECT_NE(err.str().find("== run =="), std::string::npos);
}

TEST(CliDriver, BadFlagFails)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"fig1", "--threads=NaN"}, out, err), 2);
    EXPECT_NE(err.str().find("NaN"), std::string::npos);
}

TEST(CliDriver, NoArgsPrintsUsage)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({}, out, err), 2);
    EXPECT_NE(err.str().find("usage: mtdae"), std::string::npos);
}

TEST(CliDriver, HelpAndListSucceed)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"help"}, out, err), 0);
    EXPECT_NE(out.str().find("usage: mtdae"), std::string::npos);
    EXPECT_NE(out.str().find("--iq-entries"), std::string::npos);
    for (const PolicyKind k : allPolicies())
        EXPECT_NE(out.str().find(policyName(k)), std::string::npos)
            << "help omits policy '" << policyName(k) << "'";

    std::ostringstream out2, err2;
    EXPECT_EQ(cli::runCli({"list"}, out2, err2), 0);
    EXPECT_NE(out2.str().find("fig4"), std::string::npos);
}

TEST(CliDriver, SmokeRunDefaultMachineJson)
{
    // The paper machine `run` defaults to (1T, decoupled, L2=16).
    std::ostringstream out, err;
    const int rc =
        cli::runCli({"run", "--insts=500", "--warmup=100", "--quiet",
                     "--json", "--bench=tomcatv"},
                    out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("\"experiment\": \"run\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"benchmark\": \"tomcatv\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"ipc\": "), std::string::npos);
}

TEST(CliDriver, AdaptiveThresholdBeyondAnyWindowNeverGates)
{
    // No trailing miss window reaches 1000 (or 2^26) average misses,
    // so both thresholds leave the adaptive gate open and must give
    // the same run. 2^26 * 64 wraps a 32-bit gate sum to 0, which
    // would turn the policy into `stall`.
    const std::vector<std::string> common = {
        "run", "--threads=4", "--l2-latency=64", "--fetch-policy=adaptive",
        "--insts=3000", "--quiet", "--json"};
    std::ostringstream out1, err1, out2, err2;
    auto never = common;
    never.push_back("--adaptive-threshold=1000");
    ASSERT_EQ(cli::runCli(never, out1, err1), 0) << err1.str();
    auto huge = common;
    huge.push_back("--adaptive-threshold=67108864");
    ASSERT_EQ(cli::runCli(huge, out2, err2), 0) << err2.str();
    EXPECT_EQ(out1.str(), out2.str());
    EXPECT_FALSE(out1.str().empty());
}

TEST(CliDriver, CsvRunWritesResultFile)
{
    const std::string dir = ::testing::TempDir() + "mtdae_cli_csv";
    std::ostringstream out, err;
    const int rc = cli::runCli({"run", "--insts=500", "--warmup=100",
                                "--quiet", "--out=" + dir},
                               out, err);
    EXPECT_EQ(rc, 0);
    const std::string path = dir + "/run.csv";
    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << path;
    std::string header;
    std::getline(f, header);
    EXPECT_NE(header.find("benchmark,"), std::string::npos);
    std::string row;
    EXPECT_TRUE(std::getline(f, row));
    std::remove(path.c_str());
}

TEST(CliJson, QuotingByNumericness)
{
    cli::ResultSet rs;
    rs.name = "demo";
    rs.header = {"name", "value"};
    rs.rows = {{"tomcatv", "2.5"}, {"a\"b", "x"}};
    std::ostringstream os;
    cli::writeJson(rs, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"name\": \"tomcatv\", \"value\": 2.5"),
              std::string::npos);
    EXPECT_NE(s.find("\"a\\\"b\""), std::string::npos);
    EXPECT_NE(s.find("\"x\""), std::string::npos);
}
