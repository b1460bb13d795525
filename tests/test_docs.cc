/**
 * @file
 * Doc-drift gates: README.md's experiment table and the `mtdae list`
 * registry must name exactly the same experiments, and
 * docs/POLICIES.md's policy-reference table and `allPolicies()` must
 * name exactly the same policies — in both directions each — so a new
 * experiment or policy cannot ship undocumented and the docs cannot
 * advertise one that no longer exists. The same regime covers the
 * kernel DSL: docs/KERNEL_DSL.md's keyword table must equal
 * dsl::dslKeywords() and its corpus table must equal the actual
 * examples/kernels/ directory listing, both directions each. And
 * docs/ARCHITECTURE.md's knob table must list every CLI override key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/cli.hh"
#include "workload/dsl/lexer.hh"

namespace mtdae {
namespace {

std::string
docText(const std::string &relpath)
{
    const std::string path =
        std::string(MTDAE_SOURCE_DIR) + "/" + relpath;
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::string
readmeText()
{
    return docText("README.md");
}

std::string
policiesText()
{
    return docText("docs/POLICIES.md");
}

/**
 * First backtick-quoted token of each table row of the first table
 * after the @p heading line in @p text (the README-experiments /
 * POLICIES-reference table shape).
 */
std::set<std::string>
tableNames(const std::string &text, const std::string &heading)
{
    std::set<std::string> names;
    std::istringstream is(text);
    std::string line;
    bool in_section = false;
    bool in_table = false;
    while (std::getline(is, line)) {
        if (line.rfind(heading, 0) == 0) {
            in_section = true;
            continue;
        }
        if (!in_section)
            continue;
        const bool table_line = line.rfind("|", 0) == 0;
        if (in_table && !table_line)
            break;  // only the section's first table lists names
        if (table_line)
            in_table = true;
        if (line.rfind("| `", 0) != 0)
            continue;  // header / separator row
        const std::size_t open = line.find('`');
        const std::size_t close = line.find('`', open + 1);
        if (close != std::string::npos)
            names.insert(line.substr(open + 1, close - open - 1));
    }
    return names;
}

std::set<std::string>
readmeExperiments()
{
    return tableNames(readmeText(), "### Experiments");
}

std::set<std::string>
policiesTableNames()
{
    return tableNames(policiesText(), "## Policy reference");
}

std::set<std::string>
registeredExperiments()
{
    std::set<std::string> names;
    for (const auto &e : cli::experiments())
        names.insert(e.name);
    return names;
}

TEST(DocDrift, ReadmeHasAnExperimentTable)
{
    EXPECT_FALSE(readmeExperiments().empty())
        << "README.md lost its '### Experiments' table";
}

TEST(DocDrift, EveryRegisteredExperimentIsInTheReadmeTable)
{
    const auto documented = readmeExperiments();
    for (const auto &name : registeredExperiments())
        EXPECT_TRUE(documented.count(name))
            << "'" << name << "' is registered (mtdae list) but "
            << "missing from README.md's experiment table";
}

TEST(DocDrift, EveryReadmeTableRowNamesARegisteredExperiment)
{
    const auto registered = registeredExperiments();
    for (const auto &name : readmeExperiments())
        EXPECT_TRUE(registered.count(name))
            << "README.md documents '" << name
            << "' but mtdae does not register it";
}

TEST(DocDrift, ReadmeDocumentsThePolicyFlags)
{
    // The headline knobs of the arbitration layer must stay findable.
    const std::string text = readmeText();
    EXPECT_NE(text.find("--fetch-policy"), std::string::npos);
    EXPECT_NE(text.find("--issue-policy"), std::string::npos);
    EXPECT_NE(text.find("ablate-policy"), std::string::npos);
}

TEST(DocDrift, ReadmeDocumentsTheGatingLayer)
{
    // The gating tentpole's user surface: the experiment (also locked
    // by the table tests above, since ablate-gating is registered),
    // the policy names, and the cookbook section.
    const std::string text = readmeText();
    EXPECT_NE(text.find("ablate-gating"), std::string::npos);
    EXPECT_NE(text.find("`stall`"), std::string::npos);
    EXPECT_NE(text.find("`flush`"), std::string::npos);
    EXPECT_NE(text.find("`split`"), std::string::npos);
    EXPECT_NE(text.find("Choosing a policy"), std::string::npos);
    EXPECT_NE(text.find("docs/POLICIES.md"), std::string::npos);
}

TEST(DocDrift, ReadmeDocumentsTheQosLayer)
{
    // The QoS tentpole's user surface: the weight and threshold flags,
    // the policy names, and the one benchmark. (ablate-qos itself is
    // locked by the registry <-> experiment-table tests above.)
    const std::string text = readmeText();
    EXPECT_NE(text.find("--thread-weights"), std::string::npos);
    EXPECT_NE(text.find("--adaptive-threshold"), std::string::npos);
    EXPECT_NE(text.find("`weighted`"), std::string::npos);
    EXPECT_NE(text.find("`adaptive`"), std::string::npos);
    EXPECT_NE(text.find("fair_hmean"), std::string::npos);
    EXPECT_NE(text.find("perfbench/run.py"), std::string::npos);
}

/** Every file under CMakeLists.txt and src/, concatenated. */
std::string
buildAndSourceText()
{
    std::string text = docText("CMakeLists.txt");
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(
             std::filesystem::path(MTDAE_SOURCE_DIR) / "src"))
        if (entry.is_regular_file())
            text += docText(
                std::filesystem::relative(entry.path(), MTDAE_SOURCE_DIR)
                    .string());
    return text;
}

TEST(DocDrift, EveryDocumentedBenchOrScriptPathExists)
{
    // A backticked `bench/...`, `scripts/...`, `examples/...` or
    // `BENCH_*.json` path in README.md or docs/*.md must name a file in
    // the tree, and a backticked `MTDAE_*` word must be a CMake option
    // or a name in src/, so the docs cannot point at a deleted binary,
    // script, result file or environment variable. A `<placeholder>`
    // path (`examples/kernels/<name>.mk`) names no one file.
    const std::string code = buildAndSourceText();
    std::vector<std::string> docs = {"README.md"};
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(MTDAE_SOURCE_DIR) / "docs"))
        if (entry.path().extension() == ".md")
            docs.push_back("docs/" + entry.path().filename().string());
    for (const auto &doc : docs) {
        const std::string text = docText(doc);
        for (std::size_t open = text.find('`');
             open != std::string::npos;) {
            const std::size_t close = text.find('`', open + 1);
            if (close == std::string::npos)
                break;
            std::istringstream span(
                text.substr(open + 1, close - open - 1));
            std::string word;
            while (span >> word) {
                const bool path =
                    word.rfind("bench/", 0) == 0 ||
                    word.rfind("scripts/", 0) == 0 ||
                    word.rfind("BENCH_", 0) == 0 ||
                    (word.rfind("examples/", 0) == 0 &&
                     word.find('<') == std::string::npos);
                EXPECT_TRUE(!path || std::filesystem::exists(
                                         std::filesystem::path(
                                             MTDAE_SOURCE_DIR) /
                                         word))
                    << doc << " names `" << word
                    << "`, which does not exist";
                if (word.rfind("MTDAE_", 0) != 0)
                    continue;
                const std::string name = word.substr(
                    0, word.find_first_not_of(
                           "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"));
                EXPECT_NE(code.find(name), std::string::npos)
                    << doc << " names `" << name
                    << "`, which neither CMakeLists.txt nor src/ defines";
            }
            open = text.find('`', close + 1);
        }
    }
}

TEST(DocDrift, PoliciesDocCoversTheQosAndStabilityContract)
{
    // docs/POLICIES.md must keep the QoS section and the veto-stability
    // contract findable: these document the invariants test_qos.cc and
    // the idle fast-forward byte-identity suites enforce.
    const std::string text = policiesText();
    EXPECT_NE(text.find("## QoS weights and fairness metrics"),
              std::string::npos);
    EXPECT_NE(text.find("vetoStable"), std::string::npos);
    EXPECT_NE(text.find("missWindowUniform"), std::string::npos);
    EXPECT_NE(text.find("--adaptive-threshold"), std::string::npos);
    EXPECT_NE(text.find("fair_maxmin"), std::string::npos);
}

TEST(DocDrift, PoliciesDocHasAReferenceTable)
{
    EXPECT_FALSE(policiesTableNames().empty())
        << "docs/POLICIES.md lost its '## Policy reference' table";
}

TEST(DocDrift, EveryRegisteredPolicyIsInThePoliciesTable)
{
    const auto documented = policiesTableNames();
    for (const PolicyKind k : allPolicies())
        EXPECT_TRUE(documented.count(policyName(k)))
            << "policy '" << policyName(k) << "' (allPolicies) is "
            << "missing from docs/POLICIES.md's reference table";
}

TEST(DocDrift, EveryPoliciesTableRowNamesARegisteredPolicy)
{
    std::set<std::string> registered;
    for (const PolicyKind k : allPolicies())
        registered.insert(policyName(k));
    for (const auto &name : policiesTableNames())
        EXPECT_TRUE(registered.count(name))
            << "docs/POLICIES.md documents policy '" << name
            << "' but allPolicies() does not register it";
}

TEST(DocDrift, PoliciesDocCoversTheContracts)
{
    // The sections the policy layer's API guide exists to provide.
    const std::string text = policiesText();
    EXPECT_NE(text.find("mayFetch"), std::string::npos);
    EXPECT_NE(text.find("shouldFlush"), std::string::npos);
    EXPECT_NE(text.find("determinism contract"), std::string::npos);
    EXPECT_NE(text.find("iqOccupancyWindow"), std::string::npos);
    EXPECT_NE(text.find("Writing your own policy"), std::string::npos);
}

TEST(DocDrift, ArchitectureDocTracksTheGatingHooks)
{
    const std::string text = docText("docs/ARCHITECTURE.md");
    EXPECT_NE(text.find("mayFetch"), std::string::npos);
    EXPECT_NE(text.find("shouldFlush"), std::string::npos);
    EXPECT_NE(text.find("`split`"), std::string::npos);
    EXPECT_NE(text.find("ablate-gating"), std::string::npos);
}

/**
 * Every backticked `--flag` in the parentheses of a row's first cell in
 * docs/ARCHITECTURE.md's knob table: "| `field` (`--key`, `--alias`) |".
 */
std::set<std::string>
knobTableFlags()
{
    std::set<std::string> flags;
    std::istringstream is(docText("docs/ARCHITECTURE.md"));
    std::string line;
    bool in_section = false;
    while (std::getline(is, line)) {
        if (line.rfind("## ", 0) == 0) {
            if (in_section)
                break;
            in_section = line.rfind("## Configuration knobs", 0) == 0;
            continue;
        }
        if (!in_section || line.rfind("| `", 0) != 0)
            continue;
        const std::string cell = line.substr(0, line.find('|', 1));
        const std::size_t open = cell.find('(');
        const std::size_t close = cell.rfind(')');
        if (open == std::string::npos || close == std::string::npos)
            continue;
        const std::string keys = cell.substr(open, close - open);
        for (std::size_t at = keys.find("`--"); at != std::string::npos;
             at = keys.find("`--", at + 1)) {
            const std::size_t end = keys.find('`', at + 1);
            if (end != std::string::npos)
                flags.insert(keys.substr(at + 3, end - at - 3));
        }
    }
    return flags;
}

TEST(DocDrift, EveryOverrideKeyIsInTheKnobTable)
{
    const auto documented = knobTableFlags();
    EXPECT_FALSE(documented.empty())
        << "docs/ARCHITECTURE.md lost its '## Configuration knobs' table";
    for (const auto &key : cli::overrideKeys())
        EXPECT_TRUE(documented.count(key))
            << "--" << key << " (cli::overrideKeys) is missing from "
            << "docs/ARCHITECTURE.md's knob table";
}

TEST(DocDrift, EveryKnobTableFlagIsAnOverrideKey)
{
    const auto &keys = cli::overrideKeys();
    for (const auto &flag : knobTableFlags())
        EXPECT_NE(std::find(keys.begin(), keys.end(), flag), keys.end())
            << "docs/ARCHITECTURE.md's knob table documents --" << flag
            << " but cli::overrideKeys() does not accept it";
}

// ---------------------------------------------------------------------
// Kernel-DSL documentation.
// ---------------------------------------------------------------------

std::string
dslDocText()
{
    return docText("docs/KERNEL_DSL.md");
}

std::set<std::string>
corpusKernelFiles()
{
    const std::filesystem::path dir =
        std::filesystem::path(MTDAE_SOURCE_DIR) / "examples" / "kernels";
    std::set<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".mk")
            names.insert(entry.path().stem().string());
    return names;
}

TEST(DocDrift, DslDocHasAKeywordTable)
{
    EXPECT_FALSE(tableNames(dslDocText(), "### Keywords").empty())
        << "docs/KERNEL_DSL.md lost its '### Keywords' table";
}

TEST(DocDrift, EveryDslKeywordIsInTheDocTable)
{
    const auto documented = tableNames(dslDocText(), "### Keywords");
    for (const auto &word : dsl::dslKeywords())
        EXPECT_TRUE(documented.count(word))
            << "DSL keyword '" << word << "' (dslKeywords) is missing "
            << "from docs/KERNEL_DSL.md's keyword table";
}

TEST(DocDrift, EveryDslDocKeywordRowIsAReservedWord)
{
    for (const auto &word : tableNames(dslDocText(), "### Keywords"))
        EXPECT_TRUE(dsl::isDslKeyword(word))
            << "docs/KERNEL_DSL.md documents keyword '" << word
            << "' but the lexer does not reserve it";
}

TEST(DocDrift, DslDocListsTheWholeKernelCorpus)
{
    const auto documented = tableNames(dslDocText(), "## Kernel corpus");
    for (const auto &name : corpusKernelFiles())
        EXPECT_TRUE(documented.count(name))
            << "examples/kernels/" << name << ".mk exists but is "
            << "missing from docs/KERNEL_DSL.md's corpus table";
}

TEST(DocDrift, EveryDslDocCorpusRowHasAKernelFile)
{
    const auto files = corpusKernelFiles();
    EXPECT_FALSE(files.empty());
    for (const auto &name : tableNames(dslDocText(), "## Kernel corpus"))
        EXPECT_TRUE(files.count(name))
            << "docs/KERNEL_DSL.md's corpus table lists '" << name
            << "' but examples/kernels/" << name << ".mk does not exist";
}

TEST(DocDrift, DslDocCoversTheContracts)
{
    // The sections the DSL guide exists to provide: grammar, sweepable
    // params, the determinism promise, and the worked example.
    const std::string text = dslDocText();
    EXPECT_NE(text.find("```ebnf"), std::string::npos);
    EXPECT_NE(text.find("--kernel-file"), std::string::npos);
    EXPECT_NE(text.find("--kernel-param"), std::string::npos);
    EXPECT_NE(text.find("byte-identical"), std::string::npos);
    EXPECT_NE(text.find("Worked example: pointer chase"), std::string::npos);
    EXPECT_NE(text.find("chain("), std::string::npos);
}

TEST(DocDrift, ReadmeDocumentsTheDslSurface)
{
    // ablate-dsl itself is locked by the experiment-table tests above;
    // the flags and the doc pointer must stay findable too.
    const std::string text = readmeText();
    EXPECT_NE(text.find("--kernel-file"), std::string::npos);
    EXPECT_NE(text.find("--kernel-param"), std::string::npos);
    EXPECT_NE(text.find("docs/KERNEL_DSL.md"), std::string::npos);
    EXPECT_NE(text.find("examples/kernels"), std::string::npos);
}

} // namespace
} // namespace mtdae
