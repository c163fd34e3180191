/**
 * @file
 * Hostile-input tests for the three text parsers: parseSpec(), the
 * RunKey line parser and the store-line loader. Each takes seeded
 * mutants of real inputs (bit flips, truncations, a dropped,
 * duplicated or swapped word, a digit run pushed past 2^64, a stray
 * tab or '=') and must either reject a mutant (a fatal, false, or a
 * skipped line) or parse it to a value that formats and re-parses to
 * itself. Each parser gets at least 1000 mutants, and both outcomes
 * must occur; the store loader's accepted lines are its unmutated
 * CRC'd ones, since any changed byte fails the checksum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <coopsim/experiment.hpp>

#include "common/rng.hpp"

using namespace coopsim;

namespace fs = std::filesystem;

namespace
{

bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
           c == '\f';
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** [begin, end) of each maximal run of characters @p in_run accepts. */
template <typename Pred>
std::vector<std::pair<std::size_t, std::size_t>>
runs(const std::string &text, Pred in_run)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (std::size_t i = 0; i < text.size();) {
        if (!in_run(text[i])) {
            ++i;
            continue;
        }
        const std::size_t begin = i;
        while (i < text.size() && in_run(text[i])) {
            ++i;
        }
        spans.emplace_back(begin, i);
    }
    return spans;
}

/** One seeded mutant of @p text. */
std::string
mutate(const std::string &text, Rng &rng)
{
    std::string out = text;
    const auto words = runs(text, [](char c) { return !isSpace(c); });
    const auto digits = runs(text, isDigit);
    const auto pick = [&rng](const auto &spans) {
        return spans[rng.nextBelow(spans.size())];
    };
    const auto word = [&text](std::pair<std::size_t, std::size_t> span) {
        return text.substr(span.first, span.second - span.first);
    };
    switch (rng.nextBelow(8)) {
    case 0: // one to three bit flips
        for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n) {
            out[rng.nextBelow(out.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
        }
        break;
    case 1: // truncation
        out.resize(rng.nextBelow(out.size()));
        break;
    case 2: { // a dropped word
        const auto span = pick(words);
        out.erase(span.first, span.second - span.first);
        break;
    }
    case 3: { // a duplicated word
        const auto span = pick(words);
        out.insert(span.second, " " + word(span));
        break;
    }
    case 4: { // two words swapped
        auto a = pick(words);
        auto b = pick(words);
        if (b.first < a.first) {
            std::swap(a, b);
        }
        if (a != b) {
            out = text.substr(0, a.first) + word(b) +
                  text.substr(a.second, b.first - a.second) + word(a) +
                  text.substr(b.second);
        }
        break;
    }
    case 5: { // a digit run pushed past 2^64
        if (digits.empty()) {
            break;
        }
        const auto span = pick(digits);
        out.replace(span.first, span.second - span.first,
                    rng.nextBool(0.5) ? "18446744073709551616"
                                      : "100000000000000000000");
        break;
    }
    case 6: // a stray tab
        out.insert(rng.nextBelow(out.size() + 1), 1, '\t');
        break;
    default: // a stray '='
        out.insert(rng.nextBelow(out.size() + 1), 1, '=');
        break;
    }
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The parsed spec file specs/@p name.spec at test scale. */
api::ExperimentSpec
testSpec(const std::string &name)
{
    api::ExperimentSpec spec = api::parseSpecFile(
        std::string(COOPSIM_SPEC_DIR) + "/" + name + ".spec");
    spec.scale = "test";
    return spec;
}

/** Every key line test-scale fig05, banked and setop scaling expand
 *  to. */
std::vector<sim::RunKey>
sweepKeys()
{
    api::ExperimentSpec scaling = testSpec("scaling");
    scaling.sampling = {"setop"};
    std::vector<sim::RunKey> keys;
    for (const api::ExperimentSpec &spec :
         {testSpec("fig05"), testSpec("banked"), scaling}) {
        const std::vector<sim::RunKey> expanded = api::expandSpec(spec);
        keys.insert(keys.end(), expanded.begin(), expanded.end());
    }
    return keys;
}

} // namespace

TEST(HostileInput, SpecMutantsAreRejectedOrRoundTrip)
{
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(COOPSIM_SPEC_DIR)) {
        if (entry.path().extension() == ".spec") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_GE(paths.size(), 20u);

    Rng rng(27);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    setThrowOnFatal(true);
    for (std::size_t trial = 0; trial < 60 * paths.size(); ++trial) {
        const std::string mutant =
            mutate(slurp(paths[trial % paths.size()]), rng);
        api::ExperimentSpec spec;
        try {
            spec = api::parseSpec(mutant);
        } catch (const FatalError &) {
            ++rejected;
            continue;
        }
        ++accepted;
        const std::string canonical = api::formatSpec(spec);
        api::ExperimentSpec again;
        ASSERT_NO_THROW(again = api::parseSpec(canonical)) << mutant;
        ASSERT_TRUE(again == spec) << mutant;
        ASSERT_EQ(api::formatSpec(again), canonical) << mutant;
    }
    setThrowOnFatal(false);
    EXPECT_GE(accepted + rejected, 1000u);
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(HostileInput, RunKeyMutantsAreRejectedOrRoundTrip)
{
    std::vector<std::string> lines;
    for (const sim::RunKey &key : sweepKeys()) {
        lines.push_back(api::formatRunKey(key));
    }
    ASSERT_GE(lines.size(), 250u);

    Rng rng(2027);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (std::size_t trial = 0; trial < 4 * lines.size(); ++trial) {
        const std::string mutant = mutate(lines[trial % lines.size()], rng);
        sim::RunKey key;
        if (!api::tryParseRunKey(mutant, key)) {
            ++rejected;
            continue;
        }
        ++accepted;
        const std::string canonical = api::formatRunKey(key);
        sim::RunKey again;
        ASSERT_TRUE(api::tryParseRunKey(canonical, again)) << mutant;
        ASSERT_TRUE(again == key) << mutant;
        ASSERT_EQ(sim::RunKeyHash{}(again), sim::RunKeyHash{}(key));
        ASSERT_EQ(api::formatRunKey(again), canonical) << mutant;
    }
    EXPECT_GE(accepted + rejected, 1000u);
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(HostileInput, StoreLineMutantsAreSkippedOrRoundTrip)
{
    // Real results: an exact, a banked (xor) and a setop-sampled run,
    // each as a CRC'd line (even index) and as a line without the
    // trailer (odd index). No line without a CRC may load, mutated or
    // not.
    const sim::RunKey exact = api::expandSpec(testSpec("fig05")).front();
    sim::RunKey banked = exact;
    banked.slice_hash = llc::SliceHashKind::Xor;
    sim::RunKey sampled = exact;
    sampled.sampling = sampling::Mode::SetOp;
    sim::RunExecutor executor(2);
    std::vector<std::string> lines;
    for (const sim::RunKey &key : {exact, banked, sampled}) {
        const std::string body =
            store::formatStoreLine(key, executor.run(key));
        lines.push_back(store::withCrcSuffix(body));
        lines.push_back(body);
    }

    const fs::path dir =
        fs::path(testing::TempDir()) / "coopsim_hostile_store";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path =
        (dir / ("mutant" + std::string(store::kStoreExtension))).string();

    const auto write = [&path](const std::string &line) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << store::kStoreMagic << "\n" << line << "\n";
    };
    setQuiet(true);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        write(lines[i]);
        store::ResultStore loaded;
        EXPECT_EQ(loaded.loadFile(path), i % 2 == 0 ? 1u : 0u) << lines[i];
    }

    Rng rng(2028);
    std::size_t rejected = 0;
    std::size_t crcless_loaded = 0;
    for (std::size_t trial = 0; trial < 1200; ++trial) {
        const std::string mutant = mutate(lines[trial % lines.size()], rng);
        write(mutant);
        store::ResultStore loaded;
        if (loaded.loadFile(path) == 0) {
            ++rejected;
            continue;
        }
        crcless_loaded += trial % 2;
        for (const sim::RunKey &key : loaded.keys()) {
            const sim::RunResult result = *loaded.find(key);
            const std::string canonical =
                store::formatStoreLine(key, result);
            sim::RunKey key_again;
            sim::RunResult result_again;
            ASSERT_TRUE(store::tryParseStoreLine(canonical, key_again,
                                                 result_again))
                << mutant;
            ASSERT_TRUE(key_again == key) << mutant;
            ASSERT_EQ(store::formatStoreLine(key_again, result_again),
                      canonical)
                << mutant;
        }
    }
    setQuiet(false);
    fs::remove_all(dir);
    EXPECT_EQ(crcless_loaded, 0u);
    EXPECT_GT(rejected, 100u);
}
