/**
 * @file
 * Seeded mutation tests for parsers that read untrusted bytes. Every
 * input must come back as a clean accept or a clean reject with a
 * reason: never a crash, a sanitizer report, or a fatal() exit.
 *
 * The event-log reader (events::parseEventLine / loadEvents) is fed
 * bit flips, truncations at every offset, splices of two records, and
 * escape-sequence edge cases over a corpus of valid span and event
 * lines, most of them produced by the writer itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/events.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace hbbp {
namespace {

/**
 * Valid records: writer output plus hand-written lines (a legacy ms
 * stamp, loose whitespace, escapes, an unknown member). Written under
 * the running test's name, since ctest runs the cases concurrently.
 */
std::vector<std::string>
eventCorpus()
{
    std::string path =
        testing::TempDir() + "/fuzz_corpus_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".jsonl";
    std::remove(path.c_str());
    events::openLog(path, "collector:h1");
    events::emit(events::Level::Info, "push_start",
                 {{"trace", "h1-0-00ff00ff00ff00ff"},
                  {"seq", "0"},
                  {"chunks", "3"}});
    events::emit(events::Level::Info, "query_serve",
                 {{"trace", "query-serve-7"},
                  {"verb", "mix"},
                  {"epoch", "12"},
                  {"cached", "1"}});
    events::emit(events::Level::Warn, "push_retry",
                 {{"attempt", "1"},
                  {"error", "quote\" back\\slash\ttab\nnl\x01\x1f"}});
    events::emit(events::Level::Error, "watchdog_stall", {});
    events::openLog("", "");

    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    std::vector<std::string> corpus;
    for (const std::string &line : split(body.str(), '\n'))
        if (!line.empty())
            corpus.push_back(line);
    corpus.push_back("{\"ts_ms\":1700000000000,\"level\":\"info\","
                     "\"code\":\"relay_flush\",\"node\":\"relay1\","
                     "\"fields\":{\"trace\":\"a\",\"aggregate\":\"b\"}}");
    corpus.push_back(" { \"fields\" : { \"k\" : \"\\u0041\\/\" } , "
                     "\"code\" : \"x\" , \"extra\" : 5 , \"level\" : "
                     "\"warn\" , \"ts_us\" : 0 } ");
    return corpus;
}

/** Parse @p line and require a clean verdict. */
bool
parseCleanly(const std::string &line)
{
    events::Event e;
    std::string why;
    bool ok = events::parseEventLine(line, &e, &why);
    if (ok)
        (void)e.render();
    else
        EXPECT_FALSE(why.empty()) << "no reason for rejecting: " << line;
    return ok;
}

TEST(EventsFuzz, CorpusParsesAndEveryTruncationIsRejected)
{
    std::vector<std::string> corpus = eventCorpus();
    ASSERT_GE(corpus.size(), 6u);
    for (const std::string &line : corpus) {
        ASSERT_TRUE(parseCleanly(line)) << line;
        // A record ends with its closing brace (plus optional
        // whitespace), so every shorter prefix is incomplete.
        size_t end = line.find_last_not_of(' ') + 1;
        for (size_t n = 0; n < end; n++)
            EXPECT_FALSE(parseCleanly(line.substr(0, n)))
                << line.substr(0, n);
    }
}

TEST(EventsFuzz, MutatedLinesParseCleanly)
{
    const std::vector<std::string> corpus = eventCorpus();
    // Escape edge cases, spliced in at random offsets.
    const std::vector<std::string> escapes = {
        "\\", "\\u", "\\u0", "\\u00", "\\u004", "\\u00zz", "\\u0080",
        "\\uffff", "\\ud800", "\\u0000", "\\x", "\\\\", "\\\"", "\"",
        "\\n", "\\/", "}", "{", ",", ":", "99999999999999999999999"};
    size_t accepted = 0, rejected = 0;
    for (uint64_t seed = 1; seed <= 16; seed++) {
        SCOPED_TRACE(format("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Rng rng(seed);
        for (const std::string &line : corpus) {
            auto count = [&](bool ok) { ok ? accepted++ : rejected++; };
            for (int round = 0; round < 256; round++) {
                // Bit flips: one to four in a copy of the record.
                std::string m = line;
                int flips = 1 + static_cast<int>(rng.nextBelow(4));
                for (int f = 0; f < flips; f++)
                    m[rng.nextBelow(m.size())] ^=
                        static_cast<char>(1u << rng.nextBelow(8));
                count(parseCleanly(m));

                // Splice: a prefix of this record onto a suffix of
                // another.
                const std::string &other =
                    corpus[rng.nextBelow(corpus.size())];
                count(parseCleanly(
                    line.substr(0, rng.nextBelow(line.size() + 1)) +
                    other.substr(rng.nextBelow(other.size() + 1))));

                // Escape edge case inserted (or overwriting) anywhere.
                std::string e = line;
                size_t at = rng.nextBelow(e.size() + 1);
                const std::string &esc =
                    escapes[rng.nextBelow(escapes.size())];
                if (rng.nextBelow(2))
                    e.insert(at, esc);
                else
                    e.replace(at, esc.size(), esc);
                count(parseCleanly(e));
            }
        }
    }
    // The mutations reach both verdicts, so neither path is vacuous.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(EventsFuzz, LoaderNamesTheDamagedLine)
{
    std::vector<std::string> corpus = eventCorpus();
    std::string path = testing::TempDir() + "/fuzz_load.jsonl";
    Rng rng(99);
    for (int round = 0; round < 200; round++) {
        std::string body;
        for (const std::string &line : corpus)
            body += line + "\n";
        // Damage one byte anywhere, newlines and NULs included.
        size_t at = rng.nextBelow(body.size());
        body[at] = static_cast<char>(rng.nextBelow(256));
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << body;
        }
        // The lines before the damaged one are intact, so a failed
        // load must blame exactly that line.
        size_t lineno = 1 + static_cast<size_t>(std::count(
                                body.begin(), body.begin() + at, '\n'));
        std::string blamed = format("%s:%zu:", path.c_str(), lineno);
        std::vector<events::Event> evs;
        std::string why;
        if (!events::loadEvents(path, "", 0, &evs, &why)) {
            EXPECT_EQ(why.rfind(blamed, 0), 0u) << why;
        }
    }
}

} // namespace
} // namespace hbbp
