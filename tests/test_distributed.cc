/**
 * @file
 * Tests for the distributed multi-host aggregation layer: the shard
 * manifest format, export/import integrity, the incremental
 * aggregator (duplicate detection, compatibility rejection, canonical
 * ordering, analysis invalidation) and the drop-directory watcher.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hh"
#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/shard.hh"
#include "fleet/store.hh"
#include "support/logging.hh"
#include "tests/helpers.hh"

namespace fs = std::filesystem;

namespace hbbp {
namespace {

/** A fresh scratch directory under the test temp dir. */
std::string
freshDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/hbbp_dist_" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A small compatible profile whose content varies with @p tag. */
ProfileData
shardProfile(uint64_t tag)
{
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.runtime_class = RuntimeClass::MinutesMany;
    pd.features = {1000 + tag, 2000 + tag, 30 + tag, 40 + tag, 5 + tag};
    pd.pmi_count = 10 + tag;
    pd.mmaps.push_back({"app.bin", 0x400000, 0x1000, false});
    pd.ebs.push_back({0x400000 + tag, tag, Ring::User});
    LbrStackSample stack;
    stack.entries = {{0x400100 + tag, 0x400200 + tag}};
    stack.cycle = tag;
    stack.eventing_ip = 0x400300 + tag;
    pd.lbr.push_back(stack);
    return pd;
}

/** A manifest for @p pd as (host, seq) without touching disk. */
ShardManifest
manifestFor(const ProfileData &pd, const std::string &host,
            uint32_t seq = 0)
{
    ShardManifest m;
    m.host = host;
    m.workload = "test40";
    m.seq = seq;
    m.options_hash = 0x1234;
    m.checksum = pd.payloadChecksum();
    m.profile_file = host + ".hbbp";
    return m;
}

using testutil::readFile;
using testutil::writeFile;

// ---------------------------------------------------------------------------
// Manifest format.
// ---------------------------------------------------------------------------

TEST(Manifest, RenderParseRoundTrips)
{
    ShardManifest m;
    m.host = "rack7-node03";
    m.workload = "kernelbench";
    m.seq = 5;
    m.options_hash = 0xdeadbeefcafef00dULL;
    m.checksum = 0x0123456789abcdefULL;
    m.profile_file = "rack7-node03-5-0123456789abcdef.hbbp";
    m.status = ShardStatus::Complete;

    std::string why;
    std::optional<ShardManifest> parsed =
        ShardManifest::parse(m.render(), &why);
    ASSERT_TRUE(parsed.has_value()) << why;
    EXPECT_EQ(*parsed, m);
}

TEST(Manifest, SaveLoadRoundTrips)
{
    std::string dir = freshDir("manifest_io");
    ShardManifest m = manifestFor(shardProfile(1), "hostA", 2);
    std::string path = dir + "/hostA-2.manifest";
    m.save(path);
    EXPECT_EQ(ShardManifest::load(path), m);
}

TEST(Manifest, ParseRejectsTruncationAtEveryLine)
{
    // Cutting the manifest after any line must produce a "truncated"
    // or missing-field diagnostic, never a half-parsed manifest.
    ShardManifest m = manifestFor(shardProfile(1), "hostA");
    std::string text = m.render();
    std::vector<size_t> cuts;
    for (size_t pos = 0; (pos = text.find('\n', pos)) != std::string::npos;
         pos++)
        cuts.push_back(pos + 1);
    ASSERT_GE(cuts.size(), 4u);
    cuts.pop_back(); // The full text parses, of course.
    for (size_t cut : cuts) {
        std::string why;
        EXPECT_EQ(ShardManifest::parse(text.substr(0, cut), &why),
                  std::nullopt)
            << "prefix of " << cut << " bytes parsed";
        EXPECT_NE(why.find("missing"), std::string::npos)
            << "why: " << why;
    }
    std::string why;
    EXPECT_EQ(ShardManifest::parse("", &why), std::nullopt);
    EXPECT_NE(why.find("truncated"), std::string::npos);
}

TEST(Manifest, ParseRejectsUnknownVersion)
{
    ShardManifest m = manifestFor(shardProfile(1), "hostA");
    std::string text = m.render();
    std::string bumped = text;
    bumped.replace(bumped.find(" 1\n"), 3, " 9\n");
    std::string why;
    EXPECT_EQ(ShardManifest::parse(bumped, &why), std::nullopt);
    EXPECT_NE(why.find("unsupported manifest version 9"),
              std::string::npos)
        << why;
}

TEST(Manifest, ParseRejectsForeignHeader)
{
    std::string why;
    EXPECT_EQ(ShardManifest::parse("some-other-format 1\n", &why),
              std::nullopt);
    EXPECT_NE(why.find("not a shard manifest"), std::string::npos);
}

TEST(Manifest, ParseRejectsMalformedValues)
{
    ShardManifest m = manifestFor(shardProfile(1), "hostA");
    auto mutate = [&](const std::string &from, const std::string &to) {
        std::string text = m.render();
        size_t pos = text.find(from);
        EXPECT_NE(pos, std::string::npos);
        text.replace(pos, from.size(), to);
        std::string why;
        EXPECT_EQ(ShardManifest::parse(text, &why), std::nullopt)
            << "mutation " << to << " parsed";
        return why;
    };
    EXPECT_NE(mutate("seq=0", "seq=abc").find("malformed seq"),
              std::string::npos);
    EXPECT_NE(mutate("checksum=", "checksum=zz\nx=")
                  .find("malformed checksum"),
              std::string::npos);
    // strtoull alone would wrap "-1" or accept an "0x" prefix.
    EXPECT_NE(mutate("checksum=", "checksum=-1\nx=")
                  .find("malformed checksum"),
              std::string::npos);
    EXPECT_NE(mutate("options=", "options=0x12\nx=")
                  .find("malformed options"),
              std::string::npos);
    EXPECT_NE(mutate("status=complete", "status=exploded")
                  .find("unknown shard status"),
              std::string::npos);
}

TEST(Manifest, ParseRejectsNonCanonicalDecimalValues)
{
    // Regression: the decimal parser leaned on strtoull, which skips
    // leading whitespace and accepts '+'/'-' signs (" -1" wraps to
    // 2^64-1) and saturates on overflow — each of these used to slip
    // through as a plausible-looking value.
    ShardManifest m = manifestFor(shardProfile(1), "hostA");
    auto mutate_seq = [&](const std::string &to) {
        std::string text = m.render();
        size_t pos = text.find("seq=0");
        EXPECT_NE(pos, std::string::npos);
        text.replace(pos, 5, "seq=" + to);
        std::string why;
        EXPECT_EQ(ShardManifest::parse(text, &why), std::nullopt)
            << "seq=" << to << " parsed";
        EXPECT_NE(why.find("malformed seq"), std::string::npos)
            << "seq=" << to << ": " << why;
    };
    mutate_seq("-1");
    mutate_seq(" -1");
    mutate_seq("+1");
    mutate_seq(" 7");
    mutate_seq("\t7");
    mutate_seq("18446744073709551616"); // 2^64: saturates in strtoull.

    // The same rules hold for the version field in the header line.
    std::string text = m.render();
    size_t pos = text.find(" 1\n");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 3, " -1\n");
    std::string why;
    EXPECT_EQ(ShardManifest::parse(text, &why), std::nullopt);
}

TEST(Manifest, TryLoadReportsMissingFile)
{
    std::string why;
    EXPECT_EQ(ShardManifest::tryLoad("/nonexistent/x.manifest", &why),
              std::nullopt);
    EXPECT_NE(why.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Export / import.
// ---------------------------------------------------------------------------

TEST(ExportImport, RoundTripsProfileAndMetadata)
{
    std::string dir = freshDir("roundtrip");
    ProfileData pd = shardProfile(7);
    std::string manifest_path =
        exportShard(pd, "hostA", "test40", 3, 0xabcd, dir);

    std::string why;
    std::optional<ImportedShard> shard =
        importShard(manifest_path, &why);
    ASSERT_TRUE(shard.has_value()) << why;
    EXPECT_EQ(shard->profile, pd);
    EXPECT_EQ(shard->manifest.host, "hostA");
    EXPECT_EQ(shard->manifest.workload, "test40");
    EXPECT_EQ(shard->manifest.seq, 3u);
    EXPECT_EQ(shard->manifest.options_hash, 0xabcdULL);
    EXPECT_EQ(shard->manifest.checksum, pd.payloadChecksum());
    EXPECT_EQ(shard->manifest.status, ShardStatus::Complete);
}

TEST(ExportImport, ImportRejectsMissingProfileFile)
{
    std::string dir = freshDir("missing_profile");
    ProfileData pd = shardProfile(1);
    std::string manifest_path =
        exportShard(pd, "hostA", "test40", 0, 1, dir);
    ShardManifest m = ShardManifest::load(manifest_path);
    fs::remove(dir + "/" + m.profile_file);

    std::string why;
    EXPECT_EQ(importShard(manifest_path, &why), std::nullopt);
    EXPECT_NE(why.find("missing profile file"), std::string::npos)
        << why;
}

TEST(ExportImport, ImportRejectsCorruptProfilePayload)
{
    std::string dir = freshDir("corrupt_profile");
    std::string manifest_path =
        exportShard(shardProfile(1), "hostA", "test40", 0, 1, dir);
    ShardManifest m = ShardManifest::load(manifest_path);
    std::string profile_path = dir + "/" + m.profile_file;
    std::string bytes = readFile(profile_path);
    bytes[bytes.size() - 3] ^= 0x40;
    writeFile(profile_path, bytes);

    std::string why;
    EXPECT_EQ(importShard(manifest_path, &why), std::nullopt);
    EXPECT_NE(why.find("checksum mismatch"), std::string::npos) << why;
}

TEST(ExportImport, ImportRejectsManifestProfileDisagreement)
{
    // A stale manifest pointing at a valid (but different) profile:
    // the file's own checksum verifies, the manifest's promise does
    // not.
    std::string dir = freshDir("stale_manifest");
    std::string manifest_path =
        exportShard(shardProfile(1), "hostA", "test40", 0, 1, dir);
    ShardManifest m = ShardManifest::load(manifest_path);
    shardProfile(2).save(dir + "/" + m.profile_file);

    std::string why;
    EXPECT_EQ(importShard(manifest_path, &why), std::nullopt);
    EXPECT_NE(why.find("manifest"), std::string::npos) << why;
    EXPECT_NE(why.find("promises"), std::string::npos) << why;
}

TEST(ExportImport, ImportRejectsPartialShards)
{
    // status=partial marks a shard an exporter is still streaming:
    // importing it would bake truncated data into the aggregate.
    std::string dir = freshDir("partial_shard");
    ProfileData pd = shardProfile(1);
    std::string manifest_path =
        exportShard(pd, "hostA", "test40", 0, 1, dir);
    ShardManifest m = ShardManifest::load(manifest_path);
    m.status = ShardStatus::Partial;
    m.save(manifest_path);

    std::string why;
    EXPECT_EQ(importShard(manifest_path, &why), std::nullopt);
    EXPECT_NE(why.find("status=partial"), std::string::npos) << why;

    IncrementalAggregator agg;
    EXPECT_EQ(watchAndAggregate(agg, dir), 0u);
    EXPECT_EQ(agg.stats().malformed, 1u);
}

TEST(ExportImport, ImportRejectsLegacyProfileVersionWithMigrateHint)
{
    // A shard exported by an old (version-2 format) build: import must
    // reject it with the migration hint, not crash the aggregator.
    std::string dir = freshDir("legacy_shard");
    ProfileData pd = shardProfile(1);
    std::string manifest_path =
        exportShard(pd, "hostA", "test40", 0, 1, dir);
    ShardManifest m = ShardManifest::load(manifest_path);
    std::string profile_path = dir + "/" + m.profile_file;
    std::string bytes = readFile(profile_path);
    uint32_t v2 = 2;
    std::string legacy = bytes.substr(0, 8);
    legacy.append(reinterpret_cast<const char *>(&v2), sizeof(v2));
    legacy.append(bytes.substr(28));
    writeFile(profile_path, legacy);

    std::string why;
    EXPECT_EQ(importShard(manifest_path, &why), std::nullopt);
    EXPECT_NE(why.find("version 2"), std::string::npos) << why;
    EXPECT_NE(why.find("hbbp-tool migrate"), std::string::npos) << why;
}

using ExportDeath = ::testing::Test;

TEST(ExportDeath, RejectsInvalidHostIds)
{
    std::string dir = freshDir("bad_host");
    EXPECT_EXIT(exportShard(shardProfile(1), "", "w", 0, 1, dir),
                ::testing::ExitedWithCode(1), "invalid host id");
    EXPECT_EXIT(exportShard(shardProfile(1), "a b", "w", 0, 1, dir),
                ::testing::ExitedWithCode(1), "invalid host id");
    EXPECT_EXIT(exportShard(shardProfile(1), "a/b", "w", 0, 1, dir),
                ::testing::ExitedWithCode(1), "invalid host id");
}

// ---------------------------------------------------------------------------
// Incremental aggregator.
// ---------------------------------------------------------------------------

TEST(Aggregator, ArrivalOrderDoesNotChangeTheAggregate)
{
    ProfileData a = shardProfile(1), b = shardProfile(2),
                c = shardProfile(3);
    ShardManifest ma = manifestFor(a, "hostA"),
                  mb = manifestFor(b, "hostB"),
                  mc = manifestFor(c, "hostC");

    IncrementalAggregator fwd, rev, mid;
    ASSERT_TRUE(fwd.addShard(ma, a));
    ASSERT_TRUE(fwd.addShard(mb, b));
    ASSERT_TRUE(fwd.addShard(mc, c));
    ASSERT_TRUE(rev.addShard(mc, c));
    ASSERT_TRUE(rev.addShard(mb, b));
    ASSERT_TRUE(rev.addShard(ma, a));
    ASSERT_TRUE(mid.addShard(mb, b));
    ASSERT_TRUE(mid.addShard(ma, a));
    ASSERT_TRUE(mid.addShard(mc, c));

    // Canonical order is host order — identical to a one-shot merge in
    // sorted host order, whatever order shards arrived in.
    ProfileData reference = mergeProfiles({a, b, c});
    EXPECT_EQ(fwd.aggregate(), reference);
    EXPECT_EQ(rev.aggregate(), reference);
    EXPECT_EQ(mid.aggregate(), reference);
}

TEST(Aggregator, OutOfOrderSequencesWithinAHostFoldCanonically)
{
    ProfileData s0 = shardProfile(10), s1 = shardProfile(11),
                s2 = shardProfile(12);
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(s2, "hostA", 2), s2));
    ASSERT_TRUE(agg.addShard(manifestFor(s0, "hostA", 0), s0));
    ASSERT_TRUE(agg.addShard(manifestFor(s1, "hostA", 1), s1));
    EXPECT_EQ(agg.aggregate(), mergeProfiles({s0, s1, s2}));
    EXPECT_EQ(agg.hostCount(), 1u);
    EXPECT_EQ(agg.shardCount(), 3u);
}

TEST(Aggregator, RejectsDuplicateChecksums)
{
    ProfileData a = shardProfile(1);
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(a, "hostA"), a));

    // The same payload again — even claiming another host — is a
    // duplicate delivery, not new data.
    std::string why;
    EXPECT_FALSE(agg.addShard(manifestFor(a, "hostB"), a, &why));
    EXPECT_NE(why.find("duplicate shard"), std::string::npos) << why;
    EXPECT_EQ(agg.stats().accepted, 1u);
    EXPECT_EQ(agg.stats().duplicates, 1u);
    EXPECT_EQ(agg.aggregate(), a);
}

TEST(Aggregator, RejectsConflictingSequenceSlots)
{
    ProfileData a = shardProfile(1), b = shardProfile(2);
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(a, "hostA", 0), a));
    std::string why;
    EXPECT_FALSE(agg.addShard(manifestFor(b, "hostA", 0), b, &why));
    EXPECT_NE(why.find("already delivered a different shard"),
              std::string::npos)
        << why;
    EXPECT_EQ(agg.stats().duplicates, 1u);
}

TEST(Aggregator, RejectsIncompatibleCollections)
{
    ProfileData a = shardProfile(1);
    ProfileData bad_period = shardProfile(2);
    bad_period.sim_periods.ebs = 997;
    ProfileData bad_class = shardProfile(3);
    bad_class.runtime_class = RuntimeClass::Seconds;

    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(a, "hostA"), a));

    std::string why;
    EXPECT_FALSE(
        agg.addShard(manifestFor(bad_period, "hostB"), bad_period, &why));
    EXPECT_NE(why.find("incompatible shard"), std::string::npos) << why;
    EXPECT_NE(why.find("sampling periods"), std::string::npos) << why;

    EXPECT_FALSE(
        agg.addShard(manifestFor(bad_class, "hostC"), bad_class, &why));
    EXPECT_NE(why.find("runtime class"), std::string::npos) << why;

    EXPECT_EQ(agg.stats().accepted, 1u);
    EXPECT_EQ(agg.stats().incompatible, 2u);
    // Rejected shards must not have poisoned the aggregate.
    EXPECT_EQ(agg.aggregate(), a);
}

TEST(Aggregator, RejectsMixedWorkloads)
{
    // Same periods and runtime class, different workload: folding the
    // samples together would silently bias every estimate against the
    // one program the aggregate is analyzed with.
    ProfileData a = shardProfile(1), b = shardProfile(2);
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(a, "hostA"), a));

    ShardManifest mb = manifestFor(b, "hostB");
    mb.workload = "kernelbench";
    std::string why;
    EXPECT_FALSE(agg.addShard(mb, b, &why));
    EXPECT_NE(why.find("workload 'kernelbench'"), std::string::npos)
        << why;
    EXPECT_EQ(agg.stats().incompatible, 1u);
    EXPECT_EQ(agg.aggregate(), a);
}

TEST(Aggregator, RejectsConflictingModulePlacements)
{
    // mergeInto() fatal()s on module map conflicts; the aggregator
    // must catch them at the acceptance gate instead, so one bad
    // shard cannot take down a long-running aggregation process.
    ProfileData a = shardProfile(1), b = shardProfile(2);
    b.mmaps[0].base = 0x500000;
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(a, "hostA"), a));

    std::string why;
    EXPECT_FALSE(agg.addShard(manifestFor(b, "hostB"), b, &why));
    EXPECT_NE(why.find("module 'app.bin'"), std::string::npos) << why;
    EXPECT_EQ(agg.stats().incompatible, 1u);
    EXPECT_EQ(agg.aggregate(), a);
}

TEST(Aggregator, RejectsOverlappingModuleRanges)
{
    // A differently *named* module whose address range overlaps an
    // accepted one is the same layout conflict — it used to slip past
    // the same-name-only gate and silently cross-attribute samples.
    ProfileData a = shardProfile(1), b = shardProfile(2);
    b.mmaps[0] = {"other.bin", 0x400800, 0x1000, false};
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(a, "hostA"), a));

    std::string why;
    EXPECT_FALSE(agg.addShard(manifestFor(b, "hostB"), b, &why));
    EXPECT_NE(why.find("overlap"), std::string::npos) << why;
    EXPECT_EQ(agg.stats().incompatible, 1u);
    EXPECT_EQ(agg.aggregate(), a);
}

TEST(Aggregator, AggregateIsCachedUntilInvalidated)
{
    ProfileData a = shardProfile(1), b = shardProfile(2);
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(manifestFor(a, "hostA"), a));
    agg.aggregate();
    agg.aggregate();
    EXPECT_EQ(agg.stats().rebuilds, 1u);

    ASSERT_TRUE(agg.addShard(manifestFor(b, "hostB"), b));
    agg.aggregate();
    agg.aggregate();
    EXPECT_EQ(agg.stats().rebuilds, 2u);
}

using AggregatorDeath = ::testing::Test;

TEST(AggregatorDeath, EmptyAggregateDies)
{
    IncrementalAggregator agg;
    EXPECT_EXIT(agg.aggregate(), ::testing::ExitedWithCode(1),
                "no shards");
}

/**
 * The invalidation contract: analysis recomputes exactly once per
 * newly arrived shard — repeated queries between arrivals are cache
 * hits, and every arrival invalidates exactly once.
 */
TEST(Aggregator, ReanalysisTriggersExactlyOncePerArrivedShard)
{
    auto lp = testutil::makeLoopProgram(20'000);
    CollectorConfig cc;
    cc.runtime_class = RuntimeClass::Seconds;
    cc.max_instructions = 300'000;
    cc.seed = 7;
    std::vector<ProfileData> shards =
        collectShards(*lp.program, MachineConfig{}, cc, ShardPlan{3, 1});
    ASSERT_EQ(shards.size(), 3u);

    Analyzer analyzer;
    IncrementalAggregator agg;
    for (uint32_t i = 0; i < 3; i++) {
        ASSERT_TRUE(agg.addShard(
            manifestFor(shards[i], format("host%u", i)), shards[i]));
        agg.analyzeWith(*lp.program, analyzer);
        // Cache hits: no new shard arrived, so no recomputation.
        agg.analyzeWith(*lp.program, analyzer);
        agg.analyzeWith(*lp.program, analyzer);
        EXPECT_EQ(agg.stats().analyses, i + 1u);
    }

    // A rejected duplicate must NOT invalidate the analysis.
    agg.addShard(manifestFor(shards[0], "late-host"), shards[0]);
    agg.analyzeWith(*lp.program, analyzer);
    EXPECT_EQ(agg.stats().analyses, 3u);
    EXPECT_EQ(agg.stats().duplicates, 1u);

    // And the incremental mix equals analyzing the one-shot merge.
    Counter<Mnemonic> reference =
        analyzer.analyze(*lp.program, mergeProfiles(shards))
            .hbbpMix()
            .mnemonicCounts();
    const Counter<Mnemonic> &got =
        agg.analyzeWith(*lp.program, analyzer);
    EXPECT_EQ(got.size(), reference.size());
    for (const auto &[mn, count] : reference.items())
        EXPECT_DOUBLE_EQ(got.get(mn), count) << name(mn);
}

// ---------------------------------------------------------------------------
// Drop-directory watcher.
// ---------------------------------------------------------------------------

TEST(Watch, ImportsEverythingAlreadyPresent)
{
    std::string dir = freshDir("watch_present");
    ProfileData a = shardProfile(1), b = shardProfile(2),
                c = shardProfile(3);
    exportShard(b, "hostB", "test40", 0, 1, dir);
    exportShard(c, "hostC", "test40", 0, 1, dir);
    exportShard(a, "hostA", "test40", 0, 1, dir);

    IncrementalAggregator agg;
    EXPECT_EQ(watchAndAggregate(agg, dir), 3u);
    EXPECT_EQ(agg.aggregate(), mergeProfiles({a, b, c}));
}

TEST(Watch, SkipsMalformedManifestsAndCountsThem)
{
    std::string dir = freshDir("watch_malformed");
    ProfileData a = shardProfile(1);
    exportShard(a, "hostA", "test40", 0, 1, dir);
    writeFile(dir + "/junk.manifest", "not a manifest\n");
    writeFile(dir + "/halfway.manifest",
              "hbbp-shard-manifest 1\nhost=x\n");

    IncrementalAggregator agg;
    EXPECT_EQ(watchAndAggregate(agg, dir), 1u);
    EXPECT_EQ(agg.stats().accepted, 1u);
    EXPECT_EQ(agg.stats().malformed, 2u);
    EXPECT_EQ(agg.aggregate(), a);
}

TEST(Watch, MixedVersionShardSetsImportOnlyCurrentFormat)
{
    // One good shard plus one whose profile is the legacy version-2
    // format: the watcher must fold the good one and reject the
    // legacy one without dying.
    std::string dir = freshDir("watch_mixed");
    ProfileData good = shardProfile(1), old = shardProfile(2);
    exportShard(good, "hostA", "test40", 0, 1, dir);
    std::string old_manifest =
        exportShard(old, "hostB", "test40", 0, 1, dir);
    ShardManifest m = ShardManifest::load(old_manifest);
    std::string profile_path = dir + "/" + m.profile_file;
    std::string bytes = readFile(profile_path);
    uint32_t v2 = 2;
    std::string legacy = bytes.substr(0, 8);
    legacy.append(reinterpret_cast<const char *>(&v2), sizeof(v2));
    legacy.append(bytes.substr(28));
    writeFile(profile_path, legacy);

    IncrementalAggregator agg;
    EXPECT_EQ(watchAndAggregate(agg, dir), 1u);
    EXPECT_EQ(agg.stats().accepted, 1u);
    EXPECT_EQ(agg.stats().malformed, 1u);
    EXPECT_EQ(agg.aggregate(), good);
}

TEST(Watch, SlowButSteadyTrickleOutlivesTheIdleTimeout)
{
    // Regression: --timeout-ms used to be a deadline from watch start,
    // so a trickle of shards each arriving well within the timeout
    // would still be aborted mid-stream once the *total* run outlasted
    // it. It is an idle timeout now: every accepted import resets it.
    std::string dir = freshDir("watch_trickle");
    constexpr int kShards = 4;
    constexpr int kGapMs = 350;

    std::thread trickle([&] {
        for (int i = 0; i < kShards; i++) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kGapMs));
            exportShard(shardProfile(100 + i), format("host%d", i),
                        "test40", 0, 1, dir);
        }
    });

    IncrementalAggregator agg;
    WatchOptions wo;
    wo.expect = kShards;
    // Under the old start-measured semantics this watch dies at
    // 1200 ms with about three of the four shards (the last arrives
    // around 1400 ms); with idle semantics every 350 ms arrival
    // resets the clock and the full stream lands. The 850 ms slack
    // between gap and timeout keeps loaded CI runners (TSan, -j)
    // from turning an overslept exporter into a flake.
    wo.timeout_ms = 1200;
    wo.poll_ms = 20;
    size_t accepted = watchAndAggregate(agg, dir, wo);
    trickle.join();
    EXPECT_EQ(accepted, static_cast<size_t>(kShards));
    EXPECT_EQ(agg.stats().accepted, static_cast<size_t>(kShards));
}

TEST(Watch, TimesOutGracefullyWhenShardsNeverArrive)
{
    std::string dir = freshDir("watch_timeout");
    exportShard(shardProfile(1), "hostA", "test40", 0, 1, dir);

    IncrementalAggregator agg;
    WatchOptions wo;
    wo.expect = 2;
    wo.timeout_ms = 250;
    wo.poll_ms = 20;
    EXPECT_EQ(watchAndAggregate(agg, dir, wo), 1u);
    EXPECT_EQ(agg.stats().accepted, 1u);
}

TEST(Watch, PicksUpShardsThatArriveMidWatch)
{
    std::string dir = freshDir("watch_late");
    ProfileData a = shardProfile(1), b = shardProfile(2);
    exportShard(a, "hostA", "test40", 0, 1, dir);

    std::thread late_exporter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        exportShard(b, "hostB", "test40", 0, 1, dir);
    });

    IncrementalAggregator agg;
    WatchOptions wo;
    wo.expect = 2;
    wo.timeout_ms = 10'000;
    wo.poll_ms = 20;
    size_t accepted = watchAndAggregate(agg, dir, wo);
    late_exporter.join();
    EXPECT_EQ(accepted, 2u);
    EXPECT_EQ(agg.aggregate(), mergeProfiles({a, b}));
}

TEST(Watch, AcceptCallbackSeesEveryAcceptedManifest)
{
    std::string dir = freshDir("watch_callback");
    exportShard(shardProfile(1), "hostA", "test40", 0, 1, dir);
    exportShard(shardProfile(2), "hostB", "test40", 0, 1, dir);

    std::vector<std::string> hosts;
    IncrementalAggregator agg;
    WatchOptions wo;
    wo.on_accept = [&](const ShardManifest &m) {
        hosts.push_back(m.host);
    };
    EXPECT_EQ(watchAndAggregate(agg, dir, wo), 2u);
    // Scan order is sorted, so acceptance order is deterministic.
    ASSERT_EQ(hosts.size(), 2u);
    EXPECT_EQ(hosts[0], "hostA");
    EXPECT_EQ(hosts[1], "hostB");
}

// ---------------------------------------------------------------------------
// Central aggregation store (checksum-addressed shard deposits).
// ---------------------------------------------------------------------------

TEST(Store, ChecksumAddressedShardsRoundTrip)
{
    std::string dir = freshDir("central_store");
    ProfileStore store(dir);
    ProfileData pd = shardProfile(5);
    uint64_t checksum = pd.payloadChecksum();

    EXPECT_FALSE(store.containsChecksum(checksum));
    store.insertByChecksum(checksum, pd);
    EXPECT_TRUE(store.containsChecksum(checksum));
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_EQ(ProfileData::load(store.pathForChecksum(checksum)), pd);

    // Checksum-addressed shards never collide with key-addressed
    // collection cache entries.
    ProfileKey key{"test40", CollectorConfig{}, 1, MachineConfig{}};
    EXPECT_NE(store.pathForChecksum(key.hash()), store.pathFor(key));
}

TEST(Store, DepositBytesCopiesVerifiedBytes)
{
    std::string dir = freshDir("deposit");
    ProfileStore store(dir + "/store");
    ProfileData pd = shardProfile(6);
    std::string src = dir + "/src.hbbp";
    pd.save(src);

    uint64_t checksum = pd.payloadChecksum();
    store.depositBytesByChecksum(checksum, readFile(src));
    EXPECT_TRUE(store.containsChecksum(checksum));
    EXPECT_EQ(readFile(store.pathForChecksum(checksum)), readFile(src));
}

TEST(Store, UnreadableEntriesAreCacheMisses)
{
    // A store carried across a format bump (or a corrupted entry) must
    // heal by re-collection, never fatal() the collector that touches
    // it.
    std::string dir = freshDir("stale_store");
    ProfileStore store(dir);
    auto lp = testutil::makeLoopProgram(20'000);
    CollectorConfig cc;
    cc.runtime_class = RuntimeClass::Seconds;
    cc.max_instructions = 100'000;
    cc.seed = 7;
    ProfileKey key{"loop", cc, 1, MachineConfig{}};

    writeFile(store.pathFor(key), "HBBPPROFxxxx not really");
    EXPECT_EQ(store.lookup(key), std::nullopt);

    // getOrCollect treats it as a miss, re-collects and overwrites.
    bool hit = true;
    ProfileData pd = store.getOrCollect(key, *lp.program, 1, &hit);
    EXPECT_FALSE(hit);
    std::optional<ProfileData> healed = store.lookup(key);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(*healed, pd);
}

TEST(Store, UnreadableEntriesAreEvictedNotLeaked)
{
    // Regression: unreadable entries were treated as misses but the
    // dead files stayed behind — after a format bump the entire old
    // store leaked on disk forever (nothing would ever overwrite
    // entries whose keys are no longer requested). A failed load now
    // unlinks the entry.
    std::string dir = freshDir("evict_store");
    // The stale files below are written moments before the lookup;
    // disable the heal grace window that would (correctly) treat
    // such young entries as a racing depositor's work.
    ProfileStore::Options opts;
    opts.heal_grace_s = 0;
    ProfileStore store(dir, opts);
    CollectorConfig cc;
    ProfileKey stale_key{"loop", cc, 1, MachineConfig{}};
    cc.seed = 99;
    ProfileKey other_stale{"loop2", cc, 1, MachineConfig{}};

    writeFile(store.pathFor(stale_key), "HBBPPROFxxxx not really");
    writeFile(store.pathFor(other_stale), "legacy junk");
    // Out-of-band writes bypass the index; rebuild adopts them (the
    // unreadable bytes still occupy disk, which is the point here).
    store.rebuildIndex();
    EXPECT_EQ(store.entryCount(), 2u);

    EXPECT_EQ(store.lookup(stale_key), std::nullopt);
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_FALSE(store.contains(stale_key));

    EXPECT_EQ(store.lookup(other_stale), std::nullopt);
    EXPECT_EQ(store.entryCount(), 0u);

    // A healthy entry is not collateral damage.
    ProfileData pd = shardProfile(1);
    store.insert(stale_key, pd);
    EXPECT_EQ(store.lookup(stale_key), pd);
    EXPECT_EQ(store.entryCount(), 1u);
}

} // namespace
} // namespace hbbp
