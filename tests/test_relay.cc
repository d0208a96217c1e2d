/**
 * @file
 * Tests for hierarchical relay aggregation: the version-2 aggregate
 * manifest (level + covered hosts), the per-host supersede fold that
 * keeps any fan-in tree byte-identical to flat aggregation, the
 * FleetNode itself (flush cadence, upstream buffering and retry,
 * crash/restart resume, orphan forwarding), and the incremental state
 * journal that replaces the O(aggregate) per-accept checkpoint.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/node.hh"
#include "fleet/query.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"
#include "support/bytes.hh"
#include "support/telemetry.hh"

namespace fs = std::filesystem;

namespace hbbp {
namespace {

/** A fresh scratch directory under the test temp dir. */
std::string
freshDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/hbbp_relay_" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A small compatible profile whose content varies with @p tag. */
ProfileData
leafProfile(uint64_t tag)
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

/** One leaf shard, ready for addShard() or a socket push. */
struct LeafShard
{
    ShardManifest manifest;
    ProfileData profile;
    std::string bytes;
};

LeafShard
makeLeaf(const std::string &host, uint32_t seq, uint64_t tag)
{
    LeafShard leaf;
    leaf.profile = leafProfile(tag);
    leaf.manifest.host = host;
    leaf.manifest.workload = "test40";
    leaf.manifest.seq = seq;
    leaf.manifest.options_hash = 0x1234;
    leaf.bytes = leaf.profile.serialize(&leaf.manifest.checksum);
    leaf.manifest.profile_file =
        host + "-" + std::to_string(seq) + ".hbbp";
    return leaf;
}

/** Flat reference: every leaf folded into one aggregator directly. */
std::string
flatAggregateBytes(const std::vector<LeafShard> &leaves)
{
    IncrementalAggregator agg;
    for (const LeafShard &leaf : leaves) {
        std::string why;
        EXPECT_TRUE(agg.addShard(leaf.manifest, leaf.profile, &why))
            << why;
    }
    return agg.aggregate().serialize();
}

/** An aggregate shard built from @p agg's exportPartials() snapshot. */
struct AggregateShard
{
    ShardManifest manifest;
    std::vector<std::string> bytes;
    std::vector<ProfileData> partials;
};

AggregateShard
snapshotAggregate(const IncrementalAggregator &agg,
                  const std::string &relay_id, uint32_t seq)
{
    PartialExport ex = agg.exportPartials();
    AggregateShard shard;
    shard.manifest.version = kManifestVersionAggregate;
    shard.manifest.host = relay_id;
    shard.manifest.workload = ex.workload;
    shard.manifest.seq = seq;
    shard.manifest.checksum = ex.checksum;
    shard.manifest.level = agg.maxLevelSeen() + 1;
    shard.manifest.profile_file = relay_id + ".hbbp";
    for (HostPartial &hp : ex.partials) {
        shard.manifest.covered.push_back({hp.host, hp.covered});
        std::string why;
        std::optional<ProfileData> pd =
            ProfileData::parse(hp.bytes, "partial", &why);
        EXPECT_TRUE(pd.has_value()) << why;
        shard.partials.push_back(std::move(*pd));
        shard.bytes.push_back(std::move(hp.bytes));
    }
    return shard;
}

/** Fold @p leaves into a throwaway aggregator, snapshot the export. */
AggregateShard
relayFold(const std::vector<LeafShard> &leaves,
          const std::string &relay_id, uint32_t seq = 0)
{
    IncrementalAggregator agg;
    for (const LeafShard &leaf : leaves) {
        std::string why;
        EXPECT_TRUE(agg.addShard(leaf.manifest, leaf.profile, &why))
            << why;
    }
    return snapshotAggregate(agg, relay_id, seq);
}

/** A listener served on a background thread (the tree's root). */
struct RootHarness
{
    IncrementalAggregator agg;
    ShardListener listener{0};
    std::thread thread;
    size_t served = 0;

    void
    start(ListenOptions options)
    {
        thread = std::thread(
            [this, options = std::move(options)]() mutable {
                served = listener.serve(agg, options);
            });
    }

    void
    join()
    {
        if (thread.joinable())
            thread.join();
    }

    ~RootHarness() { join(); }
};

SocketTransportOptions
fastOptions(uint16_t port, int attempts = 5)
{
    SocketTransportOptions so;
    so.port = port;
    so.max_attempts = attempts;
    so.backoff_ms = 10;
    so.max_backoff_ms = 50;
    so.io_timeout_ms = 10'000;
    return so;
}

/** FleetNodeOptions tuned for tests: fast retries, loopback upstream. */
FleetNodeOptions
fastRelayOptions(uint16_t upstream_port, size_t expect)
{
    FleetNodeOptions ro;
    ro.upstream_port = upstream_port;
    ro.expect = expect;
    ro.idle_timeout_ms = 10'000;
    ro.upstream_retries = 5;
    ro.upstream_backoff_ms = 10;
    return ro;
}

/** A loopback port that nothing is listening on (just vacated). */
uint16_t
closedPort()
{
    ShardListener probe(0);
    return probe.port();
}

// ---------------------------------------------------------------------------
// Manifest version 2: level + covered hosts.
// ---------------------------------------------------------------------------

TEST(AggregateManifest, RoundTripsLevelAndCoverage)
{
    ShardManifest m;
    m.version = kManifestVersionAggregate;
    m.host = "relay-west";
    m.workload = "test40";
    m.seq = 3;
    m.options_hash = 0xfeed;
    m.checksum = 0xabcdef;
    m.profile_file = "relay-west.hbbp";
    m.level = 2;
    m.covered = {{"hostA", 2}, {"hostB", 1}, {"hostC", 7}};

    std::string text = m.render();
    EXPECT_NE(text.find("hbbp-shard-manifest 2\n"), std::string::npos);
    EXPECT_NE(text.find("level=2\n"), std::string::npos);
    EXPECT_NE(text.find("hosts=hostA:2,hostB:1,hostC:7\n"),
              std::string::npos);

    std::string why;
    std::optional<ShardManifest> parsed =
        ShardManifest::parse(text, &why);
    ASSERT_TRUE(parsed.has_value()) << why;
    EXPECT_EQ(*parsed, m);
    EXPECT_EQ(parsed->coveredShardCount(), 10u);
}

TEST(AggregateManifest, LeafShardsStillRenderVersion1)
{
    // Backward compatibility is the point: collectors and pre-relay
    // aggregation roots exchange the exact bytes PR 3/4 defined.
    LeafShard leaf = makeLeaf("hostA", 0, 1);
    std::string text = leaf.manifest.render();
    EXPECT_NE(text.find("hbbp-shard-manifest 1\n"), std::string::npos);
    EXPECT_EQ(text.find("level="), std::string::npos);
    EXPECT_EQ(text.find("hosts="), std::string::npos);

    std::string why;
    std::optional<ShardManifest> parsed =
        ShardManifest::parse(text, &why);
    ASSERT_TRUE(parsed.has_value()) << why;
    EXPECT_EQ(parsed->level, 0u);
    EXPECT_TRUE(parsed->covered.empty());
    EXPECT_EQ(parsed->coveredShardCount(), 1u);
}

TEST(AggregateManifest, ParseRejectsDamagedCoverage)
{
    ShardManifest m;
    m.version = kManifestVersionAggregate;
    m.host = "relay1";
    m.workload = "test40";
    m.profile_file = "relay1.hbbp";
    m.level = 1;
    m.covered = {{"hostA", 1}, {"hostB", 2}};
    std::string good = m.render();

    auto mutate = [&](const std::string &from, const std::string &to) {
        std::string text = good;
        size_t pos = text.find(from);
        EXPECT_NE(pos, std::string::npos) << from;
        text.replace(pos, from.size(), to);
        std::string why;
        EXPECT_EQ(ShardManifest::parse(text, &why), std::nullopt)
            << "mutation '" << to << "' parsed";
        return why;
    };
    // Unsorted, duplicated, zero-count, and malformed entries.
    EXPECT_NE(mutate("hosts=hostA:1,hostB:2", "hosts=hostB:2,hostA:1")
                  .find("sorted"),
              std::string::npos);
    EXPECT_NE(mutate("hosts=hostA:1,hostB:2", "hosts=hostA:1,hostA:2")
                  .find("sorted"),
              std::string::npos);
    EXPECT_NE(mutate("hostB:2", "hostB:0").find("malformed hosts"),
              std::string::npos);
    EXPECT_NE(mutate("hostB:2", "hostB").find("malformed hosts"),
              std::string::npos);
    EXPECT_NE(mutate("hostB:2", "hostB:-1").find("malformed hosts"),
              std::string::npos);
    // Level and hosts travel together.
    EXPECT_NE(mutate("level=1\n", "").find("'level' and 'hosts'"),
              std::string::npos);
    std::string no_hosts = good;
    size_t pos = no_hosts.find("hosts=");
    no_hosts = no_hosts.substr(0, pos);
    std::string why;
    EXPECT_EQ(ShardManifest::parse(no_hosts, &why), std::nullopt);
    EXPECT_NE(why.find("'level' and 'hosts'"), std::string::npos);
}

TEST(AggregateManifest, DropDirAndImportRefuseAggregates)
{
    // The per-host chunk split cannot ride in a single drop-dir file;
    // both ends say so instead of silently flattening it.
    std::string dir = freshDir("dropdir_refuses");
    AggregateShard shard =
        relayFold({makeLeaf("hostA", 0, 1)}, "relay1");

    DropDirTransport transport(dir);
    SendResult res = transport.sendShard(shard.manifest, shard.bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("socket transport"), std::string::npos);

    // A hand-planted aggregate manifest in a watch dir is skipped
    // with a diagnostic, not imported as a fake leaf.
    writeFileAtomically(dir + "/relay1.hbbp", shard.bytes[0]);
    ShardManifest planted = shard.manifest;
    planted.profile_file = "relay1.hbbp";
    planted.save(dir + "/relay1.manifest");
    std::string why;
    EXPECT_EQ(importShard(dir + "/relay1.manifest", &why),
              std::nullopt);
    EXPECT_NE(why.find("socket transport"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The aggregate-shard fold: splice, supersede, dedup.
// ---------------------------------------------------------------------------

TEST(AggregateFold, TreeMatchesFlatAggregationByteForByte)
{
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard left = relayFold({leaves[0], leaves[1]}, "relay1");
    AggregateShard right = relayFold({leaves[2], leaves[3]}, "relay2");

    IncrementalAggregator root;
    std::string why;
    ASSERT_TRUE(root.addAggregateShard(left.manifest,
                                       std::move(left.partials), &why))
        << why;
    ASSERT_TRUE(root.addAggregateShard(right.manifest,
                                       std::move(right.partials), &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(), flat);
    EXPECT_EQ(root.coveredShards(), 4u);
    EXPECT_EQ(root.hostCount(), 4u);
    EXPECT_EQ(root.stats().accepted, 2u);
    EXPECT_EQ(root.stats().aggregates, 2u);
    EXPECT_EQ(root.maxLevelSeen(), 1u);
}

TEST(AggregateFold, InterleavedHostAssignmentStaysByteIdentical)
{
    // The hard case for any design that merges aggregate blobs
    // wholesale: relay1 covers {A, C} and relay2 covers {B, D}, so no
    // concatenation of the two folds equals the sorted flat fold. The
    // per-host splice does not care.
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard odd = relayFold({leaves[0], leaves[2]}, "relay1");
    AggregateShard even = relayFold({leaves[1], leaves[3]}, "relay2");

    for (bool odd_first : {true, false}) {
        IncrementalAggregator root;
        AggregateShard a = odd_first ? odd : even;
        AggregateShard b = odd_first ? even : odd;
        std::string why;
        ASSERT_TRUE(root.addAggregateShard(
            a.manifest, std::move(a.partials), &why))
            << why;
        ASSERT_TRUE(root.addAggregateShard(
            b.manifest, std::move(b.partials), &why))
            << why;
        EXPECT_EQ(root.aggregate().serialize(), flat);
    }
}

TEST(AggregateFold, MixedAggregateAndDirectLeavesCompose)
{
    // A root can serve relays and straggler collectors on one port.
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2),
                                     makeLeaf("hostE", 0, 5)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard relayed = relayFold({leaves[0], leaves[1]}, "r1");
    IncrementalAggregator root;
    std::string why;
    ASSERT_TRUE(root.addShard(leaves[2].manifest, leaves[2].profile,
                              &why))
        << why;
    ASSERT_TRUE(root.addAggregateShard(
        relayed.manifest, std::move(relayed.partials), &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(), flat);
    EXPECT_EQ(root.coveredShards(), 3u);
}

TEST(AggregateFold, GrowingCoverageSupersedesInAnyOrder)
{
    // A relay flushing every arrival produces a chain of aggregates
    // with strictly growing coverage; the root must land on the same
    // bytes whether it sees the chain in order, reversed, or with a
    // stale flush arriving last.
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostA", 1, 2),
                                     makeLeaf("hostB", 0, 3)};
    std::string flat = flatAggregateBytes(leaves);

    IncrementalAggregator relay;
    std::vector<AggregateShard> flushes;
    std::string why;
    for (size_t i = 0; i < leaves.size(); i++) {
        ASSERT_TRUE(relay.addShard(leaves[i].manifest,
                                   leaves[i].profile, &why))
            << why;
        flushes.push_back(snapshotAggregate(
            relay, "relay1", static_cast<uint32_t>(i)));
    }

    std::vector<std::vector<size_t>> orders = {
        {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}};
    for (const std::vector<size_t> &order : orders) {
        IncrementalAggregator root;
        for (size_t idx : order) {
            std::vector<ProfileData> partials = flushes[idx].partials;
            root.addAggregateShard(flushes[idx].manifest,
                                   std::move(partials), &why);
        }
        EXPECT_EQ(root.aggregate().serialize(), flat)
            << "order starting with flush " << order[0];
        EXPECT_EQ(root.coveredShards(), 3u);
    }

    // The stale-arrives-late case in detail: the superseded flush is
    // confirmed (hasChecksum), counted, and folds nothing.
    IncrementalAggregator root;
    std::vector<ProfileData> partials = flushes[2].partials;
    ASSERT_TRUE(root.addAggregateShard(flushes[2].manifest,
                                       std::move(partials), &why));
    partials = flushes[0].partials;
    EXPECT_FALSE(root.addAggregateShard(flushes[0].manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("superseded"), std::string::npos);
    EXPECT_TRUE(root.hasChecksum(flushes[0].manifest.checksum));
    EXPECT_EQ(root.stats().superseded, 1u);
    EXPECT_EQ(root.aggregate().serialize(), flat);
}

TEST(AggregateFold, DuplicateAggregateIsConfirmedNotRefolded)
{
    AggregateShard shard = relayFold(
        {makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2)}, "relay1");
    IncrementalAggregator root;
    std::string why;
    std::vector<ProfileData> partials = shard.partials;
    ASSERT_TRUE(root.addAggregateShard(shard.manifest,
                                       std::move(partials), &why));
    std::string before = root.aggregate().serialize();

    partials = shard.partials;
    EXPECT_FALSE(root.addAggregateShard(shard.manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("duplicate aggregate"), std::string::npos);
    EXPECT_EQ(root.stats().duplicates, 1u);
    EXPECT_EQ(root.stats().accepted, 1u);
    EXPECT_EQ(root.aggregate().serialize(), before);
}

TEST(AggregateFold, RejectsIncompatibleAndMalformedAggregates)
{
    IncrementalAggregator root;
    std::string why;
    LeafShard base = makeLeaf("hostA", 0, 1);
    ASSERT_TRUE(root.addShard(base.manifest, base.profile, &why));

    // Incompatible periods inside an arriving partial.
    LeafShard alien = makeLeaf("hostB", 0, 2);
    alien.profile.sim_periods = {7, 3};
    alien.bytes = alien.profile.serialize(&alien.manifest.checksum);
    AggregateShard bad = relayFold({alien}, "relay1");
    std::vector<ProfileData> partials = bad.partials;
    EXPECT_FALSE(root.addAggregateShard(bad.manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("incompatible"), std::string::npos);
    EXPECT_EQ(root.stats().incompatible, 1u);

    // Coverage list and partials out of step.
    AggregateShard good = relayFold({makeLeaf("hostB", 0, 3)}, "r2");
    good.manifest.covered.push_back({"hostC", 1});
    partials = good.partials;
    EXPECT_FALSE(root.addAggregateShard(good.manifest,
                                        std::move(partials), &why));
    EXPECT_NE(why.find("carries"), std::string::npos);
    EXPECT_EQ(root.stats().malformed, 1u);

    // A leaf manifest handed to the aggregate fold.
    partials = good.partials;
    ShardManifest leafish = good.manifest;
    leafish.level = 0;
    leafish.covered.clear();
    EXPECT_FALSE(root.addAggregateShard(leafish, std::move(partials),
                                        &why));
    EXPECT_NE(why.find("not an aggregate"), std::string::npos);

    // None of it perturbed the aggregate.
    EXPECT_EQ(root.coveredShards(), 1u);
    EXPECT_EQ(root.stats().accepted, 1u);
}

TEST(AggregateFold, ExportPartialsRoundTripsThroughAFreshAggregator)
{
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostA", 1, 2),
                                     makeLeaf("hostB", 0, 3)};
    IncrementalAggregator relay;
    std::string why;
    for (const LeafShard &leaf : leaves)
        ASSERT_TRUE(relay.addShard(leaf.manifest, leaf.profile, &why))
            << why;
    // An out-of-order straggler that cannot ride in the aggregate.
    LeafShard orphan = makeLeaf("hostC", 2, 9);
    ASSERT_TRUE(relay.addShard(orphan.manifest, orphan.profile, &why))
        << why;

    PartialExport ex = relay.exportPartials();
    ASSERT_EQ(ex.partials.size(), 2u);
    EXPECT_EQ(ex.partials[0].host, "hostA");
    EXPECT_EQ(ex.partials[0].covered, 2u);
    EXPECT_EQ(ex.partials[1].host, "hostB");
    ASSERT_EQ(ex.orphans.size(), 1u);
    EXPECT_EQ(ex.orphans[0].host, "hostC");
    EXPECT_EQ(ex.orphans[0].seq, 2u);
    EXPECT_EQ(ex.orphans[0].checksum, orphan.manifest.checksum);
    EXPECT_EQ(ex.workload, "test40");

    // Feed the snapshot (aggregate + forwarded orphan) to a fresh
    // aggregator: byte-identical to the relay's own view.
    AggregateShard shard = snapshotAggregate(relay, "relay1", 0);
    IncrementalAggregator root;
    ASSERT_TRUE(root.addAggregateShard(shard.manifest,
                                       std::move(shard.partials),
                                       &why))
        << why;
    ASSERT_TRUE(root.addShard(orphan.manifest, orphan.profile, &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(),
              relay.aggregate().serialize());
    EXPECT_EQ(root.coveredShards(), relay.coveredShards());
}

TEST(AggregateFold, RelaysStackToArbitraryDepth)
{
    // Depth 3: leaves -> two level-1 relays -> one level-2 relay ->
    // root, against the flat fold of the same four leaves.
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    AggregateShard l1a = relayFold({leaves[0], leaves[1]}, "r1a");
    AggregateShard l1b = relayFold({leaves[2], leaves[3]}, "r1b");
    EXPECT_EQ(l1a.manifest.level, 1u);

    IncrementalAggregator mid;
    std::string why;
    ASSERT_TRUE(mid.addAggregateShard(l1a.manifest,
                                      std::move(l1a.partials), &why))
        << why;
    ASSERT_TRUE(mid.addAggregateShard(l1b.manifest,
                                      std::move(l1b.partials), &why))
        << why;
    AggregateShard l2 = snapshotAggregate(mid, "r2", 0);
    EXPECT_EQ(l2.manifest.level, 2u);
    EXPECT_EQ(l2.manifest.coveredShardCount(), 4u);

    IncrementalAggregator root;
    ASSERT_TRUE(root.addAggregateShard(l2.manifest,
                                       std::move(l2.partials), &why))
        << why;
    EXPECT_EQ(root.aggregate().serialize(), flat);
    EXPECT_EQ(root.maxLevelSeen(), 2u);
    EXPECT_EQ(root.coveredShards(), 4u);
}

TEST(AggregateFold, StateRoundTripCarriesRelayFields)
{
    std::string dir = freshDir("state_relay_fields");
    AggregateShard shard = relayFold(
        {makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2)}, "relay1");
    IncrementalAggregator agg;
    std::string why;
    ASSERT_TRUE(agg.addAggregateShard(shard.manifest,
                                      std::move(shard.partials),
                                      &why));
    std::string before = agg.aggregate().serialize();
    agg.saveState(dir + "/agg.state");

    IncrementalAggregator restored;
    ASSERT_TRUE(restored.restoreState(dir + "/agg.state", &why))
        << why;
    EXPECT_EQ(restored.maxLevelSeen(), 1u);
    EXPECT_EQ(restored.stats().aggregates, 1u);
    EXPECT_EQ(restored.coveredShards(), 2u);
    EXPECT_EQ(restored.aggregate().serialize(), before);
    // A re-delivered flush is still recognized after the restart.
    EXPECT_TRUE(restored.hasChecksum(shard.manifest.checksum));
}

// ---------------------------------------------------------------------------
// FleetNode end to end (in-process trees).
// ---------------------------------------------------------------------------

/** Push @p leaf to @p port, asserting delivery. */
void
pushLeaf(const LeafShard &leaf, uint16_t port)
{
    SocketTransport t(fastOptions(port));
    SendResult res = t.sendShard(leaf.manifest, {leaf.bytes});
    ASSERT_TRUE(res.ok) << res.error;
}

TEST(RelayNode, DepthTwoTreeIsByteIdenticalToFlatIngestion)
{
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    RootHarness root;
    ListenOptions lo;
    lo.expect = 4; // Four *covered* leaves via two aggregate arrivals.
    root.start(lo);

    FleetNodeOptions ro1 = fastRelayOptions(root.listener.port(), 2);
    ro1.id = "relay1";
    FleetNodeOptions ro2 = fastRelayOptions(root.listener.port(), 2);
    ro2.id = "relay2";
    FleetNode relay1(ro1), relay2(ro2);
    FleetNodeStats rs1, rs2;
    std::thread t1([&] { rs1 = relay1.run(); });
    std::thread t2([&] { rs2 = relay2.run(); });

    pushLeaf(leaves[0], relay1.port());
    pushLeaf(leaves[1], relay1.port());
    pushLeaf(leaves[2], relay2.port());
    pushLeaf(leaves[3], relay2.port());
    t1.join();
    t2.join();
    root.join();

    EXPECT_TRUE(rs1.upstream_ok) << rs1.error;
    EXPECT_TRUE(rs2.upstream_ok) << rs2.error;
    EXPECT_EQ(rs1.covered, 2u);
    EXPECT_EQ(rs1.flushes, 1u);
    EXPECT_EQ(root.agg.coveredShards(), 4u);
    EXPECT_EQ(root.agg.stats().aggregates, 2u);
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
}

TEST(RelayNode, FlushEveryStreamsGrowingCoverage)
{
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2),
                                     makeLeaf("hostC", 0, 3)};
    std::string flat = flatAggregateBytes(leaves);

    RootHarness root;
    ListenOptions lo;
    lo.expect = 3;
    root.start(lo);

    FleetNodeOptions ro = fastRelayOptions(root.listener.port(), 3);
    ro.flush_every = 1; // Every arrival goes upstream immediately.
    FleetNode relay(ro);
    FleetNodeStats rs;
    std::thread t([&] { rs = relay.run(); });
    for (const LeafShard &leaf : leaves)
        pushLeaf(leaf, relay.port());
    t.join();
    root.join();

    EXPECT_TRUE(rs.upstream_ok) << rs.error;
    // Three mid-run flushes; the final flush had nothing new to say.
    EXPECT_EQ(rs.flushes, 3u);
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
    // Earlier flushes were superseded by later ones, never refolded.
    EXPECT_EQ(root.agg.stats().accepted, 3u);
    EXPECT_EQ(root.agg.coveredShards(), 3u);
}

TEST(RelayNode, BuffersAndRetriesWhenUpstreamIsUnreachable)
{
    // The no-shard-loss story: every downstream push is accepted and
    // acked even though the upstream never comes up; the final flush
    // fails loudly; the state file still holds everything, and a
    // restarted relay delivers it once the upstream exists.
    std::string dir = freshDir("unreachable");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string flat = flatAggregateBytes(leaves);

    FleetNodeOptions ro = fastRelayOptions(closedPort(), 2);
    ro.flush_every = 1; // Exercise mid-run flush failures too.
    ro.upstream_retries = 2;
    ro.state_file = dir + "/relay.state";
    FleetNodeStats rs;
    {
        FleetNode relay(ro);
        std::thread t([&] { rs = relay.run(); });
        for (const LeafShard &leaf : leaves)
            pushLeaf(leaf, relay.port()); // Acked despite dead upstream.
        t.join();
    }
    EXPECT_FALSE(rs.upstream_ok);
    EXPECT_FALSE(rs.error.empty());
    EXPECT_GE(rs.flush_failures, 2u);
    EXPECT_EQ(rs.covered, 2u);

    // Restart against a live upstream: restored coverage flows out.
    RootHarness root;
    ListenOptions lo;
    lo.expect = 2;
    root.start(lo);
    FleetNodeOptions ro2 = fastRelayOptions(root.listener.port(), 2);
    ro2.state_file = ro.state_file;
    FleetNode relay2(ro2);
    FleetNodeStats rs2 = relay2.run(); // Coverage restored => serves 0 new.
    root.join();

    EXPECT_TRUE(rs2.upstream_ok) << rs2.error;
    EXPECT_EQ(rs2.restored, 2u);
    EXPECT_EQ(rs2.accepted, 0u);
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
}

TEST(RelayNode, KilledRelayResumesFromStateAndRootBytesMatch)
{
    // The acceptance-criteria scenario, in-process: one relay "dies"
    // (destroyed without its final flush) after accepting a shard,
    // restarts from --state, takes the rest, and the root aggregate
    // is byte-identical to flat ingestion of all four leaves.
    std::string dir = freshDir("kill_resume");
    std::vector<LeafShard> leaves = {
        makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2),
        makeLeaf("hostC", 0, 3), makeLeaf("hostD", 0, 4)};
    std::string flat = flatAggregateBytes(leaves);

    RootHarness root;
    ListenOptions lo;
    lo.expect = 4;
    root.start(lo);

    // relay2 handles C and D normally, concurrently with the drama.
    FleetNodeOptions ro2 = fastRelayOptions(root.listener.port(), 2);
    ro2.id = "relay2";
    FleetNode relay2(ro2);
    FleetNodeStats rs2;
    std::thread t2([&] { rs2 = relay2.run(); });
    pushLeaf(leaves[2], relay2.port());
    pushLeaf(leaves[3], relay2.port());

    // relay1 accepts hostA (journaled per accept), then "crashes":
    // expect=1 makes run() return after one shard, and we drop the
    // node before anything else — its only survivor is the state.
    FleetNodeOptions ro1 = fastRelayOptions(closedPort(), 1);
    ro1.id = "relay1";
    ro1.state_file = dir + "/relay1.state";
    ro1.upstream_retries = 1;
    {
        FleetNode relay1(ro1);
        FleetNodeStats rs1;
        std::thread t1([&] { rs1 = relay1.run(); });
        pushLeaf(leaves[0], relay1.port());
        t1.join();
        EXPECT_FALSE(rs1.upstream_ok); // Died before delivering.
    }

    // The restarted relay1 resumes from state and takes hostB.
    FleetNodeOptions ro1b = fastRelayOptions(root.listener.port(), 2);
    ro1b.id = "relay1";
    ro1b.state_file = ro1.state_file;
    FleetNode relay1b(ro1b);
    FleetNodeStats rs1b;
    std::thread t1b([&] { rs1b = relay1b.run(); });
    pushLeaf(leaves[1], relay1b.port());
    t1b.join();
    t2.join();
    root.join();

    EXPECT_TRUE(rs1b.upstream_ok) << rs1b.error;
    EXPECT_EQ(rs1b.restored, 1u);
    EXPECT_TRUE(rs2.upstream_ok) << rs2.error;
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
    EXPECT_EQ(root.agg.coveredShards(), 4u);
}

TEST(RelayNode, DuplicateAggregateShardAtRootIsConfirmed)
{
    // A relay that crashed after pushing but before recording success
    // re-pushes the same flush on restart; the root must confirm it
    // as a duplicate (the push "succeeded") without refolding.
    AggregateShard shard = relayFold(
        {makeLeaf("hostA", 0, 1), makeLeaf("hostB", 0, 2)}, "relay1");

    RootHarness root;
    ListenOptions lo;
    // No expect: coverage is complete after the first arrival, so an
    // expect-bounded serve would stop before the duplicate lands.
    lo.idle_timeout_ms = 1'500;
    root.start(lo);

    SocketTransport t(fastOptions(root.listener.port()));
    SendResult first = t.sendShard(shard.manifest, shard.bytes);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.duplicate);
    SendResult second = t.sendShard(shard.manifest, shard.bytes);
    root.join();
    EXPECT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.duplicate);
    EXPECT_EQ(root.agg.stats().duplicates, 1u);
    EXPECT_EQ(root.agg.stats().accepted, 1u);
}

TEST(RelayNode, ForwardsGapStrandedOrphansVerbatim)
{
    // hostA's seq-0 shard is lost downstream; seq 1 arrives anyway.
    // The relay cannot put it inside the aggregate (coverage is a
    // gap-free prefix) so it forwards the leaf as-is, and the root
    // ends up exactly where flat ingestion of the same arrivals would.
    LeafShard straggler = makeLeaf("hostA", 1, 7);
    LeafShard normal = makeLeaf("hostB", 0, 2);
    IncrementalAggregator flat;
    std::string why;
    ASSERT_TRUE(flat.addShard(normal.manifest, normal.profile, &why));
    ASSERT_TRUE(flat.addShard(straggler.manifest, straggler.profile,
                              &why));

    RootHarness root;
    ListenOptions lo;
    lo.expect = 2;
    root.start(lo);

    FleetNodeOptions ro = fastRelayOptions(root.listener.port(), 2);
    FleetNode relay(ro);
    FleetNodeStats rs;
    std::thread t([&] { rs = relay.run(); });
    pushLeaf(normal, relay.port());
    pushLeaf(straggler, relay.port());
    t.join();
    root.join();

    EXPECT_TRUE(rs.upstream_ok) << rs.error;
    EXPECT_EQ(rs.orphans_forwarded, 1u);
    EXPECT_EQ(root.agg.coveredShards(), 2u);
    EXPECT_EQ(root.agg.aggregate().serialize(),
              flat.aggregate().serialize());
}

TEST(RelayNode, OrphanForwardFailuresCountInTheMetric)
{
    // The relay holds nothing but a gap-stranded leaf (seq 1, no seq
    // 0), so every flush is an orphan forward, and the upstream is
    // gone: each give-up must show in the live metric exactly as it
    // does in the run's stats.
    telemetry::Counter &failures =
        telemetry::counter("hbbp_relay_flush_failures_total");
    uint64_t before = failures.value();

    FleetNodeOptions ro = fastRelayOptions(closedPort(), 1);
    ro.flush_every = 1;
    ro.upstream_retries = 1;
    FleetNode relay(ro);
    FleetNodeStats rs;
    std::thread t([&] { rs = relay.run(); });
    pushLeaf(makeLeaf("hostA", 1, 7), relay.port());
    t.join();

    EXPECT_FALSE(rs.upstream_ok);
    EXPECT_EQ(rs.orphans_forwarded, 0u);
    EXPECT_GE(rs.flush_failures, 1u);
    EXPECT_EQ(failures.value() - before, rs.flush_failures);
}

TEST(RelayNode, AnswersQueriesForItsSubtreeAndStopsOnShutdown)
{
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string flat = flatAggregateBytes(leaves);

    RootHarness root;
    ListenOptions lo;
    lo.expect = 2;
    root.start(lo);

    // No expect: only the shutdown query ends the relay's loop.
    FleetNodeOptions ro = fastRelayOptions(root.listener.port(), 0);
    ro.id = "relay1";
    FleetNode relay(ro);
    FleetNodeStats rs;
    std::thread t([&] { rs = relay.run(); });
    for (const LeafShard &leaf : leaves)
        pushLeaf(leaf, relay.port());

    QueryClient client("127.0.0.1", relay.port());
    QueryReply reply;
    std::string why;
    QueryRequest hosts;
    hosts.verb = "hosts";
    hosts.params["format"] = "csv";
    EXPECT_TRUE(client.query(hosts.renderText(), &reply, &why)) << why;
    EXPECT_TRUE(reply.ok) << reply.error;
    EXPECT_NE(reply.payload.find("hostA,1,0"), std::string::npos);
    EXPECT_NE(reply.payload.find("hostB,1,0"), std::string::npos);
    QueryRequest status;
    status.verb = "status";
    EXPECT_TRUE(client.query(status.renderText(), &reply, &why)) << why;
    EXPECT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.epoch, 2u);
    EXPECT_NE(reply.payload.find("hosts=2"), std::string::npos);
    QueryRequest shutdown;
    shutdown.verb = "shutdown";
    EXPECT_TRUE(client.query(shutdown.renderText(), &reply, &why))
        << why;
    EXPECT_TRUE(reply.ok);
    t.join();
    root.join();

    // The shutdown still ran the final flush.
    EXPECT_TRUE(rs.upstream_ok) << rs.error;
    EXPECT_EQ(rs.accepted, 2u);
    EXPECT_EQ(rs.flushes, 1u);
    EXPECT_EQ(root.agg.aggregate().serialize(), flat);
}

TEST(FleetNodeWatch, VanishedShardFileCheckpointsInsteadOfDepositing)
{
    // A drop-directory shard whose file is gone by the time its
    // arrival is committed: with a store and a state, the node warns,
    // skips the deposit and writes a full checkpoint — it must not
    // die, and the arrival must still be durable.
    std::string dir = freshDir("vanished");
    std::string drop = dir + "/drop";
    fs::create_directories(drop);
    LeafShard leaf = makeLeaf("hostA", 0, 1);
    ShardManifest exported;
    std::string manifest_path =
        exportShard(leaf.profile, "hostA", "test40", 0, 0x1234, drop,
                    &exported);

    FleetNodeOptions no;
    no.id = "root";
    no.watch_dir = drop;
    no.state_file = dir + "/agg.state";
    no.store_dir = dir + "/store";
    std::string expected;
    {
        FleetNode node(no);
        std::string why;
        std::optional<ShardManifest> m =
            node.aggregator().importFile(manifest_path, &why);
        ASSERT_TRUE(m.has_value()) << why;
        fs::remove(drop + "/" + m->profile_file);
        node.commitImport(*m);
        expected = node.aggregator().aggregate().serialize();
    }

    EXPECT_FALSE(ProfileStore(no.store_dir)
                     .containsChecksum(exported.checksum));
    EXPECT_TRUE(fs::exists(no.state_file));
    IncrementalAggregator restored;
    StateJournal journal(no.state_file);
    std::string why;
    ASSERT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(journal.replayedRecords(), 0u);
    EXPECT_EQ(restored.restoredShards(), 1u);
    EXPECT_EQ(restored.aggregate().serialize(), expected);
}

// ---------------------------------------------------------------------------
// The incremental state journal.
// ---------------------------------------------------------------------------

TEST(StateJournalTest, ReplayMatchesFullRewriteByteForByte)
{
    // The satellite's contract: an aggregator persisted via journal
    // appends restores to the exact bytes one persisted via full
    // rewrites does — and both match the never-crashed aggregate.
    std::string dir = freshDir("journal_identity");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostA", 1, 2),
                                     makeLeaf("hostB", 0, 3)};
    std::string flat = flatAggregateBytes(leaves);

    std::string journal_state = dir + "/journaled.state";
    std::string rewrite_state = dir + "/rewritten.state";
    {
        IncrementalAggregator journaled, rewritten;
        StateJournal journal(journal_state, /*compact_every=*/100);
        std::string why;
        for (const LeafShard &leaf : leaves) {
            ASSERT_TRUE(journaled.addShard(leaf.manifest, leaf.profile,
                                           &why))
                << why;
            journal.record(journaled, leaf.manifest, {leaf.bytes});
            ASSERT_TRUE(rewritten.addShard(leaf.manifest, leaf.profile,
                                           &why))
                << why;
            rewritten.saveState(rewrite_state);
        }
        // No compaction happened: everything lives in the journal.
        EXPECT_EQ(journal.pendingRecords(), 3u);
        EXPECT_FALSE(fs::exists(journal_state));
    } // Both "processes" die here.

    IncrementalAggregator from_journal, from_rewrite;
    StateJournal journal(journal_state, 100);
    std::string why;
    ASSERT_TRUE(journal.restore(from_journal, &why)) << why;
    EXPECT_EQ(journal.replayedRecords(), 3u);
    ASSERT_TRUE(from_rewrite.restoreState(rewrite_state, &why)) << why;

    EXPECT_EQ(from_journal.restoredShards(), 3u);
    EXPECT_EQ(from_journal.aggregate().serialize(), flat);
    EXPECT_EQ(from_journal.aggregate().serialize(),
              from_rewrite.aggregate().serialize());
    // And both keep accepting: the next shard folds identically.
    LeafShard next = makeLeaf("hostC", 0, 9);
    ASSERT_TRUE(from_journal.addShard(next.manifest, next.profile,
                                      &why));
    ASSERT_TRUE(from_rewrite.addShard(next.manifest, next.profile,
                                      &why));
    EXPECT_EQ(from_journal.aggregate().serialize(),
              from_rewrite.aggregate().serialize());
}

TEST(StateJournalTest, CompactsAtThresholdAndStaysRestorable)
{
    std::string dir = freshDir("journal_compact");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2),
                                     makeLeaf("hostC", 0, 3)};
    std::string state = dir + "/agg.state";
    std::string expected;
    {
        IncrementalAggregator agg;
        StateJournal journal(state, /*compact_every=*/2);
        std::string why;
        for (const LeafShard &leaf : leaves) {
            ASSERT_TRUE(agg.addShard(leaf.manifest, leaf.profile,
                                     &why));
            journal.record(agg, leaf.manifest, {leaf.bytes});
        }
        // Two records triggered a compaction (checkpoint + truncated
        // journal); the third sits in the journal tail.
        EXPECT_TRUE(fs::exists(state));
        EXPECT_EQ(journal.pendingRecords(), 1u);
        expected = agg.aggregate().serialize();
    }

    IncrementalAggregator restored;
    StateJournal journal(state, 2);
    std::string why;
    ASSERT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(journal.replayedRecords(), 1u);
    EXPECT_EQ(restored.restoredShards(), 3u);
    EXPECT_EQ(restored.aggregate().serialize(), expected);
}

TEST(StateJournalTest, TornTailRecordIsDroppedNotTrusted)
{
    std::string dir = freshDir("journal_torn");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string state = dir + "/agg.state";
    {
        IncrementalAggregator agg;
        StateJournal journal(state, 100);
        std::string why;
        for (const LeafShard &leaf : leaves) {
            ASSERT_TRUE(agg.addShard(leaf.manifest, leaf.profile,
                                     &why));
            journal.record(agg, leaf.manifest, {leaf.bytes});
        }
    }
    // Simulate a crash mid-append: half a record's worth of garbage.
    std::string journal_path = state + ".journal";
    std::string why;
    std::string bytes = readFileBytes(journal_path, &why);
    ASSERT_TRUE(why.empty()) << why;
    size_t intact = bytes.size();
    bytes += bytes.substr(0, 40); // A torn copy of a record header.
    writeFileAtomically(journal_path, bytes);

    IncrementalAggregator restored;
    StateJournal journal(state, 100);
    EXPECT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(journal.replayedRecords(), 2u);
    EXPECT_EQ(restored.restoredShards(), 2u);
    // Dropping the tail also rewrote the file: new appends must land
    // where the next restore can reach them, not behind the damage.
    std::string healed = readFileBytes(journal_path, &why);
    ASSERT_TRUE(why.empty()) << why;
    EXPECT_EQ(healed.size(), intact);
    LeafShard next = makeLeaf("hostC", 0, 5);
    ASSERT_TRUE(restored.addShard(next.manifest, next.profile, &why));
    journal.record(restored, next.manifest, {next.bytes});
    IncrementalAggregator after;
    StateJournal journal_after(state, 100);
    EXPECT_TRUE(journal_after.restore(after, &why)) << why;
    EXPECT_EQ(journal_after.replayedRecords(), 3u);
    EXPECT_EQ(after.aggregate().serialize(),
              restored.aggregate().serialize());

    // Corrupt a byte inside the *second* record's body: replay keeps
    // the first record and drops the damaged tail.
    bytes = bytes.substr(0, intact);
    bytes[intact - 3] ^= 0x5a;
    writeFileAtomically(journal_path, bytes);
    IncrementalAggregator partial;
    StateJournal journal2(state, 100);
    EXPECT_TRUE(journal2.restore(partial, &why));
    EXPECT_EQ(journal2.replayedRecords(), 1u);
    EXPECT_EQ(partial.restoredShards(), 1u);
}

TEST(StateJournalTest, CrashBetweenCheckpointAndTruncateIsIdempotent)
{
    // compact() writes the checkpoint, then truncates the journal. A
    // crash between the two restores checkpoint + stale journal; the
    // checksum dedup turns every replayed record into a no-op.
    std::string dir = freshDir("journal_overlap");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string state = dir + "/agg.state";
    std::string expected;
    {
        IncrementalAggregator agg;
        StateJournal journal(state, 100);
        std::string why;
        for (const LeafShard &leaf : leaves) {
            ASSERT_TRUE(agg.addShard(leaf.manifest, leaf.profile,
                                     &why));
            journal.record(agg, leaf.manifest, {leaf.bytes});
        }
        // The "crash window": checkpoint written, journal not yet
        // truncated.
        agg.saveState(state);
        expected = agg.aggregate().serialize();
    }

    IncrementalAggregator restored;
    StateJournal journal(state, 100);
    std::string why;
    ASSERT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(restored.restoredShards(), 2u);
    EXPECT_EQ(restored.stats().duplicates, 2u); // The replays.
    EXPECT_EQ(restored.aggregate().serialize(), expected);
}

TEST(StateJournalTest, JournalsAggregateArrivalsWithTheirSplit)
{
    // A journaled *root* must restore aggregate arrivals through the
    // same per-host splice they originally took.
    std::string dir = freshDir("journal_aggregate");
    std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                     makeLeaf("hostB", 0, 2)};
    std::string flat = flatAggregateBytes(leaves);
    AggregateShard shard = relayFold(leaves, "relay1");

    std::string state = dir + "/root.state";
    {
        IncrementalAggregator root;
        StateJournal journal(state, 100);
        std::string why;
        std::vector<ProfileData> partials = shard.partials;
        ASSERT_TRUE(root.addAggregateShard(shard.manifest,
                                           std::move(partials), &why));
        journal.record(root, shard.manifest, shard.bytes);
    }

    IncrementalAggregator restored;
    StateJournal journal(state, 100);
    std::string why;
    ASSERT_TRUE(journal.restore(restored, &why)) << why;
    EXPECT_EQ(restored.restoredShards(), 1u);
    EXPECT_EQ(restored.coveredShards(), 2u);
    EXPECT_EQ(restored.stats().aggregates, 1u);
    EXPECT_EQ(restored.aggregate().serialize(), flat);
}

TEST(StateJournalTest, DamagedCheckpointRestoresJournalTailOnly)
{
    // A corrupt checkpoint under an intact journal is a *partial*
    // resume: only post-compaction records come back (with a loud
    // warning in the logs) — never garbage, never a crash.
    std::string dir = freshDir("journal_bad_checkpoint");
    std::string state = dir + "/agg.state";
    {
        IncrementalAggregator agg;
        StateJournal journal(state, /*compact_every=*/2);
        std::string why;
        std::vector<LeafShard> leaves = {makeLeaf("hostA", 0, 1),
                                         makeLeaf("hostB", 0, 2),
                                         makeLeaf("hostC", 0, 3)};
        for (const LeafShard &leaf : leaves) {
            ASSERT_TRUE(agg.addShard(leaf.manifest, leaf.profile,
                                     &why));
            journal.record(agg, leaf.manifest, {leaf.bytes});
        }
    }
    // Flip a byte inside the compacted checkpoint's payload.
    std::string why;
    std::string bytes = readFileBytes(state, &why);
    ASSERT_TRUE(why.empty()) << why;
    bytes[bytes.size() / 2] ^= 0x5a;
    writeFileAtomically(state, bytes);

    IncrementalAggregator restored;
    StateJournal journal(state, 2);
    EXPECT_TRUE(journal.restore(restored, &why));
    EXPECT_EQ(journal.replayedRecords(), 1u);
    EXPECT_EQ(restored.restoredShards(), 1u); // hostC's record only.
    EXPECT_EQ(restored.hostCount(), 1u);
}

TEST(StateJournalTest, ColdStartIsCleanWhenNothingExists)
{
    std::string dir = freshDir("journal_cold");
    IncrementalAggregator agg;
    StateJournal journal(dir + "/none.state", 10);
    std::string why;
    EXPECT_FALSE(journal.restore(agg, &why));
    EXPECT_EQ(agg.restoredShards(), 0u);
    EXPECT_EQ(journal.replayedRecords(), 0u);
}

} // namespace
} // namespace hbbp
