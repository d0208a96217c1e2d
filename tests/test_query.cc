/**
 * @file
 * Tests for the analysis-query read path: the hbbp-query/1 protocol
 * (request/reply round-trips, version and frame validation), the
 * AnalysisService facade (per-epoch result caching, invalidation on
 * shard arrival, per-host slices vs the full aggregate), the
 * same-port query endpoint on the shard listener (including
 * concurrent queriers during ingestion, and an aggregate root
 * answering like offline analysis), and golden-file coverage of
 * the text/csv/json renderers.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/service.hh"
#include "collect/collector.hh"
#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/node.hh"
#include "fleet/query.hh"
#include "fleet/transport.hh"
#include "support/bytes.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "tests/helpers.hh"
#include "tools/registry.hh"

namespace hbbp {
namespace {

// ---------------------------------------------------------------------------
// Protocol round-trips and rejection.
// ---------------------------------------------------------------------------

TEST(QueryProtocol, RequestRoundTrip)
{
    QueryRequest req;
    req.verb = "mix";
    req.params["top"] = "5";
    req.params["cutoff"] = "20";
    req.params["format"] = "csv";

    std::string body = req.renderText();
    // Canonical: version line, verb, then parameters sorted by key.
    EXPECT_EQ(body, "hbbp-query/1\nverb=mix\ncutoff=20\nformat=csv\n"
                    "top=5\n");

    std::string why;
    std::optional<QueryRequest> parsed =
        QueryRequest::parseText(body, &why);
    ASSERT_TRUE(parsed) << why;
    EXPECT_EQ(parsed->verb, "mix");
    EXPECT_EQ(parsed->params, req.params);
    EXPECT_EQ(parsed->renderText(), body);
}

TEST(QueryProtocol, CacheKeyIgnoresFormat)
{
    QueryRequest text_req, csv_req;
    text_req.verb = csv_req.verb = "mix";
    text_req.params["top"] = csv_req.params["top"] = "5";
    csv_req.params["format"] = "csv";
    EXPECT_EQ(text_req.cacheKey(), csv_req.cacheKey());

    QueryRequest other = text_req;
    other.params["top"] = "6";
    EXPECT_NE(other.cacheKey(), text_req.cacheKey());
}

TEST(QueryProtocol, RequestRejectsUnknownVersion)
{
    std::string why;
    EXPECT_FALSE(QueryRequest::parseText("hbbp-query/2\nverb=mix\n",
                                         &why));
    EXPECT_NE(why.find("unsupported query protocol version '2'"),
              std::string::npos);
}

TEST(QueryProtocol, RequestRejectsMalformedBodies)
{
    std::string why;
    // Missing version line.
    EXPECT_FALSE(QueryRequest::parseText("verb=mix\n", &why));
    // Parameter line without '='.
    EXPECT_FALSE(
        QueryRequest::parseText("hbbp-query/1\nverb=mix\nbogus\n",
                                &why));
    // Duplicate parameter.
    EXPECT_FALSE(QueryRequest::parseText(
        "hbbp-query/1\nverb=mix\ntop=1\ntop=2\n", &why));
    EXPECT_NE(why.find("duplicate query parameter 'top'"),
              std::string::npos);
    // No verb at all.
    EXPECT_FALSE(
        QueryRequest::parseText("hbbp-query/1\ntop=1\n", &why));
    EXPECT_NE(why.find("missing verb"), std::string::npos);
}

TEST(QueryProtocol, ReplyRoundTrip)
{
    QueryReply reply;
    reply.ok = true;
    reply.epoch = 42;
    reply.cached = true;
    reply.payload = "line one\n\nline two after a blank\n";

    std::string body = renderQueryReplyBody(reply);
    QueryReply parsed;
    std::string why;
    ASSERT_TRUE(parseQueryReplyBody(body, &parsed, &why)) << why;
    EXPECT_TRUE(parsed.ok);
    EXPECT_EQ(parsed.epoch, 42u);
    EXPECT_TRUE(parsed.cached);
    // Payload bytes survive verbatim, embedded blank lines included.
    EXPECT_EQ(parsed.payload, reply.payload);
}

TEST(QueryProtocol, ErrorReplyFlattensNewlines)
{
    QueryReply reply;
    reply.error = "first\nsecond";
    std::string body = renderQueryReplyBody(reply);

    QueryReply parsed;
    std::string why;
    ASSERT_TRUE(parseQueryReplyBody(body, &parsed, &why)) << why;
    EXPECT_FALSE(parsed.ok);
    // A newline inside the error would desynchronize the header
    // block; it must arrive flattened.
    EXPECT_EQ(parsed.error, "first second");
}

TEST(QueryProtocol, ReplySkipsUnknownHeaders)
{
    std::string body = "hbbp-reply/1\nstatus=ok\nepoch=3\ncached=0\n"
                       "future-header=whatever\n\npayload";
    QueryReply parsed;
    std::string why;
    ASSERT_TRUE(parseQueryReplyBody(body, &parsed, &why)) << why;
    EXPECT_TRUE(parsed.ok);
    EXPECT_EQ(parsed.epoch, 3u);
    EXPECT_EQ(parsed.payload, "payload");
}

TEST(QueryProtocol, ReplyRejectsTruncation)
{
    QueryReply good;
    good.ok = true;
    good.epoch = 1;
    std::string body = renderQueryReplyBody(good);

    QueryReply parsed;
    std::string why;
    // Cut before the header/payload blank line: every prefix that
    // loses the separator must be rejected, not misparsed.
    std::string truncated = body.substr(0, body.find("\n\n"));
    EXPECT_FALSE(parseQueryReplyBody(truncated, &parsed, &why));
    EXPECT_FALSE(parseQueryReplyBody("", &parsed, &why));
    // Headers present but mandatory ones missing.
    EXPECT_FALSE(
        parseQueryReplyBody("hbbp-reply/1\nstatus=ok\n\nx", &parsed,
                            &why));
    EXPECT_NE(why.find("missing status/epoch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AnalysisService over live aggregator state.
// ---------------------------------------------------------------------------

/** Collect @p w host-seeded, as export/push do. */
ProfileData
collectHostProfile(const Workload &w, const std::string &host,
                   uint32_t seq = 0)
{
    CollectorConfig cc = collectorConfigFor(w);
    cc.seed = hostStreamSeed(cc.seed, host, seq);
    cc.pmu.seed = hostStreamSeed(cc.pmu.seed ^ 0x5851f42d4c957f2dULL,
                                 host, seq);
    return Collector::collect(*w.program, MachineConfig{}, cc);
}

/** Manifest for one leaf shard of @p pd. */
ShardManifest
leafManifest(const ProfileData &pd, const std::string &host,
             uint32_t seq = 0)
{
    ShardManifest m;
    m.host = host;
    m.workload = "test40";
    m.seq = seq;
    m.options_hash = 0x1234;
    m.checksum = pd.payloadChecksum();
    return m;
}

QueryRequest
makeRequest(const std::string &verb,
            std::map<std::string, std::string> params = {})
{
    QueryRequest req;
    req.verb = verb;
    req.params = std::move(params);
    return req;
}

TEST(AnalysisServiceTest, EpochCacheInvalidationOnShardArrival)
{
    Workload w = *makeWorkloadByName("test40");
    ProfileData a = collectHostProfile(w, "hostA");
    ProfileData b = collectHostProfile(w, "hostB");

    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(leafManifest(a, "hostA"), a));

    AggregatorProfileSource source(agg);
    AnalysisService service(source, makeWorkloadByName);

    QueryRequest req = makeRequest("mix", {{"top", "5"}});
    QueryResult first = service.serve(req);
    ASSERT_TRUE(first.error.empty()) << first.error;
    EXPECT_EQ(first.epoch, 1u);
    EXPECT_FALSE(first.cached);
    EXPECT_EQ(service.stats().analyses, 1u);

    // Identical repeat within the epoch: a result-cache hit, and the
    // expensive analysis must not rerun.
    QueryResult repeat = service.serve(req);
    EXPECT_TRUE(repeat.cached);
    EXPECT_EQ(service.stats().hits, 1u);
    EXPECT_EQ(service.stats().analyses, 1u);
    EXPECT_EQ(repeat.render(RenderFormat::Text),
              first.render(RenderFormat::Text));

    // Same analysis, different rendering: still one analysis, and the
    // result cache key ignores the format parameter.
    QueryResult csv = service.serve(
        makeRequest("mix", {{"top", "5"}, {"format", "csv"}}));
    EXPECT_TRUE(csv.cached);
    EXPECT_EQ(service.stats().analyses, 1u);

    // A new shard bumps the epoch: caches drop, results recompute.
    ASSERT_TRUE(agg.addShard(leafManifest(b, "hostB"), b));
    QueryResult after = service.serve(req);
    ASSERT_TRUE(after.error.empty()) << after.error;
    EXPECT_EQ(after.epoch, 2u);
    EXPECT_FALSE(after.cached);
    EXPECT_EQ(service.stats().analyses, 2u);
    // Two hosts' fold is a different mix than one host's.
    EXPECT_NE(after.render(RenderFormat::Text),
              first.render(RenderFormat::Text));
}

TEST(AnalysisServiceTest, ErrorsAreNeverCached)
{
    Workload w = *makeWorkloadByName("test40");
    ProfileData a = collectHostProfile(w, "hostA");
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(leafManifest(a, "hostA"), a));

    AggregatorProfileSource source(agg);
    AnalysisService service(source, makeWorkloadByName);

    QueryRequest bad = makeRequest("mix", {{"host", "nosuch"}});
    QueryResult r1 = service.serve(bad);
    EXPECT_NE(r1.error.find("no shards aggregated from host "
                            "'nosuch'"),
              std::string::npos);
    QueryResult r2 = service.serve(bad);
    EXPECT_FALSE(r2.cached);
    EXPECT_EQ(service.stats().errors, 2u);
    EXPECT_EQ(service.stats().hits, 0u);
}

TEST(AnalysisServiceTest, RejectsUnknownVerbSourceAndParams)
{
    Workload w = *makeWorkloadByName("test40");
    ProfileData a = collectHostProfile(w, "hostA");
    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(leafManifest(a, "hostA"), a));
    AggregatorProfileSource source(agg);
    AnalysisService service(source, makeWorkloadByName);

    EXPECT_NE(service.serve(makeRequest("bogus"))
                  .error.find("unknown verb 'bogus'"),
              std::string::npos);
    EXPECT_NE(service.serve(makeRequest("mix", {{"source", "tea"}}))
                  .error.find("unknown source 'tea'"),
              std::string::npos);
    EXPECT_NE(service.serve(makeRequest("mix", {{"pivot", "moose"}}))
                  .error.find("unknown pivot dimension 'moose'"),
              std::string::npos);
    EXPECT_NE(service.serve(makeRequest("fdo", {{"pivot", "module"}}))
                  .error.find("unknown parameter 'pivot' for verb "
                              "'fdo'"),
              std::string::npos);
    EXPECT_NE(service.serve(makeRequest("mix", {{"format", "xml"}}))
                  .error.find("unknown format 'xml'"),
              std::string::npos);
    // Five requests in, all failed, none cached. Source and pivot are
    // selections *within* an analysis, so their validation runs one
    // analyzer pass — shared through the analysis cache, never more.
    EXPECT_EQ(service.stats().errors, 5u);
    EXPECT_EQ(service.stats().analyses, 1u);
    EXPECT_EQ(service.stats().hits, 0u);
}

TEST(AnalysisServiceTest, HostSliceMatchesFullWhenOneHost)
{
    Workload w = *makeWorkloadByName("test40");
    ProfileData a = collectHostProfile(w, "hostA");
    ProfileData b = collectHostProfile(w, "hostB");

    IncrementalAggregator agg;
    ASSERT_TRUE(agg.addShard(leafManifest(a, "hostA"), a));
    ASSERT_TRUE(agg.addShard(leafManifest(b, "hostB"), b));
    AggregatorProfileSource source(agg);
    AnalysisService service(source, makeWorkloadByName);

    // The slice query over hostA must render exactly what an offline
    // analysis of hostA's profile alone renders.
    QueryResult slice =
        service.serve(makeRequest("mix", {{"host", "hostA"}}));
    ASSERT_TRUE(slice.error.empty()) << slice.error;

    FixedProfileSource fixed(a, "test40");
    AnalysisService offline(fixed, makeWorkloadByName);
    QueryResult direct = offline.serve(makeRequest("mix"));
    ASSERT_TRUE(direct.error.empty()) << direct.error;
    EXPECT_EQ(slice.render(RenderFormat::Text),
              direct.render(RenderFormat::Text));

    // And the full aggregate equals the offline merge of both hosts.
    std::vector<ProfileData> both = {a, b};
    FixedProfileSource merged_src(mergeProfiles(both), "test40");
    AnalysisService merged(merged_src, makeWorkloadByName);
    EXPECT_EQ(
        service.serve(makeRequest("mix")).render(RenderFormat::Text),
        merged.serve(makeRequest("mix")).render(RenderFormat::Text));

    // hosts reflects both slices.
    QueryResult hosts = service.serve(makeRequest("hosts"));
    ASSERT_TRUE(hosts.error.empty());
    std::string text = hosts.render(RenderFormat::Csv);
    EXPECT_NE(text.find("hostA,1,0"), std::string::npos);
    EXPECT_NE(text.find("hostB,1,0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The wire: QueryEndpoint on a live ShardListener.
// ---------------------------------------------------------------------------

/** The serve-daemon core, on a background thread. */
struct ServeHarness
{
    IncrementalAggregator agg;
    AggregatorProfileSource source{agg};
    AnalysisService service{source, makeWorkloadByName};
    QueryEndpoint endpoint{service};
    ShardListener listener{0};
    std::thread thread;

    void
    start(size_t expect = 0)
    {
        ListenOptions lo;
        lo.expect = expect;
        lo.idle_timeout_ms = expect > 0 ? 10'000 : -1;
        lo.on_query = [this](const std::string &body) {
            return endpoint.handle(body);
        };
        lo.should_stop = [this] { return endpoint.stopRequested(); };
        thread = std::thread(
            [this, lo = std::move(lo)] { listener.serve(agg, lo); });
    }

    void
    shutdownAndJoin()
    {
        QueryClient client("127.0.0.1", listener.port());
        QueryReply reply;
        std::string why;
        QueryRequest req;
        req.verb = "shutdown";
        ASSERT_TRUE(client.query(req.renderText(), &reply, &why))
            << why;
        EXPECT_TRUE(reply.ok);
        thread.join();
    }
};

/** Push @p pd to @p port as one leaf shard. */
void
pushShard(uint16_t port, const ProfileData &pd,
          const std::string &host, uint32_t seq = 0)
{
    SocketTransportOptions so;
    so.host = "127.0.0.1";
    so.port = port;
    SocketTransport transport(so);
    ShardManifest m = leafManifest(pd, host, seq);
    SendResult res = transport.sendShard(m, {pd.serialize()});
    ASSERT_TRUE(res.ok) << res.error;
}

TEST(QueryEndpointTest, ServesQueriesAndObservesArrivals)
{
    Workload w = *makeWorkloadByName("test40");
    ProfileData a = collectHostProfile(w, "hostA");
    ProfileData b = collectHostProfile(w, "hostB");

    ServeHarness harness;
    harness.start();

    QueryClient client("127.0.0.1", harness.listener.port());
    QueryReply reply;
    std::string why;
    QueryRequest mix = makeRequest("mix", {{"top", "3"}});

    // Before any shard: a served error, not a dead daemon.
    ASSERT_TRUE(client.query(mix.renderText(), &reply, &why)) << why;
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.epoch, 0u);
    EXPECT_NE(reply.error.find("no profile to analyze yet"),
              std::string::npos);

    pushShard(harness.listener.port(), a, "hostA");
    ASSERT_TRUE(client.query(mix.renderText(), &reply, &why)) << why;
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.epoch, 1u);
    EXPECT_FALSE(reply.cached);
    std::string first_payload = reply.payload;

    // Same connection, identical query: epoch-cached.
    ASSERT_TRUE(client.query(mix.renderText(), &reply, &why)) << why;
    EXPECT_TRUE(reply.ok);
    EXPECT_TRUE(reply.cached);
    EXPECT_EQ(reply.payload, first_payload);

    // A mid-storm arrival: the next query observes the new epoch and
    // fresh bytes.
    pushShard(harness.listener.port(), b, "hostB");
    ASSERT_TRUE(client.query(mix.renderText(), &reply, &why)) << why;
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.epoch, 2u);
    EXPECT_FALSE(reply.cached);
    EXPECT_NE(reply.payload, first_payload);

    // Unknown verbs are served errors too.
    QueryRequest bogus = makeRequest("bogus");
    ASSERT_TRUE(client.query(bogus.renderText(), &reply, &why)) << why;
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("unknown verb"), std::string::npos);

    harness.shutdownAndJoin();
}

TEST(QueryEndpointTest, AggregateRootAnswersMixLikeOffline)
{
    // `aggregate --listen` is a FleetNode root like `serve`: its shard
    // port answers queries with exactly the bytes offline analysis of
    // the merged shards renders.
    Workload w = *makeWorkloadByName("test40");
    ProfileData a = collectHostProfile(w, "hostA");
    ProfileData b = collectHostProfile(w, "hostB");

    FleetNodeOptions no;
    no.id = "root";
    FleetNode root(no);
    FleetNodeStats rs;
    std::thread t([&] { rs = root.run(); });
    pushShard(root.port(), a, "hostA");
    pushShard(root.port(), b, "hostB");

    QueryClient client("127.0.0.1", root.port());
    QueryReply reply;
    std::string why;
    QueryRequest mix = makeRequest("mix", {{"top", "5"}});
    EXPECT_TRUE(client.query(mix.renderText(), &reply, &why)) << why;
    EXPECT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.epoch, 2u);
    std::string served = reply.payload;
    EXPECT_TRUE(client.query(makeRequest("shutdown").renderText(),
                             &reply, &why))
        << why;
    t.join();

    std::vector<ProfileData> both = {a, b};
    FixedProfileSource merged(mergeProfiles(both), "test40");
    AnalysisService offline(merged, makeWorkloadByName);
    QueryResult direct = offline.serve(mix);
    ASSERT_TRUE(direct.error.empty()) << direct.error;
    EXPECT_EQ(served, direct.render(RenderFormat::Text));
    EXPECT_EQ(rs.accepted, 2u);
    EXPECT_TRUE(rs.upstream_ok);
}

TEST(QueryEndpointTest, ListenerWithoutHandlerRefusesQueries)
{
    IncrementalAggregator agg;
    ShardListener listener{0};
    ListenOptions lo;
    lo.expect = 1; // Returns once the pushed shard below is covered.
    lo.idle_timeout_ms = 10'000;
    std::thread thread(
        [&] { listener.serve(agg, lo); });

    QueryClient client("127.0.0.1", listener.port());
    QueryReply reply;
    std::string why;
    QueryRequest req = makeRequest("status");
    ASSERT_TRUE(client.query(req.renderText(), &reply, &why)) << why;
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("does not serve queries"),
              std::string::npos);

    // The refusal must not have wedged the shard path.
    Workload w = *makeWorkloadByName("test40");
    ProfileData a = collectHostProfile(w, "hostA");
    pushShard(listener.port(), a, "hostA");
    thread.join();
    EXPECT_EQ(agg.stats().accepted, 1u);
}

TEST(QueryEndpointTest, MalformedFramesCloseWithoutKillingDaemon)
{
    ServeHarness harness;
    harness.start();
    uint16_t port = harness.listener.port();

    auto rawConnect = [port]() -> int {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<struct sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    };

    // Oversized body length: the server must drop the connection
    // rather than buffer a gigabyte on a promise.
    {
        int fd = rawConnect();
        ByteWriter wr;
        wr.u64(kQueryFrameMagic);
        wr.u32(static_cast<uint32_t>(kMaxQueryBodyBytes + 1));
        std::string frame = wr.bytes();
        ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
                  static_cast<ssize_t>(frame.size()));
        char buf[16];
        // Peer closes without a reply.
        EXPECT_LE(::recv(fd, buf, sizeof(buf), 0), 0);
        ::close(fd);
    }

    // Truncated frame: header promises bytes that never come, then
    // the client gives up. The server just reaps the connection.
    {
        int fd = rawConnect();
        ByteWriter wr;
        wr.u64(kQueryFrameMagic);
        wr.u32(64);
        std::string frame = wr.bytes() + "only a few";
        ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
                  static_cast<ssize_t>(frame.size()));
        ::close(fd);
    }

    // After both abuses the daemon still answers real queries.
    QueryClient client("127.0.0.1", port);
    QueryReply reply;
    std::string why;
    QueryRequest req = makeRequest("status");
    ASSERT_TRUE(client.query(req.renderText(), &reply, &why)) << why;
    EXPECT_TRUE(reply.ok);

    harness.shutdownAndJoin();
}

TEST(QueryEndpointTest, ConcurrentQueriersDuringIngestion)
{
    Workload w = *makeWorkloadByName("test40");
    std::vector<ProfileData> profiles;
    const size_t kShards = 4;
    for (size_t i = 0; i < kShards; i++)
        profiles.push_back(
            collectHostProfile(w, format("host%zu", i)));

    ServeHarness harness;
    harness.start();
    uint16_t port = harness.listener.port();

    // Queriers hammer the endpoint while shards stream in. Every
    // reply must be well-formed; mix replies may be the "nothing
    // aggregated yet" error early on but must all succeed once the
    // epoch is nonzero.
    std::atomic<bool> stop{false};
    std::atomic<size_t> replies{0}, failures{0};
    std::vector<std::thread> queriers;
    for (int t = 0; t < 3; t++) {
        queriers.emplace_back([&, t] {
            QueryClient client("127.0.0.1", port);
            QueryRequest req =
                t == 0 ? makeRequest("status")
                       : makeRequest("mix", {{"top", "4"}});
            while (!stop.load(std::memory_order_relaxed)) {
                QueryReply reply;
                std::string why;
                if (!client.query(req.renderText(), &reply, &why) ||
                    (!reply.ok &&
                     reply.error.find("no profile to analyze") ==
                         std::string::npos))
                    failures.fetch_add(1);
                replies.fetch_add(1);
            }
        });
    }

    for (size_t i = 0; i < kShards; i++)
        pushShard(port, profiles[i], format("host%zu", i));

    // Let the storm overlap the post-arrival state too.
    while (replies.load() < 64)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop.store(true);
    for (std::thread &t : queriers)
        t.join();
    EXPECT_EQ(failures.load(), 0u);

    // The final state observed every arrival.
    QueryClient client("127.0.0.1", port);
    QueryReply reply;
    std::string why;
    ASSERT_TRUE(client.query(makeRequest("mix").renderText(), &reply,
                             &why))
        << why;
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.epoch, kShards);

    harness.shutdownAndJoin();
    EXPECT_EQ(harness.agg.stats().accepted, kShards);
}

// ---------------------------------------------------------------------------
// Golden-file rendering coverage (one result, all three formats).
// ---------------------------------------------------------------------------

/** A hand-built result exercising prose, titles, and escaping. */
QueryResult
goldenResult()
{
    QueryResult r;
    r.verb = "mix";
    r.epoch = 7;
    r.cached = true;

    QuerySection prose;
    prose.text = "total executed instructions: 1'234\n";
    r.sections.push_back(std::move(prose));

    QuerySection table;
    table.title = "top mnemonics";
    TextTable t({"mnemonic", "count"});
    t.setAlign(1, Align::Right);
    t.addRow({"MOV", "900"});
    t.addRow({"ADD \"x\"", "334"});
    table.table = std::move(t);
    r.sections.push_back(std::move(table));
    return r;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(HBBP_GOLDEN_DIR) + "/" + name;
}

void
checkGolden(const std::string &name, const std::string &rendered)
{
    if (::getenv("HBBP_UPDATE_GOLDEN")) {
        testutil::writeFile(goldenPath(name), rendered);
        return;
    }
    std::string expected = testutil::readFile(goldenPath(name));
    ASSERT_FALSE(expected.empty())
        << goldenPath(name)
        << " missing; regenerate with HBBP_UPDATE_GOLDEN=1";
    EXPECT_EQ(rendered, expected) << "format drift in " << name;
}

TEST(QueryRenderTest, GoldenText)
{
    checkGolden("query_result.text.golden",
                goldenResult().render(RenderFormat::Text));
}

TEST(QueryRenderTest, GoldenCsv)
{
    checkGolden("query_result.csv.golden",
                goldenResult().render(RenderFormat::Csv));
}

TEST(QueryRenderTest, GoldenJson)
{
    checkGolden("query_result.json.golden",
                goldenResult().render(RenderFormat::Json));
}

} // namespace
} // namespace hbbp
