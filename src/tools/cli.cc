/**
 * @file
 * hbbp-tool — the command-line front end, mirroring the paper's
 * two-phase collector/analyzer workflow:
 *
 *   hbbp-tool version
 *   hbbp-tool list
 *   hbbp-tool collect <workload> -o <profile> [--jobs N] [--shards N]
 *                     [--store DIR]
 *   hbbp-tool merge   -o <profile> <in1> <in2> ...
 *   hbbp-tool batch   <w1,w2,...|all> [--jobs N] [--shards N]
 *                     [--store DIR] [--top N] [--csv]
 *   hbbp-tool export  <workload> --host ID --export-dir DIR [--seq N]
 *                     [--jobs N] [--shards N] [--store DIR]
 *   hbbp-tool push    <workload> --host ID (--to HOST:PORT |
 *                     --export-dir DIR) [--seq N] [--chunks N]
 *                     [--retries N] [--jobs N] [-o <profile>]
 *   hbbp-tool aggregate (--watch-dir DIR | --listen PORT)
 *                     [-o <profile>] [--analyze <workload>]
 *                     [daemon options]
 *   hbbp-tool relay   --listen PORT --to HOST:PORT [--relay-id ID]
 *                     [--flush-every N] [--retries N] [daemon options]
 *   hbbp-tool serve   --listen PORT [daemon options]
 *   hbbp-tool query   --from HOST:PORT <verb> [--host H] [options]
 *   hbbp-tool store   gc --store DIR [--max-age-s N] [--max-bytes N]
 *   hbbp-tool store   (stat|verify|rebuild-index) --store DIR
 *   hbbp-tool stats   [--from HOST:PORT] [--tree] [--healthz]
 *                     [--watch N [--count M]]
 *   hbbp-tool events  --from FILE [--code C] [--since T]
 *   hbbp-tool migrate <profile-in> [-o <profile-out>]
 *   hbbp-tool analyze <workload> -i <profile> [options]
 *   hbbp-tool report  <workload> [-i <profile>] [options]
 *   hbbp-tool fdo     <workload> -i <profile> [-o FILE] [options]
 *
 * Per-command options are declared in tools/options.hh; the analysis
 * flags (--source/--cutoff/--no-bias-rule/--patch-kernel/--pivot/
 * --top/--function/--format) are shared by analyze, report, fdo and
 * query, and --format text|csv|json renders any analysis view
 * uniformly (--csv remains an alias for --format csv).
 *
 * The three daemons are one FleetNode (fleet/node.hh) each, and share
 * the daemon options (--bind/--port-file/--state/--store/--expect/
 * --timeout-ms/--metrics-port/--metrics-port-file/--trace-log/
 * --event-log/--stall-warn-s). Every listening daemon co-hosts the
 * shard listener (collectors keep pushing to the same port) and the
 * hbbp-query/1 endpoint, answering mix/report/fdo/hosts/status
 * queries over the aggregate it holds with per-epoch result caching;
 * a `shutdown` verb ends its loop deterministically (a relay still
 * pushes its final flush). aggregate ends at --expect or the idle
 * timeout and writes -o; relay pushes its partial aggregate to --to;
 * serve is the root that runs until shutdown. query is the matching
 * client; its stdout carries exactly the bytes offline analyze/report
 * would print, with `epoch=N cached=K` metadata on stderr.
 */

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/service.hh"
#include "fleet/aggregate.hh"
#include "fleet/batch.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/metrics.hh"
#include "fleet/node.hh"
#include "fleet/query.hh"
#include "fleet/shard.hh"
#include "fleet/socket_client.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"
#include "hbbp/version.hh"
#include "support/bytes.hh"
#include "support/events.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "tools/options.hh"
#include "tools/profiler.hh"
#include "tools/registry.hh"

using namespace hbbp;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: hbbp-tool version\n"
                 "       hbbp-tool list\n"
                 "       hbbp-tool collect <workload> -o <profile> "
                 "[--jobs N] [--shards N] [--store DIR]\n"
                 "       hbbp-tool merge -o <profile> <in1> <in2> ...\n"
                 "       hbbp-tool batch <w1,w2,...|all> [--jobs N] "
                 "[--shards N] [--store DIR]\n"
                 "                 [--top N] [--csv]\n"
                 "       hbbp-tool export <workload> --host ID "
                 "--export-dir DIR [--seq N]\n"
                 "                 [--jobs N] [--shards N] [--store DIR]\n"
                 "       hbbp-tool push <workload> --host ID "
                 "(--to HOST:PORT | --export-dir DIR)\n"
                 "                 [--seq N] [--chunks N] [--retries N] "
                 "[--jobs N] [-o <profile>]\n"
                 "       hbbp-tool aggregate (--watch-dir DIR | "
                 "--listen PORT) [-o <profile>]\n"
                 "                 [--analyze <workload>] "
                 "[daemon options]\n"
                 "       hbbp-tool relay --listen PORT --to HOST:PORT "
                 "[--relay-id ID]\n"
                 "                 [--flush-every N] [--retries N] "
                 "[daemon options]\n"
                 "       hbbp-tool serve --listen PORT "
                 "[daemon options]\n"
                 "       (daemon options: [--bind ADDR] "
                 "[--port-file FILE] [--state FILE]\n"
                 "                 [--store DIR] [--expect N] "
                 "[--timeout-ms N] [--metrics-port N]\n"
                 "                 [--metrics-port-file FILE] "
                 "[--trace-log FILE] [--event-log FILE]\n"
                 "                 [--stall-warn-s N]; listening "
                 "daemons answer query)\n"
                 "       hbbp-tool query --from HOST:PORT "
                 "<mix|report|fdo|hosts|status|shutdown>\n"
                 "                 [--host ID] [--format text|csv|json] "
                 "[analysis options]\n"
                 "       hbbp-tool store gc --store DIR "
                 "[--max-age-s N] [--max-bytes N]\n"
                 "       hbbp-tool store (stat|verify|rebuild-index) "
                 "--store DIR\n"
                 "       hbbp-tool stats [--from HOST:PORT] [--tree] "
                 "[--healthz]\n"
                 "                 [--watch N [--count M]]\n"
                 "       hbbp-tool events --from FILE [--code C] "
                 "[--since T]\n"
                 "       hbbp-tool migrate <profile-in> "
                 "[-o <profile-out>]\n"
                 "       hbbp-tool analyze <workload> -i <profile> "
                 "[--source hbbp|ebs|lbr] [--cutoff N]\n"
                 "                 [--no-bias-rule] [--patch-kernel] "
                 "[--pivot dims] [--top N]\n"
                 "                 [--function NAME] "
                 "[--format text|csv|json]\n"
                 "       hbbp-tool report <workload> [-i <profile>] "
                 "[--format text|csv|json]\n"
                 "       hbbp-tool fdo <workload> -i <profile> "
                 "[-o FILE] [--cutoff N]\n"
                 "                 [--format text|csv|json]\n");
    std::exit(2);
}

void
onSigUsr1(int)
{
    // Async-signal-safe: one relaxed store; the daemon's accept loop
    // polls dumpIfRequested() and prints the snapshot from there.
    telemetry::requestDump();
}

/**
 * A daemon's whole health plane, torn down in one place: the
 * metrics/healthz endpoint, the federation scraper behind it, and the
 * stall watchdog. stop() order matters — the watchdog and federator
 * reference telemetry state the server renders, so they go first.
 */
struct Observability
{
    std::unique_ptr<MetricsServer> server;
    std::unique_ptr<MetricsFederator> federator;
    events::StallWatchdog watchdog;
    /** HOST:PORT children should scrape; "" when metrics are off. */
    std::string endpoint;

    void
    stop(const char *banner)
    {
        watchdog.stop();
        if (federator)
            federator->stop();
        if (server) {
            server->stop();
            telemetry::dumpSnapshot(banner);
        }
    }
};

/**
 * Daemon observability setup shared by aggregate, relay and serve:
 * open the structured event log, arm the stall watchdog and the
 * SIGUSR1 snapshot dump, and start the metrics endpoint when
 * requested (reporting the bound port for scripts). Every daemon
 * federates: children discovered from `metrics=` manifest lines are
 * scraped and merged into this daemon's own /metrics body, and
 * /healthz degrades on a stalled loop stage or a stale child.
 */
std::unique_ptr<Observability>
startObservability(const DaemonOptions &opts, const std::string &node)
{
    std::signal(SIGUSR1, onSigUsr1);
    auto obs = std::make_unique<Observability>();
    events::openLog(opts.event_log, node);
    obs->watchdog.start(opts.stall_warn_s);
    if (opts.metrics_port < 0)
        return obs;
    obs->server = std::make_unique<MetricsServer>(
        static_cast<uint16_t>(opts.metrics_port));
    obs->endpoint = format("127.0.0.1:%u", obs->server->port());
    obs->federator = std::make_unique<MetricsFederator>();
    MetricsFederator *fed = obs->federator.get();
    obs->server->setMetricsRenderer([fed] {
        return federateMetricsText(
            telemetry::registry().renderPrometheus(),
            fed->snapshots());
    });
    // The watchdog threshold doubles as the healthz degrade
    // threshold; without --stall-warn-s keep the server's default.
    double stall_s = opts.stall_warn_s > 0 ? opts.stall_warn_s : 30.0;
    obs->server->setHealthzRenderer(
        [stall_s, fed] { return renderHealthz(stall_s, fed); });
    std::printf("metrics on port %u\n", obs->server->port());
    std::fflush(stdout);
    if (!opts.metrics_port_file.empty())
        writeFileAtomically(opts.metrics_port_file,
                            format("%u\n", obs->server->port()));
    return obs;
}

int
cmdList()
{
    for (const std::string &w : workloadNames())
        std::printf("%s\n", w.c_str());
    return 0;
}

int
cmdCollect(const CollectOptions &opts)
{
    if (opts.profile_out.empty())
        fatal("collect requires -o <profile>");
    Workload w = requireWorkloadByName(opts.workload);
    CollectorConfig cc = collectorConfigFor(w);

    ShardPlan plan;
    plan.shards = opts.coll.shards;
    plan.jobs = opts.coll.jobs;

    ProfileData pd;
    bool cache_hit = false;
    if (!opts.coll.store_dir.empty()) {
        ProfileStore store(opts.coll.store_dir);
        ProfileKey key{w.name, cc, plan.shards, MachineConfig{}};
        pd = store.getOrCollect(key, *w.program, plan.jobs, &cache_hit);
    } else {
        pd = collectSharded(*w.program, MachineConfig{}, cc, plan);
    }
    pd.save(opts.profile_out);
    std::printf("collected %zu EBS samples + %zu LBR stacks from %llu "
                "instructions (%u shard%s%s) -> %s\n",
                pd.ebs.size(), pd.lbr.size(),
                static_cast<unsigned long long>(
                    pd.features.instructions),
                plan.shards, plan.shards == 1 ? "" : "s",
                cache_hit ? ", store hit" : "",
                opts.profile_out.c_str());
    return 0;
}

int
cmdMerge(const MergeOptions &opts)
{
    if (opts.profile_out.empty())
        fatal("merge requires -o <profile>");
    if (opts.inputs.size() < 2)
        fatal("merge requires at least two input profiles");
    std::vector<ProfileData> shards;
    shards.reserve(opts.inputs.size());
    for (const std::string &path : opts.inputs)
        shards.push_back(ProfileData::load(path));
    ProfileData merged = mergeProfiles(shards);
    merged.save(opts.profile_out);
    std::printf("merged %zu profiles: %zu EBS samples + %zu LBR stacks "
                "-> %s\n", shards.size(), merged.ebs.size(),
                merged.lbr.size(), opts.profile_out.c_str());
    return 0;
}

int
cmdBatch(const BatchOptions &opts)
{
    std::vector<std::string> workloads;
    if (opts.workloads == "all")
        workloads = workloadNames();
    else
        workloads = split(opts.workloads, ',');

    BatchConfig bc;
    bc.shards = opts.coll.shards;
    bc.jobs = opts.coll.jobs;
    bc.store_dir = opts.coll.store_dir;
    bc.analyzer.map.patch_kernel_text = opts.analysis.patch_kernel;
    bc.analyzer.classifier = std::make_shared<CutoffClassifier>(
        opts.analysis.cutoff, opts.analysis.bias_rule);

    BatchResult res = runBatch(workloads, bc);

    TextTable summary = res.summaryTable();
    TextTable mix = res.aggregateMixTable(opts.analysis.top);
    if (opts.analysis.format == "csv") {
        std::printf("%s\n%s", summary.renderCsv().c_str(),
                    mix.renderCsv().c_str());
    } else {
        std::printf("batch: %zu workloads, %u shards each, %u jobs, "
                    "%zu store hit%s\n\n", res.entries.size(),
                    bc.shards, bc.jobs, res.cache_hits,
                    res.cache_hits == 1 ? "" : "s");
        std::printf("%s\n", summary.render().c_str());
        std::printf("aggregated fleet mix:\n%s", mix.render().c_str());
    }
    return 0;
}

/**
 * The simulated-host collector: collect (host-seeded, so distinct
 * hosts produce distinct but reproducible profiles) and export the
 * result as a shard into a drop directory.
 */
int
cmdExport(const ExportOptions &opts)
{
    if (opts.host.empty())
        fatal("export requires --host <id>");
    if (opts.export_dir.empty())
        fatal("export requires --export-dir <dir>");
    Workload w = requireWorkloadByName(opts.workload);
    CollectorConfig cc = collectorConfigFor(w);
    cc.seed = hostStreamSeed(cc.seed, opts.host, opts.seq);
    cc.pmu.seed = hostStreamSeed(cc.pmu.seed ^ 0x5851f42d4c957f2dULL,
                                 opts.host, opts.seq);

    ShardPlan plan;
    plan.shards = opts.coll.shards;
    plan.jobs = opts.coll.jobs;
    ProfileKey key{w.name, cc, plan.shards, MachineConfig{}};

    ProfileData pd;
    bool cache_hit = false;
    if (!opts.coll.store_dir.empty()) {
        ProfileStore store(opts.coll.store_dir);
        pd = store.getOrCollect(key, *w.program, plan.jobs, &cache_hit);
    } else {
        pd = collectSharded(*w.program, MachineConfig{}, cc, plan);
    }

    ShardManifest manifest;
    std::string manifest_path =
        exportShard(pd, opts.host, w.name, opts.seq, key.hash(),
                    opts.export_dir, &manifest);
    std::printf("exported shard host=%s seq=%u workload=%s "
                "checksum=%016llx (%zu EBS samples + %zu LBR stacks%s) "
                "-> %s\n",
                opts.host.c_str(), opts.seq, w.name.c_str(),
                static_cast<unsigned long long>(manifest.checksum),
                pd.ebs.size(), pd.lbr.size(),
                cache_hit ? ", store hit" : "", manifest_path.c_str());
    return 0;
}

/**
 * Export's sibling over the pluggable transport layer: collect
 * host-seeded, then *push* the shard — to an `aggregate --listen`
 * socket (optionally streamed as N partial chunks) or through the
 * drop-directory transport.
 */
int
cmdPush(const PushOptions &opts)
{
    if (opts.host.empty())
        fatal("push requires --host <id>");
    // Fail here, not as a listener rejection after the collection ran.
    if (!validHostId(opts.host))
        fatal("invalid host id '%s' (must be non-empty, without "
              "whitespace, '/', ',' or ':')", opts.host.c_str());
    if (opts.to.empty() == opts.export_dir.empty())
        fatal("push requires exactly one of --to <host:port> or "
              "--export-dir <dir>");
    if (opts.chunks == 0)
        fatal("--chunks must be >= 1");
    Workload w = requireWorkloadByName(opts.workload);
    CollectorConfig cc = collectorConfigFor(w);
    cc.seed = hostStreamSeed(cc.seed, opts.host, opts.seq);
    cc.pmu.seed = hostStreamSeed(cc.pmu.seed ^ 0x5851f42d4c957f2dULL,
                                 opts.host, opts.seq);

    // The chunk is the streaming unit: collect --chunks shards whose
    // in-order merge is the shard profile, so long collections can
    // deliver incrementally as each chunk finishes.
    ShardPlan plan;
    plan.shards = opts.chunks;
    plan.jobs = opts.coll.jobs;
    ProfileKey key{w.name, cc, plan.shards, MachineConfig{}};
    std::vector<ProfileData> parts =
        collectShards(*w.program, MachineConfig{}, cc, plan);
    ProfileData merged = mergeProfiles(parts);

    ShardManifest manifest;
    manifest.host = opts.host;
    manifest.workload = w.name;
    manifest.seq = opts.seq;
    manifest.options_hash = key.hash();

    std::vector<std::string> chunks;
    if (opts.chunks == 1) {
        chunks.push_back(merged.serialize(&manifest.checksum));
    } else {
        // Chunked mode sends the parts; the merged profile only
        // contributes its checksum, so skip serializing its bytes.
        manifest.checksum = merged.payloadChecksum();
        chunks.reserve(parts.size());
        for (const ProfileData &part : parts)
            chunks.push_back(part.serialize());
    }
    if (!opts.profile_out.empty())
        merged.save(opts.profile_out);

    // Tracing is opt-in: it stamps the shard's trace id into the
    // manifest (so relays and the root can attribute it), and an
    // unstamped push keeps the exact pre-tracing manifest bytes.
    telemetry::TraceLog trace;
    std::string trace_id;
    if (!opts.trace_log.empty()) {
        trace.open(opts.trace_log, "collector:" + opts.host);
        trace_id = shardTraceId(manifest);
        manifest.trace_ids.push_back(trace_id);
    }

    SendResult res;
    trace.span("push_start", trace_id,
               format("seq=%u chunks=%zu", opts.seq, chunks.size()));
    if (!opts.to.empty()) {
        SocketTransportOptions so;
        parseHostPort(opts.to, "--to", &so.host, &so.port);
        so.max_attempts = std::max(opts.retries, 1);
        SocketTransport transport(so);
        transport.fail_after_chunks = opts.fail_after;
        res = transport.sendShard(manifest, chunks);
    } else {
        DropDirTransport transport(opts.export_dir);
        res = transport.sendShard(manifest, chunks);
    }
    if (!res.ok)
        fatal("push failed: %s", res.error.c_str());
    trace.span("push_acked", trace_id,
               format("attempts=%d%s", res.attempts,
                      res.duplicate ? " duplicate" : ""));

    std::printf("pushed shard host=%s seq=%u workload=%s "
                "checksum=%016llx (%zu chunk%s, %d attempt%s%s) "
                "-> %s\n",
                opts.host.c_str(), opts.seq, w.name.c_str(),
                static_cast<unsigned long long>(manifest.checksum),
                chunks.size(), chunks.size() == 1 ? "" : "s",
                res.attempts, res.attempts == 1 ? "" : "s",
                res.duplicate ? ", duplicate" : "",
                opts.to.empty() ? opts.export_dir.c_str()
                                : opts.to.c_str());
    return 0;
}

/**
 * The FleetNode settings every daemon takes from its shared flags,
 * plus its observability hooks: the federator its arrivals register
 * children with and the metrics endpoint a relay advertises upstream.
 */
FleetNodeOptions
nodeOptions(const DaemonOptions &d, std::string id,
            const Observability &obs)
{
    FleetNodeOptions no;
    no.id = std::move(id);
    no.listen_port = static_cast<uint16_t>(std::max(d.listen_port, 0));
    no.bind_addr = d.bind_addr;
    no.expect = d.expect;
    no.idle_timeout_ms = d.timeout_ms;
    no.state_file = d.state_file;
    no.store_dir = d.store_dir;
    no.trace_log = d.trace_log;
    no.metrics_endpoint = obs.endpoint;
    no.federator = obs.federator.get();
    return no;
}

/** Print a daemon's listening line and write its --port-file. */
void
announce(const DaemonOptions &d, const std::string &line, uint16_t port)
{
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    if (!d.port_file.empty())
        writeFileAtomically(d.port_file, format("%u\n", port));
}

/** The root daemons' restart report (a relay's is its summary). */
void
reportRestored(const DaemonOptions &d, FleetNode &node)
{
    IncrementalAggregator &agg = node.aggregator();
    if (agg.restoredShards() > 0)
        std::printf("restored aggregator state from %s: "
                    "%zu shard%s across %zu host%s\n",
                    d.state_file.c_str(), agg.restoredShards(),
                    agg.restoredShards() == 1 ? "" : "s",
                    agg.hostCount(), agg.hostCount() == 1 ? "" : "s");
}

/**
 * The central aggregation side: fold shards from N hosts as they
 * arrive — polled out of a drop directory, or pushed to a listening
 * socket that also answers queries — optionally re-analyzing per
 * arrival, journaling restorable state per arrival, and persisting
 * the canonical aggregate.
 */
int
cmdAggregate(const AggregateOptions &opts)
{
    const DaemonOptions &d = opts.daemon;
    bool listening = d.listen_port >= 0;
    if (opts.watch_dir.empty() == !listening)
        fatal("aggregate requires exactly one of --watch-dir <dir> or "
              "--listen <port>");

    std::unique_ptr<Observability> obs = startObservability(d, "root");
    FleetNodeOptions no = nodeOptions(d, "root", *obs);
    no.watch_dir = opts.watch_dir;
    no.analyze_workload = opts.analyze_workload;
    FleetNode node(std::move(no));
    reportRestored(d, node);
    size_t inherited = node.stats().inherited_pins;
    if (inherited > 0)
        std::printf("releasing %zu pin%s inherited from a previous "
                    "run\n", inherited, inherited == 1 ? "" : "s");
    if (listening)
        announce(d, format("listening on %s:%u", d.bind_addr.c_str(),
                           node.port()),
                 node.port());
    node.run();

    IncrementalAggregator &agg = node.aggregator();
    const AggregatorStats &st = agg.stats();
    if (d.expect > 0 && agg.coveredShards() < d.expect)
        fatal("no shard for %d ms while waiting for %zu shards via "
              "'%s' (covered %zu, accepted %zu, duplicates %zu, "
              "incompatible %zu, malformed %zu)",
              d.timeout_ms, d.expect,
              listening ? "--listen" : opts.watch_dir.c_str(),
              agg.coveredShards(), st.accepted, st.duplicates,
              st.incompatible, st.malformed);
    if (!opts.profile_out.empty())
        agg.aggregate().save(opts.profile_out);

    std::printf("aggregate: accepted=%zu duplicates=%zu "
                "incompatible=%zu malformed=%zu analyses=%zu "
                "rebuilds=%zu restored=%zu hosts=%zu covered=%zu "
                "aggregates=%zu superseded=%zu saturated=%llu%s%s\n",
                st.accepted, st.duplicates, st.incompatible,
                st.malformed, st.analyses, st.rebuilds,
                agg.restoredShards(), agg.hostCount(),
                agg.coveredShards(), st.aggregates, st.superseded,
                static_cast<unsigned long long>(saturatedFoldLanes()),
                opts.profile_out.empty() ? "" : " -> ",
                opts.profile_out.c_str());
    obs->stop("aggregate exiting");
    return 0;
}

/**
 * A fan-in tree node: serve collectors (or deeper relays) downstream,
 * fold their shards, push the partial aggregate upstream as a
 * first-class shard, and answer queries for the subtree it holds.
 * The root of the tree is `aggregate --listen` or `serve`.
 */
int
cmdRelay(const RelayCliOptions &opts)
{
    const DaemonOptions &d = opts.daemon;
    if (d.listen_port < 0)
        fatal("relay requires --listen <port>");
    if (opts.to.empty())
        fatal("relay requires --to <host:port>");
    // The relay id becomes the upstream manifest's host id: hold it
    // to the same rules as --host, and fail here rather than as a
    // rejection of every flush after collectors were already acked.
    if (!opts.relay_id.empty() && !validHostId(opts.relay_id))
        fatal("invalid --relay-id '%s' (must be without whitespace, "
              "'/', ',' or ':')", opts.relay_id.c_str());
    // Unique by default: two sibling relays sharing one id would also
    // share the upstream's per-(host, seq) staging slot, and their
    // interleaved multi-chunk flushes would clobber each other.
    std::string id = opts.relay_id.empty()
                         ? format("relay-%ld", static_cast<long>(::getpid()))
                         : opts.relay_id;

    std::unique_ptr<Observability> obs = startObservability(d, id);
    FleetNodeOptions no = nodeOptions(d, id, *obs);
    parseHostPort(opts.to, "--to", &no.upstream_host, &no.upstream_port);
    no.flush_every = opts.flush_every;
    no.upstream_retries = std::max(opts.retries, 1);
    FleetNode node(std::move(no));
    announce(d, format("relaying %s:%u -> %s", d.bind_addr.c_str(),
                       node.port(), opts.to.c_str()),
             node.port());

    FleetNodeStats rs = node.run();
    std::printf("relay: accepted=%zu covered=%zu restored=%zu "
                "flushes=%zu flush_failures=%zu orphans=%zu "
                "upstream_ok=%d\n",
                rs.accepted, rs.covered, rs.restored, rs.flushes,
                rs.flush_failures, rs.orphans_forwarded,
                rs.upstream_ok ? 1 : 0);
    obs->stop("relay exiting");
    // Order matters: the final flush already ran, so these exits lose
    // nothing that --state does not hold.
    if (!rs.upstream_ok)
        fatal("final upstream flush failed: %s", rs.error.c_str());
    if (d.expect > 0 && rs.covered < d.expect)
        fatal("no shard for %d ms while waiting to cover %zu shards "
              "(covered %zu)", d.timeout_ms, d.expect,
              rs.covered);
    return 0;
}

/**
 * The query-serving daemon: a root that serves until a `shutdown`
 * query. Collectors push shards exactly as they would to `aggregate
 * --listen`; query clients dial the same port and speak hbbp-query/1.
 * Every accepted shard bumps the aggregator's epoch, invalidating the
 * analysis service's caches, so queries between arrivals are cache
 * hits and queries after an arrival observe the new aggregate. All of
 * it runs on the listener's single poll thread — no locks anywhere
 * near the aggregator.
 */
int
cmdServe(const ServeOptions &opts)
{
    const DaemonOptions &d = opts.daemon;
    if (d.listen_port < 0)
        fatal("serve requires --listen <port>");

    std::unique_ptr<Observability> obs = startObservability(d, "serve");
    FleetNode node(nodeOptions(d, "serve", *obs));
    reportRestored(d, node);
    announce(d, format("serving on %s:%u", d.bind_addr.c_str(),
                       node.port()),
             node.port());
    node.run();

    const ServiceStats &ss = node.serviceStats();
    IncrementalAggregator &agg = node.aggregator();
    const AggregatorStats &st = agg.stats();
    std::printf("serve: accepted=%zu hosts=%zu covered=%zu epoch=%llu "
                "requests=%llu cache_hits=%llu cache_misses=%llu "
                "errors=%llu analyses=%llu\n",
                st.accepted, agg.hostCount(), agg.coveredShards(),
                static_cast<unsigned long long>(agg.epoch()),
                static_cast<unsigned long long>(ss.requests),
                static_cast<unsigned long long>(ss.hits),
                static_cast<unsigned long long>(ss.misses),
                static_cast<unsigned long long>(ss.errors),
                static_cast<unsigned long long>(ss.analyses));
    obs->stop("serve exiting");
    return 0;
}

/**
 * The query client. Stdout carries exactly the payload bytes — what
 * offline analyze/report/fdo would print for the same aggregate and
 * options — so scripts can diff the two; the `epoch=N cached=K`
 * metadata goes to stderr.
 */
int
cmdQuery(const QueryCliOptions &opts)
{
    if (opts.from.empty())
        fatal("query requires --from <host:port>");
    std::string host;
    uint16_t port = 0;
    parseHostPort(opts.from, "--from", &host, &port);

    QueryRequest req;
    req.verb = opts.verb;
    req.params = opts.analysis.toQueryParams();

    QueryClient client(host, port);
    QueryReply reply;
    std::string why;
    if (!client.query(req.renderText(), &reply, &why))
        fatal("query to %s failed: %s", opts.from.c_str(),
              why.c_str());
    std::fprintf(stderr, "epoch=%llu cached=%d\n",
                 static_cast<unsigned long long>(reply.epoch),
                 reply.cached ? 1 : 0);
    if (reply.has_timing)
        std::fprintf(
            stderr,
            "timing parse=%lluns cache=%lluns analysis=%lluns "
            "render=%lluns\n",
            static_cast<unsigned long long>(reply.parse_ns),
            static_cast<unsigned long long>(reply.cache_ns),
            static_cast<unsigned long long>(reply.analysis_ns),
            static_cast<unsigned long long>(reply.render_ns));
    if (!reply.trace_id.empty())
        std::fprintf(stderr, "trace=%s\n", reply.trace_id.c_str());
    if (!reply.ok)
        fatal("%s", reply.error.c_str());
    std::fwrite(reply.payload.data(), 1, reply.payload.size(), stdout);
    return 0;
}

/**
 * Store maintenance: `hbbp-tool store gc|stat|verify|rebuild-index`.
 * gc is bounded eviction; stat summarizes the index; verify
 * cross-checks index vs directory vs checksums; rebuild-index
 * re-derives the index from the entries (the recovery tool).
 */
int
cmdStore(const StoreOptions &opts)
{
    if (opts.store_dir.empty())
        fatal("store %s requires --store <dir>",
              opts.action.empty() ? "gc" : opts.action.c_str());
    if (opts.action == "gc") {
        if (opts.max_age_s < 0 && opts.max_bytes < 0)
            fatal("store gc requires --max-age-s and/or --max-bytes "
                  "(unbounded gc would evict nothing)");
        ProfileStore store(opts.store_dir);
        ProfileStore::GcResult res =
            store.gc({opts.max_age_s, opts.max_bytes});
        std::printf("store gc: scanned=%zu evicted=%zu "
                    "pinned_skipped=%zu bytes_before=%llu "
                    "bytes_after=%llu\n",
                    res.scanned, res.evicted, res.pinned_skipped,
                    static_cast<unsigned long long>(res.bytes_before),
                    static_cast<unsigned long long>(res.bytes_after));
        return 0;
    }
    if (opts.action == "stat") {
        ProfileStore store(opts.store_dir);
        ProfileStore::Stats st = store.stats();
        std::printf("store stat: key_entries=%zu shard_entries=%zu "
                    "total_bytes=%llu pinned=%zu pin_owners=%zu\n",
                    st.key_entries, st.shard_entries,
                    static_cast<unsigned long long>(st.total_bytes),
                    st.pinned, st.pin_owners);
        return 0;
    }
    if (opts.action == "verify") {
        ProfileStore store(opts.store_dir);
        ProfileStore::VerifyResult res = store.verify();
        std::printf("store verify: checked=%zu missing_files=%zu "
                    "stray_files=%zu checksum_mismatches=%zu %s\n",
                    res.checked, res.missing_files, res.stray_files,
                    res.checksum_mismatches,
                    res.ok() ? "ok" : "NOT OK");
        return res.ok() ? 0 : 1;
    }
    if (opts.action == "rebuild-index") {
        ProfileStore store(opts.store_dir);
        size_t n = store.rebuildIndex();
        std::printf("store rebuild-index: indexed=%zu\n", n);
        return 0;
    }
    fatal("unknown store action '%s' (expected: gc, stat, verify, "
          "rebuild-index)", opts.action.c_str());
}

/** `name{labels} value` → series key + numeric value. */
bool
parseMetricLine(const std::string &line, std::string *key,
                double *value)
{
    if (line.empty() || line[0] == '#')
        return false;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0)
        return false;
    const char *num = line.c_str() + sp + 1;
    char *end = nullptr;
    double v = std::strtod(num, &end);
    if (end == num || *end != '\0')
        return false;
    *key = line.substr(0, sp);
    *value = v;
    return true;
}

/**
 * Render a federated /metrics body as a fleet tree: this node's own
 * series first, then each child's (grouped by peer label), then the
 * subtree rollups — the one-command view of the whole fleet that a
 * single scrape of the root endpoint carries.
 */
void
printStatsTree(const std::string &from, const std::string &body)
{
    std::vector<std::string> local, rollup;
    std::map<std::string, std::vector<std::string>> peers;
    for (const std::string &line : split(body, '\n')) {
        std::string key;
        double value = 0;
        if (!parseMetricLine(line, &key, &value))
            continue;
        if (key.find("{agg=\"subtree\"}") != std::string::npos) {
            rollup.push_back(line);
            continue;
        }
        size_t p = key.find("peer=\"");
        if (p == std::string::npos) {
            local.push_back(line);
            continue;
        }
        size_t start = p + 6;
        size_t endq = key.find('"', start);
        peers[key.substr(start, endq - start)].push_back(line);
    }
    std::printf("fleet tree from %s\n", from.c_str());
    std::printf("node <local>\n");
    for (const std::string &line : local)
        std::printf("  %s\n", line.c_str());
    for (const auto &[peer, lines] : peers) {
        std::printf("peer %s\n", peer.c_str());
        for (const std::string &line : lines)
            std::printf("  %s\n", line.c_str());
    }
    if (!rollup.empty()) {
        std::printf("subtree rollup\n");
        for (const std::string &line : rollup)
            std::printf("  %s\n", line.c_str());
    }
}

/**
 * Print one --watch round: every series' current value, with the
 * delta and per-second rate since the previous scrape once there is
 * one. New series are marked instead of given a bogus full-value
 * delta.
 */
void
printStatsDeltas(const std::string &body, double dt_s,
                 std::map<std::string, double> *prev)
{
    std::map<std::string, double> cur;
    for (const std::string &line : split(body, '\n')) {
        std::string key;
        double value = 0;
        if (parseMetricLine(line, &key, &value))
            cur[key] = value;
    }
    for (const auto &[key, value] : cur) {
        if (prev->empty()) {
            std::printf("%s %g\n", key.c_str(), value);
        } else if (!prev->count(key)) {
            std::printf("%s %g (new)\n", key.c_str(), value);
        } else {
            double delta = value - (*prev)[key];
            std::printf("%s %g (%+g %.2f/s)\n", key.c_str(), value,
                        delta, dt_s > 0 ? delta / dt_s : 0.0);
        }
    }
    *prev = std::move(cur);
}

/**
 * Print metrics: scraped from a live daemon's --metrics-port endpoint
 * (Prometheus text passed through verbatim; --tree renders the
 * federated body as a fleet tree, --healthz fetches the health body
 * and exits non-zero when degraded, --watch re-scrapes every N
 * seconds printing deltas and rates), or — with no --from — this
 * process's own registry snapshot in the compact deterministic format
 * daemons dump on SIGUSR1.
 */
int
cmdStats(const StatsOptions &opts)
{
    if (opts.from.empty()) {
        std::fputs(telemetry::registry().renderSnapshot().c_str(),
                   stdout);
        return 0;
    }
    std::string host;
    uint16_t port = 0;
    parseHostPort(opts.from, "--from", &host, &port);
    const char *path = opts.healthz ? "/healthz" : "/metrics";

    std::map<std::string, double> prev;
    int64_t prev_ms = 0;
    int degraded = 0;
    for (size_t round = 0;; round++) {
        std::string body, why;
        if (!fetchMetricsText(host, port, &body, &why, path))
            fatal("fetching %s from %s: %s", path, opts.from.c_str(),
                  why.c_str());
        int64_t now_ms = steadyNowMs();
        if (round > 0)
            std::printf("-- +%.1fs\n", (now_ms - prev_ms) / 1e3);
        if (opts.healthz) {
            std::fputs(body.c_str(), stdout);
            degraded = startsWith(body, "status: live") ? 0 : 1;
        } else if (opts.tree) {
            printStatsTree(opts.from, body);
        } else if (opts.watch_s > 0) {
            printStatsDeltas(body, (now_ms - prev_ms) / 1e3, &prev);
        } else {
            std::fputs(body.c_str(), stdout);
        }
        std::fflush(stdout);
        prev_ms = now_ms;
        if (opts.watch_s <= 0 ||
            (opts.watch_count > 0 && round >= opts.watch_count))
            break;
        ::usleep(static_cast<useconds_t>(opts.watch_s * 1e6));
    }
    return degraded;
}

/**
 * Read a structured event log back: `hbbp-tool events --from FILE`
 * prints one human-readable line per record, filtered by stable code
 * and/or timestamp. The flight recorder's playback half.
 */
int
cmdEvents(const EventsOptions &opts)
{
    std::vector<events::Event> evs;
    std::string why;
    if (!events::loadEvents(opts.from, opts.code, opts.since_ms, &evs,
                            &why))
        fatal("%s", why.c_str());
    for (const events::Event &e : evs)
        std::printf("%s\n", e.render().c_str());
    return 0;
}

/** Rewrite a legacy or stale-checksum profile in the current format. */
int
cmdMigrate(const MigrateOptions &opts)
{
    const std::string &in = opts.input;
    std::string out = opts.profile_out.empty() ? in : opts.profile_out;
    uint32_t version = 0;
    ProfileData pd = ProfileData::loadAnyVersion(in, &version);
    // Atomic: with no -o this overwrites the input, which may be the
    // only copy of the legacy profile — a failed write must not
    // destroy it.
    pd.saveAtomically(out);
    std::printf("migrated %s (format version %u, checksum %016llx) "
                "-> %s\n", in.c_str(), version,
                static_cast<unsigned long long>(pd.payloadChecksum()),
                out.c_str());
    return 0;
}

/**
 * The in-process analysis transport: the same AnalysisService the
 * serve daemon exposes over the socket, fed by a FixedProfileSource
 * over the loaded (or freshly collected) profile. Errors the service
 * reports — unknown source, unknown pivot dimension, missing
 * function — become the same fatal() diagnostics the pre-service CLI
 * printed.
 */
QueryResult
serveLocalQuery(const std::string &verb,
                const std::string &workload_name,
                const std::string &profile_in,
                const AnalysisOptions &aopts)
{
    Workload w = requireWorkloadByName(workload_name);
    ProfileData pd;
    if (!profile_in.empty()) {
        pd = ProfileData::load(profile_in);
    } else {
        pd = Collector::collect(*w.program, MachineConfig{},
                                collectorConfigFor(w));
    }
    FixedProfileSource source(std::move(pd), w.name);
    AnalysisService service(source, makeWorkloadByName);

    QueryRequest req;
    req.verb = verb;
    req.params = aopts.toQueryParams();
    QueryResult result = service.serve(req);
    if (!result.error.empty())
        fatal("%s", result.error.c_str());
    return result;
}

int
cmdAnalyze(const AnalyzeOptions &opts, bool full_report)
{
    QueryResult result =
        serveLocalQuery(full_report ? "report" : "mix", opts.workload,
                        opts.profile_in, opts.analysis);
    // serve() validated the format parameter before producing a
    // non-error result.
    std::string out = result.render(
        *renderFormatFromName(opts.analysis.format));
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
}

int
cmdFdo(const FdoOptions &opts)
{
    QueryResult result = serveLocalQuery("fdo", opts.workload,
                                         opts.profile_in,
                                         opts.analysis);
    if (!opts.profile_out.empty()) {
        // The saved artifact is always the canonical text profile,
        // whatever --format renders on stdout.
        writeFileAtomically(opts.profile_out,
                            result.render(RenderFormat::Text));
        std::printf("fdo profile -> %s\n", opts.profile_out.c_str());
        return 0;
    }
    std::string out = result.render(
        *renderFormatFromName(opts.analysis.format));
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Normal, not Quiet: every warn() in the library marks an
    // exceptional condition a fleet operator needs to see (saturating
    // counter clamps, damaged journals, unusable HBBP_VECTOR_BACKEND
    // requests); nothing warns on the happy path, so normal runs stay
    // as quiet as before.
    setLogLevel(LogLevel::Normal);
    if (argc >= 2 && (std::strcmp(argv[1], "version") == 0 ||
                      std::strcmp(argv[1], "--version") == 0)) {
        std::printf("hbbp-tool %s\n", kVersion);
        return 0;
    }
    if (argc < 2)
        usage();
    std::string command = argv[1];
    if (command == "list") {
        ArgParser p(argc, argv, 2);
        p.run();
        return cmdList();
    }
    if (command == "collect")
        return cmdCollect(CollectOptions::parse(argc, argv));
    if (command == "merge")
        return cmdMerge(MergeOptions::parse(argc, argv));
    if (command == "batch")
        return cmdBatch(BatchOptions::parse(argc, argv));
    if (command == "export")
        return cmdExport(ExportOptions::parse(argc, argv));
    if (command == "push")
        return cmdPush(PushOptions::parse(argc, argv));
    if (command == "aggregate")
        return cmdAggregate(AggregateOptions::parse(argc, argv));
    if (command == "relay")
        return cmdRelay(RelayCliOptions::parse(argc, argv));
    if (command == "serve")
        return cmdServe(ServeOptions::parse(argc, argv));
    if (command == "query")
        return cmdQuery(QueryCliOptions::parse(argc, argv));
    if (command == "store")
        return cmdStore(StoreOptions::parse(argc, argv));
    if (command == "stats")
        return cmdStats(StatsOptions::parse(argc, argv));
    if (command == "events")
        return cmdEvents(EventsOptions::parse(argc, argv));
    if (command == "migrate")
        return cmdMigrate(MigrateOptions::parse(argc, argv));
    if (command == "analyze")
        return cmdAnalyze(AnalyzeOptions::parse(argc, argv),
                          /*full_report=*/false);
    if (command == "report")
        return cmdAnalyze(AnalyzeOptions::parse(argc, argv),
                          /*full_report=*/true);
    if (command == "fdo")
        return cmdFdo(FdoOptions::parse(argc, argv));
    usage();
}
