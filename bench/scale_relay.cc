/**
 * @file
 * Hierarchical relay aggregation scaling benchmark.
 *
 * Measures a fleet's shards reaching one root aggregate two ways as
 * host counts grow: flat (every host pushes straight to the root
 * listener, the PR-4 topology) against a depth-2 tree (hosts split
 * across two relay nodes that fold locally and push partial
 * aggregates upstream). The tree pays an extra hop but the root folds
 * a handful of aggregate arrivals instead of every collector's
 * stream — the shape that keeps a root alive at fleet scale. Both
 * topologies must produce byte-identical aggregates; the bench fails
 * loudly if they ever disagree.
 *
 * Output is machine-readable JSON on stdout (one object), so CI can
 * archive and diff runs. Pass --human for the table view, --quick for
 * a CI-sized run.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "bench/foldbench.hh"
#include "fleet/aggregate.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/metrics.hh"
#include "fleet/node.hh"
#include "fleet/shard.hh"
#include "fleet/transport.hh"
#include "support/telemetry.hh"

using namespace hbbp;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - start)
        .count();
}

/** One topology timing point. */
struct RelayPoint
{
    size_t hosts = 0;
    size_t relays = 0;
    uint64_t samples = 0;
    double flat_seconds = 0.0;
    double tree_seconds = 0.0;
    size_t root_arrivals_flat = 0;
    size_t root_arrivals_tree = 0;
};

/** What the compiled-in metrics cost on the fold hot path. */
struct TelemetryOverhead
{
    int reps = 0;
    size_t shards = 0;
    double enabled_seconds = 0.0;  ///< Min-of-reps, telemetry on.
    double disabled_seconds = 0.0; ///< Min-of-reps, setEnabled(false).
    double overhead_pct = 0.0;     ///< (enabled-disabled)/disabled.
    double noise_pct = 0.0;        ///< A/A delta: the run's noise floor.
};

/**
 * Price the instrumentation on the aggregator fold path: fold the
 * same shard set repeatedly with telemetry enabled and disabled
 * (compiled in but idle), keeping the fastest rep of each. The
 * enabled/disabled delta is the whole cost of the counters and fold
 * timers on the hot path — the ISSUE gate holds it under 2%.
 */
TelemetryOverhead
measureTelemetryOverhead(const std::vector<ShardManifest> &manifests,
                         const std::vector<ProfileData> &profiles,
                         int reps)
{
    TelemetryOverhead to;
    to.reps = reps;
    to.shards = profiles.size();
    auto fold_set = [&]() {
        IncrementalAggregator agg;
        for (size_t h = 0; h < profiles.size(); h++) {
            std::string why;
            if (!agg.addShard(manifests[h], profiles[h], &why))
                fatal("overhead bench fold rejected: %s", why.c_str());
        }
    };
    // Warm up and calibrate. Batch size is a balance: a single fold
    // of a quick-mode shard set runs in fractions of a millisecond —
    // too short to resolve a sub-2% delta against timer granularity —
    // while a long batch is near-certain to absorb a preemption on a
    // shared runner. ~5ms batches are long enough to amortize the
    // timer and short enough that many of them land entirely inside
    // quiet scheduler gaps, which is what the min-of-reps needs.
    auto cal_start = std::chrono::steady_clock::now();
    fold_set();
    double single = secondsSince(cal_start);
    int iters = 1;
    if (single > 0.0 && single < 0.005)
        iters = std::min(1000, static_cast<int>(0.005 / single) + 1);
    auto fold_batch = [&]() {
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; i++)
            fold_set();
        return secondsSince(start) / iters;
    };
    // Sample enabled/disabled as adjacent pairs, alternating which
    // mode goes first each rep: running all of one mode before the
    // other would hand any slow machine drift (frequency scaling, a
    // background task) entirely to one side and fake an overhead.
    // The workload is deterministic, so every timing is the true
    // cost plus non-negative noise — min-of-reps per mode converges
    // on the clean sample, and the min/min ratio prices exactly the
    // instrumentation. Shared runners need many reps for both mins
    // to land on a quiet slice; that is what `reps` buys.
    std::vector<double> en_samples, dis_samples;
    en_samples.reserve(reps);
    dis_samples.reserve(reps);
    for (int r = 0; r < reps; r++) {
        bool en_first = (r % 2 == 0);
        for (int k = 0; k < 2; k++) {
            bool enabled = en_first ? (k == 0) : (k == 1);
            telemetry::setEnabled(enabled);
            double s = fold_batch();
            (enabled ? en_samples : dis_samples).push_back(s);
        }
    }
    telemetry::setEnabled(true);
    to.enabled_seconds =
        *std::min_element(en_samples.begin(), en_samples.end());
    to.disabled_seconds =
        *std::min_element(dis_samples.begin(), dis_samples.end());
    // A/A control: min-vs-min between the two halves of the disabled
    // samples (even vs odd reps) measures the same statistic the
    // overhead uses, on data with zero true difference. Whatever it
    // reports is pure runner noise — the floor below which the
    // overhead number is unresolvable. CI gates compare the overhead
    // against their budget *plus* this floor instead of flaking on a
    // busy machine.
    double aa_even = dis_samples[0], aa_odd = dis_samples[1 % reps];
    for (int r = 0; r < reps; r++)
        (r % 2 == 0 ? aa_even : aa_odd) =
            std::min(r % 2 == 0 ? aa_even : aa_odd, dis_samples[r]);
    if (reps >= 2 && to.disabled_seconds > 0.0)
        to.noise_pct =
            std::abs(aa_even - aa_odd) / to.disabled_seconds * 100.0;
    to.overhead_pct = to.disabled_seconds > 0.0
                          ? (to.enabled_seconds - to.disabled_seconds) /
                                to.disabled_seconds * 100.0
                          : 0.0;
    return to;
}

/** What the federation plane itself costs and whether it adds up. */
struct FederationBench
{
    size_t children = 0;
    size_t merged_series = 0; ///< Non-comment lines in one merge.
    double merges_per_s = 0.0; ///< federateMetricsText() throughput.
    double scrape_ms = 0.0; ///< Min loopback /metrics round-trip.
    bool rollup_consistent = false; ///< subtree == own + child sum.
};

/**
 * Price the federation plane: the scrape round-trip against a live
 * MetricsServer and the pure-merge throughput of federateMetricsText
 * over the federator's real snapshots. Both the bench child and the
 * "parent" render the same process registry, so a marker counter set
 * to V must roll up to exactly 2*V in the merged view — a cheap
 * end-to-end check that the rollup arithmetic holds on live scrapes,
 * not just in unit tests.
 */
FederationBench
measureFederation(MetricsFederator &fed, uint16_t child_port,
                  int merge_iters)
{
    FederationBench fb;
    fb.children = fed.childCount();
    fb.scrape_ms = 1e9;
    for (int i = 0; i < 25; i++) {
        std::string body, why;
        auto start = std::chrono::steady_clock::now();
        if (!fetchMetricsText("127.0.0.1", child_port, &body, &why))
            fatal("federation bench scrape failed: %s", why.c_str());
        fb.scrape_ms = std::min(fb.scrape_ms, secondsSince(start) * 1e3);
    }
    std::string own = telemetry::registry().renderPrometheus();
    std::vector<PeerSnapshot> snaps = fed.snapshots();
    std::string merged = federateMetricsText(own, snaps);
    for (size_t pos = 0; pos < merged.size();) {
        size_t eol = merged.find('\n', pos);
        if (eol == std::string::npos)
            eol = merged.size();
        if (eol > pos && merged[pos] != '#')
            fb.merged_series++;
        pos = eol + 1;
    }
    uint64_t marker =
        telemetry::counter("hbbp_bench_federation_marker_total")
            .value();
    fb.rollup_consistent =
        merged.find(format("hbbp_bench_federation_marker_total"
                           "{agg=\"subtree\"} %llu",
                           static_cast<unsigned long long>(2 * marker)))
        != std::string::npos;
    auto start = std::chrono::steady_clock::now();
    size_t sink = 0;
    for (int i = 0; i < merge_iters; i++)
        sink += federateMetricsText(own, snaps).size();
    double s = secondsSince(start);
    if (sink == 0)
        fatal("federation bench merged nothing");
    fb.merges_per_s = s > 0.0 ? merge_iters / s : 0.0;
    return fb;
}

} // namespace

int
main(int argc, char **argv)
{
    bool human = false, quick = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--human") == 0)
            human = true;
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    std::vector<size_t> host_counts =
        quick ? std::vector<size_t>{2, 4}
              : std::vector<size_t>{2, 4, 8, 16};
    constexpr size_t kRelays = 2;
    Workload w = requireWorkloadByName("test40");
    CollectorConfig base_cc = collectorConfigFor(w);
    if (quick)
        base_cc.max_instructions = w.max_instructions / 4;

    std::vector<RelayPoint> points;
    std::vector<ProfileData> fold_profiles; // Largest round, foldbench.
    std::vector<ShardManifest> fold_manifests;
    for (size_t n_hosts : host_counts) {
        // Host-seeded collections prepared up front so both
        // topologies move the same bytes.
        std::vector<ShardManifest> manifests(n_hosts);
        std::vector<std::string> shard_bytes(n_hosts);
        std::vector<ProfileData> profiles(n_hosts);
        for (size_t h = 0; h < n_hosts; h++) {
            std::string host = format("host%03zu", h);
            CollectorConfig cc = base_cc;
            cc.seed = hostStreamSeed(cc.seed, host, 0);
            ShardPlan plan;
            plan.shards = 1;
            plan.jobs = 1;
            profiles[h] = collectSharded(*w.program, MachineConfig{},
                                         cc, plan);
            manifests[h].host = host;
            manifests[h].workload = w.name;
            shard_bytes[h] =
                profiles[h].serialize(&manifests[h].checksum);
        }
        ProfileData reference = mergeProfiles(profiles);

        RelayPoint p;
        p.hosts = n_hosts;
        p.relays = kRelays;
        p.samples = reference.ebs.size() + reference.lbr.size();

        auto push_to = [&](size_t h, uint16_t port) {
            SocketTransportOptions so;
            so.port = port;
            SocketTransport t(so);
            SendResult res =
                t.sendShard(manifests[h], {shard_bytes[h]});
            if (!res.ok)
                fatal("push failed: %s", res.error.c_str());
        };

        // Flat: every host dials the root. Each topology's timer runs
        // from "listeners up" to "root done": daemon set-up and the
        // reference check stay outside it.
        {
            IncrementalAggregator agg;
            ShardListener listener(0);
            ListenOptions lo;
            lo.expect = n_hosts;
            std::thread server([&] { listener.serve(agg, lo); });
            auto start = std::chrono::steady_clock::now();
            std::vector<std::thread> senders;
            for (size_t h = 0; h < n_hosts; h++)
                senders.emplace_back(
                    [&, h] { push_to(h, listener.port()); });
            for (std::thread &t : senders)
                t.join();
            server.join();
            p.flat_seconds = secondsSince(start);
            p.root_arrivals_flat = agg.stats().accepted;
            if (!(agg.aggregate() == reference))
                fatal("flat aggregate disagrees at %zu hosts", n_hosts);
        }

        // Tree: hosts split across relays, relays push partials up.
        {
            IncrementalAggregator agg;
            ShardListener root(0);
            ListenOptions lo;
            lo.expect = n_hosts; // Covered leaves, via the relays.
            std::thread server([&] { root.serve(agg, lo); });

            std::vector<std::unique_ptr<FleetNode>> relays;
            std::vector<std::thread> relay_threads;
            for (size_t r = 0; r < kRelays; r++) {
                FleetNodeOptions ro;
                ro.upstream_port = root.port();
                ro.id = format("relay%zu", r);
                // Each relay serves its slice of the fleet.
                ro.expect = n_hosts / kRelays +
                            (r < n_hosts % kRelays ? 1 : 0);
                relays.push_back(std::make_unique<FleetNode>(ro));
            }
            for (size_t r = 0; r < kRelays; r++)
                relay_threads.emplace_back([&, r] {
                    FleetNodeStats rs = relays[r]->run();
                    if (!rs.upstream_ok)
                        fatal("relay flush failed: %s",
                              rs.error.c_str());
                });
            auto start = std::chrono::steady_clock::now();
            std::vector<std::thread> senders;
            for (size_t h = 0; h < n_hosts; h++)
                senders.emplace_back([&, h] {
                    push_to(h, relays[h % kRelays]->port());
                });
            for (std::thread &t : senders)
                t.join();
            for (std::thread &t : relay_threads)
                t.join();
            server.join();
            p.tree_seconds = secondsSince(start);
            p.root_arrivals_tree = agg.stats().accepted;
            if (!(agg.aggregate() == reference))
                fatal("tree aggregate disagrees at %zu hosts", n_hosts);
        }
        points.push_back(p);
        fold_manifests = manifests;
        fold_profiles = std::move(profiles);
    }

    // Per-backend root fold on the largest host set (foldbench.hh):
    // the root aggregate's bytes must be identical whatever backend
    // folds it — the relay-tree equivalent of the flat/tree identity
    // asserted above.
    bench::FoldBench fb =
        bench::runFoldBench(fold_profiles, 4096, quick ? 500 : 2000);

    // Federation plane, live for the rest of the run: a child
    // MetricsServer scraped in the background while the fold-path
    // overhead is measured. The ISSUE's <2% telemetry budget must
    // hold with federation enabled, not just with idle counters.
    telemetry::counter("hbbp_bench_federation_marker_total").add(7);
    MetricsServer fed_child(0);
    MetricsFederator federator(/*interval_s=*/0.05);
    federator.noteChild("bench-child",
                        format("127.0.0.1:%u",
                               static_cast<unsigned>(fed_child.port())));
    {
        // Wait for the first successful scrape so the merge below
        // sees real child series (including the marker counter).
        auto wait_start = std::chrono::steady_clock::now();
        for (;;) {
            std::vector<PeerSnapshot> snaps = federator.snapshots();
            if (!snaps.empty() && snaps[0].fresh &&
                snaps[0].text.find(
                    "hbbp_bench_federation_marker_total") !=
                    std::string::npos)
                break;
            if (secondsSince(wait_start) > 10.0)
                fatal("federation bench child never became fresh");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    TelemetryOverhead to = measureTelemetryOverhead(
        fold_manifests, fold_profiles, quick ? 120 : 160);

    FederationBench fed = measureFederation(federator, fed_child.port(),
                                            quick ? 400 : 1500);
    federator.stop();
    fed_child.stop();

    if (human) {
        bench::headline("Relay tree scaling",
                        "fleet extension (no paper analogue)");
        TextTable table({"hosts", "relays", "samples", "flat s",
                         "tree s", "root arrivals flat/tree"});
        for (size_t col = 0; col < 6; col++)
            table.setAlign(col, Align::Right);
        for (const RelayPoint &p : points)
            table.addRow(
                {format("%zu", p.hosts), format("%zu", p.relays),
                 format("%llu",
                        static_cast<unsigned long long>(p.samples)),
                 format("%.4f", p.flat_seconds),
                 format("%.4f", p.tree_seconds),
                 format("%zu/%zu", p.root_arrivals_flat,
                        p.root_arrivals_tree)});
        std::printf("%s\n", table.render().c_str());
        for (const bench::FoldBackendPoint &p : fb.backends)
            std::printf("fold[%s]: %.0f ns/fold, %.0f shards/s%s\n",
                        p.name.c_str(), p.kernel_ns_per_fold,
                        p.shards_per_s,
                        p.name == fb.dispatch ? " (dispatch)" : "");
        std::printf("telemetry overhead: %.2f%% on the fold path "
                    "(%.6fs on vs %.6fs off, %zu shards, "
                    "min of %d reps, A/A noise floor %.2f%%)\n",
                    to.overhead_pct, to.enabled_seconds,
                    to.disabled_seconds, to.shards, to.reps,
                    to.noise_pct);
        std::printf("federation: %zu child, %zu merged series, "
                    "%.0f merges/s, %.3f ms scrape, rollup %s\n",
                    fed.children, fed.merged_series, fed.merges_per_s,
                    fed.scrape_ms,
                    fed.rollup_consistent ? "consistent"
                                          : "INCONSISTENT");
        return 0;
    }

    std::printf("{\n  \"bench\": \"scale_relay\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  %s,\n", bench::foldBenchJson(fb).c_str());
    std::printf("  \"telemetry\": {\"reps\": %d, \"shards\": %zu, "
                "\"enabled_seconds\": %.6f, \"disabled_seconds\": %.6f, "
                "\"overhead_pct\": %.3f, \"noise_pct\": %.3f},\n",
                to.reps, to.shards, to.enabled_seconds,
                to.disabled_seconds, to.overhead_pct, to.noise_pct);
    std::printf("  \"federation\": {\"children\": %zu, "
                "\"merged_series\": %zu, \"merges_per_s\": %.1f, "
                "\"scrape_ms\": %.3f, \"rollup_consistent\": %s},\n",
                fed.children, fed.merged_series, fed.merges_per_s,
                fed.scrape_ms, fed.rollup_consistent ? "true" : "false");
    std::printf("  \"points\": [\n");
    for (size_t i = 0; i < points.size(); i++) {
        const RelayPoint &p = points[i];
        std::printf(
            "    {\"hosts\": %zu, \"relays\": %zu, \"samples\": %llu, "
            "\"flat_seconds\": %.6f, \"tree_seconds\": %.6f, "
            "\"root_arrivals_flat\": %zu, "
            "\"root_arrivals_tree\": %zu}%s\n",
            p.hosts, p.relays,
            static_cast<unsigned long long>(p.samples),
            p.flat_seconds, p.tree_seconds, p.root_arrivals_flat,
            p.root_arrivals_tree,
            i + 1 < points.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
