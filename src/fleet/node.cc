#include "fleet/node.hh"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "fleet/metrics.hh"
#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "tools/registry.hh"

namespace fs = std::filesystem;

namespace hbbp {

namespace {

/**
 * The store pin owner. It must be stable across a SIGKILL + restart
 * of the same job so the restarted node inherits (and releases) its
 * crashed predecessor's pins: the state file is that identity, and
 * without one a root falls back to the store path and a relay to its
 * id (which defaults to a per-pid value). The `agg-`/`serve-`/`relay-`
 * prefixes keep owners from earlier releases inheritable.
 */
std::string
pinOwner(const FleetNodeOptions &o)
{
    bool relay = o.upstream_port != 0;
    std::string prefix = relay ? "relay" : o.id == "root" ? "agg" : o.id;
    const std::string &fallback = relay ? o.id : o.store_dir;
    return format("%s-%016llx", prefix.c_str(),
                  static_cast<unsigned long long>(fnv1a(
                      o.state_file.empty() ? fallback : o.state_file)));
}

} // namespace

FleetNode::FleetNode(FleetNodeOptions options)
    : options_(std::move(options)),
      service_(source_, makeWorkloadByName)
{
    trace_.open(options_.trace_log,
                isRelay() ? "relay:" + options_.id : options_.id);
    if (!options_.store_dir.empty()) {
        store_.emplace(options_.store_dir);
        pin_.emplace(*store_, pinOwner(options_));
    }
    if (!options_.analyze_workload.empty())
        analyze_ = requireWorkloadByName(options_.analyze_workload);
    if (!options_.state_file.empty()) {
        journal_.emplace(options_.state_file);
        // A state file that exists but cannot be used is a cold start
        // (the senders re-deliver), never a dead daemon.
        std::string why;
        if (!journal_->restore(agg_, &why) &&
            fs::exists(options_.state_file))
            warn("ignoring aggregator state: %s", why.c_str());
    }
    stats_.restored = agg_.restoredShards();
    // Whatever a crashed predecessor pinned is either in the restored
    // state (durable) or was never acknowledged (its sender retries,
    // re-pinning on redelivery) — safe to release either way, and
    // leaking pins forever would quietly exempt entries from gc.
    if (pin_ && pin_->restored() > 0) {
        stats_.inherited_pins = pin_->restored();
        pin_->release();
    }
    endpoint_.setTraceLog(&trace_, options_.id);
    if (isRelay())
        telemetry::beatEnable(telemetry::Stage::Flush);
    if (options_.watch_dir.empty())
        listener_.emplace(options_.listen_port, options_.bind_addr);
}

void
FleetNode::commitImport(const ShardManifest &m)
{
    std::vector<std::string> chunks;
    if (store_ || journal_) {
        std::string why;
        std::string bytes = readFileBytes(
            options_.watch_dir + "/" + m.profile_file, &why);
        if (why.empty())
            chunks.push_back(std::move(bytes));
        else
            warn("cannot re-read shard '%s' (%s); skipping its store "
                 "deposit%s",
                 m.profile_file.c_str(), why.c_str(),
                 journal_ ? " and writing a full checkpoint instead"
                          : "");
    }
    commit(m, nullptr, chunks);
}

void
FleetNode::commit(const ShardManifest &m, const ProfileData *profile,
                  const std::vector<std::string> &chunks)
{
    // A relay is one hop of a traced shard's life (its ids ride the
    // next flush); a root is the end, where root_fold closes the
    // collector -> relay -> root chain.
    for (const std::string &id : m.trace_ids) {
        if (isRelay()) {
            trace_.span("relay_accept", id);
            seen_trace_ids_.insert(id);
        } else {
            trace_.span("root_fold", id,
                        format("from=%s", m.host.c_str()));
        }
    }
    // Federation discovery rides the shard tree: a child that
    // advertises a scrape endpoint becomes ours to merge.
    if (options_.federator && !m.metrics_endpoint.empty())
        options_.federator->noteChild(m.host, m.metrics_endpoint);
    // Pin BEFORE depositing: from here until this arrival is durable,
    // a concurrent `store gc` must not evict the shard out from under
    // a crashed restart.
    bool pinned = store_ && !chunks.empty();
    if (pinned) {
        pin_->pin(m.checksum);
        if (chunks.size() == 1)
            // The chunk already is exact profile-file bytes: deposit
            // without a re-parse or re-serialize.
            store_->depositBytesByChecksum(m.checksum, chunks[0]);
        else
            store_->insertByChecksum(m.checksum, *profile);
    }
    if (analyze_)
        agg_.analyzeWith(*analyze_->program, analyzer_);
    if (journal_) {
        if (chunks.empty())
            journal_->compact(agg_);
        else
            journal_->record(agg_, m, chunks);
        if (pinned)
            pin_->unpin(m.checksum); // Durable in the state now.
    }
    accepted_since_flush_++;
    if (isRelay() && options_.flush_every > 0 &&
        accepted_since_flush_ >= options_.flush_every) {
        std::string why;
        // A failed flush is buffering, not an error: the partial stays
        // here and the next trigger (or the final flush) retries a
        // strictly fresher superset of it. One attempt only — this
        // runs before the downstream ack, and a dead upstream must not
        // turn accepts into retry loops that time senders out.
        if (!flushUpstream(&why, /*max_attempts=*/1))
            warn("upstream flush failed, buffering: %s", why.c_str());
    }
}

bool
FleetNode::flushUpstream(std::string *why, int max_attempts)
{
    PartialExport ex = agg_.exportPartials();
    if (ex.partials.empty() && ex.orphans.empty())
        return true;

    SocketTransportOptions so;
    so.host = options_.upstream_host;
    so.port = options_.upstream_port;
    so.max_attempts = max_attempts;
    so.backoff_ms = options_.upstream_backoff_ms;
    SocketTransport transport(so);

    static telemetry::Counter &m_flushes =
        telemetry::counter("hbbp_relay_flushes_total");
    static telemetry::Counter &m_flush_failures =
        telemetry::counter("hbbp_relay_flush_failures_total");
    static telemetry::Counter &m_orphans =
        telemetry::counter("hbbp_relay_orphans_forwarded_total");
    // Every give-up counts once, in the run's stats and in the live
    // metric alike, whichever push it was.
    auto failed = [&](std::string error) {
        stats_.flush_failures++;
        m_flush_failures.add();
        *why = std::move(error);
        return false;
    };

    if (!ex.partials.empty() &&
        ex.checksum != last_flushed_checksum_) {
        ShardManifest m;
        m.version = kManifestVersionAggregate;
        m.host = options_.id;
        m.workload = ex.workload;
        m.seq = flush_seq_;
        m.checksum = ex.checksum;
        // One level above the deepest input: leaf-only relays export
        // level 1, a relay-of-relays exports one deeper, and so on.
        m.level = agg_.maxLevelSeen() + 1;
        // The aggregate carries every stamped trace id it folded, so
        // the next level up (or the root) can attribute the arrival
        // back to individual collector shards.
        m.trace_ids.assign(seen_trace_ids_.begin(),
                           seen_trace_ids_.end());
        m.metrics_endpoint = options_.metrics_endpoint;
        std::vector<std::string> chunks;
        chunks.reserve(ex.partials.size());
        for (HostPartial &hp : ex.partials) {
            m.covered.push_back({hp.host, hp.covered});
            chunks.push_back(std::move(hp.bytes));
        }
        // Span the flush as it *starts*: the upstream's own accept
        // span (root_fold or a parent's relay_accept) lands between
        // our send and its ack, so logging afterwards would put this
        // relay's span after its parent's and break the lifecycle's
        // timestamp monotonicity. A failed flush leaves the span as a
        // record of the attempt.
        if (trace_.active()) {
            std::string agg_id = shardTraceId(m);
            for (const std::string &id : m.trace_ids)
                trace_.span("relay_flush", id, "aggregate " + agg_id);
        }
        SendResult res = transport.sendShard(m, chunks);
        if (!res.ok)
            return failed(res.error);
        // A duplicate ack means the upstream already holds this exact
        // coverage (a retried or restarted flush) — success either way.
        stats_.flushes++;
        m_flushes.add();
        telemetry::beat(telemetry::Stage::Flush);
        last_flushed_checksum_ = ex.checksum;
        flush_seq_++;
    }

    for (OrphanShard &orphan : ex.orphans) {
        if (forwarded_orphans_.count(orphan.checksum))
            continue;
        ShardManifest m;
        m.host = orphan.host;
        m.workload = ex.workload;
        m.seq = orphan.seq;
        m.checksum = orphan.checksum;
        SendResult res = transport.sendShard(m, {orphan.bytes});
        if (!res.ok)
            return failed(format("forwarding orphan shard %s/%u: %s",
                                 orphan.host.c_str(), orphan.seq,
                                 res.error.c_str()));
        forwarded_orphans_.insert(orphan.checksum);
        stats_.orphans_forwarded++;
        m_orphans.add();
    }
    accepted_since_flush_ = 0;
    return true;
}

FleetNodeStats
FleetNode::run()
{
    if (listener_) {
        ListenOptions lo;
        lo.expect = options_.expect;
        lo.idle_timeout_ms = options_.idle_timeout_ms;
        lo.on_accept = [this](const ShardManifest &m,
                              const ProfileData &pd,
                              const std::vector<std::string> &chunks) {
            commit(m, &pd, chunks);
        };
        lo.on_query = [this](const std::string &body) {
            return endpoint_.handle(body);
        };
        lo.should_stop = [this] { return endpoint_.stopRequested(); };
        stats_.accepted = listener_->serve(agg_, lo);
    } else {
        WatchOptions wo;
        wo.expect = options_.expect;
        wo.timeout_ms = options_.idle_timeout_ms;
        wo.on_accept = [this](const ShardManifest &m) {
            commitImport(m);
        };
        stats_.accepted =
            watchAndAggregate(agg_, options_.watch_dir, wo);
    }
    stats_.covered = agg_.coveredShards();

    stats_.upstream_ok = true;
    if (isRelay()) {
        std::string why;
        stats_.upstream_ok = flushUpstream(
            &why, std::max(options_.upstream_retries, 1));
        if (!stats_.upstream_ok)
            stats_.error = why;
    }
    if (pin_ && stats_.upstream_ok)
        pin_->release();
    return stats_;
}

} // namespace hbbp
