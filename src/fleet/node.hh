/**
 * @file
 * The fleet daemon core: one node of an aggregation tree.
 *
 * `aggregate`, `serve` and `relay` are one process shape. A FleetNode
 * takes shards in (over a ShardListener, or from a watched drop
 * directory), folds them with an IncrementalAggregator, makes every
 * arrival durable before it is acknowledged, and answers hbbp-query/1
 * analysis queries for the subtree it holds on the shard port; a
 * `shutdown` query ends its loop.
 *
 * Every arrival goes through one commit step, in this order: trace
 * spans, federation discovery, store pin + deposit, the optional
 * per-arrival analysis, the `--state` journal record, unpin. The
 * journal record lands before the transport ack, so a sender's
 * success implies the arrival survives a crash of this node.
 *
 * The role follows from the options. A node with an upstream is a
 * relay: it pushes its partial aggregate upstream as a first-class
 * shard — a level-N+1 manifest whose chunks are the per-host partials,
 * so the parent splices them into its per-host state and the root
 * aggregate stays byte-identical to flat ingestion of the same leaf
 * shards, whatever the tree shape or arrival order — every
 * `flush_every` arrivals and once more on exit. A mid-run flush runs
 * after the triggering arrival's ack is written, never before it.
 *
 * A flush ships only the hosts whose gap-free coverage advanced past
 * what upstream last acknowledged; the parent splices per host, so a
 * subset aggregate folds exactly like a whole one. The contract is
 * "acked means durable" at the parent: a parent that loses its state
 * is not refilled by later flushes (they carry only what changed),
 * while a relay restart re-ships everything it holds, because its
 * acknowledged-coverage record starts empty.
 *
 * An unreachable upstream is buffered, never fatal: the relay keeps
 * folding, the unacknowledged hosts ride the next flush trigger, and
 * only the final flush's failure is reported. Leaf shards stranded
 * behind a sequence gap cannot ride inside an aggregate (coverage is a
 * gap-free prefix), so they are forwarded upstream verbatim. A node
 * without an upstream is a root.
 */

#ifndef HBBP_FLEET_NODE_HH
#define HBBP_FLEET_NODE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/service.hh"
#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/query.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"

namespace hbbp {

class MetricsFederator;

/** FleetNode configuration. */
struct FleetNodeOptions
{
    /**
     * The node's name: "root" (`aggregate`), "serve", or a relay id.
     * It names served query trace ids, picks the store pin owner, and
     * a relay stamps it as the host id on the aggregates it flushes
     * upstream. Trace spans go to the process event log
     * (support/events), tagged with the node name it was opened with.
     */
    std::string id = "relay";
    /** Shard listen port (0 picks an ephemeral port). */
    uint16_t listen_port = 0;
    /** Shard listen address (loopback by default). */
    std::string bind_addr = "127.0.0.1";
    /** Import shards from this drop directory instead of listening. */
    std::string watch_dir;
    /** Leaf shards to cover (counting restored state) before the
     * loop ends; 0 runs until the idle timeout. */
    size_t expect = 0;
    /** Idle timeout (ListenOptions/WatchOptions semantics). */
    int idle_timeout_ms = 10'000;
    /** Checkpoint+journal base path; empty disables persistence. */
    std::string state_file;
    /**
     * Profile store to deposit accepted shards into (shared,
     * multi-process-safe); empty disables. Deposits stay pinned until
     * they are durable — journaled into the state, or acknowledged by
     * a relay's final flush — so a concurrent `store gc` cannot evict
     * bytes a crashed node still needs.
     */
    std::string store_dir;
    /** Re-analyze the aggregate as this workload after every
     * arrival; empty disables. */
    std::string analyze_workload;
    /** Upstream aggregation point; port 0 means none (a root). */
    std::string upstream_host = "127.0.0.1";
    uint16_t upstream_port = 0;
    /**
     * Push the hosts that advanced upstream after every N accepted
     * arrivals; 0 flushes only on exit. Small values trade more,
     * smaller upstream pushes for freshness and a smaller loss window
     * without `state_file`.
     */
    size_t flush_every = 0;
    /** Upstream connection attempts for the final flush. */
    int upstream_retries = 5;
    /** Backoff before the first upstream reconnect; doubles per
     * retry (see SocketTransportOptions). */
    int upstream_backoff_ms = 100;
    /**
     * This node's metrics scrape address (`host:port`), stamped as a
     * `metrics=` line on every aggregate flushed upstream so the
     * parent can federate metrics from it; empty advertises nothing.
     */
    std::string metrics_endpoint;
    /**
     * When set, arrivals that advertise a `metrics=` endpoint register
     * their sender as a federation child (borrowed; must outlive the
     * node).
     */
    MetricsFederator *federator = nullptr;
};

/** What a node run did (for a relay, the no-shard-loss proof). */
struct FleetNodeStats
{
    size_t accepted = 0;  ///< Arrivals accepted this run.
    size_t covered = 0;   ///< Leaf shards covered at exit.
    size_t restored = 0;  ///< Shards carried in from the state.
    size_t flushes = 0;   ///< Successful upstream aggregate pushes.
    size_t flush_failures = 0; ///< Upstream pushes that gave up (the
                               ///< data stays buffered for the next).
    size_t orphans_forwarded = 0; ///< Gap-stranded leaves sent verbatim.
    /** Store pins inherited from a crashed run, released at start. */
    size_t inherited_pins = 0;
    /** The final flush delivered everything (always true at a root). */
    bool upstream_ok = false;
    /** Final-flush diagnostic when !upstream_ok. */
    std::string error;
};

/** One daemon: ingest, fold, persist, serve queries, relay upstream. */
class FleetNode
{
  public:
    /**
     * Open the store, restore the state (warning, never
     * dying, when a state file exists but cannot be used), release
     * pins a crashed predecessor left, and bind the listener unless
     * watching a directory; fatal() like ShardListener on bind errors.
     */
    explicit FleetNode(FleetNodeOptions options);

    FleetNode(const FleetNode &) = delete;
    FleetNode &operator=(const FleetNode &) = delete;

    /** The bound shard/query port (0 when watching a directory). */
    uint16_t port() const { return listener_ ? listener_->port() : 0; }

    /**
     * Serve until the expected coverage, the idle timeout or a
     * `shutdown` query; a relay then pushes one final flush. On a
     * clean finish (upstream_ok) the store pins are released: the
     * deposits are plain cache again. upstream_ok=false means the
     * upstream never took the final state — nothing is lost (the
     * aggregator still holds it, and the state persists it), but the
     * caller should exit loudly.
     */
    FleetNodeStats run();

    /**
     * Commit a drop-directory arrival that importFile() already
     * folded: re-read its verified bytes once for both the store
     * deposit and the journal. If they vanished, warn, skip the
     * deposit and write a full checkpoint instead, so durability does
     * not depend on the drop directory's hygiene.
     */
    void commitImport(const ShardManifest &manifest);

    /** The stats so far (restored and inherited_pins are set once
     * the constructor returns). */
    const FleetNodeStats &stats() const { return stats_; }
    IncrementalAggregator &aggregator() { return agg_; }
    const ServiceStats &serviceStats() const { return service_.stats(); }

  private:
    bool isRelay() const { return options_.upstream_port != 0; }

    /**
     * The one durability step for a folded arrival. @p chunks is the
     * shard in transportable form (see ListenOptions::on_accept);
     * empty when its bytes are unavailable, which skips the deposit
     * and compacts the journal instead of appending. @p profile is
     * needed only when chunks.size() > 1.
     */
    void commit(const ShardManifest &manifest, const ProfileData *profile,
                const std::vector<std::string> &chunks);

    /**
     * Push upstream the partials of the hosts whose coverage advanced
     * past acked_coverage_ (and any orphans not yet forwarded). No-op
     * when nothing advanced since the last acknowledged flush. False
     * with *@p why on a failed push; the data stays buffered and the
     * next flush carries it again. @p max_attempts caps connection
     * attempts: mid-run flushes get one, the final flush gets
     * upstream_retries.
     */
    bool flushUpstream(std::string *why, int max_attempts);

    /** Run the mid-run flush commit() marked as due, if any; called
     * once the arrival that triggered it has been acknowledged. */
    void flushIfDue();

    FleetNodeOptions options_;
    IncrementalAggregator agg_;
    std::optional<ProfileStore> store_;
    std::optional<StorePin> pin_;
    std::optional<StateJournal> journal_;
    std::optional<Workload> analyze_;
    Analyzer analyzer_;
    AggregatorProfileSource source_{agg_};
    AnalysisService service_;
    QueryEndpoint endpoint_{service_, options_.id};
    std::optional<ShardListener> listener_;
    FleetNodeStats stats_;

    // Relay state.
    uint32_t flush_seq_ = 0;
    /** Host -> coverage upstream acknowledged this run (success or
     * duplicate ack); empty at start, so a restart re-ships all. */
    std::map<std::string, uint32_t> acked_coverage_;
    std::set<uint64_t> forwarded_orphans_;
    size_t accepted_since_flush_ = 0;
    bool flush_due_ = false;
    /**
     * Stamped trace ids accepted since the last acknowledged aggregate
     * flush, sorted (std::set) so the outgoing aggregate's `trace=`
     * line is deterministic. Only *stamped* arrivals propagate:
     * tracing is opt-in at the collector, and an unstamped fleet must
     * keep rendering the exact pre-tracing manifest bytes.
     */
    std::set<std::string> unflushed_trace_ids_;
};

} // namespace hbbp

#endif // HBBP_FLEET_NODE_HH
