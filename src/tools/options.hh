/**
 * @file
 * Per-command CLI option structs and the shared parser table.
 *
 * hbbp-tool's options used to live in one ~30-field grab-bag struct
 * parsed by one if/else chain: every command saw every flag, and
 * adding a daemon flag meant auditing every command's validation
 * path. Here each command declares its own struct composed from
 * shared groups — AnalysisOptions (the analyze/report/fdo/query
 * knobs), CollectionOptions (jobs/shards/store), DaemonOptions (the
 * listen/state/observability cluster) — and registers exactly the
 * flags it accepts in an ArgParser table. Unknown flags still die
 * with the same diagnostics the old parser produced.
 */

#ifndef HBBP_TOOLS_OPTIONS_HH
#define HBBP_TOOLS_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace hbbp {

/**
 * The shared flag table: register flag → destination bindings, then
 * run() over argv. Values are validated on registration semantics —
 * counts are strict non-negative decimal with range bounds, numbers
 * strict doubles — and every violation is a fatal() with the same
 * message shape hbbp-tool has always printed.
 */
class ArgParser
{
  public:
    /** Parse argv[start..argc). */
    ArgParser(int argc, char **argv, int start)
        : argc_(argc), argv_(argv), i_(start)
    {
    }

    /** FLAG VALUE → *out = VALUE. */
    void value(const char *flag, std::string *out);

    /** FLAG VALUE → split VALUE on commas into *out. */
    void list(const char *flag, std::vector<std::string> *out);

    /** FLAG N → *out = N (strict non-negative decimal, bounded). */
    template <typename T>
    void
    count(const char *flag, T *out,
          uint64_t max = std::numeric_limits<T>::max())
    {
        handlers_[flag] = [this, flag, out, max] {
            *out = static_cast<T>(needCount(flag, max));
        };
    }

    /** FLAG X → *out = X (strict double). */
    void number(const char *flag, double *out);

    /** Bare FLAG → *out = value. */
    void boolean(const char *flag, bool *out, bool value = true);

    /** Bare FLAG → run @p action (for aliases like --csv). */
    void action(const char *flag, std::function<void()> action);

    /**
     * Consume everything: registered flags dispatch to their
     * bindings, anything starting with '-' that is not registered is
     * fatal, and bare arguments land in *@p positionals — or are
     * fatal when @p positionals is null (the command takes none).
     */
    void run(std::vector<std::string> *positionals = nullptr);

  private:
    std::string needValue(const char *flag);
    uint64_t needCount(const char *flag, uint64_t max);
    double needNumber(const char *flag);

    int argc_;
    char **argv_;
    int i_;
    std::map<std::string, std::function<void()>> handlers_;
};

/** Split a HOST:PORT flag value; fatal() on malformed input. */
void parseHostPort(const std::string &value, const char *flag,
                   std::string *host, uint16_t *port);

// ---------------------------------------------------------------------------
// Shared option groups.
// ---------------------------------------------------------------------------

/** The analysis knobs shared by analyze/report/fdo/query. */
struct AnalysisOptions
{
    std::string source = "hbbp";
    double cutoff = 18.0;
    bool bias_rule = true;
    bool patch_kernel = false;
    std::vector<std::string> pivot;
    size_t top = 0;
    std::string function;
    std::string host;          ///< query: per-host slice.
    std::string format = "text"; ///< text|csv|json (--csv = alias).

    /**
     * The non-default knobs as query parameters — how the CLI's
     * in-process path and the socket client both feed the one
     * AnalysisService API.
     */
    std::map<std::string, std::string> toQueryParams() const;
};

/** Registers --source/--cutoff/--no-bias-rule/--patch-kernel/
 *  --pivot/--top/--function/--format/--csv. */
void addAnalysisFlags(ArgParser &parser, AnalysisOptions *opts);

/** Collection sizing shared by collect/batch/export/push. */
struct CollectionOptions
{
    unsigned jobs = 1;
    uint32_t shards = 0; ///< 0 = default to jobs.
    std::string store_dir;

    /** Validate jobs and default shards; fatal() on jobs == 0. */
    void finalize();
};

/** Registers --jobs/--shards/--store. */
void addCollectionFlags(ArgParser &parser, CollectionOptions *opts);

/** The daemon cluster shared by aggregate/relay/serve. */
struct DaemonOptions
{
    int listen_port = -1; ///< -1 = no socket listener.
    std::string bind_addr = "127.0.0.1";
    std::string port_file;
    std::string state_file;
    std::string store_dir; ///< Shared profile store to deposit into.
    size_t expect = 0;
    int timeout_ms = 10'000;
    int metrics_port = -1; ///< -1 = off.
    std::string metrics_port_file;
    std::string trace_log;
    /** Structured JSONL event log (support/events); empty = off. */
    std::string event_log;
    /** Watchdog: warn when a loop stage stalls this long; 0 = off. */
    double stall_warn_s = 0.0;
};

/**
 * Registers --listen/--bind/--port-file/--state/--store/--expect/
 * --timeout-ms/--metrics-port/--metrics-port-file/--trace-log/
 * --event-log/--stall-warn-s: every flag the three daemons share,
 * because each one is a FleetNode (fleet/node.hh) under a different
 * name. --state always journals (StateJournal's default compaction
 * threshold); --store deposits every arrival, pinned until durable.
 */
void addDaemonFlags(ArgParser &parser, DaemonOptions *opts);

// ---------------------------------------------------------------------------
// Per-command option structs.
// ---------------------------------------------------------------------------

struct CollectOptions
{
    std::string workload;
    std::string profile_out;
    CollectionOptions coll;

    static CollectOptions parse(int argc, char **argv);
};

struct MergeOptions
{
    std::string profile_out;
    std::vector<std::string> inputs;

    static MergeOptions parse(int argc, char **argv);
};

struct BatchOptions
{
    std::string workloads; ///< Comma list or "all".
    CollectionOptions coll;
    AnalysisOptions analysis;

    static BatchOptions parse(int argc, char **argv);
};

struct ExportOptions
{
    std::string workload;
    std::string host;
    std::string export_dir;
    uint32_t seq = 0;
    CollectionOptions coll;

    static ExportOptions parse(int argc, char **argv);
};

struct PushOptions
{
    std::string workload;
    std::string host;
    std::string to;
    std::string export_dir;
    std::string profile_out;
    std::string trace_log;
    uint32_t seq = 0;
    uint32_t chunks = 1;
    int retries = 5;
    int fail_after = -1; ///< Test hook: die after N acked chunks.
    CollectionOptions coll;

    static PushOptions parse(int argc, char **argv);
};

struct AggregateOptions
{
    std::string watch_dir;
    std::string profile_out;
    std::string analyze_workload;
    DaemonOptions daemon;

    static AggregateOptions parse(int argc, char **argv);
};

struct RelayCliOptions
{
    std::string to;
    std::string relay_id;
    size_t flush_every = 0;
    int retries = 5;
    DaemonOptions daemon;

    static RelayCliOptions parse(int argc, char **argv);
};

struct StoreOptions
{
    std::string action; ///< Leading positional ("gc").
    std::string store_dir;
    int64_t max_age_s = -1;
    int64_t max_bytes = -1;

    static StoreOptions parse(int argc, char **argv);
};

struct StatsOptions
{
    std::string from; ///< HOST:PORT to scrape; empty = own registry.
    bool tree = false;    ///< Render a federated scrape per peer.
    bool healthz = false; ///< Fetch /healthz instead of /metrics.
    double watch_s = 0.0; ///< Re-scrape every N seconds; 0 = once.
    size_t watch_count = 0; ///< Stop after N re-scrapes; 0 = forever.

    static StatsOptions parse(int argc, char **argv);
};

struct EventsOptions
{
    std::string from;      ///< Event-log file to read.
    std::string code;      ///< Keep only this stable code; "" = all.
    uint64_t since_ms = 0; ///< Keep only ts_ms >= this; 0 = all.

    static EventsOptions parse(int argc, char **argv);
};

struct MigrateOptions
{
    std::string input;
    std::string profile_out;

    static MigrateOptions parse(int argc, char **argv);
};

struct AnalyzeOptions
{
    std::string workload;
    std::string profile_in;
    AnalysisOptions analysis;

    static AnalyzeOptions parse(int argc, char **argv);
};

struct FdoOptions
{
    std::string workload;
    std::string profile_in;
    std::string profile_out; ///< -o: write the text profile here.
    AnalysisOptions analysis;

    static FdoOptions parse(int argc, char **argv);
};

struct ServeOptions
{
    DaemonOptions daemon; ///< timeout_ms defaults to -1: serve until
                          ///< a shutdown query (or --expect).

    static ServeOptions parse(int argc, char **argv);
};

struct QueryCliOptions
{
    std::string from; ///< HOST:PORT of the serving daemon.
    std::string verb; ///< Leading positional.
    AnalysisOptions analysis;

    static QueryCliOptions parse(int argc, char **argv);
};

} // namespace hbbp

#endif // HBBP_TOOLS_OPTIONS_HH
