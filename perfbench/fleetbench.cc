/**
 * @file
 * The fleet benchmark's load generator.
 *
 * One process that generates seeded test40 shards, spawns real
 * `hbbp-tool serve` / `hbbp-tool relay` daemons over loopback, drives
 * them through the library's own clients (SocketTransport,
 * QueryClient) and reports end-to-end metrics for one workload:
 *
 *   ingest_tree  16 hosts -> 2 relays -> root, closed-loop pushes
 *   query_cold   cold analysis queries against a 4-host aggregate
 *   serve_mixed  open-loop pushes and queries on one root at once
 *
 * With --trace 1 it runs the workload twice (untraced, then with spans
 * recorded around every call it makes into a layer), scrapes the
 * daemons' /metrics counters over the timed window, replays the same
 * inputs through each layer's public entry points single-threaded, and
 * reports per-layer metrics and a self-time ledger instead.
 *
 * Every run checks the daemons' served bytes against an offline
 * AnalysisService render of the same leaf shards and fails (exit 1,
 * "correct": false) on any mismatch or early daemon exit. The last
 * stdout line is the JSON result; earlier lines are the human report.
 *
 * Usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --tool PATH/TO/hbbp-tool --work DIR [--commit SHA]
 */

#include <fcntl.h>
#include <signal.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/bbec.hh"
#include "analysis/classifier.hh"
#include "analysis/mix.hh"
#include "analysis/service.hh"
#include "collect/collector.hh"
#include "collect/profile.hh"
#include "fleet/aggregate.hh"
#include "fleet/journal.hh"
#include "fleet/manifest.hh"
#include "fleet/merge.hh"
#include "fleet/metrics.hh"
#include "fleet/query.hh"
#include "fleet/shard.hh"
#include "fleet/store.hh"
#include "fleet/transport.hh"
#include "program/blockmap.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "support/vectorops.hh"
#include "tools/registry.hh"

#include "benchstats.hh"

using namespace hbbp;
using perfbench::Span;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// The workloads' fixed properties. perfbench/design.json records the
// same values with the reasons for them; run.py checks that the
// "config" line printed below still matches it.
// ---------------------------------------------------------------------

constexpr const char *kProgram = "test40";
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 10;

// ingest_tree: 16 hosts -> 2 relays -> root, closed loop. Client c
// owns the 8 hosts of relay c, so a plain ack never waits behind a
// flush that another client's push triggered at the same relay.
constexpr size_t kTreeHosts = 16;
constexpr size_t kTreeRelays = 2;
constexpr size_t kTreeClients = kTreeRelays;
constexpr size_t kTreeHostsPerRelay = kTreeHosts / kTreeRelays;
constexpr size_t kTreeShardsPerHost = 4;
constexpr uint32_t kTreeChunks = 4;
/** Shard budget = test40's instruction budget / this. */
constexpr uint64_t kTreeShardDivisor = 16;
/** Relay --flush-every: every 4th accepted push carries a flush. */
constexpr size_t kTreeFlushEvery = 4;
/** The root is polled with `status` this often to see coverage. */
constexpr int kTreePollUs = 2000;
/**
 * After full coverage each round reads the tree's aggregate back with
 * cold queries (verbs x these cutoffs, text): the read latency of a
 * freshly ingested root, and the byte-identity check.
 */
constexpr double kTreeReadCutoffs[] = {50, 51, 52, 53, 54, 55,
                                       56, 57, 58, 59, 60, 61};

// Pre-loads: per host, 16 single-chunk shards of 1/16 budget each,
// pushed closed-loop during set-up. query_cold holds 4 hosts.
constexpr size_t kColdHosts = 4;
constexpr size_t kPreloadShardsPerHost = 16;
constexpr uint64_t kPreloadShardDivisor = 16;

// serve_mixed: Poisson pushes and queries on one root pre-loaded with
// 2 hosts. A push invalidates both keys, so misses run at twice the
// push rate; the rates keep misses near a fifth of queries and the
// poll thread about a fifth busy, so p50 falls among cache hits that
// did not wait and p90 among misses.
constexpr size_t kMixedHosts = 2;
constexpr uint64_t kMixedShardDivisor = 512;
constexpr size_t kMixedPushHosts = 4;
constexpr double kMixedPushRate = 8.0;   ///< Pushes per second.
constexpr double kMixedQueryRate = 80.0; ///< Queries per second.
constexpr unsigned kMixedWorkers = 4;    ///< Generator threads.

/** Daemon journal compaction cadence (the CLI default). */
constexpr size_t kJournalEvery = 32;

double
nowSec()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               Clock::now().time_since_epoch())
        .count();
}

/** A failure that ends the run (reported, then exit 1). */
struct BenchError
{
    std::string what;
};

[[noreturn]] void
fail(const std::string &what)
{
    throw BenchError{what};
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/**
 * In-memory span log. Disabled (every call a cheap no-op) unless the
 * run is traced; written out as JSONL when the run ends.
 */
class Tracer
{
  public:
    bool on = false;

    /** Open a span now; returns its id (0 when tracing is off). */
    uint64_t
    begin(const std::string &name, const std::string &op,
          uint64_t parent = 0)
    {
        if (!on)
            return 0;
        double t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({spans_.size() + 1, parent, name, op, t, t});
        return spans_.size();
    }

    void
    end(uint64_t id)
    {
        if (id == 0)
            return;
        double t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id - 1].end_ns = t;
    }

    /** Record a span whose interval is already known. */
    uint64_t
    add(const std::string &name, const std::string &op, uint64_t parent,
        double start_ns, double end_ns)
    {
        if (!on)
            return 0;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(
            {spans_.size() + 1, parent, name, op, start_ns, end_ns});
        return spans_.size();
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

    void
    writeJsonl(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::ofstream out(path);
        for (const Span &s : spans_)
            out << format("{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                          "\"op\":\"%s\",\"start_ns\":%.0f,"
                          "\"end_ns\":%.0f}\n",
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent),
                          jsonEscape(s.name).c_str(),
                          jsonEscape(s.op).c_str(), s.start_ns,
                          s.end_ns);
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

Tracer g_tracer;

/** RAII span around one call. */
class Scoped
{
  public:
    Scoped(const std::string &name, const std::string &op,
           uint64_t parent = 0)
        : id_(g_tracer.begin(name, op, parent))
    {
    }
    ~Scoped() { g_tracer.end(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
    uint64_t id() const { return id_; }

  private:
    uint64_t id_;
};

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/** One leaf shard as a collector host would push it. */
struct Shard
{
    ShardManifest manifest;
    std::vector<std::string> chunks;
    ProfileData profile; ///< The merged shard (the offline reference).
    uint64_t bytes = 0;  ///< Leaf bytes on the wire (sum of chunks).
};

struct ShardSpec
{
    std::string host;
    uint32_t seq = 0;
    uint64_t divisor = 1;
    uint32_t chunks = 1;
};

/**
 * Collect every spec on at most nproc threads. Seeds derive from the
 * benchmark seed, the host and the sequence number only, so the same
 * seed gives the same bytes.
 */
std::vector<Shard>
generateShards(const Workload &w, const std::vector<ShardSpec> &specs,
               uint64_t seed)
{
    std::vector<Shard> out(specs.size());
    std::atomic<size_t> next{0};
    unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(threads,
                                 static_cast<unsigned>(specs.size()));
    uint64_t mix = seed * 0x9E3779B97F4A7C15ULL;
    auto work = [&] {
        for (size_t i; (i = next++) < specs.size();) {
            const ShardSpec &sp = specs[i];
            CollectorConfig cc = collectorConfigFor(w);
            cc.max_instructions = w.max_instructions / sp.divisor;
            cc.seed = hostStreamSeed(cc.seed ^ mix, sp.host, sp.seq);
            cc.pmu.seed = hostStreamSeed(
                cc.pmu.seed ^ 0x5851f42d4c957f2dULL ^ mix, sp.host, sp.seq);
            ShardPlan plan;
            plan.shards = sp.chunks;
            plan.jobs = 1;
            std::vector<ProfileData> parts;
            {
                Scoped span("collect.shard", "setup");
                parts = collectShards(*w.program, MachineConfig{}, cc, plan);
            }
            Shard &s = out[i];
            s.manifest.host = sp.host;
            s.manifest.workload = w.name;
            s.manifest.seq = sp.seq;
            if (parts.size() == 1) {
                s.chunks.push_back(parts[0].serialize(&s.manifest.checksum));
                s.profile = std::move(parts[0]);
            } else {
                s.profile = mergeProfiles(parts);
                s.manifest.checksum = s.profile.payloadChecksum();
                for (const ProfileData &p : parts)
                    s.chunks.push_back(p.serialize());
            }
            for (const std::string &c : s.chunks)
                s.bytes += c.size();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; t++)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    return out;
}

/** Canonical merge: hosts sorted by id, each host's shards by seq. */
ProfileData
canonicalMerge(std::vector<const Shard *> shards)
{
    std::sort(shards.begin(), shards.end(),
              [](const Shard *a, const Shard *b) {
                  return std::tie(a->manifest.host, a->manifest.seq) <
                         std::tie(b->manifest.host, b->manifest.seq);
              });
    std::vector<ProfileData> profiles;
    profiles.reserve(shards.size());
    for (const Shard *s : shards)
        profiles.push_back(s->profile);
    return mergeProfiles(profiles);
}

// ---------------------------------------------------------------------
// Daemons.
// ---------------------------------------------------------------------

std::mutex g_children_mu;
std::set<pid_t> g_children;

/** Kill and reap every daemon still running (exit paths). */
void
killChildren()
{
    std::lock_guard<std::mutex> lock(g_children_mu);
    for (pid_t pid : g_children) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
    }
    g_children.clear();
}

struct Daemon
{
    std::string name;
    std::string dir;
    pid_t pid = -1;
    uint16_t port = 0;
    uint16_t metrics_port = 0;
};

std::string
readSmallFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** True while @p d has not exited (reaps it when it has). */
bool
alive(Daemon &d)
{
    if (d.pid <= 0)
        return false;
    int status = 0;
    pid_t r = ::waitpid(d.pid, &status, WNOHANG);
    if (r == 0)
        return true;
    std::lock_guard<std::mutex> lock(g_children_mu);
    g_children.erase(d.pid);
    d.pid = -1;
    return false;
}

/**
 * Start `hbbp-tool <args...>` with port and metrics-port files in
 * @p dir, and wait until both files are written.
 */
Daemon
spawnDaemon(const std::string &tool, const std::string &name,
            const std::string &dir, std::vector<std::string> args, int cpu)
{
    fs::create_directories(dir);
    Daemon d;
    d.name = name;
    d.dir = dir;
    std::string port_file = dir + "/port";
    std::string mport_file = dir + "/metrics-port";
    args.insert(args.begin(), tool);
    for (const std::string &a :
         {std::string("--listen"), std::string("0"),
          std::string("--port-file"), port_file,
          std::string("--metrics-port"), std::string("0"),
          std::string("--metrics-port-file"), mport_file})
        args.push_back(a);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::string log = dir + "/log";

    pid_t pid = ::fork();
    if (pid < 0)
        fail("fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
        // Only async-signal-safe calls between fork and exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (cpu >= 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            ::sched_setaffinity(0, sizeof(set), &set);
        }
        int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    {
        std::lock_guard<std::mutex> lock(g_children_mu);
        g_children.insert(pid);
    }
    d.pid = pid;
    double deadline = nowSec() + 30.0;
    for (;;) {
        std::string p = readSmallFile(port_file);
        std::string mp = readSmallFile(mport_file);
        if (!p.empty() && !mp.empty()) {
            d.port = static_cast<uint16_t>(std::stoul(p));
            d.metrics_port = static_cast<uint16_t>(std::stoul(mp));
            return d;
        }
        if (!alive(d))
            fail(format("daemon %s exited before listening: %s",
                        name.c_str(), readSmallFile(log).c_str()));
        if (nowSec() > deadline)
            fail("daemon " + name + " never wrote its port file");
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

/** Peak resident set (VmHWM) of a live daemon, in MB. */
double
vmHwmMb(const Daemon &d)
{
    std::ifstream in(format("/proc/%d/status", static_cast<int>(d.pid)));
    std::string line;
    while (std::getline(in, line))
        if (startsWith(line, "VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0;
    fail("no VmHWM for daemon " + d.name);
}

/** Wait up to @p timeout_s for @p d to exit; SIGKILL after that. */
int
reap(Daemon &d, double timeout_s)
{
    if (d.pid <= 0)
        return -1;
    double deadline = nowSec() + timeout_s;
    int status = 0;
    for (;;) {
        pid_t r = ::waitpid(d.pid, &status, WNOHANG);
        if (r == d.pid)
            break;
        if (nowSec() > deadline) {
            ::kill(d.pid, SIGKILL);
            ::waitpid(d.pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
        std::lock_guard<std::mutex> lock(g_children_mu);
        g_children.erase(d.pid);
    }
    d.pid = -1;
    return status;
}

QueryRequest
makeRequest(const std::string &verb,
            std::map<std::string, std::string> params = {})
{
    QueryRequest r;
    r.verb = verb;
    r.params = std::move(params);
    return r;
}

/**
 * Stop a `serve` root with the shutdown verb, then delete its files:
 * a deleted file's dirty pages are dropped, so earlier rounds' state
 * and store writes never reach the disk under a later timed window.
 */
void
stopRoot(Daemon &d)
{
    if (d.pid > 0) {
        QueryClient c("127.0.0.1", d.port, 5'000);
        QueryReply reply;
        std::string why;
        c.query(makeRequest("shutdown").renderText(), &reply, &why);
        reap(d, 10.0);
    }
    if (!d.dir.empty())
        fs::remove_all(d.dir);
}

/** Stop a relay (it serves until its idle timeout otherwise). */
void
stopRelay(Daemon &d)
{
    if (d.pid > 0) {
        ::kill(d.pid, SIGTERM);
        reap(d, 10.0);
    }
    if (!d.dir.empty())
        fs::remove_all(d.dir);
}

/**
 * The CPU daemon @p index is pinned to: root 0, relays 1 and 2, when
 * the machine has a CPU left over for the load generator; -1 (no
 * pinning) otherwise. Fixed placement keeps the scheduler from
 * stacking daemons on one CPU in some runs and not in others.
 */
int
daemonCpu(int index)
{
    unsigned n = std::thread::hardware_concurrency();
    return n >= kTreeRelays + 2 ? index : -1;
}

/**
 * `hbbp-tool serve` in @p dir; with @p durable, `--state --store` as
 * well (the ingesting roots; query_cold's root only answers queries).
 */
Daemon
spawnRoot(const std::string &tool, const std::string &dir, bool durable)
{
    std::vector<std::string> args = {"serve"};
    if (durable)
        args.insert(args.end(), {"--state", dir + "/state.bin", "--store",
                                 dir + "/store"});
    return spawnDaemon(tool, "root", dir, args, daemonCpu(0));
}

Daemon
spawnRelay(const std::string &tool, const std::string &dir, size_t index,
           uint16_t root_port)
{
    return spawnDaemon(
        tool, format("relay%zu", index), dir,
        {"relay", "--to", format("127.0.0.1:%u", root_port), "--relay-id",
         format("relay%zu", index), "--flush-every",
         format("%zu", kTreeFlushEvery), "--state", dir + "/state.bin",
         "--store", dir + "/store", "--timeout-ms", "600000"},
        daemonCpu(1 + index));
}

// ---------------------------------------------------------------------
// Metrics scraping (traced runs).
// ---------------------------------------------------------------------

/** A daemon's own unlabeled series (federated child series skipped). */
std::map<std::string, double>
scrape(const Daemon &d)
{
    std::string body, why;
    if (!fetchMetricsText("127.0.0.1", d.metrics_port, &body, &why))
        fail("scraping " + d.name + ": " + why);
    std::map<std::string, double> out;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.find(' ');
        if (sp == std::string::npos ||
            line.find('{') < sp) // Labeled: a child's or a bucket.
            continue;
        out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    }
    return out;
}

/** The generator's own transport counters and connect histogram. */
std::map<std::string, double>
ownCounters()
{
    std::map<std::string, double> m;
    m["frames"] = static_cast<double>(
        telemetry::counter("hbbp_transport_frames_sent_total").value());
    m["retries"] = static_cast<double>(
        telemetry::counter("hbbp_transport_retries_total").value());
    telemetry::Histogram &h = telemetry::histogram(
        "hbbp_transport_connect_ms", telemetry::latencyBucketsMs());
    for (size_t i = 0; i <= h.bounds().size(); i++)
        m[format("connect_bucket%02zu", i)] =
            static_cast<double>(h.bucketCount(i));
    return m;
}

/** Accumulates counter deltas over timed windows, per daemon role. */
struct ScrapeDelta
{
    std::map<std::string, double> total; ///< Summed over daemons.
    std::map<std::string, double> root;  ///< The root only.
    std::map<std::string, double> own;   ///< The generator's registry.

    void
    addOwn(const std::map<std::string, double> &before)
    {
        for (const auto &[k, v] : ownCounters())
            own[k] += v - before.at(k);
    }

    void
    add(const std::map<std::string, double> &before,
        const std::map<std::string, double> &after, bool is_root)
    {
        for (const auto &[k, v] : after) {
            auto it = before.find(k);
            double d = v - (it == before.end() ? 0.0 : it->second);
            total[k] += d;
            if (is_root)
                root[k] += d;
        }
    }

    double
    get(const std::string &k) const
    {
        auto it = total.find(k);
        return it == total.end() ? 0.0 : it->second;
    }
};

// ---------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------

/** One query round trip as the generator saw it. */
struct QueryObs
{
    bool ok = false;
    double start_ns = 0.0;
    double end_ns = 0.0;
    QueryReply reply;
    std::string error;
};

/**
 * QueryClient::query round trip. When tracing, records the e2e span
 * and the server's timing= split as child spans laid back to back in
 * the middle of it (the header gives durations, not timestamps).
 */
QueryObs
timedQuery(QueryClient &client, const QueryRequest &req,
           const std::string &op, const std::string &span_name)
{
    QueryObs o;
    std::string body = req.renderText();
    o.start_ns = nowNs();
    std::string why;
    bool sent = client.query(body, &o.reply, &why);
    o.end_ns = nowNs();
    o.ok = sent && o.reply.ok;
    if (!sent)
        o.error = why;
    else if (!o.reply.ok)
        o.error = o.reply.error;
    if (g_tracer.on) {
        uint64_t root =
            g_tracer.add(span_name, op, 0, o.start_ns, o.end_ns);
        if (o.reply.has_timing) {
            double server = static_cast<double>(
                o.reply.parse_ns + o.reply.cache_ns +
                o.reply.analysis_ns + o.reply.render_ns);
            double t = o.start_ns +
                       std::max(0.0, (o.end_ns - o.start_ns - server) / 2);
            for (const auto &[n, v] :
                 {std::pair<const char *, uint64_t>{"query.parse",
                                                    o.reply.parse_ns},
                  {"service.cache", o.reply.cache_ns},
                  {"service.analysis", o.reply.analysis_ns},
                  {"query.render", o.reply.render_ns}}) {
                g_tracer.add(n, op, root, t, t + static_cast<double>(v));
                t += static_cast<double>(v);
            }
        }
    }
    return o;
}

/** The key=value lines of a text `status` reply. */
std::map<std::string, std::string>
parseStatus(const std::string &payload)
{
    std::map<std::string, std::string> kv;
    for (const std::string &line : split(payload, '\n')) {
        size_t eq = line.find('=');
        if (eq != std::string::npos)
            kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    return kv;
}

std::map<std::string, std::string>
rootStatus(const Daemon &root)
{
    QueryClient c("127.0.0.1", root.port, 10'000);
    QueryReply reply;
    std::string why;
    if (!c.query(makeRequest("status", {{"format", "text"}}).renderText(),
                 &reply, &why) ||
        !reply.ok)
        fail("status query failed: " + why + reply.error);
    return parseStatus(reply.payload);
}

/** Offline renders over one fixed profile: the byte-identity oracle. */
class OfflineOracle
{
  public:
    explicit OfflineOracle(ProfileData profile)
        : source_(std::move(profile), kProgram),
          service_(source_, makeWorkloadByName)
    {
    }

    /**
     * The offline render of @p req. JSON carries the serving epoch and
     * cache flag, which are the daemon's, not the analysis's: the
     * served reply's headers stand in for them.
     */
    std::string
    render(const QueryRequest &req, const QueryReply &served)
    {
        auto it = results_.find(req.renderText());
        if (it == results_.end())
            it = results_.emplace(req.renderText(), service_.serve(req))
                     .first;
        QueryResult r = it->second;
        if (!r.error.empty())
            fail("offline " + req.verb + " failed: " + r.error);
        r.epoch = served.epoch;
        r.cached = served.cached;
        return r.render(
            *renderFormatFromName(req.param("format", "text")));
    }

  private:
    FixedProfileSource source_;
    AnalysisService service_;
    std::map<std::string, QueryResult> results_;
};

// ---------------------------------------------------------------------
// Pushes.
// ---------------------------------------------------------------------

struct PushObs
{
    bool ok = false;
    double start_ns = 0.0;
    double end_ns = 0.0;
    std::string error;
};

PushObs
timedPush(uint16_t port, const Shard &s, const std::string &op,
          const char *span_name = "e2e.push")
{
    SocketTransportOptions so;
    so.port = port;
    SocketTransport t(so);
    PushObs o;
    o.start_ns = nowNs();
    SendResult res = t.sendShard(s.manifest, s.chunks);
    o.end_ns = nowNs();
    o.ok = res.ok && !res.duplicate;
    if (!res.ok)
        o.error = res.error;
    else if (res.duplicate)
        o.error = "unexpected duplicate ack";
    g_tracer.add(span_name, op, 0, o.start_ns, o.end_ns);
    return o;
}

std::string
shardOp(const Shard &s)
{
    return format("push:%s/%u", s.manifest.host.c_str(), s.manifest.seq);
}

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

/** Everything one workload pass measured. */
struct Outcome
{
    std::vector<double> setup_s;
    std::vector<double> ingest_mb_s;
    std::vector<double> push_ms;  ///< Failed ops are +inf.
    /**
     * Per-set-up push p50/p90 when pushes happen only in the short
     * pre-load windows: the reported figure is their median, so one
     * disturbed set-up does not move it.
     */
    std::vector<double> setup_push_p50, setup_push_p90;
    std::vector<double> query_ms; ///< Failed ops are +inf.
    std::vector<double> rss_mb;   ///< Sum over daemons, per window.
    /** Each daemon's own VmHWM per window, by role (root, relay0..). */
    std::map<std::string, std::vector<double>> rss_by_daemon;

    /** Record the daemons' peak resident sets at a window's end. */
    void
    noteRss(const std::vector<Daemon *> &daemons)
    {
        double sum = 0.0;
        for (const Daemon *d : daemons) {
            if (d->pid <= 0)
                continue; // Exited early: requireAlive reports it.
            double mb = vmHwmMb(*d);
            rss_by_daemon[d->name].push_back(mb);
            sum += mb;
        }
        rss_mb.push_back(sum);
    }
    std::vector<double> late_ms;  ///< Open-loop generator lateness.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< Correctness failures.
    ScrapeDelta scraped;
    std::map<std::string, double> status_delta; ///< Root service stats.
    uint64_t leaf_bytes = 0;  ///< Leaf bytes pushed in timed windows.
    double collect_s = 0.0;   ///< Collection time in the last set-up.
    double collect_shard_ms = 0.0;
    double samples_per_shard = 0.0;
    double wire_floor_ms = 0.0; ///< Idle status round trip minus server.

    void
    notePush(const PushObs &o)
    {
        attempted++;
        if (!o.ok) {
            failed++;
            push_ms.push_back(std::numeric_limits<double>::infinity());
            errors.push_back("push failed: " + o.error);
        } else {
            push_ms.push_back((o.end_ns - o.start_ns) / 1e6);
        }
    }

    void
    noteQuery(const QueryObs &o, double from_ns)
    {
        attempted++;
        if (!o.ok) {
            failed++;
            query_ms.push_back(std::numeric_limits<double>::infinity());
            errors.push_back("query failed: " + o.error);
            return;
        }
        query_ms.push_back((o.end_ns - from_ns) / 1e6);
    }
};

/** State shared by one workload pass. */
struct Context
{
    std::string tool;
    std::string work;
    uint64_t seed = 1;
    double seconds = 10.0;
    int setups = kSetups;
    Workload program;
    Outcome out;
    /** Leaf shards in the order the replay should feed them. */
    std::vector<const Shard *> replay_pushes;
    size_t replay_relays = 0;
    /** Final aggregate's leaf shards (the query replay's input). */
    std::vector<const Shard *> final_leaves;
    std::vector<Shard> shards; ///< Owns every generated shard.
};

void
requireAlive(std::vector<Daemon *> daemons, Outcome &out)
{
    for (Daemon *d : daemons)
        if (!alive(*d))
            out.errors.push_back("daemon " + d->name + " exited early: " +
                                 readSmallFile(d->dir + "/log"));
}

/** Compare the root's served bytes with the offline renders. */
void
checkServed(const Daemon &root, OfflineOracle &oracle,
            const std::vector<QueryRequest> &requests, Outcome &out)
{
    QueryClient c("127.0.0.1", root.port, 60'000);
    for (const QueryRequest &req : requests) {
        QueryReply reply;
        std::string why;
        if (!c.query(req.renderText(), &reply, &why) || !reply.ok) {
            out.errors.push_back("check query " + req.verb +
                                 " failed: " + why + reply.error);
            continue;
        }
        if (reply.payload != oracle.render(req, reply))
            out.errors.push_back(
                format("served %s (%s) differs from the offline render",
                       req.verb.c_str(),
                       req.param("format", "text").c_str()));
    }
}

/** Idle `status` round trip minus its server time, median of 50. */
double
measureWireFloor(const Daemon &root)
{
    QueryClient c("127.0.0.1", root.port, 10'000);
    std::vector<double> v;
    for (int i = 0; i < 50; i++) {
        QueryReply reply;
        std::string why;
        double t0 = nowNs();
        if (!c.query(makeRequest("status").renderText(), &reply, &why))
            fail("wire probe failed: " + why);
        double server = static_cast<double>(
            reply.parse_ns + reply.cache_ns + reply.analysis_ns +
            reply.render_ns);
        v.push_back((nowNs() - t0 - server) / 1e6);
    }
    return perfbench::median(v);
}

std::map<std::string, double>
statusCounters(const Daemon &root)
{
    std::map<std::string, double> out;
    for (const auto &[k, v] : rootStatus(root))
        if (k == "cache_hits" || k == "cache_misses" || k == "analyses" ||
            k == "requests")
            out[k] = std::stod(v);
    return out;
}

void
addStatusDelta(Outcome &out, const std::map<std::string, double> &before,
               const std::map<std::string, double> &after)
{
    for (const auto &[k, v] : after)
        out.status_delta[k] += v - before.at(k);
}

/**
 * Push @p shards to @p root closed-loop from one client: the pre-load
 * of query_cold and serve_mixed. Returns the ingest rate in MB/s.
 */
double
preload(const Daemon &root, const std::vector<const Shard *> &shards,
        Outcome *out)
{
    uint64_t bytes = 0;
    double t0 = nowNs();
    for (const Shard *s : shards) {
        PushObs o = timedPush(root.port, *s, shardOp(*s), "setup.push");
        if (out)
            out->notePush(o);
        else if (!o.ok)
            fail("pre-load push failed: " + o.error);
        bytes += s->bytes;
    }
    double t1 = nowNs();
    return static_cast<double>(bytes) / 1e6 / ((t1 - t0) / 1e9);
}

std::vector<ShardSpec>
preloadSpecs(size_t hosts)
{
    std::vector<ShardSpec> specs;
    for (uint32_t seq = 0; seq < kPreloadShardsPerHost; seq++)
        for (size_t h = 0; h < hosts; h++)
            specs.push_back({format("base%02zu", h), seq,
                             kPreloadShardDivisor, 1});
    return specs;
}

/** Distinct-cutoff cold queries outside every measured set. */
void
warmUp(const Daemon &root)
{
    QueryClient c("127.0.0.1", root.port, 60'000);
    int i = 0;
    for (const char *verb : {"mix", "report", "fdo"}) {
        QueryReply reply;
        std::string why;
        QueryRequest req =
            makeRequest(verb, {{"cutoff", format("%d", 40 + i++)}});
        if (!c.query(req.renderText(), &reply, &why) || !reply.ok)
            fail("warm-up query failed: " + why + reply.error);
    }
}

// ---------------------------------------------------------------------
// ingest_tree
// ---------------------------------------------------------------------

struct TreeDaemons
{
    Daemon root;
    std::vector<Daemon> relays;

    std::vector<Daemon *>
    all()
    {
        std::vector<Daemon *> v{&root};
        for (Daemon &r : relays)
            v.push_back(&r);
        return v;
    }

    void
    stop()
    {
        for (Daemon &r : relays)
            stopRelay(r);
        stopRoot(root);
    }
};

TreeDaemons
spawnTree(Context &ctx, const std::string &dir)
{
    TreeDaemons t;
    t.root = spawnRoot(ctx.tool, dir + "/root", true);
    for (size_t r = 0; r < kTreeRelays; r++)
        t.relays.push_back(spawnRelay(ctx.tool,
                                      format("%s/relay%zu", dir.c_str(), r),
                                      r, t.root.port));
    return t;
}

void
runIngestTree(Context &ctx)
{
    Outcome &out = ctx.out;
    std::vector<ShardSpec> specs;
    for (uint32_t seq = 0; seq < kTreeShardsPerHost; seq++)
        for (size_t h = 0; h < kTreeHosts; h++)
            specs.push_back({format("host%02zu", h), seq,
                             kTreeShardDivisor, kTreeChunks});

    // Set-up: generate, spawn, wait for ports (no pre-load; a warm-up
    // push would change the coverage the round measures).
    std::optional<TreeDaemons> live;
    int round = 0;
    for (int s = 0; s < ctx.setups; s++) {
        if (live)
            live->stop();
        double t0 = nowSec();
        ctx.shards = generateShards(ctx.program, specs, ctx.seed);
        double t_collect = nowSec();
        live = spawnTree(ctx, format("%s/round%d", ctx.work.c_str(),
                                     round++));
        rootStatus(live->root);
        out.setup_s.push_back(nowSec() - t0);
        out.collect_s = t_collect - t0;
    }

    // shard index: host h, seq s at s * hosts + h.
    auto shardAt = [&](size_t h, size_t s) -> const Shard & {
        return ctx.shards[s * kTreeHosts + h];
    };
    uint64_t round_bytes = 0;
    std::vector<const Shard *> all;
    for (const Shard &s : ctx.shards) {
        round_bytes += s.bytes;
        all.push_back(&s);
    }
    ctx.final_leaves = all;
    // The replay feeds pushes in the clients' interleaved order.
    for (size_t s = 0; s < kTreeShardsPerHost; s++)
        for (size_t h = 0; h < kTreeHosts; h++)
            ctx.replay_pushes.push_back(&shardAt(h, s));
    ctx.replay_relays = kTreeRelays;

    OfflineOracle oracle(canonicalMerge(all));
    std::vector<QueryRequest> reads;
    const char *verbs[] = {"mix", "report", "fdo"};
    for (size_t i = 0; i < std::size(kTreeReadCutoffs); i++)
        reads.push_back(makeRequest(
            verbs[i % 3], {{"cutoff", format("%g", kTreeReadCutoffs[i])},
                           {"format", "text"}}));
    size_t expect = ctx.shards.size();

    double measured = 0.0;
    for (int r = 0; measured < ctx.seconds || r < 3; r++) {
        if (!live)
            live = spawnTree(ctx, format("%s/round%d", ctx.work.c_str(),
                                         round++));
        TreeDaemons &t = *live;
        std::vector<std::map<std::string, double>> before;
        std::map<std::string, double> own_before = ownCounters();
        if (g_tracer.on)
            for (Daemon *d : t.all())
                before.push_back(scrape(*d));

        // Closed loop: client c owns hosts [c*8, c*8+8), the hosts of
        // relay c, and pushes each host's next shard in turn.
        std::vector<std::vector<PushObs>> obs(kTreeClients);
        std::vector<std::thread> clients;
        size_t per_client = kTreeHosts / kTreeClients;
        double t_start = nowNs();
        for (size_t c = 0; c < kTreeClients; c++)
            clients.emplace_back([&, c] {
                for (size_t s = 0; s < kTreeShardsPerHost; s++)
                    for (size_t h = c * per_client;
                         h < (c + 1) * per_client; h++) {
                        const Shard &sh = shardAt(h, s);
                        obs[c].push_back(timedPush(
                            t.relays[h / kTreeHostsPerRelay].port, sh,
                            shardOp(sh)));
                    }
            });
        // Watch coverage at the root with `status`; each poll is a
        // query round trip the root answers between ingest work.
        QueryClient poll("127.0.0.1", t.root.port, 30'000);
        QueryRequest status = makeRequest("status", {{"format", "text"}});
        double t_cover = 0.0;
        double give_up = nowSec() + 120.0;
        for (;;) {
            QueryObs q = timedQuery(poll, status, "status", "e2e.status");
            if (!q.ok)
                out.errors.push_back("status poll failed: " + q.error);
            if (q.ok && parseStatus(q.reply.payload)["covered"] ==
                            format("%zu", expect)) {
                t_cover = q.end_ns;
                break;
            }
            if (nowSec() > give_up) {
                out.errors.push_back("root never covered every shard");
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::microseconds(kTreePollUs));
        }
        for (std::thread &c : clients)
            c.join();
        double t_first = t_start;
        for (auto &v : obs)
            for (const PushObs &o : v) {
                out.notePush(o);
                t_first = std::min(t_first, o.start_ns);
            }
        double window = (t_cover - t_first) / 1e9;
        if (t_cover > 0.0) {
            out.ingest_mb_s.push_back(static_cast<double>(round_bytes) /
                                      1e6 / window);
            measured += window;
        }
        out.leaf_bytes += round_bytes;

        // Outside the window: counters, memory, liveness, identity.
        if (g_tracer.on) {
            std::vector<Daemon *> ds = t.all();
            for (size_t i = 0; i < ds.size(); i++)
                out.scraped.add(before[i], scrape(*ds[i]), i == 0);
            out.scraped.addOwn(own_before);
        }
        requireAlive(t.all(), out);
        out.noteRss(t.all());
        std::map<std::string, double> status_before;
        if (g_tracer.on)
            status_before = statusCounters(t.root);
        for (size_t i = 0; i < reads.size(); i++) {
            QueryObs q = timedQuery(poll, reads[i],
                                    format("query:read%d.%zu", r, i),
                                    "e2e.query");
            out.noteQuery(q, q.start_ns);
            if (q.ok && q.reply.payload != oracle.render(reads[i], q.reply))
                out.errors.push_back(
                    format("served %s at cutoff %s differs from offline",
                           reads[i].verb.c_str(),
                           reads[i].param("cutoff").c_str()));
        }
        if (g_tracer.on)
            addStatusDelta(out, status_before, statusCounters(t.root));
        if (g_tracer.on && r == 0)
            out.wire_floor_ms = measureWireFloor(t.root);
        t.stop();
        live.reset();
        if (!out.errors.empty())
            break;
    }
}

// ---------------------------------------------------------------------
// query_cold
// ---------------------------------------------------------------------

void
runQueryCold(Context &ctx)
{
    Outcome &out = ctx.out;
    std::vector<const Shard *> base;
    // Closed loop: one client rotates verb x format; every request
    // has its own cutoff, so it misses both service caches.
    const char *verbs[] = {"mix", "report", "fdo"};
    const char *formats[] = {"text", "csv", "json"};
    std::map<size_t, std::pair<QueryRequest, QueryReply>> first, last;
    size_t i = 0;
    // Each set-up is followed by its share of the timed window, so the
    // pre-loads and the queries are spread over the whole run rather
    // than the pre-loads all sampling its first seconds.
    for (int s = 0; s < ctx.setups; s++) {
        double t0 = nowSec();
        ctx.shards =
            generateShards(ctx.program, preloadSpecs(kColdHosts), ctx.seed);
        double t_collect = nowSec();
        Daemon root =
            spawnRoot(ctx.tool, format("%s/root%d", ctx.work.c_str(), s),
                      false);
        base.clear();
        for (const Shard &sh : ctx.shards)
            base.push_back(&sh);
        size_t from = out.push_ms.size();
        out.ingest_mb_s.push_back(preload(root, base, &out));
        std::vector<double> acks(out.push_ms.begin() + from,
                                 out.push_ms.end());
        out.setup_push_p50.push_back(perfbench::percentile(acks, 0.5).value);
        out.setup_push_p90.push_back(perfbench::percentile(acks, 0.9).value);
        warmUp(root);
        out.setup_s.push_back(nowSec() - t0);
        out.collect_s = t_collect - t0;

        std::map<std::string, double> before;
        std::map<std::string, double> status_before;
        if (g_tracer.on) {
            before = scrape(root);
            status_before = statusCounters(root);
        }
        std::map<std::string, double> own_before = ownCounters();

        QueryClient client("127.0.0.1", root.port, 60'000);
        double end = nowSec() + ctx.seconds / ctx.setups;
        for (; nowSec() < end; i++) {
            size_t pair = i % 9;
            QueryRequest req = makeRequest(
                verbs[pair / 3],
                {{"cutoff", format("%.4f", 18.0 + 0.0001 * (i + 1))},
                 {"format", formats[pair % 3]}});
            QueryObs q = timedQuery(client, req, format("query:%zu", i),
                                    "e2e.query");
            out.noteQuery(q, q.start_ns);
            if (q.ok) {
                if (!first.count(pair))
                    first[pair] = {req, q.reply};
                last[pair] = {req, q.reply};
            }
        }
        if (g_tracer.on) {
            out.scraped.add(before, scrape(root), true);
            out.scraped.addOwn(own_before);
            addStatusDelta(out, status_before, statusCounters(root));
            out.wire_floor_ms = measureWireFloor(root);
        }
        requireAlive({&root}, out);
        out.noteRss({&root});
        stopRoot(root);
    }
    ctx.final_leaves = base;
    ctx.replay_pushes = base;
    out.leaf_bytes = 0;

    // Every set-up generates the same shards from the seed, so one
    // oracle covers the first and the last window.
    OfflineOracle oracle(canonicalMerge(base));
    for (auto *set : {&first, &last})
        for (auto &[pair, rp] : *set)
            if (rp.second.payload != oracle.render(rp.first, rp.second))
                out.errors.push_back(format(
                    "served %s/%s at cutoff %s differs from offline",
                    rp.first.verb.c_str(),
                    rp.first.param("format").c_str(),
                    rp.first.param("cutoff").c_str()));
    if (first.size() != 9)
        out.errors.push_back("not every verb/format pair was served");
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------

void
runServeMixed(Context &ctx)
{
    Outcome &out = ctx.out;
    // Enough shards for any Poisson draw at this rate (mean + 6 sd).
    double expect = ctx.seconds * kMixedPushRate;
    size_t n_push =
        static_cast<size_t>(std::ceil(expect + 6 * std::sqrt(expect)));
    std::vector<ShardSpec> specs = preloadSpecs(kMixedHosts);
    size_t n_base = specs.size();
    for (size_t i = 0; i < n_push; i++)
        specs.push_back({format("live%02zu", i % kMixedPushHosts),
                         static_cast<uint32_t>(i / kMixedPushHosts),
                         kMixedShardDivisor, 1});

    Daemon root;
    for (int s = 0; s < ctx.setups; s++) {
        stopRoot(root);
        double t0 = nowSec();
        ctx.shards = generateShards(ctx.program, specs, ctx.seed);
        double t_collect = nowSec();
        root = spawnRoot(ctx.tool, format("%s/root%d", ctx.work.c_str(), s),
                         true);
        std::vector<const Shard *> base;
        for (size_t i = 0; i < n_base; i++)
            base.push_back(&ctx.shards[i]);
        out.ingest_mb_s.push_back(preload(root, base, nullptr));
        warmUp(root);
        out.setup_s.push_back(nowSec() - t0);
        out.collect_s = t_collect - t0;
    }
    for (size_t i = 0; i < n_base; i++)
        ctx.final_leaves.push_back(&ctx.shards[i]);

    // Two keys with distinct analyzer configurations, so a push
    // invalidates two full analyses.
    std::vector<QueryRequest> keys = {
        makeRequest("mix", {{"cutoff", "18"}, {"format", "text"}}),
        makeRequest("report", {{"cutoff", "20"}, {"format", "text"}})};

    std::map<std::string, double> before, status_before;
    if (g_tracer.on) {
        before = scrape(root);
        status_before = statusCounters(root);
    }
    std::map<std::string, double> own_before = ownCounters();

    // The open-loop schedule: every op has a due time; workers take
    // ops in due order, sleep until due, and time from the due time.
    struct Op
    {
        double due = 0.0;
        bool push = false;
        size_t index = 0; ///< Shard index or query number.
    };
    double t0 = nowSec() + 0.05;
    double t_end = t0 + ctx.seconds;
    std::vector<Op> ops;
    std::vector<double> push_due = perfbench::poissonSchedule(
        t0, t_end, kMixedPushRate, ctx.seed * 2 + 1);
    for (size_t i = 0; i < push_due.size() && i < n_push; i++)
        ops.push_back({push_due[i], true, n_base + i});
    std::vector<double> query_due = perfbench::poissonSchedule(
        t0, t_end, kMixedQueryRate, ctx.seed * 2 + 2);
    for (size_t i = 0; i < query_due.size(); i++)
        ops.push_back({query_due[i], false, i});
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Op &a, const Op &b) { return a.due < b.due; });

    struct Done
    {
        perfbench::OpenLoopOp t;
        bool push = false;
        PushObs p;
        QueryObs q;
    };
    std::vector<Done> done(ops.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
        QueryClient client("127.0.0.1", root.port, 60'000);
        for (size_t i; (i = next++) < ops.size();) {
            const Op &op = ops[i];
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::duration_cast<
                                  Clock::duration>(
                    std::chrono::duration<double>(op.due))));
            Done &d = done[i];
            d.push = op.push;
            d.t.due = op.due;
            d.t.sent = nowSec();
            if (op.push) {
                const Shard &sh = ctx.shards[op.index];
                d.p = timedPush(root.port, sh, shardOp(sh));
            } else {
                d.q = timedQuery(client, keys[op.index % keys.size()],
                                 format("query:%zu", op.index),
                                 "e2e.query");
            }
            d.t.done = nowSec();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < kMixedWorkers; w++)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    for (Done &d : done) {
        out.late_ms.push_back(perfbench::lateness(d.t) * 1e3);
        double lat = perfbench::dueLatency(d.t) * 1e3;
        if (d.push) {
            out.notePush(d.p);
            if (d.p.ok) {
                out.push_ms.back() = lat;
                const Shard *sh = &ctx.shards[ops[&d - done.data()].index];
                out.leaf_bytes += sh->bytes;
                ctx.final_leaves.push_back(sh);
                ctx.replay_pushes.push_back(sh);
            }
        } else {
            out.noteQuery(d.q, d.q.start_ns);
            if (d.q.ok)
                out.query_ms.back() = lat;
        }
    }
    if (g_tracer.on) {
        out.scraped.add(before, scrape(root), true);
        out.scraped.addOwn(own_before);
        addStatusDelta(out, status_before, statusCounters(root));
        out.wire_floor_ms = measureWireFloor(root);
    }
    requireAlive({&root}, out);
    out.noteRss({&root});

    OfflineOracle oracle(canonicalMerge(ctx.final_leaves));
    checkServed(root, oracle,
                {makeRequest("report", {{"format", "text"}}),
                 makeRequest("mix", {{"format", "text"}})},
                out);
    stopRoot(root);
}

// ---------------------------------------------------------------------
// Layer replay (traced runs).
// ---------------------------------------------------------------------

/** What the replay measured, per unit of work. */
struct ReplayResult
{
    size_t pushes = 0;
    double serialize_bytes = 0, serialize_ns = 0;
    double parse_bytes = 0, parse_ns = 0;
    double checksum_bytes = 0, checksum_ns = 0;
    double fold_ns = 0;
    size_t folds = 0;
    double journal_ns = 0;
    size_t journals = 0;
    double deposit_ns = 0;
    size_t deposits = 0;
    /** Loopback sendShard minus the listener's replayed work. */
    double transport_self_ns = 0;
    size_t queries = 0;
    std::map<std::string, double> stage_ns; ///< analysis.* per query.
    uint64_t samples_per_query = 0;
};

/** One daemon's ingest state, as the replay rebuilds it. */
struct ReplayNode
{
    IncrementalAggregator agg;
    std::unique_ptr<StateJournal> journal;
    std::unique_ptr<ProfileStore> store;
    std::unique_ptr<StorePin> pin;
    size_t since_flush = 0;
    uint32_t flush_seq = 0;

    explicit ReplayNode(const std::string &dir)
    {
        fs::create_directories(dir);
        journal = std::make_unique<StateJournal>(dir + "/state.bin",
                                                 kJournalEvery);
        store = std::make_unique<ProfileStore>(dir + "/store");
        pin = std::make_unique<StorePin>(*store, "replay");
    }
};

/** Time @p fn as a child span of @p parent; returns nanoseconds. */
template <typename Fn>
double
step(const char *name, const std::string &op, uint64_t parent, Fn &&fn)
{
    double t0 = nowNs();
    fn();
    double t1 = nowNs();
    g_tracer.add(name, op, parent, t0, t1);
    return t1 - t0;
}

/**
 * One arrival at a daemon, through the listener's steps in order:
 * verify and parse each chunk, assemble, re-checksum the assembled
 * payload, fold, deposit, journal. Returns the ns spent in the
 * listener's own steps (parse .. fold).
 */
double
replayArrival(ReplayNode &node, const ShardManifest &m,
              const std::vector<std::string> &chunks, const std::string &op,
              uint64_t parent, ReplayResult &rr)
{
    bool aggregate = !m.covered.empty();
    double listen_ns = 0;
    std::vector<ProfileData> parts;
    for (const std::string &c : chunks) {
        std::string why;
        double ns = step("profile.parse", op, parent, [&] {
            std::optional<ProfileData> p =
                ProfileData::parse(c, "replay", &why);
            if (!p)
                fail("replay parse failed: " + why);
            parts.push_back(std::move(*p));
        });
        rr.parse_ns += ns;
        rr.parse_bytes += static_cast<double>(c.size());
        listen_ns += ns;
    }
    ProfileData merged;
    listen_ns += step("aggregate.assemble", op, parent, [&] {
        merged = parts.size() == 1 ? parts[0] : mergeProfiles(parts);
    });
    std::string bytes;
    double ns = step("profile.serialize", op, parent,
                     [&] { bytes = merged.serialize(); });
    rr.serialize_ns += ns;
    rr.serialize_bytes += static_cast<double>(bytes.size());
    listen_ns += ns;
    ns = step("profile.checksum", op, parent, [&] {
        volatile uint64_t h = fnv1a(bytes);
        (void)h;
    });
    rr.checksum_ns += ns;
    rr.checksum_bytes += static_cast<double>(bytes.size());
    listen_ns += ns;
    std::vector<std::string> accept_bytes = chunks;
    if (!aggregate && chunks.size() > 1) {
        ns = step("profile.serialize", op, parent, [&] {
            accept_bytes = {merged.serialize()};
        });
        rr.serialize_ns += ns;
        rr.serialize_bytes += static_cast<double>(accept_bytes[0].size());
    }
    ProfileData for_store = merged;
    ns = step("aggregate.fold", op, parent, [&] {
        std::string why;
        bool ok = aggregate
                      ? node.agg.addAggregateShard(m, std::move(parts), &why)
                      : node.agg.addShard(m, std::move(merged), &why);
        if (!ok)
            fail("replay fold rejected: " + why);
    });
    rr.fold_ns += ns;
    rr.folds++;
    listen_ns += ns;
    // The daemons' order: pin, deposit, journal, unpin.
    rr.deposit_ns += step("store.deposit", op, parent, [&] {
        node.pin->pin(m.checksum);
        if (chunks.size() == 1)
            node.store->depositBytesByChecksum(m.checksum, chunks[0]);
        else
            node.store->insertByChecksum(m.checksum, for_store);
    });
    rr.deposits++;
    rr.journal_ns += step("journal.record", op, parent, [&] {
        node.journal->record(node.agg, m, accept_bytes);
    });
    rr.journals++;
    rr.deposit_ns += step("store.unpin", op, parent,
                          [&] { node.pin->unpin(m.checksum); });
    return listen_ns;
}

ReplayResult
replay(Context &ctx)
{
    ReplayResult rr;
    std::string dir = ctx.work + "/replay";
    ReplayNode root(dir + "/root");
    std::vector<std::unique_ptr<ReplayNode>> relays;
    for (size_t r = 0; r < ctx.replay_relays; r++)
        relays.push_back(std::make_unique<ReplayNode>(
            format("%s/relay%zu", dir.c_str(), r)));

    // Ingest: every leaf push in pipeline order, with the relay
    // flushes they trigger replayed onto the root.
    std::vector<double> listen_ns;
    for (const Shard *s : ctx.replay_pushes) {
        std::string op = "replay:" + shardOp(*s);
        Scoped push("replay.push", op);
        size_t r = ctx.replay_relays == 0
                       ? 0
                       : std::stoul(s->manifest.host.substr(4)) /
                             kTreeHostsPerRelay;
        ReplayNode &node = ctx.replay_relays ? *relays[r] : root;
        listen_ns.push_back(replayArrival(node, s->manifest, s->chunks, op,
                                          push.id(), rr));
        rr.pushes++;
        if (ctx.replay_relays && ++node.since_flush >= kTreeFlushEvery) {
            node.since_flush = 0;
            Scoped flush("relay.flush", op, push.id());
            PartialExport ex;
            step("relay.export", op, flush.id(),
                 [&] { ex = node.agg.exportPartials(); });
            ShardManifest m;
            m.version = kManifestVersionAggregate;
            m.host = format("relay%zu", r);
            m.workload = ex.workload;
            m.seq = node.flush_seq++;
            m.checksum = ex.checksum;
            m.level = node.agg.maxLevelSeen() + 1;
            std::vector<std::string> chunks;
            for (HostPartial &hp : ex.partials) {
                m.covered.push_back({hp.host, hp.covered});
                chunks.push_back(std::move(hp.bytes));
            }
            replayArrival(root, m, chunks, op, flush.id(), rr);
        }
    }

    // Transport: the same pushes over loopback into an in-process
    // listener; what the listener's replayed steps do not explain is
    // the transport's own time.
    {
        IncrementalAggregator agg;
        ShardListener listener(0);
        ListenOptions lo;
        lo.expect = ctx.replay_pushes.size();
        lo.idle_timeout_ms = 10'000;
        std::thread server([&] { listener.serve(agg, lo); });
        double sum = 0;
        std::string error;
        for (size_t i = 0; i < ctx.replay_pushes.size() && error.empty();
             i++) {
            const Shard &s = *ctx.replay_pushes[i];
            SocketTransportOptions so;
            so.port = listener.port();
            SocketTransport t(so);
            double t0 = nowNs();
            SendResult res = t.sendShard(s.manifest, s.chunks);
            double t1 = nowNs();
            g_tracer.add("transport.send", "replay:loopback", 0, t0, t1);
            if (!res.ok)
                error = res.error;
            sum += (t1 - t0) - listen_ns[i];
        }
        server.join(); // Returns at the idle timeout after a failure.
        if (!error.empty())
            fail("replay loopback push failed: " + error);
        rr.transport_self_ns =
            rr.pushes ? sum / static_cast<double>(rr.pushes) : 0.0;
    }

    // Analysis: Analyzer::analyze's steps on the final aggregate, at
    // cutoffs outside every measured set.
    ProfileData agg = canonicalMerge(ctx.final_leaves);
    rr.samples_per_query = agg.ebs.size() + agg.lbr.size();
    const Program &prog = *ctx.program.program;
    for (int i = 0; i < 5; i++) {
        std::string op = format("replay:query:%d", i);
        Scoped q("replay.query", op);
        CutoffClassifier classifier(60.0 + i, true);
        std::optional<BlockMap> map;
        BbecEstimates est;
        std::vector<BlockFeatures> features;
        std::vector<double> fused;
        rr.stage_ns["analysis.blockmap"] += step(
            "analysis.blockmap", op, q.id(), [&] { map.emplace(prog); });
        rr.stage_ns["analysis.bbec"] +=
            step("analysis.bbec", op, q.id(),
                 [&] { est = BbecEstimator().estimate(*map, agg); });
        rr.stage_ns["analysis.features"] +=
            step("analysis.features", op, q.id(), [&] {
                features = Analyzer::computeFeatures(*map, est);
            });
        rr.stage_ns["analysis.classify"] +=
            step("analysis.classify", op, q.id(), [&] {
                fused.assign(features.size(), 0.0);
                for (size_t b = 0; b < features.size(); b++)
                    fused[b] = classifier.choose(features[b]) ==
                                       BbecSource::Ebs
                                   ? est.ebs[b]
                                   : est.lbr[b];
            });
        rr.stage_ns["analysis.mix"] +=
            step("analysis.mix", op, q.id(), [&] {
                InstructionMix mix(*map, fused);
                TextTable t = mix.pivotTable(MixQuery{});
                (void)t;
            });
        rr.queries++;
    }
    fs::remove_all(dir);
    for (auto &[k, v] : rr.stage_ns)
        v /= static_cast<double>(rr.queries);
    return rr;
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 1e12; // A failed op's latency: past every bound.
    return format("%.6g", v);
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (startsWith(line, "model name")) {
            size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

/**
 * Push-ack percentile @p q of one pass: pooled over the timed
 * windows, or the median of the per-set-up figures when pushes happen
 * only in the pre-loads.
 */
perfbench::Percentile
pushAck(const Outcome &o, double q)
{
    perfbench::Percentile p = perfbench::percentile(o.push_ms, q);
    const std::vector<double> &per_setup =
        q == 0.5 ? o.setup_push_p50 : o.setup_push_p90;
    if (!per_setup.empty())
        p.value = perfbench::median(per_setup);
    return p;
}

/**
 * Push-ack p50, printed but not gated: plain acks are a handful of
 * small file writes, and their latency follows the disk's drift (more
 * than 2x between runs on the reference machine).
 */
Metric
ungatedPushP50(const Outcome &o)
{
    perfbench::Percentile p = pushAck(o, 0.5);
    return {"push_ack_ms_p50", p.value, "ms", p.samples};
}

/**
 * Query p50, printed but not gated. On a shared host the machine's
 * speed switches between a fast and a slow phase every few seconds
 * (about 1.5x apart), so query latencies are bimodal and their median
 * lands in whichever phase held more of the run. The slow phase holds
 * well over a quarter of every run, so p75 and p90 stay inside it and
 * repeat across runs.
 */
Metric
ungatedQueryP50(const Outcome &o)
{
    perfbench::Percentile p = perfbench::percentile(o.query_ms, 0.5);
    return {"query_ms_p50", p.value, "ms", p.samples};
}

/** End-to-end metrics of one pass (every workload reports all). */
std::vector<Metric>
endToEnd(const Outcome &o)
{
    perfbench::Percentile p90 = pushAck(o, 0.9);
    perfbench::Percentile q75 = perfbench::percentile(o.query_ms, 0.75);
    perfbench::Percentile q90 = perfbench::percentile(o.query_ms, 0.9);
    return {
        {"setup_s", perfbench::median(o.setup_s), "s", o.setup_s.size()},
        {"ingest_mb_per_s", perfbench::median(o.ingest_mb_s), "MB/s",
         o.ingest_mb_s.size()},
        {"push_ack_ms_p90", p90.value, "ms", p90.samples},
        {"query_ms_p75", q75.value, "ms", q75.samples},
        {"query_ms_p90", q90.value, "ms", q90.samples},
        {"daemon_rss_mb", perfbench::median(o.rss_mb), "MB",
         o.rss_mb.size()},
    };
}

/** A span's self time summed per layer (the name's first segment). */
std::map<std::string, double>
layerSelf(const std::vector<Span> &spans, const std::string &root_name,
          size_t *roots)
{
    // Keep only the trees rooted at root_name.
    std::set<uint64_t> keep;
    for (const Span &s : spans)
        if (s.parent == 0 ? s.name == root_name : keep.count(s.parent))
            keep.insert(s.id);
    std::vector<Span> sub;
    *roots = 0;
    for (const Span &s : spans)
        if (keep.count(s.id)) {
            Span c = s;
            if (c.parent != 0 && !keep.count(c.parent))
                c.parent = 0;
            sub.push_back(c);
            if (s.parent == 0)
                (*roots)++;
        }
    std::map<std::string, double> out;
    for (const auto &[name, ns] : perfbench::selfTimeByName(sub))
        out[name.substr(0, name.find('.'))] += ns;
    return out;
}

std::vector<Metric>
perLayer(const Context &ctx, const Outcome &traced, const Outcome &plain,
         const ReplayResult &rr, const std::vector<Span> &spans)
{
    std::vector<Metric> m;
    auto add = [&](const std::string &n, double v, const std::string &u,
                   size_t samples = 0) { m.push_back({n, v, u, samples}); };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const ScrapeDelta &sc = traced.scraped;

    // Live op bases: mean e2e latency per op kind in the traced pass.
    std::vector<double> push_d, query_d;
    for (const Span &s : spans) {
        if (s.parent != 0)
            continue;
        if (s.name == "e2e.push")
            push_d.push_back((s.end_ns - s.start_ns) / 1e6);
        if (s.name == "e2e.query")
            query_d.push_back((s.end_ns - s.start_ns) / 1e6);
    }
    double push_base = mean(push_d), query_base = mean(query_d);

    // Push ledger: the replay's per-push self time by layer.
    size_t replay_pushes = 0;
    std::map<std::string, double> push_layers =
        layerSelf(spans, "replay.push", &replay_pushes);
    auto per_push = [&](const std::string &layer) {
        if (push_d.empty() || replay_pushes == 0)
            return 0.0;
        return push_layers[layer] / static_cast<double>(replay_pushes) /
               1e6;
    };
    std::map<std::string, double> push_self;
    for (const char *l :
         {"profile", "aggregate", "relay", "journal", "store"})
        push_self[l] = per_push(l);
    push_self["transport"] =
        push_d.empty() ? 0.0 : rr.transport_self_ns / 1e6;

    // Query ledger: live server split, replayed analysis stages.
    size_t live_queries = query_d.size();
    std::map<std::string, double> live_named;
    for (const Span &s : spans)
        if (s.parent != 0 && startsWith(s.op, "query:"))
            live_named[s.name] += s.end_ns - s.start_ns;
    double nq = static_cast<double>(std::max<size_t>(live_queries, 1));
    double stage_total = 0;
    for (const auto &[k, v] : rr.stage_ns)
        stage_total += v;
    // The live timing= split says how long the service spent building
    // results; the replay says how Analyzer::analyze's steps divide
    // such a build. Measured at different moments, their absolute
    // figures differ by the machine's drift, so the ledger takes the
    // amount from the live split and only the proportions from the
    // replay: analysis gets the live build time, service its probe.
    std::map<std::string, double> query_self;
    if (!query_d.empty()) {
        query_self["analysis"] = live_named["service.analysis"] / nq / 1e6;
        query_self["service"] = live_named["service.cache"] / nq / 1e6;
        query_self["query"] = (live_named["query.parse"] +
                               live_named["query.render"]) /
                                  nq / 1e6 +
                              traced.wire_floor_ms;
    }

    // collect
    add("collect.shard_ms", traced.collect_shard_ms, "ms");
    add("collect.samples_per_shard", traced.samples_per_shard, "count");
    add("collect.self_s", traced.collect_s, "s");
    add("collect.share_of_setup", ratio(traced.collect_s,
                                        perfbench::median(traced.setup_s)),
        "ratio");
    // profile
    add("profile.serialize_mb_s",
        ratio(rr.serialize_bytes / 1e6, rr.serialize_ns / 1e9), "MB/s");
    add("profile.parse_mb_s", ratio(rr.parse_bytes / 1e6, rr.parse_ns / 1e9),
        "MB/s");
    add("profile.checksum_mb_s",
        ratio(rr.checksum_bytes / 1e6, rr.checksum_ns / 1e9), "MB/s");
    // transport
    add("transport.frames", sc.own.count("frames") ? sc.own.at("frames") : 0,
        "count");
    add("transport.retries",
        sc.own.count("retries") ? sc.own.at("retries") : 0, "count");
    {
        // p50 of the generator's connect histogram (a bucket bound).
        std::vector<uint64_t> bounds = telemetry::latencyBucketsMs();
        double n = 0, seen = 0, p50 = 0;
        for (size_t i = 0; i <= bounds.size(); i++)
            n += sc.own.count(format("connect_bucket%02zu", i))
                     ? sc.own.at(format("connect_bucket%02zu", i))
                     : 0;
        for (size_t i = 0; i <= bounds.size() && n > 0; i++) {
            seen += sc.own.at(format("connect_bucket%02zu", i));
            if (seen * 2 >= n) {
                p50 = i < bounds.size() ? static_cast<double>(bounds[i])
                                        : static_cast<double>(bounds.back());
                break;
            }
        }
        add("transport.connect_ms_p50", p50, "ms",
            static_cast<size_t>(n));
    }
    add("transport.listener_bytes",
        sc.get("hbbp_listener_bytes_received_total"), "bytes");
    // aggregate
    add("aggregate.fold_ns_per_shard", ratio(rr.fold_ns, rr.folds), "ns");
    add("aggregate.daemon_fold_ns_per_shard",
        ratio(sc.get("hbbp_agg_fold_ns_total"),
              sc.get("hbbp_agg_shards_folded_total") +
                  sc.get("hbbp_agg_aggregates_folded_total")),
        "ns");
    add("aggregate.duplicates", sc.get("hbbp_agg_duplicates_total"),
        "count");
    add("aggregate.superseded", sc.get("hbbp_agg_superseded_total"),
        "count");
    // relay
    add("relay.flushes", sc.get("hbbp_relay_flushes_total"), "count");
    add("relay.flush_failures", sc.get("hbbp_relay_flush_failures_total"),
        "count");
    double leaf = static_cast<double>(traced.leaf_bytes);
    add("relay.upstream_bytes_per_leaf_byte",
        ctx.replay_relays
            ? ratio(sc.root.count("hbbp_listener_bytes_received_total")
                        ? sc.root.at("hbbp_listener_bytes_received_total")
                        : 0.0,
                    leaf)
            : 0.0,
        "ratio");
    // journal
    add("journal.record_ns_per_shard", ratio(rr.journal_ns, rr.journals),
        "ns");
    add("journal.append_bytes_per_leaf_byte",
        ratio(sc.get("hbbp_journal_append_bytes_total"), leaf), "ratio");
    add("journal.compactions", sc.get("hbbp_journal_compactions_total"),
        "count");
    // store
    add("store.deposit_ns_per_shard", ratio(rr.deposit_ns, rr.deposits),
        "ns");
    add("store.lock_wait_ns", sc.get("hbbp_store_lock_wait_ns_total"),
        "ns");
    add("store.dedups", sc.get("hbbp_store_deposit_dedups_total"), "count");
    // analysis
    for (const char *st : {"blockmap", "bbec", "features", "classify",
                           "mix"}) {
        std::string k = std::string("analysis.") + st;
        double v = rr.stage_ns.count(k) ? rr.stage_ns.at(k) : 0.0;
        add(k + "_ns", v, "ns", rr.queries);
        add(k + "_share_of_analysis", ratio(v, stage_total), "ratio");
    }
    add("analysis.samples_per_query",
        static_cast<double>(rr.samples_per_query), "count");
    // service
    double hits = traced.status_delta.count("cache_hits")
                      ? traced.status_delta.at("cache_hits")
                      : 0.0;
    double misses = traced.status_delta.count("cache_misses")
                        ? traced.status_delta.at("cache_misses")
                        : 0.0;
    add("service.cache_ns", live_named["service.cache"] / nq, "ns",
        live_queries);
    add("service.analysis_ns", live_named["service.analysis"] / nq, "ns",
        live_queries);
    add("service.hit_ratio", ratio(hits, hits + misses), "ratio",
        static_cast<size_t>(hits + misses));
    add("service.lookups", hits + misses, "count");
    add("service.analyses",
        traced.status_delta.count("analyses")
            ? traced.status_delta.at("analyses")
            : 0.0,
        "count");
    // query
    add("query.parse_ns", live_named["query.parse"] / nq, "ns",
        live_queries);
    add("query.render_ns", live_named["query.render"] / nq, "ns",
        live_queries);
    add("query.wire_ms",
        live_queries ? query_base - (live_named["query.parse"] +
                                     live_named["query.render"] +
                                     live_named["service.cache"] +
                                     live_named["service.analysis"]) /
                                        nq / 1e6
                     : 0.0,
        "ms", live_queries);
    add("query.wire_floor_ms", traced.wire_floor_ms, "ms");
    // loadgen
    add("loadgen.late_ms_p90",
        perfbench::percentile(traced.late_ms, 0.9).value, "ms",
        traced.late_ms.size());
    add("loadgen.late_ms_max",
        traced.late_ms.empty()
            ? 0.0
            : *std::max_element(traced.late_ms.begin(),
                                traced.late_ms.end()),
        "ms", traced.late_ms.size());
    // daemon
    for (const char *d : {"root", "relay0", "relay1"}) {
        auto it = traced.rss_by_daemon.find(d);
        add(std::string("daemon.rss_mb_") + d,
            it == traced.rss_by_daemon.end() ? 0.0
                                             : perfbench::median(it->second),
            "MB");
    }

    // The self-time ledger, per op kind.
    double push_sum = 0, query_sum = 0;
    for (const char *l : {"profile", "transport", "aggregate", "relay",
                          "journal", "store"}) {
        add(std::string(l) + ".self_ms", push_self[l], "ms");
        add(std::string(l) + ".share", ratio(push_self[l], push_base),
            "ratio");
        push_sum += push_self[l];
    }
    for (const char *l : {"analysis", "service", "query"}) {
        add(std::string(l) + ".self_ms", query_self[l], "ms");
        add(std::string(l) + ".share", ratio(query_self[l], query_base),
            "ratio");
        query_sum += query_self[l];
    }
    add("ledger.push_base_ms", push_base, "ms", push_d.size());
    add("ledger.push_unexplained_ms",
        push_d.empty() ? 0.0 : push_base - push_sum, "ms");
    add("ledger.push_unexplained_share",
        push_d.empty() ? 0.0 : ratio(push_base - push_sum, push_base),
        "ratio");
    add("ledger.query_base_ms", query_base, "ms", query_d.size());
    add("ledger.query_unexplained_ms",
        query_d.empty() ? 0.0 : query_base - query_sum, "ms");
    add("ledger.query_unexplained_share",
        query_d.empty() ? 0.0 : ratio(query_base - query_sum, query_base),
        "ratio");

    // Tracing overhead: the traced pass's figure for the workload's
    // timed operation (push p50 on ingest_tree, query p75 elsewhere)
    // against the untraced pass's.
    auto primary = [&](const Outcome &o) {
        return ctx.replay_relays ? pushAck(o, 0.5).value
                                 : perfbench::percentile(o.query_ms, 0.75)
                                       .value;
    };
    add("trace.overhead_pct",
        100.0 * ratio(primary(traced) - primary(plain), primary(plain)),
        "%");
    Metric p50 = ungatedPushP50(plain);
    add("ledger.push_ack_ms_p50", p50.value, p50.unit, p50.samples);
    add("trace.spans", static_cast<double>(spans.size()), "count");
    return m;
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &x : ms)
        std::printf("  %-44s %14.6g %-6s%s\n", x.name.c_str(), x.value,
                    x.unit.c_str(),
                    x.samples ? format("  (n=%zu)", x.samples).c_str()
                              : "");
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string tool;
    std::string work;
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v);
        else if (k == "--tool")
            a.tool = v;
        else if (k == "--work")
            a.work = v;
        else if (k == "--commit")
            a.commit = v;
        else
            fail("unknown argument " + k);
    }
    if (a.workload.empty() || a.tool.empty() || a.work.empty())
        fail("usage: fleetbench --workload NAME --seed N --seconds S "
             "--trace 0|1 --tool PATH --work DIR [--commit SHA]");
    return a;
}

/** Run one pass of the workload into @p ctx. */
void
runPass(Context &ctx, const std::string &workload)
{
    if (workload == "ingest_tree")
        runIngestTree(ctx);
    else if (workload == "query_cold")
        runQueryCold(ctx);
    else if (workload == "serve_mixed")
        runServeMixed(ctx);
    else
        fail("unknown workload '" + workload +
             "' (ingest_tree, query_cold, serve_mixed)");
    // Collection figures from the spans of the last set-up.
    double n = 0, ms = 0, samples = 0;
    for (const Shard &s : ctx.shards) {
        n++;
        samples += static_cast<double>(s.profile.ebs.size() +
                                       s.profile.lbr.size());
    }
    for (const Span &s : g_tracer.spans())
        if (s.name == "collect.shard")
            ms += (s.end_ns - s.start_ns) / 1e6;
    size_t collected = 0;
    for (const Span &s : g_tracer.spans())
        collected += s.name == "collect.shard";
    ctx.out.collect_shard_ms = collected ? ms / collected : 0.0;
    ctx.out.samples_per_shard = n > 0 ? samples / n : 0.0;
}

std::string
configLine(const std::string &workload)
{
    if (workload == "ingest_tree")
        return format("{\"hosts\":%zu,\"relays\":%zu,\"clients\":%zu,"
                      "\"loop\":\"closed\",\"shards_per_host\":%zu,"
                      "\"chunks\":%u,\"shard_divisor\":%llu,"
                      "\"flush_every\":%zu,\"poll_us\":%d,"
                      "\"read_queries\":%zu}",
                      kTreeHosts, kTreeRelays, kTreeClients,
                      kTreeShardsPerHost, kTreeChunks,
                      static_cast<unsigned long long>(kTreeShardDivisor),
                      kTreeFlushEvery, kTreePollUs,
                      std::size(kTreeReadCutoffs));
    auto preload = [](size_t hosts) {
        return format("\"preload_hosts\":%zu,\"preload_shards_per_host\":"
                      "%zu,\"preload_shard_divisor\":%llu",
                      hosts, kPreloadShardsPerHost,
                      static_cast<unsigned long long>(kPreloadShardDivisor));
    };
    if (workload == "query_cold")
        return "{" + preload(kColdHosts) +
               ",\"loop\":\"closed\",\"clients\":1,\"verbs\":3,"
               "\"formats\":3,\"distinct_cutoffs\":true}";
    return "{" + preload(kMixedHosts) +
           format(",\"loop\":\"open\",\"arrivals\":\"poisson\","
                  "\"workers\":%u,\"push_rate\":%g,\"query_rate\":%g,"
                  "\"push_hosts\":%zu,\"push_shard_divisor\":%llu,"
                  "\"keys\":2}",
                  kMixedWorkers, kMixedPushRate, kMixedQueryRate,
                  kMixedPushHosts,
                  static_cast<unsigned long long>(kMixedShardDivisor));
}

int
realMain(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    ::signal(SIGPIPE, SIG_IGN);
    setLogLevel(LogLevel::Quiet);
    fs::remove_all(args.work);
    fs::create_directories(args.work);

    std::printf("stamp: {\"seed\":%llu,\"nproc\":%u,\"cpu\":\"%s\","
                "\"vecops_backend\":\"%s\",\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"commit\":\"%s\"}\n",
                static_cast<unsigned long long>(args.seed),
                std::thread::hardware_concurrency(),
                jsonEscape(cpuModel()).c_str(),
                name(activeVectorBackend()), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, jsonEscape(args.commit).c_str());
    std::printf("config: %s\n",
                configLine(args.workload).c_str());
    std::fflush(stdout);

    auto makeContext = [&](const std::string &sub, int setups) {
        auto ctx = std::make_unique<Context>();
        ctx->tool = args.tool;
        ctx->work = args.work + "/" + sub;
        ctx->seed = args.seed;
        ctx->seconds = args.seconds;
        ctx->setups = setups;
        ctx->program = requireWorkloadByName(kProgram);
        return ctx;
    };

    std::unique_ptr<Context> plain = makeContext("plain", kSetups);
    runPass(*plain, args.workload);
    const Outcome *report = &plain->out;
    std::unique_ptr<Context> traced;
    std::vector<Metric> metrics;
    if (args.trace) {
        traced = makeContext("traced", 1);
        g_tracer.on = true;
        runPass(*traced, args.workload);
        ReplayResult rr = replay(*traced);
        g_tracer.on = false;
        std::vector<Span> spans = g_tracer.spans();
        metrics = perLayer(*traced, traced->out, plain->out, rr, spans);
        g_tracer.writeJsonl(format("%s/spans-%s-seed%llu.jsonl",
                                   args.work.c_str(),
                                   args.workload.c_str(),
                                   static_cast<unsigned long long>(
                                       args.seed)));
        printMetrics("end-to-end (untraced pass):", endToEnd(plain->out));
        printMetrics("end-to-end (traced pass):", endToEnd(traced->out));
        printMetrics("per-layer (traced pass + replay):", metrics);
        report = &traced->out;
    } else {
        metrics = endToEnd(plain->out);
        printMetrics("end-to-end:", metrics);
        printMetrics("not gated:", {ungatedPushP50(plain->out),
                                    ungatedQueryP50(plain->out)});
    }

    std::vector<std::string> errors = plain->out.errors;
    uint64_t attempted = plain->out.attempted;
    uint64_t failed = plain->out.failed;
    if (traced) {
        errors.insert(errors.end(), report->errors.begin(),
                      report->errors.end());
        attempted += report->attempted;
        failed += report->failed;
    }
    for (const std::string &e : errors)
        std::printf("error: %s\n", e.c_str());
    bool correct = errors.empty();
    std::printf("attempted=%llu failed=%llu correct=%s\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                correct ? "true" : "false");

    std::string json = format("{\"correct\": %s, \"attempted\": %llu, "
                              "\"failed\": %llu, \"metrics\": {",
                              correct ? "true" : "false",
                              static_cast<unsigned long long>(attempted),
                              static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); i++)
        json += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       i ? ", " : "", metrics[i].name.c_str(),
                       jsonNumber(metrics[i].value).c_str(),
                       metrics[i].unit.c_str());
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::atexit(killChildren);
    try {
        return realMain(argc, argv);
    } catch (const BenchError &e) {
        std::fprintf(stderr, "fleetbench: %s\n", e.what.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fleetbench: %s\n", e.what());
    }
    killChildren();
    return 1;
}
