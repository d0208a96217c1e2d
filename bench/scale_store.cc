/**
 * @file
 * Profile store v2 scaling benchmark.
 *
 * Prices the three claims the indexed store makes (see
 * src/fleet/store.hh) at fleet scale — 10k entries:
 *
 *  - indexed_speedup: membership tests answered from the in-memory
 *    index vs an honest directory enumeration (what any
 *    "list-the-store" scheme costs at this entry count). The index is
 *    the reason `aggregate --listen` can dedup every arrival without
 *    a readdir.
 *  - deposit_per_s: deposit throughput with several depositors
 *    hammering one store directory concurrently, each through its own
 *    ProfileStore handle (its own flock file description), so the
 *    cross-process lock contention is real even in one process.
 *  - mmap_mb_s vs read_mb_s: entry bytes consumed through MappedBytes
 *    in forced-mmap vs forced-read mode, with mmap_bytes_identical
 *    recording that both paths saw the same bytes — the correctness
 *    half of the zero-copy read claim, gated by check_bench.py.
 *
 * Output is machine-readable JSON on stdout (one object), so CI can
 * archive and diff runs. Pass --human for the table view, --quick for
 * a CI-sized run.
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "collect/profile.hh"
#include "fleet/store.hh"
#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace hbbp;
namespace fs = std::filesystem;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - start)
        .count();
}

/** A synthetic profile; @p samples sizes the serialized entry. */
ProfileData
syntheticProfile(uint64_t tag, size_t samples)
{
    ProfileData pd;
    pd.sim_periods = {1009, 101};
    pd.paper_periods = {100'000'007, 10'000'019};
    pd.runtime_class = RuntimeClass::MinutesMany;
    pd.features = {1000 + tag, 2000 + tag, 30 + tag, 40 + tag, 5 + tag};
    pd.pmi_count = 10 + tag;
    pd.mmaps.push_back({"app.bin", 0x400000, 0x100000, false});
    pd.ebs.reserve(samples);
    for (size_t i = 0; i < samples; i++)
        pd.ebs.push_back({0x400000 + (i % 0x10000), tag + i, Ring::User});
    return pd;
}

/**
 * Membership by directory enumeration — the honest non-indexed
 * contrast: walk the directory until the entry's file name appears.
 */
bool
scanContains(const std::string &dir, const std::string &want)
{
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().filename() == want)
            return true;
    return false;
}

std::string
freshDir(const char *tag)
{
    std::string dir = format("/tmp/hbbp_bench_store_%s_%d", tag,
                             static_cast<int>(::getpid()));
    fs::remove_all(dir);
    return dir;
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

    const size_t entries = quick ? 2'000 : 10'000;
    const size_t indexed_probes = quick ? 100'000 : 400'000;
    const size_t scan_probes = quick ? 40 : 150;
    const size_t deposit_threads = 4;
    const size_t deposits_per_thread = quick ? 150 : 500;
    const size_t big_samples = quick ? 200'000 : 500'000;
    const size_t io_iters = quick ? 12 : 40;

    // ----------------------------------------------------------------
    // Populate one store with `entries` distinct small shard entries.
    // The entry bytes are shared (content-addressing only cares about
    // the checksum key), so population time is deposit cost, not
    // serialization cost.
    // ----------------------------------------------------------------
    std::string dir = freshDir("lookup");
    ProfileStore store(dir);
    std::string small_path = dir + "/.seed.tmp";
    syntheticProfile(1, 64).saveAtomically(small_path);
    std::string why;
    std::string small_bytes = readFileBytes(small_path, &why);
    if (small_bytes.empty())
        fatal("seed profile read failed: %s", why.c_str());
    fs::remove(small_path);

    for (size_t i = 0; i < entries; i++)
        store.depositBytesByChecksum(0x1000'0000 + i, small_bytes);
    if (store.entryCount() != entries)
        fatal("populate failed: %zu entries, want %zu",
              store.entryCount(), entries);

    // Indexed membership: hit and miss alternating, so the measured
    // path is the map probe, not one hot bucket.
    auto start = std::chrono::steady_clock::now();
    size_t hits = 0;
    for (size_t i = 0; i < indexed_probes; i++)
        hits += store.containsChecksum(0x1000'0000 +
                                       (i % (2 * entries)));
    double indexed_s = secondsSince(start);
    if (hits != indexed_probes / 2)
        fatal("indexed probe miscounted: %zu hits", hits);
    double indexed_per_s = indexed_probes / indexed_s;

    // Directory-enumeration membership, alternating hit and miss
    // explicitly (too few probes to wrap the entry range).
    start = std::chrono::steady_clock::now();
    hits = 0;
    for (size_t i = 0; i < scan_probes; i++) {
        uint64_t idx = i % 2 == 0 ? (i / 2) % entries : entries + i;
        std::string want =
            fs::path(store.pathForChecksum(0x1000'0000 + idx))
                .filename();
        hits += scanContains(dir, want);
    }
    double scan_s = secondsSince(start);
    if (hits != (scan_probes + 1) / 2)
        fatal("scan probe miscounted: %zu hits", hits);
    double scan_per_s = scan_probes / scan_s;
    double indexed_speedup = indexed_per_s / scan_per_s;

    // ----------------------------------------------------------------
    // Deposit throughput under contention: every thread drives its
    // own ProfileStore handle at one shared directory — separate open
    // file descriptions, so the flock serialization is the real
    // cross-process discipline, and every append contends for it.
    // ----------------------------------------------------------------
    std::string contended_dir = freshDir("deposit");
    {
        ProfileStore init(contended_dir); // Create dir + index.
    }
    start = std::chrono::steady_clock::now();
    std::vector<std::thread> depositors;
    for (size_t t = 0; t < deposit_threads; t++)
        depositors.emplace_back([&, t] {
            ProfileStore mine(contended_dir);
            for (size_t i = 0; i < deposits_per_thread; i++)
                mine.depositBytesByChecksum(
                    0x2000'0000 + t * deposits_per_thread + i,
                    small_bytes);
        });
    for (std::thread &th : depositors)
        th.join();
    double deposit_s = secondsSince(start);
    double deposit_per_s =
        deposit_threads * deposits_per_thread / deposit_s;
    {
        ProfileStore check(contended_dir);
        if (check.entryCount() != deposit_threads * deposits_per_thread)
            fatal("contended deposits lost entries: %zu, want %zu",
                  check.entryCount(),
                  deposit_threads * deposits_per_thread);
    }

    // ----------------------------------------------------------------
    // mmap vs plain-read consumption of one large entry. fnv1a over
    // the view forces every byte through the CPU on both paths, and
    // its equality is the byte-identity check check_bench.py gates.
    // ----------------------------------------------------------------
    std::string big_path = dir + "/.big.tmp";
    syntheticProfile(2, big_samples).saveAtomically(big_path);
    uint64_t big_size = fs::file_size(big_path);

    uint64_t map_digest = 0, read_digest = 0;
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < io_iters; i++) {
        MappedBytes mb;
        if (!mb.open(big_path, &why, MappedBytes::Mode::Map))
            fatal("mmap open failed: %s", why.c_str());
        map_digest = fnv1a(mb.view());
    }
    double map_s = secondsSince(start);
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < io_iters; i++) {
        MappedBytes mb;
        if (!mb.open(big_path, &why, MappedBytes::Mode::Read))
            fatal("read open failed: %s", why.c_str());
        read_digest = fnv1a(mb.view());
    }
    double read_s = secondsSince(start);
    bool bytes_identical = map_digest == read_digest;
    double mb = 1024.0 * 1024.0;
    double mmap_mb_s = big_size * io_iters / map_s / mb;
    double read_mb_s = big_size * io_iters / read_s / mb;

    fs::remove_all(dir);
    fs::remove_all(contended_dir);

    if (human) {
        bench::headline("Profile store scaling",
                        "fleet extension (no paper analogue)");
        TextTable table({"measure", "value"});
        table.setAlign(1, Align::Right);
        table.addRow({format("indexed lookups/s (%zu entries)", entries),
                      format("%.0f", indexed_per_s)});
        table.addRow({"dir-scan lookups/s", format("%.1f", scan_per_s)});
        table.addRow({"indexed speedup", format("%.0fx", indexed_speedup)});
        table.addRow({format("deposits/s (%zu threads)", deposit_threads),
                      format("%.0f", deposit_per_s)});
        table.addRow({"mmap MB/s", format("%.0f", mmap_mb_s)});
        table.addRow({"plain-read MB/s", format("%.0f", read_mb_s)});
        std::printf("%s\n", table.render().c_str());
        std::printf("mmap/read bytes identical: %s\n",
                    bytes_identical ? "yes" : "NO");
        return 0;
    }

    std::printf("{\n  \"bench\": \"scale_store\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  %s,\n", bench::machineJson().c_str());
    std::printf("  \"store\": {\n");
    std::printf("    \"entries\": %zu,\n", entries);
    std::printf("    \"indexed_lookup_per_s\": %.1f,\n", indexed_per_s);
    std::printf("    \"scan_lookup_per_s\": %.1f,\n", scan_per_s);
    std::printf("    \"indexed_speedup\": %.3f,\n", indexed_speedup);
    std::printf("    \"deposit_threads\": %zu,\n", deposit_threads);
    std::printf("    \"deposit_per_s\": %.1f,\n", deposit_per_s);
    std::printf("    \"entry_mb\": %.3f,\n", big_size / mb);
    std::printf("    \"mmap_mb_s\": %.1f,\n", mmap_mb_s);
    std::printf("    \"read_mb_s\": %.1f,\n", read_mb_s);
    std::printf("    \"mmap_bytes_identical\": %s\n",
                bytes_identical ? "true" : "false");
    std::printf("  }\n}\n");
    return 0;
}
