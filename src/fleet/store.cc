#include "fleet/store.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "support/events.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"

namespace fs = std::filesystem;

namespace hbbp {

namespace {

// Index record framing magic: "HBBPIDX1".
constexpr uint64_t kIndexMagic = 0x48424250'49445831ULL;

// Record ops. The header record carries a per-rewrite generation so a
// tailing reader can tell "the file grew" (catch up from its offset)
// from "the file was rewritten" (reload from scratch) — both look
// like a plausible size change from stat() alone.
constexpr uint8_t kOpHeader = 0;
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpErase = 2;

std::string
headerRecord(uint64_t generation)
{
    ByteWriter body;
    body.u8(kOpHeader);
    body.u64(generation);
    return frameRecord(kIndexMagic, body.bytes());
}

uint64_t
freshGeneration()
{
    // Unique enough across processes and rewrites; this is a change
    // detector, not a secret.
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    std::string seed = format(
        "%ld.%lld", static_cast<long>(::getpid()),
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                .count()));
    return fnv1a(seed);
}

/** Parse an entry filename into (kind, id); false for foreign files. */
bool
parseEntryName(const std::string &name, uint8_t *kind, uint64_t *id)
{
    unsigned long long v = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "shard-%16llx.hbb%c", &v, &tail) ==
            2 &&
        tail == 'p' && name.size() == 27) {
        *kind = 1;
        *id = v;
        return true;
    }
    if (std::sscanf(name.c_str(), "%16llx.hbb%c", &v, &tail) == 2 &&
        tail == 'p' && name.size() == 21) {
        *kind = 0;
        *id = v;
        return true;
    }
    return false;
}

/** Read [offset, offset+max_len) of @p path (to EOF when npos). */
std::string
readFileRange(const std::string &path, size_t offset, size_t max_len,
              std::string *why)
{
    why->clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        *why = format("cannot open '%s' for reading", path.c_str());
        return {};
    }
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    if (size < 0 || static_cast<size_t>(size) < offset) {
        std::fclose(f);
        *why = format("'%s' shrank under a tailing reader",
                      path.c_str());
        return {};
    }
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    size_t want =
        std::min(static_cast<size_t>(size) - offset, max_len);
    std::string bytes(want, '\0');
    size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size()) {
        *why = format("short read from '%s'", path.c_str());
        return {};
    }
    return bytes;
}

telemetry::Counter &
lockWaitCounter()
{
    static telemetry::Counter &m =
        telemetry::counter("hbbp_store_lock_waits_total");
    return m;
}

telemetry::Counter &
lockWaitNsCounter()
{
    static telemetry::Counter &m =
        telemetry::counter("hbbp_store_lock_wait_ns_total");
    return m;
}

void
noteLockWait(const FileLock::Guard &guard)
{
    lockWaitNsCounter().add(guard.waitNs());
    if (guard.waitNs() > 0)
        lockWaitCounter().add();
}

} // namespace

std::string
ProfileKey::describe() const
{
    const PmuConfig &p = config.pmu;
    const LbrQuirkConfig &q = p.quirk;
    return format(
        "workload=%s;class=%s;scale=%llu;budget=%llu;seed=%llu;"
        "shards=%u;pmu_seed=%llu;skid=%u-%u;lbr_delay=%u;lbr_depth=%u;"
        "kernel=%d;quirk=%d,%u,%.9g,%u;freq=%.9g;memx=%u",
        workload.c_str(), name(config.runtime_class),
        static_cast<unsigned long long>(config.period_scale),
        static_cast<unsigned long long>(config.max_instructions),
        static_cast<unsigned long long>(config.seed), shards,
        static_cast<unsigned long long>(p.seed),
        p.precise_skid_min_cycles, p.precise_skid_max_cycles,
        p.lbr_pmi_delay_cycles, p.lbr_depth, p.monitor_kernel ? 1 : 0,
        q.enabled ? 1 : 0, q.sticky_hash_mod, q.sticky_persist_prob,
        q.sticky_max_persist, machine.freq_ghz,
        machine.mem_extra_cycles);
}

uint64_t
ProfileKey::hash() const
{
    return fnv1a(describe());
}

ProfileStore::ProfileStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options),
      lock_(dir_ + "/store.lock")
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create profile store '%s': %s", dir_.c_str(),
              ec.message().c_str());
    fs::create_directories(pinsDir(), ec);
    if (ec)
        fatal("cannot create profile store pins dir '%s': %s",
              pinsDir().c_str(), ec.message().c_str());
    // The lock file path exists from here on (Guard creates it), so
    // foreign-file handling below never has to special-case races.
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    std::lock_guard<std::mutex> lk(mu_);
    if (!fs::exists(indexPath(), ec))
        rebuildIndexLocked();
    else
        loadIndexLocked();
}

std::unordered_map<uint64_t, ProfileStore::IndexEntry> &
ProfileStore::mapFor(Kind kind) const
{
    return kind == Kind::Key ? keys_ : shards_;
}

std::string
ProfileStore::entryPath(Kind kind, uint64_t id) const
{
    return kind == Kind::Key
               ? format("%s/%016llx.hbbp", dir_.c_str(),
                        static_cast<unsigned long long>(id))
               : format("%s/shard-%016llx.hbbp", dir_.c_str(),
                        static_cast<unsigned long long>(id));
}

std::string
ProfileStore::pathFor(const ProfileKey &key) const
{
    return entryPath(Kind::Key, key.hash());
}

std::string
ProfileStore::pathForChecksum(uint64_t checksum) const
{
    // A distinct prefix keeps checksum-addressed shards from ever
    // colliding with a key-addressed collection cache entry.
    return entryPath(Kind::Shard, checksum);
}

std::string
ProfileStore::pinPathFor(const std::string &owner) const
{
    return format("%s/%s.pins", pinsDir().c_str(), owner.c_str());
}

void
ProfileStore::loadIndexLocked() const
{
    std::string why;
    std::string bytes = readFileBytes(indexPath(), &why);
    if (!why.empty()) {
        // Unreadable index: the directory is the source of truth.
        warn("profile store index '%s' is unreadable (%s); rebuilding",
             indexPath().c_str(), why.c_str());
        rebuildIndexLocked();
        return;
    }
    keys_.clear();
    shards_.clear();
    index_off_ = 0;
    index_header_.clear();
    bool saw_header = false;
    bool damaged = false;
    std::string scan_why;
    size_t off = scanRecords(
        bytes, kIndexMagic, 0,
        [&](std::string_view body) {
            try {
                ByteReader r(body, indexPath(), "store index");
                uint8_t op = r.u8();
                if (op == kOpHeader) {
                    uint64_t gen = r.u64();
                    r.expectEof();
                    if (!saw_header) {
                        saw_header = true;
                        index_header_ = headerRecord(gen);
                    }
                    return true;
                }
                if (op == kOpPut) {
                    uint8_t kind = r.u8();
                    uint64_t id = r.u64();
                    IndexEntry e;
                    e.size = r.u64();
                    e.checksum = r.u64();
                    r.expectEof();
                    mapFor(static_cast<Kind>(kind != 0))[id] = e;
                    return true;
                }
                if (op == kOpErase) {
                    uint8_t kind = r.u8();
                    uint64_t id = r.u64();
                    r.expectEof();
                    mapFor(static_cast<Kind>(kind != 0)).erase(id);
                    return true;
                }
                scan_why = format("unknown index op %u", op);
            } catch (const ByteParseError &e) {
                scan_why = e.what();
            }
            damaged = true;
            return false;
        },
        damaged ? nullptr : &scan_why);
    if (off < bytes.size() || !saw_header) {
        // A torn or corrupt tail — or a pre-index-era file. The
        // entries on disk are authoritative; rebuilding also repairs
        // the file (we hold the exclusive lock at every call site).
        static telemetry::Counter &m_rebuilds =
            telemetry::counter("hbbp_store_index_rebuilds_total");
        m_rebuilds.add();
        warn("profile store index '%s' is damaged at offset %zu (%s); "
             "rebuilding from the directory",
             indexPath().c_str(), off,
             scan_why.empty() ? "no header" : scan_why.c_str());
        rebuildIndexLocked();
        return;
    }
    index_off_ = off;
}

size_t
ProfileStore::rebuildIndexLocked() const
{
    keys_.clear();
    shards_.clear();
    std::string bytes = headerRecord(freshGeneration());
    index_header_ = bytes;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(dir_, ec)) {
        uint8_t kind_raw = 0;
        uint64_t id = 0;
        if (!parseEntryName(e.path().filename().string(), &kind_raw,
                            &id))
            continue;
        IndexEntry entry;
        entry.size = fs::file_size(e.path(), ec);
        if (ec)
            continue; // Vanished mid-scan.
        if (kind_raw) {
            // Shard entries are checksum-addressed: the name IS the
            // payload checksum; no need to open the file.
            entry.checksum = id;
        } else {
            std::string why;
            std::optional<uint64_t> checksum =
                probeProfileChecksum(e.path().string(), &why);
            // An unreadable entry still occupies disk and must stay
            // visible to gc and to lookup()'s heal — index it with a
            // null checksum (verify() will flag it).
            entry.checksum = checksum ? *checksum : 0;
            if (!checksum)
                warn("indexing unreadable profile store entry '%s' "
                     "(%s)", e.path().c_str(), why.c_str());
        }
        Kind kind = kind_raw ? Kind::Shard : Kind::Key;
        mapFor(kind)[id] = entry;
        ByteWriter body;
        body.u8(kOpPut);
        body.u8(kind_raw);
        body.u64(id);
        body.u64(entry.size);
        body.u64(entry.checksum);
        bytes += frameRecord(kIndexMagic, body.bytes());
    }
    writeFileAtomically(indexPath(), bytes);
    index_off_ = bytes.size();
    return keys_.size() + shards_.size();
}

void
ProfileStore::refreshLocked() const
{
    static telemetry::Counter &m_refreshes =
        telemetry::counter("hbbp_store_index_refreshes_total");
    std::error_code ec;
    uint64_t size = fs::file_size(indexPath(), ec);
    // A rewrite (rebuild-index, a repair) invalidates our offset even
    // when the new file happens to be longer; the generation header
    // catches that, a shrink catches truncation.
    if (ec || size < index_off_ || size < index_header_.size()) {
        m_refreshes.add();
        loadIndexLocked();
        return;
    }
    std::string why;
    std::string head =
        readFileRange(indexPath(), 0, index_header_.size(), &why);
    if (!why.empty() || head != index_header_) {
        m_refreshes.add();
        loadIndexLocked();
        return;
    }
    if (size == index_off_)
        return; // Nothing new.
    m_refreshes.add();
    std::string tail = readFileRange(indexPath(), index_off_,
                                     std::string::npos, &why);
    if (!why.empty()) {
        loadIndexLocked();
        return;
    }
    size_t consumed = scanRecords(
        tail, kIndexMagic, 0,
        [&](std::string_view body) {
            try {
                ByteReader r(body, indexPath(), "store index");
                uint8_t op = r.u8();
                if (op == kOpPut) {
                    uint8_t kind = r.u8();
                    uint64_t id = r.u64();
                    IndexEntry e;
                    e.size = r.u64();
                    e.checksum = r.u64();
                    r.expectEof();
                    mapFor(static_cast<Kind>(kind != 0))[id] = e;
                    return true;
                }
                if (op == kOpErase) {
                    uint8_t kind = r.u8();
                    uint64_t id = r.u64();
                    r.expectEof();
                    mapFor(static_cast<Kind>(kind != 0)).erase(id);
                    return true;
                }
                // A header mid-tail means a rewrite we raced; fall
                // back to a full reload below.
            } catch (const ByteParseError &) {
            }
            return false;
        });
    if (consumed < tail.size()) {
        // Damage or a raced rewrite past the consumed prefix. A full
        // reload re-derives clean state (and rebuilds — repairing
        // the file — when the caller holds the exclusive lock, which
        // every writer does).
        loadIndexLocked();
        return;
    }
    index_off_ += consumed;
}

void
ProfileStore::appendLocked(const std::string &body) const
{
    std::string rec = frameRecord(kIndexMagic, body);
    std::FILE *f = std::fopen(indexPath().c_str(), "ab");
    if (!f)
        fatal("cannot open profile store index '%s' for appending",
              indexPath().c_str());
    size_t written = std::fwrite(rec.data(), 1, rec.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != rec.size() || !flushed)
        fatal("cannot append to profile store index '%s' (disk "
              "full?)", indexPath().c_str());
    index_off_ += rec.size();
}

void
ProfileStore::recordPut(Kind kind, uint64_t id,
                        const IndexEntry &e) const
{
    ByteWriter body;
    body.u8(kOpPut);
    body.u8(kind == Kind::Shard ? 1 : 0);
    body.u64(id);
    body.u64(e.size);
    body.u64(e.checksum);
    appendLocked(body.bytes());
    mapFor(kind)[id] = e;
}

void
ProfileStore::recordErase(Kind kind, uint64_t id) const
{
    ByteWriter body;
    body.u8(kOpErase);
    body.u8(kind == Kind::Shard ? 1 : 0);
    body.u64(id);
    appendLocked(body.bytes());
    mapFor(kind).erase(id);
}

bool
ProfileStore::contains(const ProfileKey &key) const
{
    static telemetry::Counter &m_index_hits =
        telemetry::counter("hbbp_store_index_hits_total");
    uint64_t id = key.hash();
    std::lock_guard<std::mutex> lk(mu_);
    if (keys_.count(id)) {
        m_index_hits.add();
        return true;
    }
    FileLock::Guard guard(lock_, /*exclusive=*/false);
    noteLockWait(guard);
    refreshLocked();
    return keys_.count(id) != 0;
}

bool
ProfileStore::containsChecksum(uint64_t checksum) const
{
    static telemetry::Counter &m_index_hits =
        telemetry::counter("hbbp_store_index_hits_total");
    std::lock_guard<std::mutex> lk(mu_);
    if (shards_.count(checksum)) {
        m_index_hits.add();
        return true;
    }
    FileLock::Guard guard(lock_, /*exclusive=*/false);
    noteLockWait(guard);
    refreshLocked();
    return shards_.count(checksum) != 0;
}

std::optional<ProfileData>
ProfileStore::lookup(const ProfileKey &key) const
{
    static telemetry::Counter &m_hits =
        telemetry::counter("hbbp_store_hits_total");
    static telemetry::Counter &m_misses =
        telemetry::counter("hbbp_store_misses_total");
    static telemetry::Counter &m_heals =
        telemetry::counter("hbbp_store_heals_total");
    if (!contains(key)) {
        m_misses.add();
        return std::nullopt;
    }
    // A cache treats an unreadable entry — legacy format version,
    // stale checksum, truncation — as a miss to be re-collected and
    // overwritten, never a fatal error. Evict the dead file while
    // we're here: misses under the same key overwrite it anyway, but a
    // format bump strands entries under every *other* key, and without
    // eviction the whole stale store leaks on disk forever.
    std::string path = pathFor(key);
    std::string why;
    bool io_failed = false;
    std::optional<ProfileData> pd =
        ProfileData::tryLoad(path, &why, nullptr, &io_failed);
    if (pd) {
        m_hits.add();
        return pd;
    }
    m_misses.add();
    std::error_code ec;
    if (io_failed && !fs::exists(path, ec)) {
        // A stale index entry: another process's gc (or a manual rm)
        // took the file. A clean miss — and heal the index so the
        // next contains() is an honest one.
        std::lock_guard<std::mutex> lk(mu_);
        FileLock::Guard guard(lock_, /*exclusive=*/true);
        noteLockWait(guard);
        refreshLocked();
        if (keys_.count(key.hash()) &&
            !fs::exists(path, ec))
            recordErase(Kind::Key, key.hash());
        return std::nullopt;
    }
    if (io_failed) {
        // Only the entry's *content* condemns it. An I/O-level
        // failure (fd exhaustion, a transient permission hiccup, a
        // flaky mount) says nothing about the bytes — deleting on
        // that would throw away a perfectly good entry.
        warn("ignoring unreadable profile store entry (%s)",
             why.c_str());
        return std::nullopt;
    }
    // Stale content. But a *young* file is plausibly a concurrent
    // depositor's fresh re-insert under the same name that this
    // reader raced (we read the old inode or a mid-rename window);
    // unlinking it would destroy their good work. Heal only entries
    // older than the grace window, and re-check the age under the
    // exclusive lock so the decision and the unlink are atomic
    // against depositors (their rename + index append hold it too).
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return std::nullopt; // Vanished; nothing to heal.
    auto age = fs::file_time_type::clock::now() - mtime;
    if (age < std::chrono::seconds(options_.heal_grace_s)) {
        warn("not healing young profile store entry (%s); a "
             "concurrent depositor may have just rewritten it",
             why.c_str());
        return std::nullopt;
    }
    warn("evicting stale profile store entry (%s)", why.c_str());
    m_heals.add();
    fs::remove(path, ec);
    refreshLocked();
    if (keys_.count(key.hash()))
        recordErase(Kind::Key, key.hash());
    return std::nullopt;
}

void
ProfileStore::insert(const ProfileKey &key,
                     const ProfileData &profile) const
{
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    refreshLocked();
    uint64_t checksum = 0;
    profile.saveAtomically(pathFor(key), &checksum);
    IndexEntry e;
    std::error_code ec;
    e.size = fs::file_size(pathFor(key), ec);
    e.checksum = checksum;
    recordPut(Kind::Key, key.hash(), e);
}

bool
ProfileStore::depositLocked(
    uint64_t checksum,
    const std::function<void(const std::string &)> &write_to) const
{
    static telemetry::Counter &m_dedup =
        telemetry::counter("hbbp_store_deposit_dedups_total");
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    refreshLocked();
    if (shards_.count(checksum)) {
        // Content-addressed: present means byte-identical. The check
        // and the deposit share this critical section, so concurrent
        // depositors across processes write each entry exactly once.
        m_dedup.add();
        return false;
    }
    std::string path = pathForChecksum(checksum);
    write_to(path);
    IndexEntry e;
    std::error_code ec;
    e.size = fs::file_size(path, ec);
    e.checksum = checksum;
    recordPut(Kind::Shard, checksum, e);
    telemetry::beatEnable(telemetry::Stage::Deposit);
    telemetry::beat(telemetry::Stage::Deposit);
    return true;
}

bool
ProfileStore::insertByChecksum(uint64_t checksum,
                               const ProfileData &profile) const
{
    return depositLocked(checksum, [&](const std::string &path) {
        profile.saveAtomically(path);
    });
}

bool
ProfileStore::depositBytesByChecksum(uint64_t checksum,
                                     std::string_view bytes) const
{
    return depositLocked(checksum, [&](const std::string &dst) {
        writeFileAtomically(dst, std::string(bytes));
    });
}

ProfileData
ProfileStore::getOrCollect(const ProfileKey &key, const Program &prog,
                           unsigned jobs, bool *cache_hit) const
{
    if (std::optional<ProfileData> cached = lookup(key)) {
        if (cache_hit)
            *cache_hit = true;
        return std::move(*cached);
    }
    ShardPlan plan;
    plan.shards = key.shards;
    plan.jobs = jobs;
    ProfileData pd = collectSharded(prog, key.machine, key.config, plan);
    insert(key, pd);
    if (cache_hit)
        *cache_hit = false;
    return pd;
}

std::set<uint64_t>
ProfileStore::pinnedChecksums() const
{
    std::set<uint64_t> pinned;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(pinsDir(), ec)) {
        if (e.path().extension() != ".pins")
            continue;
        std::string why;
        std::string bytes = readFileBytes(e.path().string(), &why);
        if (!why.empty())
            continue; // Vanished (owner released mid-scan).
        size_t pos = bytes.find('\n');
        if (pos == std::string::npos ||
            bytes.compare(0, 12, "hbbp-pins v1") != 0) {
            warn("ignoring malformed pin file '%s'",
                 e.path().c_str());
            continue;
        }
        pos++;
        while (pos < bytes.size()) {
            size_t eol = bytes.find('\n', pos);
            if (eol == std::string::npos)
                break; // A torn final line never pinned anything.
            unsigned long long v = 0;
            if (std::sscanf(bytes.c_str() + pos, "%16llx", &v) == 1)
                pinned.insert(v);
            pos = eol + 1;
        }
    }
    return pinned;
}

ProfileStore::GcResult
ProfileStore::gc(const GcOptions &options) const
{
    struct Entry
    {
        std::string path;
        fs::file_time_type mtime;
        uint64_t size = 0;
        uint8_t kind = 0;
        uint64_t id = 0;
        uint64_t checksum = 0;
    };
    // The whole pass holds the exclusive lock: depositors and other
    // gcs serialize against it, which is what lets eviction trust its
    // pin snapshot and keep the index transactional.
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    refreshLocked();

    std::vector<Entry> entries;
    GcResult res;
    std::error_code ec;
    // Maintenance is the one path allowed to readdir: gc doubles as
    // the index-vs-directory reconciler (strays adopted, ghosts
    // erased), so a store that lost writes out-of-band converges.
    std::set<std::pair<uint8_t, uint64_t>> on_disk;
    for (const fs::directory_entry &e :
         fs::directory_iterator(dir_, ec)) {
        Entry entry;
        if (!parseEntryName(e.path().filename().string(), &entry.kind,
                            &entry.id))
            continue;
        entry.path = e.path().string();
        entry.mtime = fs::last_write_time(e.path(), ec);
        if (ec)
            continue; // Vanished mid-scan (shouldn't happen locked).
        entry.size = fs::file_size(e.path(), ec);
        if (ec)
            continue;
        Kind kind = entry.kind ? Kind::Shard : Kind::Key;
        auto it = mapFor(kind).find(entry.id);
        if (it != mapFor(kind).end()) {
            entry.checksum = it->second.checksum;
        } else {
            // A stray: deposited out-of-band or by a pre-index store.
            // Adopt it even when unreadable — it occupies disk, so gc
            // must be able to see and evict it.
            if (entry.kind) {
                entry.checksum = entry.id;
            } else {
                std::string why;
                std::optional<uint64_t> checksum =
                    probeProfileChecksum(entry.path, &why);
                entry.checksum = checksum ? *checksum : 0;
            }
            IndexEntry ie;
            ie.size = entry.size;
            ie.checksum = entry.checksum;
            recordPut(kind, entry.id, ie);
        }
        on_disk.insert({entry.kind, entry.id});
        res.scanned++;
        res.bytes_before += entry.size;
        entries.push_back(std::move(entry));
    }
    // Ghosts: indexed entries whose file vanished out-of-band.
    for (uint8_t kind_raw : {0, 1}) {
        Kind kind = kind_raw ? Kind::Shard : Kind::Key;
        std::vector<uint64_t> gone;
        for (const auto &[id, e] : mapFor(kind))
            if (!on_disk.count({kind_raw, id}))
                gone.push_back(id);
        for (uint64_t id : gone)
            recordErase(kind, id);
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime ||
                         (a.mtime == b.mtime && a.path < b.path);
              });

    std::set<uint64_t> pinned = pinnedChecksums();
    res.bytes_after = res.bytes_before;
    // Eviction skips pinned entries rather than stopping at them:
    // the pin protects its entry, not everything younger.
    auto evict = [&](const Entry &entry) {
        if (pinned.count(entry.checksum)) {
            res.pinned_skipped++;
            static telemetry::Counter &m_pinned =
                telemetry::counter("hbbp_store_gc_pinned_skips_total");
            m_pinned.add();
            return;
        }
        std::error_code rm_ec;
        fs::remove(entry.path, rm_ec);
        if (rm_ec) {
            // Counting a failed remove as freed space would let the
            // size pass stop early and report an under-budget store
            // that is still over the bound.
            warn("cannot evict profile store entry '%s': %s",
                 entry.path.c_str(), rm_ec.message().c_str());
            return;
        }
        recordErase(entry.kind ? Kind::Shard : Kind::Key, entry.id);
        res.evicted++;
        res.bytes_after -= entry.size;
        static telemetry::Counter &m_evictions =
            telemetry::counter("hbbp_store_gc_evictions_total");
        m_evictions.add();
        events::emit(
            events::Level::Info, "store_gc_evict",
            {{"checksum",
              format("%016llx", static_cast<unsigned long long>(
                                    entry.checksum))},
             {"bytes", format("%llu", static_cast<unsigned long long>(
                                          entry.size))}});
    };

    size_t next = 0;
    if (options.max_age_s >= 0) {
        // An "effectively unlimited" age like 1e11 seconds would
        // overflow the file clock's rep when subtracted (the clock's
        // epoch may itself sit far from now — libstdc++ uses 2174),
        // wrapping the cutoff into the future and evicting the
        // *entire* store. Guard every step: a cutoff that would fall
        // before representable time means nothing can be that old.
        using file_dur = fs::file_time_type::duration;
        auto now_d =
            fs::file_time_type::clock::now().time_since_epoch();
        int64_t max_sec =
            std::chrono::duration_cast<std::chrono::seconds>(
                file_dur::max())
                .count();
        bool cutoff_ok = false;
        fs::file_time_type cutoff{};
        if (options.max_age_s <= max_sec) {
            file_dur age =
                std::chrono::duration_cast<file_dur>(
                    std::chrono::seconds(options.max_age_s));
            if (now_d >= file_dur::min() + age) {
                cutoff = fs::file_time_type(now_d - age);
                cutoff_ok = true;
            }
        }
        // Oldest-first order means the age pass consumes a prefix.
        while (cutoff_ok && next < entries.size() &&
               entries[next].mtime < cutoff)
            evict(entries[next++]);
    }
    if (options.max_bytes >= 0) {
        while (next < entries.size() &&
               res.bytes_after > static_cast<uint64_t>(options.max_bytes))
            evict(entries[next++]);
    }
    static telemetry::Gauge &m_resident =
        telemetry::gauge("hbbp_store_resident_bytes");
    m_resident.set(static_cast<int64_t>(res.bytes_after));
    static telemetry::Gauge &m_pins =
        telemetry::gauge("hbbp_store_pinned_entries");
    m_pins.set(static_cast<int64_t>(pinned.size()));
    return res;
}

size_t
ProfileStore::rebuildIndex() const
{
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    return rebuildIndexLocked();
}

ProfileStore::VerifyResult
ProfileStore::verify() const
{
    VerifyResult res;
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    refreshLocked();
    std::set<std::pair<uint8_t, uint64_t>> on_disk;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(dir_, ec)) {
        uint8_t kind_raw = 0;
        uint64_t id = 0;
        if (!parseEntryName(e.path().filename().string(), &kind_raw,
                            &id))
            continue;
        on_disk.insert({kind_raw, id});
        Kind kind = kind_raw ? Kind::Shard : Kind::Key;
        auto it = mapFor(kind).find(id);
        if (it == mapFor(kind).end()) {
            res.stray_files++;
            warn("store verify: '%s' is not indexed",
                 e.path().c_str());
            continue;
        }
        res.checked++;
        std::string why;
        std::optional<uint64_t> checksum =
            probeProfileChecksum(e.path().string(), &why);
        if (!checksum || *checksum != it->second.checksum) {
            res.checksum_mismatches++;
            warn("store verify: '%s' disagrees with its index entry "
                 "(%s)", e.path().c_str(),
                 checksum ? "checksum mismatch" : why.c_str());
        }
    }
    for (uint8_t kind_raw : {0, 1}) {
        Kind kind = kind_raw ? Kind::Shard : Kind::Key;
        for (const auto &[id, e] : mapFor(kind))
            if (!on_disk.count({kind_raw, id})) {
                res.missing_files++;
                warn("store verify: indexed entry %016llx has no "
                     "file",
                     static_cast<unsigned long long>(id));
            }
    }
    return res;
}

ProfileStore::Stats
ProfileStore::stats() const
{
    Stats s;
    std::lock_guard<std::mutex> lk(mu_);
    {
        FileLock::Guard guard(lock_, /*exclusive=*/false);
        noteLockWait(guard);
        refreshLocked();
    }
    s.key_entries = keys_.size();
    s.shard_entries = shards_.size();
    for (const auto &[id, e] : keys_)
        s.total_bytes += e.size;
    for (const auto &[id, e] : shards_)
        s.total_bytes += e.size;
    s.pinned = pinnedChecksums().size();
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(pinsDir(), ec))
        if (e.path().extension() == ".pins")
            s.pin_owners++;
    return s;
}

size_t
ProfileStore::entryCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    FileLock::Guard guard(lock_, /*exclusive=*/false);
    noteLockWait(guard);
    refreshLocked();
    return keys_.size() + shards_.size();
}

StorePin::StorePin(const ProfileStore &store, std::string owner)
    : store_(store), owner_(std::move(owner)),
      lock_(store.dir() + "/store.lock")
{
    // The owner names a file; keep it to safe characters so callers
    // can derive it from addresses or paths without thinking.
    for (char &c : owner_)
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '.' && c != '_' && c != '-')
            c = '_';
    if (owner_.empty())
        fatal("store pin owner must be non-empty");
    path_ = store_.pinPathFor(owner_);
    std::string why;
    std::string bytes = readFileBytes(path_, &why);
    if (why.empty() && bytes.compare(0, 12, "hbbp-pins v1") == 0) {
        // A previous run of this owner (crashed, or mid-flight):
        // inherit its pins so gc keeps protecting them until this
        // run completes or releases.
        size_t pos = bytes.find('\n');
        pos = pos == std::string::npos ? bytes.size() : pos + 1;
        while (pos < bytes.size()) {
            size_t eol = bytes.find('\n', pos);
            if (eol == std::string::npos)
                break;
            unsigned long long v = 0;
            if (std::sscanf(bytes.c_str() + pos, "%16llx", &v) == 1)
                pins_.insert(v);
            pos = eol + 1;
        }
        restored_ = pins_.size();
    }
}

void
StorePin::persist() const
{
    std::string bytes =
        format("hbbp-pins v1 owner=%s\n", owner_.c_str());
    for (uint64_t c : pins_)
        bytes += format("%016llx\n", static_cast<unsigned long long>(c));
    writeFileAtomically(path_, bytes);
}

void
StorePin::pin(uint64_t checksum)
{
    if (!pins_.insert(checksum).second)
        return;
    // Persist under the store's exclusive lock: gc holds it for a
    // whole pass, so a pin is durable either before gc snapshots the
    // pin set or after the pass completes — never invisibly in
    // between. (Pin before deposit; the deposit itself re-checks
    // presence under the same lock, so an eviction that slipped in
    // just forces a re-deposit.)
    static telemetry::Counter &m_pins =
        telemetry::counter("hbbp_store_pins_total");
    m_pins.add();
    telemetry::gauge("hbbp_store_pinned_entries")
        .set(static_cast<int64_t>(pins_.size()));
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    persist();
}

void
StorePin::unpin(uint64_t checksum)
{
    if (!pins_.erase(checksum))
        return;
    static telemetry::Counter &m_unpins =
        telemetry::counter("hbbp_store_unpins_total");
    m_unpins.add();
    telemetry::gauge("hbbp_store_pinned_entries")
        .set(static_cast<int64_t>(pins_.size()));
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    persist();
}

void
StorePin::release()
{
    pins_.clear();
    telemetry::gauge("hbbp_store_pinned_entries").set(0);
    FileLock::Guard guard(lock_, /*exclusive=*/true);
    noteLockWait(guard);
    std::error_code ec;
    fs::remove(path_, ec);
}

} // namespace hbbp
