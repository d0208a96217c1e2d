/**
 * @file
 * The content-addressed profile store — a small embedded database.
 *
 * Collection is the expensive half of the collector/analyzer split, and
 * fleet drivers re-request the same (workload, collection options) pairs
 * constantly. The store caches profiles on disk under a key derived
 * from everything that determines the collection output — workload
 * name, runtime class, periods scale, instruction budget, seeds, PMU
 * parameters, and the shard plan — so a repeated collect is a cache
 * hit and a changed option is automatically a different entry. The
 * aggregation side addresses imported shards by payload checksum
 * instead.
 *
 * v2 structure (PR 9): beside the entry files the store keeps a
 * checksummed append-only index (`store.idx`, rebuildable from a
 * directory scan) that is loaded into an in-memory map at open, so
 * membership tests and entry counts never readdir; an flock(2) lock
 * file (`store.lock`) serializes index appends and gc across
 * *processes*, making several depositors plus a concurrent `store gc`
 * correct by construction; and a `pins/` directory holds persisted
 * StorePin refcounts so gc cannot evict a shard a pending (even
 * crashed) aggregate still references. Entries are written to a temp
 * file and renamed into place, so a crashed writer never leaves a
 * truncated profile behind, and reads go through mmap with a
 * plain-read fallback (support/bytes MappedBytes).
 */

#ifndef HBBP_FLEET_STORE_HH
#define HBBP_FLEET_STORE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "collect/collector.hh"
#include "collect/profile.hh"
#include "fleet/shard.hh"
#include "sim/machine.hh"
#include "support/bytes.hh"

namespace hbbp {

/** Everything that determines a collection's output, hashable. */
struct ProfileKey
{
    std::string workload;
    CollectorConfig config;
    uint32_t shards = 1;
    /** Machine timing model (skid placement depends on it). */
    MachineConfig machine;

    /** Canonical description string the hash is computed over. */
    std::string describe() const;

    /** 64-bit content hash (FNV-1a over describe()). */
    uint64_t hash() const;
};

class StorePin;

/** On-disk content-addressed cache of collected profiles. */
class ProfileStore
{
  public:
    struct Options
    {
        /**
         * lookup() heals stale entries by unlinking them — but an
         * entry younger than this is plausibly a concurrent
         * depositor's fresh re-insert that this reader raced (it
         * loaded the old bytes, the file under the name is already
         * new), and unlinking it would throw away good work. Skip the
         * unlink for entries younger than the grace window.
         */
        int64_t heal_grace_s = 60;
    };

    /**
     * Open (creating if needed) the store rooted at @p dir. A missing
     * or unreadable index is rebuilt from a directory scan — the
     * directory is the source of truth, the index is an acceleration
     * structure.
     */
    explicit ProfileStore(std::string dir) : ProfileStore(std::move(dir), Options()) {}
    ProfileStore(std::string dir, Options options);

    ProfileStore(const ProfileStore &) = delete;
    ProfileStore &operator=(const ProfileStore &) = delete;

    /** Path a profile with @p key lives at (whether present or not). */
    std::string pathFor(const ProfileKey &key) const;

    /**
     * True when a profile for @p key is cached. Answered from the
     * in-memory index (refreshed from the shared index file on a
     * miss, so another process's deposit is visible); never readdirs.
     */
    bool contains(const ProfileKey &key) const;

    /**
     * Load the cached profile for @p key, or nullopt on a miss. An
     * entry that can no longer be read — a legacy format version, a
     * stale checksum, truncation — is a miss (with a warn()), so a
     * store carried across format bumps heals by re-collection; the
     * heal respects Options::heal_grace_s. An index entry whose file
     * vanished (another process's gc) is a clean miss that also heals
     * the index.
     */
    std::optional<ProfileData> lookup(const ProfileKey &key) const;

    /** Cache @p profile under @p key (atomic rename into place). */
    void insert(const ProfileKey &key, const ProfileData &profile) const;

    /**
     * The workhorse: return the cached profile for @p key, or collect
     * it (sharded per @p key.shards on @p key.machine with @p jobs
     * workers), cache it and return it. @p cache_hit, when non-null,
     * reports which happened.
     */
    ProfileData getOrCollect(const ProfileKey &key, const Program &prog,
                             unsigned jobs,
                             bool *cache_hit = nullptr) const;

    /**
     * Path a shard with payload checksum @p checksum lives at. The
     * aggregation side of the store: collectors address entries by
     * ProfileKey (what to collect), a central aggregation store
     * addresses imported shards by what they contain.
     */
    std::string pathForChecksum(uint64_t checksum) const;

    /** True when a shard with @p checksum is cached (index-answered). */
    bool containsChecksum(uint64_t checksum) const;

    /**
     * Cache @p profile under its payload @p checksum. Content-
     * addressed: an entry that is already present is left alone (same
     * checksum, same bytes). The presence check and the deposit are
     * one exclusive-locked critical section, so concurrent depositors
     * across processes write each entry exactly once. Returns true
     * when this call deposited the entry.
     */
    bool insertByChecksum(uint64_t checksum,
                          const ProfileData &profile) const;

    /**
     * insertByChecksum() from already-serialized bytes in memory —
     * the zero-copy deposit for transport chunks and drop-directory
     * files that arrived as exact, already verified profile-file
     * bytes, so they skip a re-parse + re-serialize.
     */
    bool depositBytesByChecksum(uint64_t checksum,
                                std::string_view bytes) const;

    /** Number of cached entries, answered from the index. */
    size_t entryCount() const;

    /** Garbage-collection bounds; negative bounds are unlimited. */
    struct GcOptions
    {
        /** Evict entries last written more than this many seconds
         * ago. */
        int64_t max_age_s = -1;
        /** Then evict oldest-first until the store fits this size. */
        int64_t max_bytes = -1;
    };

    /** What gc() scanned and reclaimed. */
    struct GcResult
    {
        size_t scanned = 0;
        size_t evicted = 0;
        /** Evictions refused because a StorePin references them. */
        size_t pinned_skipped = 0;
        uint64_t bytes_before = 0;
        uint64_t bytes_after = 0;
    };

    /**
     * Age- and size-bounded eviction, oldest entry first (by file
     * modification time — a re-inserted entry is young again). The
     * store is a cache: an evicted entry turns the next lookup() into
     * a clean miss to re-collect, never an error. Runs under the
     * exclusive cross-process lock, reconciles the index against the
     * directory (this is the one maintenance path allowed to
     * readdir), and never evicts an entry some StorePin holds.
     */
    GcResult gc(const GcOptions &options) const;

    /**
     * Rebuild the index from a directory scan (also what open does
     * when the index is missing). Returns the number of entries
     * indexed. The recovery tool for a lost or corrupted index — the
     * entries themselves are always the source of truth.
     */
    size_t rebuildIndex() const;

    /** What verify() checked and found. */
    struct VerifyResult
    {
        size_t checked = 0;             ///< Index entries examined.
        size_t missing_files = 0;       ///< Indexed but no file.
        size_t stray_files = 0;         ///< File but not indexed.
        size_t checksum_mismatches = 0; ///< File disagrees with index.
        bool ok() const
        {
            return missing_files == 0 && stray_files == 0 &&
                   checksum_mismatches == 0;
        }
    };

    /**
     * Cross-check the index against the directory and every entry's
     * recorded payload checksum against the bytes on disk.
     */
    VerifyResult verify() const;

    /** A point-in-time summary for `store stat`. */
    struct Stats
    {
        size_t key_entries = 0;
        size_t shard_entries = 0;
        uint64_t total_bytes = 0;
        size_t pinned = 0;       ///< Distinct pinned checksums.
        size_t pin_owners = 0;   ///< Pin files present.
    };

    Stats stats() const;

    /** Store root directory. */
    const std::string &dir() const { return dir_; }

  private:
    friend class StorePin;

    enum class Kind : uint8_t
    {
        Key = 0,
        Shard = 1,
    };

    struct IndexEntry
    {
        uint64_t size = 0;
        uint64_t checksum = 0;
    };

    std::string indexPath() const { return dir_ + "/store.idx"; }
    std::string pinsDir() const { return dir_ + "/pins"; }
    std::string pinPathFor(const std::string &owner) const;
    std::string entryPath(Kind kind, uint64_t id) const;

    /** Map for @p kind; call with mu_ held. */
    std::unordered_map<uint64_t, IndexEntry> &mapFor(Kind kind) const;

    /** Reload or tail-catch-up from the index file (locks held). */
    void refreshLocked() const;
    /** Full index load from disk (locks held). */
    void loadIndexLocked() const;
    /** Rebuild from a directory scan (exclusive lock + mu_ held). */
    size_t rebuildIndexLocked() const;
    /** Append one index record (exclusive lock + mu_ held). */
    void appendLocked(const std::string &body) const;
    /** Put/erase records, applied to memory and appended (locked). */
    void recordPut(Kind kind, uint64_t id, const IndexEntry &e) const;
    void recordErase(Kind kind, uint64_t id) const;
    /** Shared deposit path for the two ByChecksum writers. */
    bool depositLocked(uint64_t checksum,
                       const std::function<void(const std::string &)>
                           &write_to) const;
    /** Checksums pinned by any owner (exclusive lock held). */
    std::set<uint64_t> pinnedChecksums() const;

    std::string dir_;
    Options options_;
    mutable FileLock lock_;
    mutable std::mutex mu_;
    mutable std::unordered_map<uint64_t, IndexEntry> keys_;
    mutable std::unordered_map<uint64_t, IndexEntry> shards_;
    /** Bytes of the index file already applied to the maps. */
    mutable size_t index_off_ = 0;
    /** The index generation header record (detects rewrites). */
    mutable std::string index_header_;
};

/**
 * A persisted refcount on store entries: while a checksum is pinned,
 * gc() will not evict it. The aggregator/relay pins a shard *before*
 * depositing it and unpins once the shard is durable downstream
 * (journaled state, acknowledged upstream flush), closing the "gc
 * evicted a shard a pending aggregate still needed" hole.
 *
 * Pins persist in `<store>/pins/<owner>.pins` and survive SIGKILL: a
 * restarted owner constructing a StorePin with the same owner string
 * inherits its previous pins (restored()). Destruction does NOT
 * release — persistence across crashes is the point; call release()
 * on clean completion.
 */
class StorePin
{
  public:
    /** @p owner must be stable across restarts of the same job. */
    StorePin(const ProfileStore &store, std::string owner);

    StorePin(const StorePin &) = delete;
    StorePin &operator=(const StorePin &) = delete;

    /** Pin @p checksum; persisted before returning. */
    void pin(uint64_t checksum);

    /** Drop one pin; persisted before returning. */
    void unpin(uint64_t checksum);

    /** Drop every pin and delete the pin file (clean completion). */
    void release();

    /** Pins inherited from a previous (crashed) run of this owner. */
    size_t restored() const { return restored_; }

    size_t size() const { return pins_.size(); }
    const std::string &owner() const { return owner_; }

  private:
    void persist() const;

    const ProfileStore &store_;
    std::string owner_;
    /**
     * StorePin's own lock fd on the store's lock file: flock on a
     * *shared* open file description would convert the store's lock
     * instead of blocking against it.
     */
    FileLock lock_;
    std::string path_;
    std::set<uint64_t> pins_;
    size_t restored_ = 0;
};

} // namespace hbbp

#endif // HBBP_FLEET_STORE_HH
