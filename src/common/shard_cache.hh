/**
 * @file
 * Sharded, mutex-striped LRU cache for evaluation memoization.
 *
 * UNICO's wall-clock cost is dominated by re-evaluating identical
 * (hardware, mapping, operator) triples: successive halving re-runs
 * surviving candidates round after round and multi-seed bench sweeps
 * repeat whole trials. The cache turns those repeats into hash
 * lookups. Keys are 128-bit canonical fingerprints built with
 * FingerprintBuilder; values are small PODs. Striping the key space
 * across independently locked shards keeps concurrent mapping-search
 * jobs from serializing on one mutex.
 *
 * Correctness contract for evaluation caching: the cache must sit
 * *below* any fault-injection layer (only fault-free model outputs
 * are stored) and a hit must charge the same nominal virtual cost as
 * the original computation, so search trajectories are bit-identical
 * with the cache on or off — only wall-clock changes.
 */

#ifndef UNICO_COMMON_SHARD_CACHE_HH
#define UNICO_COMMON_SHARD_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"

namespace unico::common {

/** A 128-bit content fingerprint (two independent 64-bit streams). */
struct Fingerprint
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Fingerprint &other) const = default;
};

/**
 * Incremental fingerprint construction over a canonical field
 * stream. Two FNV-1a-style accumulators with distinct offsets are
 * finalized through a splitmix64 avalanche, giving 128 well-mixed
 * bits; the probability of a collision among even billions of
 * distinct design points is negligible.
 *
 * Stability matters more than speed here: the byte stream is defined
 * purely by the order and values of add() calls, so a fingerprint is
 * reproducible across runs, platforms and thread schedules.
 */
class FingerprintBuilder
{
  public:
    FingerprintBuilder &
    add(std::uint64_t v)
    {
        a_ = mix64(a_ ^ v);
        b_ = mix64(b_ + (v ^ kStream2));
        return *this;
    }

    FingerprintBuilder &
    add(std::int64_t v)
    {
        return add(static_cast<std::uint64_t>(v));
    }

    FingerprintBuilder &
    add(int v)
    {
        return add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }

    FingerprintBuilder &
    add(bool v)
    {
        return add(static_cast<std::uint64_t>(v ? 1 : 2));
    }

    /** Doubles are hashed by bit pattern (exact, not approximate). */
    FingerprintBuilder &
    add(double v)
    {
        return add(std::bit_cast<std::uint64_t>(v));
    }

    FingerprintBuilder &
    add(std::string_view s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        // Pack 8 bytes per mix step; the length prefix above keeps
        // concatenation ambiguities out of the stream.
        std::uint64_t word = 0;
        int n = 0;
        for (unsigned char c : s) {
            word = (word << 8) | c;
            if (++n == 8) {
                add(word);
                word = 0;
                n = 0;
            }
        }
        if (n > 0)
            add(word);
        return *this;
    }

    /** Fold an already-computed fingerprint into this stream. */
    FingerprintBuilder &
    add(const Fingerprint &fp)
    {
        return add(fp.hi).add(fp.lo);
    }

    Fingerprint
    fingerprint() const
    {
        return Fingerprint{mix64(a_), mix64(b_)};
    }

  private:
    static constexpr std::uint64_t kStream2 = 0x6a09e667f3bcc908ULL;

    std::uint64_t a_ = 0xcbf29ce484222325ULL;
    std::uint64_t b_ = 0x84222325cbf29ce4ULL;
};

/** Canonical, order-sensitive combination of two fingerprints. Every
 *  cache key is built as combine(query context, mapping fingerprint),
 *  so decorator-level and model-level caching share entries. One
 *  combine runs per evaluation, warm or cold, so this is hot-path
 *  cost: both inputs are already finalized full-avalanche hashes, so
 *  one extra splitmix64 round per word suffices — each output word
 *  is a bijection of the corresponding @p b word for fixed @p a, so
 *  two keys under one context collide only if the mapping
 *  fingerprints collide in both words. Keys never leave the process
 *  (the eval cache is in-memory), so the scheme can evolve without a
 *  compatibility shim. */
inline Fingerprint
combine(const Fingerprint &a, const Fingerprint &b)
{
    return Fingerprint{mix64(a.hi + (b.hi ^ 0x6a09e667f3bcc908ULL)),
                       mix64(a.lo ^ (b.lo + 0xbb67ae8584caa73bULL))};
}

/** Aggregated cache counters (snapshot across all shards). */
struct CacheStats
{
    std::uint64_t hits = 0;       ///< lookups served from the cache
    std::uint64_t misses = 0;     ///< lookups that fell through
    std::uint64_t insertions = 0; ///< values stored
    std::uint64_t evictions = 0;  ///< LRU entries displaced
    std::uint64_t entries = 0;    ///< currently resident entries
    std::uint64_t bytes = 0;      ///< approximate resident bytes
    std::uint64_t capacityBytes = 0; ///< configured capacity
    std::uint64_t shards = 0;     ///< stripe count

    /** Per-shard eviction counts (index = shard); shows whether LRU
     *  pressure is spread evenly or one stripe is churning. */
    std::vector<std::uint64_t> shardEvictions;

    /** Hit fraction of all lookups (0 when none were made). */
    double
    hitRate() const
    {
        const std::uint64_t lookups = hits + misses;
        return lookups > 0
                   ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
    }
};

/** One-line digest ("cache: hits=... misses=... ..."). */
std::string toString(const CacheStats &stats);

/**
 * A fixed-capacity LRU cache striped over independently locked
 * shards.
 *
 * The shard is selected from the fingerprint's high bits, so entries
 * spread uniformly and two concurrent lookups rarely touch the same
 * mutex. Each shard runs its own LRU list bounded by an equal slice
 * of the byte capacity; per-entry cost is accounted as sizeof(Value)
 * plus key/node overhead. All operations are thread-safe; values are
 * returned by copy (they are small PODs by design).
 */
template <typename Value>
class ShardedLruCache
{
  public:
    /** Default stripe count; plenty for the host thread counts the
     *  driver uses while keeping empty-cache overhead tiny. */
    static constexpr std::size_t kDefaultShards = 16;

    /** Approximate resident bytes per entry (value + key + node and
     *  hash-table overhead). */
    static constexpr std::size_t
    entryBytes()
    {
        return sizeof(Value) + sizeof(Fingerprint) + 64;
    }

    /**
     * @param capacity_bytes total byte budget across shards; a zero
     *        capacity disables storage (every lookup misses).
     * @param shards stripe count (>= 1).
     */
    explicit ShardedLruCache(std::size_t capacity_bytes,
                             std::size_t shards = kDefaultShards)
        : capacityBytes_(capacity_bytes)
    {
        if (shards == 0)
            shards = 1;
        // Unused capacity slack goes to the first shard so tiny
        // capacities still admit at least one entry overall.
        const std::size_t per_shard_entries =
            capacity_bytes / entryBytes() / shards;
        const std::size_t remainder_entries =
            capacity_bytes / entryBytes() % shards;
        shards_.reserve(shards);
        for (std::size_t i = 0; i < shards; ++i) {
            auto shard = std::make_unique<Shard>();
            shard->maxEntries =
                per_shard_entries + (i < remainder_entries ? 1 : 0);
            shards_.push_back(std::move(shard));
        }
    }

    /** Look up @p key; refreshes LRU order on hit. */
    std::optional<Value>
    get(const Fingerprint &key)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            ++shard.misses;
            return std::nullopt;
        }
        ++shard.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->second;
    }

    /** Insert or refresh @p key; evicts LRU entries at capacity. */
    void
    put(const Fingerprint &key, const Value &value)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.maxEntries == 0)
            return;
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            it->second->second = value;
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
        shard.lru.emplace_front(key, value);
        shard.map.emplace(key, shard.lru.begin());
        ++shard.insertions;
        while (shard.lru.size() > shard.maxEntries) {
            shard.map.erase(shard.lru.back().first);
            shard.lru.pop_back();
            ++shard.evictions;
        }
    }

    /** Aggregate counters across shards (momentary snapshot). */
    CacheStats
    stats() const
    {
        CacheStats s;
        s.capacityBytes = capacityBytes_;
        s.shards = shards_.size();
        s.shardEvictions.reserve(shards_.size());
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            s.hits += shard->hits;
            s.misses += shard->misses;
            s.insertions += shard->insertions;
            s.evictions += shard->evictions;
            s.entries += shard->lru.size();
            s.shardEvictions.push_back(shard->evictions);
        }
        s.bytes = s.entries * entryBytes();
        return s;
    }

    /** Drop every entry; counters are preserved. */
    void
    clear()
    {
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            shard->map.clear();
            shard->lru.clear();
        }
    }

    /** Configured byte capacity. */
    std::size_t capacityBytes() const { return capacityBytes_; }

  private:
    struct FingerprintHash
    {
        std::size_t
        operator()(const Fingerprint &fp) const
        {
            // Both words are already avalanched; fold them.
            return static_cast<std::size_t>(fp.hi ^
                                            (fp.lo * 0x9e3779b97f4a7c15ULL));
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::list<std::pair<Fingerprint, Value>> lru; ///< front = MRU
        std::unordered_map<Fingerprint,
                           typename std::list<
                               std::pair<Fingerprint, Value>>::iterator,
                           FingerprintHash>
            map;
        std::size_t maxEntries = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
    };

    Shard &
    shardFor(const Fingerprint &key)
    {
        return *shards_[key.hi % shards_.size()];
    }

    std::size_t capacityBytes_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace unico::common

#endif // UNICO_COMMON_SHARD_CACHE_HH
