#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file estimate_cache.h
/// \brief Sharded LRU caches for selectivity estimates and sweep curves.
///
/// Keys are built by quantizing the query vector (and, for scalar entries,
/// the threshold) to a fixed grid and hashing them together with the model
/// version, so (a) numerically identical repeat queries hit, (b)
/// near-identical queries within one quantum collapse to one entry, and (c)
/// entries computed by a superseded model version can never be returned
/// after a hot-swap — stale entries simply age out of the LRU.
///
/// Key derivation is two-step: QueryDigest hashes the quantized query once
/// (one 64-bit mix per coordinate; ~0.4 us at dim 128 on an AVX-512 host)
/// and leaves the version out; Key / CurveKey fold version and threshold
/// into it in O(1) (~8 ns there). The server digests once per request and
/// once per row in a scheduler batch, so a K-threshold sweep pays one
/// digest, not 2K + 1.
///
/// Two entry kinds share the machinery:
///  * scalar — (version, x, t) -> estimate, the per-threshold cache;
///  * curve  — (version, x) -> the query's whole PWL control-point set
///    (eval::SweepCapable::SweepCurve). A repeat query at NEW thresholds
///    skips the network entirely: the server evaluates the cached PWL, which
///    is bit-identical to the model's own sweep path.
///
/// Sharding: the key's low bits pick one of `shards` independent LRU maps,
/// each with its own mutex, so concurrent clients rarely contend.

namespace selnet::serve {

/// \brief Cache sizing and quantization knobs.
struct CacheConfig {
  size_t capacity = 1 << 16;  ///< Scalar entries across all shards.
  size_t shards = 16;         ///< Power of two recommended.
  /// Sweep-curve entries across all shards (each holds 2(L+2) floats).
  /// Only used when ServerConfig::enable_curve_cache is on.
  size_t curve_capacity = 1 << 12;
  /// Quantization grid for query coordinates and thresholds. Estimates for
  /// inputs closer than one quantum are considered interchangeable.
  float query_quantum = 1e-5f;
  float threshold_quantum = 1e-5f;
};

/// \brief One cached sweep curve: the PWL control points of a query's
/// estimate-vs-threshold function.
struct CurveEntry {
  std::vector<float> tau;  ///< Knot positions (non-decreasing).
  std::vector<float> p;    ///< Knot values.
};

/// \brief Thread-safe sharded LRU map uint64 key -> V (values copied out).
template <typename V>
class ShardedLru {
 public:
  void Init(size_t capacity, size_t shards) {
    per_shard_capacity_ = (capacity + shards - 1) / shards;
    shards_ = std::vector<Shard>(shards);
  }

  /// \brief On hit copies the value out and refreshes recency.
  bool Lookup(uint64_t key, V* value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    *value = it->second->second;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// \brief Insert or overwrite; evicts the shard's LRU entry when full.
  void Insert(uint64_t key, V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index[key] = shard.lru.begin();
  }

  /// \brief Drop every entry (stats counters are kept).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.lru.clear();
      shard.index.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Most-recent entries at the front; pairs of (key, value).
    std::list<std::pair<uint64_t, V>> lru;
    std::unordered_map<uint64_t,
                       typename std::list<std::pair<uint64_t, V>>::iterator>
        index;
  };

  Shard& ShardFor(uint64_t key) { return shards_[key % shards_.size()]; }

  size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// \brief The serving cache: quantized (version, x, t) -> estimate plus the
/// optional (version, x) -> sweep-curve side table.
class EstimateCache {
 public:
  explicit EstimateCache(const CacheConfig& cfg = CacheConfig());

  /// \brief Version-free hash of the quantized query; the input of Key and
  /// CurveKey.
  uint64_t QueryDigest(const float* x, size_t dim) const;

  /// \brief Scalar-cache key of (model version, query digest, threshold).
  uint64_t Key(uint64_t model_version, uint64_t digest, float t) const;

  /// \brief Curve-cache key of (model version, query digest); never equal to
  /// a Key of the same version and digest.
  uint64_t CurveKey(uint64_t model_version, uint64_t digest) const;

  /// \brief Look up a key; on hit copies the value and refreshes recency.
  bool Lookup(uint64_t key, float* value);

  /// \brief Insert or overwrite; evicts the shard's LRU entry when full.
  void Insert(uint64_t key, float value);

  /// \brief Look up a cached sweep curve.
  bool LookupCurve(uint64_t key, CurveEntry* entry);

  /// \brief Insert or overwrite a sweep curve.
  void InsertCurve(uint64_t key, CurveEntry entry);

  /// \brief Drop every entry of both tables (stats counters are kept).
  void Clear();

  size_t size() const { return scalars_.size(); }
  uint64_t hits() const { return scalars_.hits(); }
  uint64_t misses() const { return scalars_.misses(); }
  uint64_t evictions() const { return scalars_.evictions(); }

  size_t curve_size() const { return curves_.size(); }
  uint64_t curve_hits() const { return curves_.hits(); }
  uint64_t curve_misses() const { return curves_.misses(); }

  const CacheConfig& config() const { return cfg_; }

 private:
  CacheConfig cfg_;
  ShardedLru<float> scalars_;
  ShardedLru<CurveEntry> curves_;
};

}  // namespace selnet::serve
