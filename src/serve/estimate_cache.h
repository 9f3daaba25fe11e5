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
/// \brief The serving cache: a sharded LRU of sweep curves.
///
/// An entry maps (model version, quantized x) to the query's whole PWL
/// control-point set (eval::SweepCapable::SweepCurve). In SelNet the control
/// points depend on x alone and the threshold enters only at the final PWL
/// lookup, so one cached curve answers a repeat query at ANY threshold: the
/// server evaluates the cached PWL, which is bit-identical to the model's own
/// sweep path.
///
/// Keys are built by quantizing the query vector to a fixed grid and hashing
/// it together with the model version, so (a) numerically identical repeat
/// queries hit, (b) near-identical queries within one quantum collapse to one
/// entry, and (c) entries computed by a superseded model version can never be
/// returned after a hot-swap — stale entries simply age out of the LRU.
///
/// Key derivation is two-step: QueryDigest hashes the quantized query once
/// (one 64-bit mix per coordinate; ~0.4 us at dim 128 on an AVX-512 host)
/// and leaves the version out; CurveKey folds the version into it in O(1).
///
/// Sharding: the key's low bits pick one of `shards` independent LRU maps,
/// each with its own mutex, so concurrent clients rarely contend.

namespace selnet::serve {

/// \brief Cache sizing and quantization knobs.
struct CacheConfig {
  size_t shards = 16;  ///< Power of two recommended.
  /// Curve entries across all shards (each holds 2(L+2) floats). Only used
  /// when ServerConfig::enable_curve_cache is on.
  size_t curve_capacity = 1 << 12;
  /// Quantization grid for query coordinates. Queries closer than one
  /// quantum are considered interchangeable.
  float query_quantum = 1e-5f;
};

/// \brief One cached sweep curve: the PWL control points of a query's
/// estimate-vs-threshold function.
struct CurveEntry {
  std::vector<float> tau;  ///< Knot positions (non-decreasing).
  std::vector<float> p;    ///< Knot values.
};

/// \brief Thread-safe sharded LRU map (version, quantized x) -> CurveEntry
/// (values copied out).
class EstimateCache {
 public:
  explicit EstimateCache(const CacheConfig& cfg = CacheConfig());

  /// \brief Version-free hash of the quantized query; the input of CurveKey.
  uint64_t QueryDigest(const float* x, size_t dim) const;

  /// \brief Cache key of (model version, query digest).
  uint64_t CurveKey(uint64_t model_version, uint64_t digest) const;

  /// \brief On hit copies the curve out and refreshes recency.
  bool LookupCurve(uint64_t key, CurveEntry* entry);

  /// \brief Insert or overwrite; evicts the shard's LRU entry when full.
  void InsertCurve(uint64_t key, CurveEntry entry);

  /// \brief Drop every entry (stats counters are kept).
  void Clear();

  size_t curve_size() const;
  uint64_t curve_hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t curve_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  const CacheConfig& config() const { return cfg_; }

 private:
  /// Most-recent entries at the front; pairs of (key, curve).
  using Lru = std::list<std::pair<uint64_t, CurveEntry>>;
  struct Shard {
    mutable std::mutex mu;
    Lru lru;
    std::unordered_map<uint64_t, Lru::iterator> index;
  };

  Shard& ShardFor(uint64_t key) { return shards_[key % shards_.size()]; }

  CacheConfig cfg_;
  size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace selnet::serve
