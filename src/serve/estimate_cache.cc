#include "serve/estimate_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace selnet::serve {

EstimateCache::EstimateCache(const CacheConfig& cfg) : cfg_(cfg) {
  size_t capacity = std::max<size_t>(1, cfg_.curve_capacity);
  size_t shards = std::max<size_t>(1, std::min(cfg_.shards, capacity));
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_ = std::vector<Shard>(shards);
}

namespace {

constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;

// One round of the digest chain; bijective in `h` for a fixed word.
inline uint64_t Mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * kMul;
  return h ^ (h >> 32);
}

// murmur3's fmix64: every key bit depends on every input bit, so
// ShardFor's `key % shards` sees uniform low bits.
inline uint64_t Finalize(uint64_t k) {
  k = (k ^ (k >> 33)) * 0xff51afd7ed558ccdULL;
  k = (k ^ (k >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return k ^ (k >> 33);
}

// The value's llround index on the quantum grid (top bits 00 or 11). A NaN,
// infinite or |q| >= 2^62 quotient — where llround overflows or each float
// is its own grid point anyway — is keyed on the float's bits under tag 01
// (NaN canonicalized), so it can neither alias a grid index nor another
// out-of-range value.
inline uint64_t Word(float v, float quantum) {
  double q = double(v) / double(quantum);
  if (std::fabs(q) < 0x1p62) {
    // std::llround inlined: truncate, then step away from zero on a half.
    int64_t i = static_cast<int64_t>(q);
    double frac = q - double(i);  // Exact below 2^53; 0 above.
    return static_cast<uint64_t>(i + (frac >= 0.5) - (frac <= -0.5));
  }
  uint32_t bits = 0x7fc00000u;
  if (!std::isnan(v)) std::memcpy(&bits, &v, sizeof(bits));
  return (uint64_t{1} << 62) | bits;
}

}  // namespace

uint64_t EstimateCache::QueryDigest(const float* x, size_t dim) const {
  uint64_t h = Mix(kMul, dim);
  for (size_t i = 0; i < dim; ++i) h = Mix(h, Word(x[i], cfg_.query_quantum));
  return h;
}

uint64_t EstimateCache::CurveKey(uint64_t model_version,
                                 uint64_t digest) const {
  return Finalize(Mix(digest, model_version));
}

bool EstimateCache::LookupCurve(uint64_t key, CurveEntry* entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *entry = it->second->second;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void EstimateCache::InsertCurve(uint64_t key, CurveEntry entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
  shard.lru.emplace_front(key, std::move(entry));
  shard.index[key] = shard.lru.begin();
}

void EstimateCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

size_t EstimateCache::curve_size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace selnet::serve
