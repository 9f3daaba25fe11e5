#include "serve/estimate_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace selnet::serve {

EstimateCache::EstimateCache(const CacheConfig& cfg) : cfg_(cfg) {
  SEL_CHECK(cfg_.capacity > 0);
  size_t shards = std::max<size_t>(1, std::min(cfg_.shards, cfg_.capacity));
  scalars_.Init(cfg_.capacity, shards);
  size_t curve_cap = std::max<size_t>(1, cfg_.curve_capacity);
  curves_.Init(curve_cap, std::max<size_t>(1, std::min(cfg_.shards, curve_cap)));
}

namespace {

constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;

// One round of the digest chain; bijective in `h` for a fixed word.
inline uint64_t Mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * kMul;
  return h ^ (h >> 32);
}

// murmur3's fmix64: every key bit depends on every input bit, so
// ShardedLru's `key % shards` sees uniform low bits.
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

// Ends curve keys in place of the threshold word; top bits 10 are never a
// Word, so a curve key never equals a scalar key of the same query.
constexpr uint64_t kCurveTag = uint64_t{1} << 63;

}  // namespace

uint64_t EstimateCache::QueryDigest(const float* x, size_t dim) const {
  uint64_t h = Mix(kMul, dim);
  for (size_t i = 0; i < dim; ++i) h = Mix(h, Word(x[i], cfg_.query_quantum));
  return h;
}

uint64_t EstimateCache::Key(uint64_t model_version, uint64_t digest,
                            float t) const {
  return Finalize(
      Mix(Mix(digest, model_version), Word(t, cfg_.threshold_quantum)));
}

uint64_t EstimateCache::CurveKey(uint64_t model_version,
                                 uint64_t digest) const {
  return Finalize(Mix(Mix(digest, model_version), kCurveTag));
}

bool EstimateCache::Lookup(uint64_t key, float* value) {
  return scalars_.Lookup(key, value);
}

void EstimateCache::Insert(uint64_t key, float value) {
  scalars_.Insert(key, value);
}

bool EstimateCache::LookupCurve(uint64_t key, CurveEntry* entry) {
  return curves_.Lookup(key, entry);
}

void EstimateCache::InsertCurve(uint64_t key, CurveEntry entry) {
  curves_.Insert(key, std::move(entry));
}

void EstimateCache::Clear() {
  scalars_.Clear();
  curves_.Clear();
}

}  // namespace selnet::serve
