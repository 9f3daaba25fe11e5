#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/request.h"
#include "setup.h"

/// \file checker.h
/// \brief The answer checker, run on every response of every workload.
///
/// Inline (every response): the estimate count matches the thresholds, every
/// estimate is finite and non-negative, and a sorted sweep's column is
/// non-decreasing (the paper's consistency guarantee). Each response also
/// adds to MAPE against the exact selectivity, dividing by max(y, 1) like
/// eval::ComputeErrors.
///
/// Deferred (after the timed window, off the clock): a deterministic 1-in-N
/// sample of responses answered without any cache hit is recomputed with a
/// direct Predict (one threshold) or SweepEstimate (a sweep) on the reference
/// model and must match bit for bit.

namespace servebench {

struct CheckTotals {
  uint64_t responses = 0;
  uint64_t wrong_count = 0;   ///< estimates.size() != thresholds.size()
  uint64_t bad_value = 0;     ///< non-finite or negative estimate
  uint64_t nonmonotone = 0;   ///< sorted sweep with a decreasing step
  uint64_t mismatches = 0;    ///< sampled response != direct model call
  uint64_t sampled = 0;       ///< responses recomputed for bit identity
  double ape_sum = 0.0;
  uint64_t ape_count = 0;

  uint64_t violations() const {
    return wrong_count + bad_value + nonmonotone + mismatches;
  }
  double mape() const { return ape_count ? ape_sum / double(ape_count) : 0.0; }
};

class Checker {
 public:
  Checker(const Setup& setup, uint64_t sample_every)
      : setup_(setup), sample_every_(sample_every) {}

  /// \brief Inline checks of one response to request `seq` (query `qi`,
  /// thresholds `ts`, sorted ascending). False when any check failed.
  /// Thread-safe.
  bool Check(uint64_t seq, size_t qi, const std::vector<float>& ts,
             const selnet::serve::EstimateResponse& resp);

  /// \brief Recompute the retained sample on `ref` (bit identity); call
  /// after the traffic stopped. Returns the number of mismatches found.
  uint64_t VerifySamples(selnet::core::SelNetCt& ref);

  CheckTotals totals() const;

 private:
  struct Retained {
    size_t qi;
    std::vector<float> ts;
    std::vector<float> estimates;
  };

  const Setup& setup_;
  const uint64_t sample_every_;
  std::atomic<uint64_t> wrong_count_{0};
  std::atomic<uint64_t> bad_value_{0};
  std::atomic<uint64_t> nonmonotone_{0};

  mutable std::mutex mu_;
  uint64_t responses_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t sampled_ = 0;
  double ape_sum_ = 0.0;
  uint64_t ape_count_ = 0;
  std::vector<Retained> retained_;
};

}  // namespace servebench
