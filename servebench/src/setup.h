#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/selnet_ct.h"
#include "data/database.h"
#include "data/workload.h"
#include "util/thread_pool.h"

/// \file setup.h
/// \brief The shared set-up every workload starts from: a 128-d Gaussian
/// mixture (the face-like corpus shape), a 400-query workload, one SelNetCt
/// trained for 4 epochs, exact distance profiles for ground truth, and the 8
/// routes the model is published under.
///
/// The corpus and the model are fixed (their seeds are constants); the
/// command-line seed only drives the request streams, so every seed measures
/// the same model.

namespace servebench {

using Clock = std::chrono::steady_clock;

inline constexpr size_t kRows = 20000;
inline constexpr size_t kDim = 128;
inline constexpr size_t kQueries = 400;
inline constexpr size_t kThresholdsPerQuery = 16;  ///< w
inline constexpr size_t kEpochs = 4;
inline constexpr size_t kRoutes = 8;

struct Setup {
  std::unique_ptr<selnet::data::Database> db;
  selnet::data::Workload workload;
  std::shared_ptr<selnet::core::SelNetCt> model;
  std::string model_bytes;  ///< SaveModelBytes(*model): the publish payload.
  /// Per query, every corpus distance sorted ascending.
  std::vector<std::vector<float>> profiles;
  /// Route names, half owned by each slot of a two-slot hash ring.
  std::vector<std::string> routes;

  float tmax() const { return workload.tmax; }
  const float* query(size_t qi) const { return workload.queries.row(qi); }
  /// |{o : dist(q, o) <= t}|, by binary search in the profile.
  float ExactSelectivity(size_t qi, float t) const;
};

/// \brief Build the shared set-up. Runs on the private set-up worker (see
/// RunOnSetupWorker).
std::unique_ptr<Setup> BuildSetup();

/// \brief Run `fn` on the single worker of a private one-thread pool and
/// wait for it.
///
/// util::ParallelFor takes its serial path inside a pool worker. Set-up and
/// the direct model calls of the layer ladder run here to stay clear of the
/// ParallelFor lifetime race on multi-core hosts (the blocker item in
/// ROADMAP.md: the last chunk signals completion before it locks the
/// caller's stack mutex). Move them back to the main thread in a benchmark
/// change of its own once that race is fixed.
selnet::util::ThreadPool& SetupPool();

template <typename F>
auto RunOnSetupWorker(F&& fn) {
  return SetupPool().SubmitWithResult(std::forward<F>(fn)).get();
}

}  // namespace servebench
