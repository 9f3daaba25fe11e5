#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "drive.h"
#include "serve/client_channel.h"
#include "serve/frontend.h"
#include "serve/shard_node.h"
#include "serve/shard_router.h"
#include "setup.h"

/// \file targets.h
/// \brief The serving stacks the workloads drive, built only from public
/// entry points, and the timing decorator the traced run publishes.

namespace servebench {

enum class Workload { kPointInproc, kSweepWire, kFleetSwap };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* w);
Mix MixOf(Workload w);

/// \brief Forwards Predict, SweepEstimate, SupportsSweepCurve and SweepCurve
/// to the trained model and times each call, so the served path (including
/// the Servable sweep probe) is unchanged.
class TimedModel : public selnet::eval::Estimator,
                   public selnet::eval::SweepCapable {
 public:
  explicit TimedModel(std::shared_ptr<selnet::core::SelNetCt> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  bool IsConsistent() const override { return inner_->IsConsistent(); }
  void Fit(const selnet::eval::TrainContext& ctx) override { inner_->Fit(ctx); }
  selnet::tensor::Matrix Predict(const selnet::tensor::Matrix& x,
                                 const selnet::tensor::Matrix& t) override;
  std::vector<float> SweepEstimate(const float* x, const float* ts,
                                   size_t count) override;
  bool SupportsSweepCurve() const override {
    return inner_->SupportsSweepCurve();
  }
  bool SweepCurve(const float* x, std::vector<float>* tau,
                  std::vector<float>* p) override;

  struct Totals {
    uint64_t predict_calls = 0;
    uint64_t predict_rows = 0;
    double predict_us = 0.0;
    uint64_t sweep_calls = 0;
    double sweep_us = 0.0;
    uint64_t curve_calls = 0;
    double curve_us = 0.0;
  };
  Totals totals() const;

 private:
  std::shared_ptr<selnet::core::SelNetCt> inner_;
  std::atomic<uint64_t> predict_calls_{0}, predict_rows_{0}, predict_ns_{0};
  std::atomic<uint64_t> sweep_calls_{0}, sweep_ns_{0};
  std::atomic<uint64_t> curve_calls_{0}, curve_ns_{0};
};

/// \brief Topology of a target's two-slot hash ring.
struct TargetOptions {
  bool remote = false;       ///< Slot 1 is an in-process ShardNode.
  bool curve_cache = false;  ///< ServerConfig::enable_curve_cache.
  bool wire = false;         ///< Serve through a NetFrontend + 2 channels.
};

/// \brief A registry (2 local shards x 1 worker, or 1 local shard + 1
/// ShardNode remote with replication 2), optionally behind a NetFrontend
/// with two hello-negotiated binary ClientChannels.
struct Target {
  // Declaration order is teardown order reversed: channels close first,
  // then the frontend, the registry, and the remote node.
  std::unique_ptr<selnet::serve::ShardNode> node;
  std::unique_ptr<selnet::serve::ShardedRegistry> reg;
  std::unique_ptr<selnet::serve::NetFrontend> frontend;
  std::vector<std::unique_ptr<selnet::serve::ClientChannel>> channels;
  std::vector<uint8_t> route_slot;  ///< Primary slot per route index.
  SendFn send;

  /// \brief Publish `model` under every route, or — when null — the set-up's
  /// SaveModel bytes through PublishFromBytes (which also ships them to a
  /// remote replica by state transfer).
  void PublishAll(const Setup& setup,
                  const std::shared_ptr<selnet::eval::Estimator>& model);
};

/// \brief Build a target; aborts with a message when a port cannot be bound
/// or the remote never turns healthy.
std::unique_ptr<Target> BuildTarget(const TargetOptions& opts,
                                    const Setup& setup);

TargetOptions OptionsFor(Workload w);

/// \brief Closed- or open-loop drive settings of a workload.
DriveSpec SpecFor(Workload w, Target* target, const Setup& setup,
                  uint64_t seed);

/// \brief Open-loop rate of fleet_swap (requests/s), frozen at about half
/// the fleet's closed-loop capacity when the benchmark was defined.
inline constexpr double kFleetRate = 12000.0;

/// \brief Latency limit behind slo_ok_share, per workload (ms), frozen when
/// the benchmark was defined: about 5x the quiet-host p99 (~1.6, ~9 and
/// ~5.6 ms), so that only a collapse of the tail, not a busy neighbour,
/// moves the share.
double SloMs(Workload w);

}  // namespace servebench
