#include "targets.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace servebench {

using namespace selnet;

namespace {

uint64_t NsSince(Clock::time_point start) {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count());
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::fflush(nullptr);
  std::_Exit(2);  // Serving threads are still running: skip destructors.
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointInproc: return "point_inproc";
    case Workload::kSweepWire: return "sweep_wire";
    case Workload::kFleetSwap: return "fleet_swap";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* w) {
  for (Workload c : {Workload::kPointInproc, Workload::kSweepWire,
                     Workload::kFleetSwap}) {
    if (name == WorkloadName(c)) {
      *w = c;
      return true;
    }
  }
  return false;
}

Mix MixOf(Workload w) {
  switch (w) {
    case Workload::kPointInproc: return Mix::kPoint;
    case Workload::kSweepWire: return Mix::kSweep;
    case Workload::kFleetSwap: return Mix::kFleet;
  }
  return Mix::kPoint;
}

tensor::Matrix TimedModel::Predict(const tensor::Matrix& x,
                                   const tensor::Matrix& t) {
  Clock::time_point start = Clock::now();
  tensor::Matrix out = inner_->Predict(x, t);
  predict_ns_.fetch_add(NsSince(start), std::memory_order_relaxed);
  predict_calls_.fetch_add(1, std::memory_order_relaxed);
  predict_rows_.fetch_add(x.rows(), std::memory_order_relaxed);
  return out;
}

std::vector<float> TimedModel::SweepEstimate(const float* x, const float* ts,
                                             size_t count) {
  Clock::time_point start = Clock::now();
  std::vector<float> out = inner_->SweepEstimate(x, ts, count);
  sweep_ns_.fetch_add(NsSince(start), std::memory_order_relaxed);
  sweep_calls_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

bool TimedModel::SweepCurve(const float* x, std::vector<float>* tau,
                            std::vector<float>* p) {
  Clock::time_point start = Clock::now();
  bool ok = inner_->SweepCurve(x, tau, p);
  curve_ns_.fetch_add(NsSince(start), std::memory_order_relaxed);
  curve_calls_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

TimedModel::Totals TimedModel::totals() const {
  Totals t;
  t.predict_calls = predict_calls_.load();
  t.predict_rows = predict_rows_.load();
  t.predict_us = double(predict_ns_.load()) * 1e-3;
  t.sweep_calls = sweep_calls_.load();
  t.sweep_us = double(sweep_ns_.load()) * 1e-3;
  t.curve_calls = curve_calls_.load();
  t.curve_us = double(curve_ns_.load()) * 1e-3;
  return t;
}

void Target::PublishAll(const Setup& setup,
                        const std::shared_ptr<eval::Estimator>& model) {
  for (const std::string& route : setup.routes) {
    if (model) {
      reg->Publish(route, model);
    } else if (!reg->PublishFromBytes(route, setup.model_bytes, "servebench")
                    .ok()) {
      Die("PublishFromBytes failed for " + route);
    }
  }
}

std::unique_ptr<Target> BuildTarget(const TargetOptions& opts,
                                    const Setup& setup) {
  auto target = std::make_unique<Target>();
  serve::ShardedConfig cfg;
  cfg.server.dim = kDim;
  cfg.server.enable_curve_cache = opts.curve_cache;
  cfg.threads_per_shard = 1;
  if (opts.remote) {
    serve::ShardNodeConfig ncfg;
    ncfg.server.dim = kDim;
    ncfg.server.enable_curve_cache = opts.curve_cache;
    ncfg.threads = 1;
    target->node = std::make_unique<serve::ShardNode>(ncfg);
    if (!target->node->status().ok()) {
      Die("shard node: " + target->node->status().ToString());
    }
    serve::RemoteShardConfig remote;
    remote.port = target->node->port();
    cfg.num_shards = 1;
    cfg.replication = 2;
    cfg.remotes.push_back(remote);
  } else {
    cfg.num_shards = 2;
  }
  target->reg = std::make_unique<serve::ShardedRegistry>(cfg);
  if (opts.remote) {
    auto deadline = Clock::now() + std::chrono::seconds(10);
    while (target->reg->slot_health(1) != serve::ShardHealth::kHealthy) {
      if (Clock::now() > deadline) Die("remote shard never turned healthy");
      target->reg->NudgeHealth();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (const std::string& route : setup.routes) {
    target->route_slot.push_back(uint8_t(target->reg->ReplicasOf(route)[0]));
  }
  if (opts.wire) {
    serve::FrontendConfig fcfg;
    target->frontend =
        std::make_unique<serve::NetFrontend>(fcfg, target->reg.get());
    if (!target->frontend->status().ok()) {
      Die("frontend: " + target->frontend->status().ToString());
    }
    for (int c = 0; c < 2; ++c) {
      serve::ClientChannelConfig ccfg;
      ccfg.port = target->frontend->port();
      ccfg.recv_timeout_ms = 10000;
      auto channel = std::make_unique<serve::ClientChannel>(ccfg);
      util::Status st = channel->Connect();
      if (!st.ok()) Die("client channel: " + st.ToString());
      target->channels.push_back(std::move(channel));
    }
    Target* t = target.get();
    target->send = [t](size_t lane,
                       std::vector<serve::SelNetServer::Submission>* batch) {
      t->channels[lane]->CallMany(std::move(*batch));
      batch->clear();
    };
  } else {
    target->send = InProcessSend(target->reg.get());
  }
  return target;
}

TargetOptions OptionsFor(Workload w) {
  TargetOptions o;
  o.remote = w == Workload::kFleetSwap;
  o.curve_cache = w == Workload::kSweepWire;
  o.wire = w == Workload::kSweepWire;
  return o;
}

DriveSpec SpecFor(Workload w, Target* target, const Setup& setup,
                  uint64_t seed) {
  DriveSpec spec;
  spec.mix = MixOf(w);
  spec.seed = seed;
  spec.route_slot = target->route_slot;
  switch (w) {
    case Workload::kPointInproc:
      spec.window = 64;
      break;
    case Workload::kSweepWire:
      spec.lanes = 2;
      spec.window = 64;
      spec.burst = 8;
      break;
    case Workload::kFleetSwap:
      spec.rate = kFleetRate;
      spec.publish_every_s = 0.25;
      // Same bytes every time: a new version, a state transfer to the
      // remote, cold packs, and bit-identical answers.
      spec.publish = [target, &setup] {
        if (!target->reg
                 ->PublishFromBytes(setup.routes[0], setup.model_bytes,
                                    "servebench")
                 .ok()) {
          Die("PublishFromBytes failed during the run");
        }
      };
      break;
  }
  return spec;
}

double SloMs(Workload w) {
  switch (w) {
    case Workload::kPointInproc: return 20.0;
    case Workload::kSweepWire: return 50.0;
    case Workload::kFleetSwap: return 25.0;
  }
  return 10.0;
}

}  // namespace servebench
