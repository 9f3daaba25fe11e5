#pragma once

#include <cstddef>
#include <cstdint>

#include "checker.h"
#include "drive.h"
#include "setup.h"

/// \file ladder.h
/// \brief The layer ladder: one workload's request mix sent through
/// successively wider public entry points, each adding exactly one layer.
///
///   1. gemm      tensor::GemmNNWithKernel(kAuto) on the model's inference
///                shapes at the served batch size
///   2. model     SelNetCt::Predict (a batch) or SweepEstimate (a sweep)
///   3. scheduler BatchScheduler::SubmitRows (sweeps row-expanded)
///   4. server    SelNetServer::SubmitWith
///   5. router    ShardedRegistry::SubmitWith (2 shards x 1 worker)
///   6. wire      ClientChannel::CallMany -> NetFrontend -> step 5
///   7. remote    ShardedRegistry::SubmitWith, slot 1 an in-process ShardNode
///
/// After step 7, a publish probe times PublishFromBytes every 250 ms on the
/// same fleet while it serves, and the p99 of requests sent in the 20 ms
/// after each publish.
///
/// Steps 1-2 are synchronous calls timed on the set-up worker; a request's
/// latency there is the call that answers it. Steps 3-7 are closed loops at
/// the workload's concurrency; their latency is the p50 per request. A
/// layer's cost is the difference between neighbouring steps on the
/// workload's own path.

namespace servebench {

struct LadderSpec {
  Mix mix = Mix::kPoint;
  uint64_t seed = 1;
  size_t window = 64;      ///< Requests in flight (steps 3-7).
  size_t batch_rows = 64;  ///< Rows per Predict / GEMM call (steps 1-2).
  bool curve_cache = false;
};

struct LadderResult {
  // Per-request p50 latency at each step, microseconds.
  double gemm_us = 0.0;
  double model_us = 0.0;
  double scheduler_us = 0.0;
  double server_us = 0.0;
  double router_us = 0.0;
  double wire_us = 0.0;
  double remote_us = 0.0;

  // tensor: GEMM at batch_rows (bytes computed from the shapes).
  double gemm_ns_per_row = 0.0;
  double gemm_gflops = 0.0;
  double gemm_bytes_per_row = 0.0;
  // core: direct calls on the model.
  double predict_us_per_row = 0.0;
  double sweep_us_per_call = 0.0;
  double curve_us_per_call = 0.0;
  // scheduler: row wait before its batch starts computing.
  double queue_us_p50 = 0.0;
  double queue_us_p99 = 0.0;
  // wire
  double wire_syscalls_per_req = 0.0;
  // remote: p50 of remote-primary minus local-primary requests in step 7.
  double remote_hop_us_p50 = 0.0;
  uint64_t failover_attempts = 0;
  // registry: publish probe.
  double publish_ms = 0.0;
  double post_swap_p99_ms = 0.0;

  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Failed or checker-rejected responses.
};

LadderResult RunLadder(const Setup& setup, Checker* checker,
                       const LadderSpec& spec);

/// \brief p99 (ms) of requests sent within `window_s` after any publish.
double PostSwapP99Ms(const PassResult& pass, double window_s);

}  // namespace servebench
