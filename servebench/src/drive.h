#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checker.h"
#include "proc.h"
#include "serve/server.h"
#include "setup.h"
#include "util/rng.h"

/// \file drive.h
/// \brief Request streams and the load drivers every workload and ladder
/// step shares: a closed loop (a window of requests in flight per lane,
/// refilled in bursts) and an open loop (Poisson arrivals at a fixed
/// absolute rate, each request timed from its scheduled send time).
///
/// One driver thread sends everything; completions arrive on whatever thread
/// the entry point answers from and go through the Checker.

namespace servebench {

/// \brief Request shape of a workload.
enum class Mix {
  kPoint,  ///< One threshold; query uniform over all; t uniform in (0, tmax].
  kSweep,  ///< K = 16 sorted thresholds at a random offset; 80% of queries
           ///  from a 32-query hot set.
  kFleet,  ///< 90% kPoint, 10% kSweep-shaped sweeps over all queries.
};

inline constexpr size_t kSweepK = 16;
/// Length of the segments a pass is summarized over; steal is read at every
/// segment boundary.
inline constexpr double kSegmentS = 0.25;
inline constexpr size_t kHotQueries = 32;

/// \brief The request stream of one mix, reproducible from its seed.
class RequestGen {
 public:
  RequestGen(const Setup& setup, Mix mix, uint64_t seed);
  /// \brief Next request: query index, sorted thresholds, route index.
  void Next(size_t* qi, std::vector<float>* ts, size_t* route);

 private:
  void Point(size_t* qi, std::vector<float>* ts);
  void Sweep(bool hot, size_t* qi, std::vector<float>* ts);

  const Setup& setup_;
  Mix mix_;
  selnet::util::Rng rng_;
  std::vector<size_t> hot_;
  size_t next_route_ = 0;
};

/// \brief One answered (or failed) request.
struct Sample {
  float send_s = 0.0f;      ///< Send (or scheduled) time from pass start.
  float latency_us = 0.0f;
  uint8_t slot = 0;         ///< Primary ring slot of the request's route.
  bool ok = false;          ///< Answered and passed the inline checks.
};

/// \brief Hands a burst of requests to the entry point under test, on lane
/// (connection) `lane`. May consume the vector's contents.
using SendFn = std::function<void(
    size_t lane, std::vector<selnet::serve::SelNetServer::Submission>* batch)>;

struct DriveSpec {
  Mix mix = Mix::kPoint;
  uint64_t seed = 1;
  size_t lanes = 1;     ///< Connections (closed loop only).
  size_t window = 64;   ///< Requests in flight per lane (closed loop).
  size_t burst = 1;     ///< Requests handed over per SendFn call.
  double seconds = 0.0;      ///< Stop sending after this long (0 = no limit).
  size_t max_requests = 0;   ///< Stop after this many (0 = no limit).
  double rate = 0.0;    ///< > 0: open loop at this many requests per second.
  /// Primary ring slot per route index (Sample::slot); empty = all slot 0.
  std::vector<uint8_t> route_slot;
  /// Optional writer beside the reads: called every `publish_every_s` on a
  /// second thread while requests are being sent.
  double publish_every_s = 0.0;
  std::function<void()> publish;
  /// Samples the pass keeps room for without growing its buffer.
  size_t sample_capacity = 1 << 18;
};

struct PassResult {
  double seconds = 0.0;  ///< Length of the sending window.
  uint64_t attempted = 0;
  uint64_t completed = 0;     ///< Answered (whether or not checks passed).
  uint64_t failed = 0;        ///< Completed with an error.
  uint64_t check_failed = 0;  ///< Answered but failed an inline check.
  uint64_t thresholds = 0;    ///< Thresholds answered.
  uint64_t cache_hit_thresholds = 0;
  uint64_t fast_path = 0;     ///< Responses answered by the sweep fast path.
  std::vector<Sample> samples;
  std::vector<double> late_ms;       ///< Open loop: send time - schedule.
  std::vector<double> publish_ms;    ///< Duration of each publish.
  std::vector<double> publish_end_s; ///< When each publish returned.
  std::vector<double> segment_steal_s;  ///< /proc/stat steal per segment.
  ProcCounters proc;  ///< Counter deltas from first send to last answer.
  bool drained = true;  ///< False when answers were still missing at the end.
};

/// \brief Run one pass of `spec` against `send`, checking every answer.
PassResult Drive(const Setup& setup, Checker* checker, const DriveSpec& spec,
                 const SendFn& send);

/// \brief Summary of a pass over its quiet segments of send time, plus
/// whole-pass percentiles with their sample counts.
///
/// On a shared host other tenants take CPU from this one in bursts
/// (/proc/stat steal), and any interference only lowers throughput and adds
/// latency. A segment is quiet when its steal is at most the median segment
/// steal; over the quiet segments, qps is the upper quartile of segment
/// throughput and p50/p99 the lower quartile of segment percentiles. A
/// change to the program moves every segment, so it moves these figures;
/// a burst on the host moves a few segments, so it mostly does not.
struct Summary {
  double qps = 0.0;     ///< Quiet segments: upper quartile of answered/s.
  double p50_ms = 0.0;  ///< Quiet segments: lower quartile of segment p50.
  double p99_ms = 0.0;  ///< Quiet segments: lower quartile of segment p99.
  double all_p50_ms = 0.0;
  double all_p99_ms = 0.0;
  size_t samples = 0;
  size_t segments = 0;
  size_t quiet_segments = 0;
  /// Per segment: steal (s), answered/second, p99 (ms); for the log.
  std::vector<double> seg_steal_s, seg_qps, seg_p99_ms;
  double mean_latency_ms = 0.0;
  double slo_ok_share = 0.0;  ///< ok and within `slo_ms`, over attempted.
};
Summary Summarize(const PassResult& pass, double slo_ms);

/// \brief q-quantile (0..1) by nearest rank; 0 for an empty input.
double Quantile(std::vector<double> v, double q);

/// \brief SendFn that submits each request in-process through `submit`.
template <typename Target>
SendFn InProcessSend(Target* target) {
  return [target](size_t,
                  std::vector<selnet::serve::SelNetServer::Submission>* batch) {
    for (auto& sub : *batch) {
      target->SubmitWith(std::move(sub.req), std::move(sub.done));
    }
    batch->clear();
  };
}

}  // namespace servebench
