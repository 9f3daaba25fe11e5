#include "drive.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace servebench {

using namespace selnet;

namespace {

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

RequestGen::RequestGen(const Setup& setup, Mix mix, uint64_t seed)
    : setup_(setup), mix_(mix), rng_(seed) {
  // The hot set is part of the workload's definition, not of its seed:
  // which 32 queries are hot would otherwise move MAPE from seed to seed.
  std::vector<size_t> order(kQueries);
  for (size_t i = 0; i < kQueries; ++i) order[i] = i;
  util::Rng hot_rng(97);
  hot_rng.Shuffle(&order);
  hot_.assign(order.begin(), order.begin() + kHotQueries);
}

void RequestGen::Point(size_t* qi, std::vector<float>* ts) {
  *qi = size_t(rng_.UniformInt(0, int64_t(kQueries) - 1));
  // Uniform in (0, tmax]: 1 - U with U in [0, 1).
  ts->assign(1, setup_.tmax() * float(1.0 - rng_.Uniform()));
}

void RequestGen::Sweep(bool hot, size_t* qi, std::vector<float>* ts) {
  *qi = hot ? hot_[size_t(rng_.UniformInt(0, int64_t(kHotQueries) - 1))]
            : size_t(rng_.UniformInt(0, int64_t(kQueries) - 1));
  float step = setup_.tmax() / float(kSweepK);
  float offset = step * float(1.0 - rng_.Uniform());  // (0, step]
  ts->resize(kSweepK);
  for (size_t k = 0; k < kSweepK; ++k) (*ts)[k] = offset + step * float(k);
}

void RequestGen::Next(size_t* qi, std::vector<float>* ts, size_t* route) {
  switch (mix_) {
    case Mix::kPoint:
      Point(qi, ts);
      break;
    case Mix::kSweep:
      Sweep(rng_.Uniform() < 0.8, qi, ts);
      break;
    case Mix::kFleet:
      if (rng_.Uniform() < 0.9) {
        Point(qi, ts);
      } else {
        Sweep(false, qi, ts);
      }
      break;
  }
  *route = next_route_++ % setup_.routes.size();
}

namespace {

/// One driven pass: slots hold in-flight requests; completions record a
/// sample, run the checker and hand the slot back to its lane.
class Pass {
 public:
  Pass(const Setup& setup, Checker* checker, const DriveSpec& spec)
      : setup_(setup),
        checker_(checker),
        spec_(spec),
        gen_(setup, spec.mix, spec.seed),
        lanes_(spec.rate > 0 ? 1 : spec.lanes) {
    // An open loop bounds nothing; its slot pool only has to outlast any
    // backlog a stall could build.
    size_t per_lane = spec.rate > 0 ? 1 << 14 : spec.window;
    slots_.resize(lanes_ * per_lane);
    free_.resize(lanes_);
    for (size_t lane = 0; lane < lanes_; ++lane) {
      for (size_t i = 0; i < per_lane; ++i) {
        size_t idx = lane * per_lane + i;
        slots_[idx].lane = lane;
        free_[lane].push_back(uint32_t(idx));
      }
    }
    // Touch the sample buffer up front so the pass's peak RSS does not
    // depend on how many requests it completed.
    result_.samples.resize(spec.sample_capacity);
    result_.samples.clear();
  }

  PassResult Run(const SendFn& send) {
    t0_ = Clock::now();
    ProcCounters before = ProcCounters::Read();
    std::thread writer;
    if (spec_.publish && spec_.publish_every_s > 0) {
      writer = std::thread([this] { WriterLoop(); });
    }
    std::thread sampler([this] { StealLoop(); });
    if (spec_.rate > 0) {
      OpenLoop(send);
    } else {
      ClosedLoop(send);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      sending_done_ = true;
    }
    cv_.notify_all();
    background_cv_.notify_all();
    if (writer.joinable()) writer.join();
    sampler.join();
    {
      std::unique_lock<std::mutex> lock(mu_);
      result_.drained = cv_.wait_for(lock, std::chrono::seconds(30), [&] {
        return result_.completed == result_.attempted;
      });
    }
    result_.proc = ProcCounters::Read() - before;
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(result_);
  }

 private:
  struct Slot {
    size_t lane = 0;
    uint64_t seq = 0;
    size_t qi = 0;
    uint8_t slot = 0;
    std::vector<float> ts;
    Clock::time_point sent;
  };

  bool StopSending(Clock::time_point now) const {
    if (spec_.seconds > 0 && now >= t0_ + Seconds(spec_.seconds)) return true;
    return spec_.max_requests > 0 && result_.attempted >= spec_.max_requests;
  }

  static Clock::duration Seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  /// Fill slot `idx` with the next request and append it to `batch`.
  void Prepare(uint32_t idx, Clock::time_point sent,
               std::vector<serve::SelNetServer::Submission>* batch) {
    Slot& s = slots_[idx];
    size_t route = 0;
    gen_.Next(&s.qi, &s.ts, &route);
    s.seq = next_seq_++;
    s.slot = spec_.route_slot.empty() ? 0 : spec_.route_slot[route];
    s.sent = sent;
    serve::SelNetServer::Submission sub;
    sub.req = serve::EstimateRequest::Sweep(setup_.query(s.qi), kDim, s.ts,
                                            setup_.routes[route]);
    sub.done = [this, idx](serve::EstimateResponse&& resp,
                           std::exception_ptr error) {
      OnDone(idx, std::move(resp), error);
    };
    batch->push_back(std::move(sub));
  }

  void ClosedLoop(const SendFn& send) {
    std::vector<serve::SelNetServer::Submission> batch;
    std::vector<uint32_t> taken;
    size_t lane = 0;
    for (;;) {
      taken.clear();
      {
        std::unique_lock<std::mutex> lock(mu_);
        auto has_room = [&] {
          for (size_t i = 0; i < lanes_; ++i) {
            if (free_[(lane + i) % lanes_].size() >= spec_.burst) return true;
          }
          return false;
        };
        driver_waiting_ = true;
        cv_.wait_until(lock, t0_ + Seconds(std::max(spec_.seconds, 60.0)),
                       has_room);
        driver_waiting_ = false;
        if (StopSending(Clock::now()) || !has_room()) break;
        while (free_[lane].size() < spec_.burst) lane = (lane + 1) % lanes_;
        size_t n = spec_.burst;
        if (spec_.burst == 1) n = free_[lane].size();  // refill the window
        if (spec_.max_requests > 0) {
          n = std::min<size_t>(n, spec_.max_requests - result_.attempted);
        }
        for (size_t i = 0; i < n; ++i) {
          taken.push_back(free_[lane].back());
          free_[lane].pop_back();
        }
        result_.attempted += n;
      }
      Clock::time_point now = Clock::now();
      for (uint32_t idx : taken) Prepare(idx, now, &batch);
      send(lane, &batch);
      batch.clear();
      lane = (lane + 1) % lanes_;
    }
    result_.seconds = Us(Clock::now() - t0_) * 1e-6;
  }

  void OpenLoop(const SendFn& send) {
    // Sleep precisely: the default 50 us timer slack would add to every
    // scheduled send.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    util::Rng arrivals(spec_.seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<serve::SelNetServer::Submission> batch;
    Clock::time_point due = t0_;
    Clock::time_point end = t0_ + Seconds(spec_.seconds);
    while (due < end) {
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      uint32_t idx;
      {
        std::unique_lock<std::mutex> lock(mu_);
        driver_waiting_ = true;
        cv_.wait(lock, [&] { return !free_[0].empty(); });
        driver_waiting_ = false;
        idx = free_[0].back();
        free_[0].pop_back();
        ++result_.attempted;
      }
      Clock::time_point now = Clock::now();
      result_.late_ms.push_back(Us(now - due) * 1e-3);
      Prepare(idx, due, &batch);
      send(0, &batch);
      batch.clear();
      due += Seconds(-std::log(1.0 - arrivals.Uniform()) / spec_.rate);
    }
    result_.seconds = spec_.seconds;
  }

  void WriterLoop() {
    Clock::time_point next = t0_ + Seconds(spec_.publish_every_s);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      background_cv_.wait_until(lock, next, [&] { return sending_done_; });
      if (sending_done_) return;
      lock.unlock();
      Clock::time_point start = Clock::now();
      spec_.publish();
      Clock::time_point end = Clock::now();
      lock.lock();
      result_.publish_ms.push_back(Us(end - start) * 1e-3);
      result_.publish_end_s.push_back(Us(end - t0_) * 1e-6);
      next += Seconds(spec_.publish_every_s);
    }
  }

  /// Read steal at every segment boundary while requests are being sent.
  void StealLoop() {
    std::vector<double> marks = {ReadStealSeconds()};
    Clock::time_point next = t0_ + Seconds(kSegmentS);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      background_cv_.wait_until(lock, next, [&] { return sending_done_; });
      if (sending_done_) break;
      lock.unlock();
      marks.push_back(ReadStealSeconds());
      lock.lock();
      next += Seconds(kSegmentS);
    }
    for (size_t i = 1; i < marks.size(); ++i) {
      result_.segment_steal_s.push_back(marks[i] - marks[i - 1]);
    }
  }

  void OnDone(uint32_t idx, serve::EstimateResponse&& resp,
              std::exception_ptr error) {
    Clock::time_point now = Clock::now();
    Slot& s = slots_[idx];
    bool ok = !error && checker_->Check(s.seq, s.qi, s.ts, resp);
    Sample sample;
    sample.send_s = float(Us(s.sent - t0_) * 1e-6);
    sample.latency_us = float(Us(now - s.sent));
    sample.slot = s.slot;
    sample.ok = ok;
    std::lock_guard<std::mutex> lock(mu_);
    result_.samples.push_back(sample);
    ++result_.completed;
    if (error) {
      ++result_.failed;
    } else {
      if (!ok) ++result_.check_failed;
      result_.thresholds += resp.estimates.size();
      result_.cache_hit_thresholds += resp.cache_hits;
      if (resp.fast_path) ++result_.fast_path;
    }
    free_[s.lane].push_back(idx);
    // Only the driver (while sending) or Run (while draining) waits here.
    if (driver_waiting_ || sending_done_) cv_.notify_one();
  }

  const Setup& setup_;
  Checker* checker_;
  const DriveSpec& spec_;
  RequestGen gen_;  ///< Driver thread only.
  const size_t lanes_;
  std::vector<Slot> slots_;
  uint64_t next_seq_ = 0;  ///< Driver thread only.
  Clock::time_point t0_;

  std::mutex mu_;
  std::condition_variable cv_;             ///< Driver / drain waits.
  std::condition_variable background_cv_;  ///< Writer and steal sampler.
  std::vector<std::vector<uint32_t>> free_;
  bool driver_waiting_ = false;
  bool sending_done_ = false;
  PassResult result_;
};

}  // namespace

PassResult Drive(const Setup& setup, Checker* checker, const DriveSpec& spec,
                 const SendFn& send) {
  Pass pass(setup, checker, spec);
  return pass.Run(send);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = size_t(std::ceil(q * double(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank];
}

Summary Summarize(const PassResult& pass, double slo_ms) {
  Summary s;
  size_t segments = std::max<size_t>(1, size_t(pass.seconds / kSegmentS));
  std::vector<std::vector<double>> seg(segments);
  std::vector<double> all;
  all.reserve(pass.samples.size());
  uint64_t within = 0;
  double total_ms = 0.0;
  for (const Sample& x : pass.samples) {
    if (!x.ok) continue;
    double ms = double(x.latency_us) * 1e-3;
    all.push_back(ms);
    total_ms += ms;
    if (ms <= slo_ms) ++within;
    size_t i = size_t(double(x.send_s) / kSegmentS);
    if (i < segments) seg[i].push_back(ms);
  }
  std::vector<double> steal(segments, 0.0);
  for (size_t i = 0; i < segments && i < pass.segment_steal_s.size(); ++i) {
    steal[i] = pass.segment_steal_s[i];
  }
  double quiet_limit = Quantile(steal, 0.5);
  std::vector<double> qps, p50, p99;
  for (size_t i = 0; i < segments; ++i) {
    s.seg_steal_s.push_back(steal[i]);
    s.seg_qps.push_back(double(seg[i].size()) / kSegmentS);
    s.seg_p99_ms.push_back(Quantile(seg[i], 0.99));
    if (steal[i] > quiet_limit) continue;
    qps.push_back(double(seg[i].size()) / kSegmentS);
    p50.push_back(Quantile(seg[i], 0.50));
    p99.push_back(Quantile(seg[i], 0.99));
  }
  s.qps = Quantile(qps, 0.75);
  s.p50_ms = Quantile(p50, 0.25);
  s.p99_ms = Quantile(p99, 0.25);
  s.all_p50_ms = Quantile(all, 0.50);
  s.all_p99_ms = Quantile(all, 0.99);
  s.samples = all.size();
  s.segments = segments;
  s.quiet_segments = qps.size();
  s.mean_latency_ms = all.empty() ? 0.0 : total_ms / double(all.size());
  s.slo_ok_share =
      pass.attempted ? double(within) / double(pass.attempted) : 0.0;
  return s;
}

}  // namespace servebench
