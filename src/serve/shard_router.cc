#include "serve/shard_router.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <thread>
#include <utility>

#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "serve/admission.h"
#include "serve/update_pipeline.h"
#include "serve/wire.h"
#include "util/backoff.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace selnet::serve {

using util::Result;
using util::Status;

// --------------------------------------------------------------- HashRing ---

uint64_t HashRing::Hash(const std::string& s) {
  // FNV-1a 64-bit with a murmur3 finalizer. FNV alone is stable but its
  // high bits cluster badly on short sequential strings ("shard-0#1",
  // "route/17"…) — measured 4-shard loads of 400/500/1000/100 — and ring
  // balance lives entirely in the hash's uniformity; the finalizer's
  // avalanche restores it. Not std::hash: placement is a wire-visible
  // contract and must agree across binaries and library versions.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

HashRing::HashRing(size_t shards, size_t virtual_nodes)
    : num_shards_(shards) {
  SEL_CHECK_MSG(shards >= 1, "HashRing needs at least one shard");
  size_t points = std::max<size_t>(1, virtual_nodes);
  ring_.reserve(shards * points);
  for (size_t s = 0; s < shards; ++s) {
    for (size_t v = 0; v < points; ++v) {
      ring_.push_back(Point{
          Hash("shard-" + std::to_string(s) + "#" + std::to_string(v)),
          uint32_t(s)});
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t HashRing::ShardOf(const std::string& route) const {
  if (num_shards_ == 1) return 0;
  uint64_t h = Hash(route);
  // First ring point clockwise from the route's hash; wrap to the start.
  auto it = std::lower_bound(ring_.begin(), ring_.end(), Point{h, 0});
  if (it == ring_.end()) it = ring_.begin();
  return it->shard;
}

std::vector<size_t> HashRing::ReplicasOf(const std::string& route,
                                         size_t r) const {
  r = std::min(std::max<size_t>(1, r), num_shards_);
  std::vector<size_t> out;
  out.reserve(r);
  if (num_shards_ == 1 || r == 1) {
    out.push_back(ShardOf(route));
    return out;
  }
  uint64_t h = Hash(route);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), Point{h, 0});
  // Walk clockwise collecting DISTINCT shards; the first is ShardOf by
  // construction, so replica sets always extend the primary placement.
  for (size_t steps = 0; steps < ring_.size() && out.size() < r; ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    size_t shard = it->shard;
    if (std::find(out.begin(), out.end(), shard) == out.end()) {
      out.push_back(shard);
    }
    ++it;
  }
  return out;
}

const char* ShardHealthName(ShardHealth h) {
  switch (h) {
    case ShardHealth::kHealthy:   return "healthy";
    case ShardHealth::kSuspect:   return "suspect";
    case ShardHealth::kDead:      return "dead";
    case ShardHealth::kResyncing: return "resyncing";
  }
  return "unknown";
}

namespace {

/// How a failed attempt steers the failover chain.
enum class RetryClass {
  kFinal,        ///< Deterministic verdict (bad shape, overload shed).
  kNextReplica,  ///< Another replica might answer; this one is healthy.
  kMarkSuspect,  ///< Another replica might answer; this one looks down/gray.
};

/// A failed attempt's stable token (the failover attempt counter's label)
/// and its retry class. Typed RemoteErrors only: kUnavailable (never sent) /
/// kIoError (possibly completed — estimates are pure reads, so re-asking is
/// safe) / kDeadlineExceeded (the RECV bound, a gray shard; the request's
/// own deadline is checked separately) mark the replica suspect and move on.
/// kNotFound means THAT replica doesn't hold the route — a rejoining shard
/// awaiting re-sync, or a route that replicates to local slots only — while
/// another replica may; the replica itself answered promptly, so it stays
/// healthy (marking it suspect would tear down its data connection on every
/// request to such a route). Anything else is deterministic or final.
struct Failure {
  const char* reason;
  RetryClass retry;
};

Failure Classify(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const RemoteError& e) {
    switch (e.code()) {
      case util::StatusCode::kUnavailable:
        return {"unavailable", RetryClass::kMarkSuspect};
      case util::StatusCode::kIoError:
        return {"io_error", RetryClass::kMarkSuspect};
      case util::StatusCode::kDeadlineExceeded:
        return {"recv_timeout", RetryClass::kMarkSuspect};
      case util::StatusCode::kNotFound:
        return {"not_found", RetryClass::kNextReplica};
      default:
        return {"internal", RetryClass::kFinal};
    }
  } catch (const OverloadError&) {
    return {"overload", RetryClass::kFinal};
  } catch (...) {
    return {"other", RetryClass::kFinal};
  }
}

}  // namespace

// ---------------------------------------------------------------- Replicas ---

/// One ring slot; the router drives every slot through this interface
/// alone. The defaults describe a replica that is always healthy: no
/// failover state to keep, nothing to probe or scrape.
class ShardedRegistry::Replica {
 public:
  Replica(ShardedRegistry* owner, size_t slot) : owner_(owner), slot_(slot) {}
  virtual ~Replica() = default;

  /// Label in metrics and events: "shard-<slot>" or the remote endpoint.
  virtual std::string name() const = 0;
  virtual void SubmitWith(EstimateRequest req,
                          SelNetServer::ResponseFn done) = 0;
  /// Install `model`, or `bytes` when `model` is null; `frames` counts the
  /// state-transfer frames shipped. Version 0 = skipped: the replica takes
  /// bytes only, and the model made none.
  virtual Result<uint64_t> Publish(
      const std::string& route, const std::shared_ptr<eval::Estimator>& model,
      const std::string& bytes, const std::string& origin,
      uint64_t* frames) = 0;
  /// The slot's fleet-table row; appends to `merge` (if non-null) the stats
  /// that belong in the fleet totals.
  virtual SlotSnapshot Describe(Clock::time_point now,
                                std::vector<StatsSnapshot>* merge) const = 0;
  /// Wait until all it accepted has answered; waits on another process end
  /// at `deadline`.
  virtual void Drain(Clock::time_point deadline) = 0;
  virtual SelNetServer* server() { return nullptr; }  ///< In-process only.

  virtual ShardHealth health() const { return ShardHealth::kHealthy; }
  /// True when the router must count and judge this replica's failures, so
  /// even a single-replica route takes the failover chain.
  virtual bool supervised() const { return false; }
  virtual void MarkSuspect() {}          ///< A data-path failure was seen.
  virtual void Heal(bool /*forced*/) {}  ///< Health-loop probe + re-admit.
  virtual void Scrape() {}               ///< Cache stats for the fleet view.
  virtual void CloseData() {}  ///< Fail completions awaiting another process.
  virtual Clock::time_point state_since() const { return owner_->start_; }

 protected:
  ShardedRegistry* const owner_;
  const size_t slot_;
};

/// A pool slice and the SelNetServer running on it. Always healthy.
class ShardedRegistry::LocalReplica final : public Replica {
 public:
  LocalReplica(ShardedRegistry* owner, size_t slot, size_t threads)
      : Replica(owner, slot), pool_(threads), server_([&] {
          ServerConfig cfg = owner->cfg_.server;
          cfg.scheduler.pool = &pool_;
          return cfg;
        }()) {}

  std::string name() const override { return "shard-" + std::to_string(slot_); }
  void SubmitWith(EstimateRequest req,
                  SelNetServer::ResponseFn done) override {
    server_.SubmitWith(std::move(req), std::move(done));
  }
  Result<uint64_t> Publish(const std::string& route,
                           const std::shared_ptr<eval::Estimator>& model,
                           const std::string& bytes, const std::string& origin,
                           uint64_t* /*frames*/) override {
    if (model != nullptr) return server_.Publish(route, model);
    return server_.PublishFromBytes(route, bytes, origin);
  }
  SlotSnapshot Describe(Clock::time_point now,
                        std::vector<StatsSnapshot>* merge) const override {
    if (merge != nullptr) merge->push_back(server_.stats().Snapshot());
    SlotSnapshot row;
    row.slot = slot_;
    row.kind = "local";
    row.endpoint = "in-process";
    row.health = ShardHealthName(ShardHealth::kHealthy);
    row.node_id = owner_->cfg_.node_id;
    row.uptime_s = std::chrono::duration<double>(now - owner_->start_).count();
    return row;
  }
  void Drain(Clock::time_point) override { server_.Drain(); }
  SelNetServer* server() override { return &server_; }

 private:
  util::ThreadPool pool_;  ///< Outlives the server, which drains onto it.
  mutable SelNetServer server_;
};

/// A RemoteShard proxy plus its failover state. `health_` is the
/// cross-thread hot field; backoff and not_before belong to the health loop;
/// the scrape cache and the state clock live under `mu_` (read by snapshot
/// and metrics scrapers, written by the health loop and transitions).
class ShardedRegistry::RemoteReplica final : public Replica {
 public:
  RemoteReplica(ShardedRegistry* owner, size_t slot,
                const RemoteShardConfig& cfg)
      : Replica(owner, slot), shard_(cfg) {}

  std::string name() const override { return shard_.endpoint(); }
  void SubmitWith(EstimateRequest req,
                  SelNetServer::ResponseFn done) override {
    shard_.SubmitWith(std::move(req), std::move(done));
  }
  Result<uint64_t> Publish(const std::string& route,
                           const std::shared_ptr<eval::Estimator>&,
                           const std::string& bytes, const std::string&,
                           uint64_t* frames) override {
    if (bytes.empty()) return uint64_t{0};
    return shard_.PublishBytes(route, bytes, frames);
  }

  SlotSnapshot Describe(Clock::time_point now,
                        std::vector<StatsSnapshot>* merge) const override {
    SlotSnapshot row;
    row.slot = slot_;
    row.kind = "remote";
    row.endpoint = name();
    row.health = ShardHealthName(health());
    row.pending = shard_.pending();
    std::lock_guard<std::mutex> lock(mu_);
    if (scrape_at_ == Clock::time_point{}) return row;
    // Merged histograms give TRUE pooled fleet percentiles (the merge is
    // associative — util/histogram.h). A scrape past the TTL stays out of the
    // merge, so a long-dead node cannot freeze the fleet view.
    const double age_ms =
        std::chrono::duration<double, std::milli>(now - scrape_at_).count();
    row.scrape_age_s = age_ms / 1000.0;
    row.node_id = scrape_.node_id;
    row.uptime_s = scrape_.uptime_s;
    const double ttl_ms = owner_->cfg_.scrape_ttl_ms;
    if (merge != nullptr && (ttl_ms <= 0 || age_ms <= ttl_ms)) {
      merge->push_back(scrape_);
    }
    return row;
  }

  /// In-flight requests complete on the reader thread (a reply, a recv
  /// timeout or a lost connection), so pending() converges; the deadline
  /// covers a remote without a recv timeout and requests without deadlines.
  void Drain(Clock::time_point deadline) override {
    while (shard_.pending() > 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ShardHealth health() const override {
    return ShardHealth(health_.load(std::memory_order_acquire));
  }
  bool supervised() const override { return true; }

  void MarkSuspect() override {
    int expected = int(ShardHealth::kHealthy);
    if (health_.compare_exchange_strong(expected, int(ShardHealth::kSuspect),
                                        std::memory_order_acq_rel)) {
      Transition(ShardHealth::kHealthy, ShardHealth::kSuspect);
      owner_->NudgeHealth();
    }
  }

  void Heal(bool forced) override {
    if (health() == ShardHealth::kHealthy) return;
    Clock::time_point start = Clock::now();
    if (!forced && not_before_ != Clock::time_point{} && start < not_before_) {
      return;
    }
    Status st = Admit();
    owner_->metrics_
        .GetSummary("selnet_health_probe_ms", {{"endpoint", name()}})
        ->Record(std::chrono::duration<double, std::milli>(Clock::now() -
                                                           start)
                     .count());
    if (st.ok()) {
      SetHealth(ShardHealth::kHealthy);
      backoff_.Reset();
      not_before_ = {};
    } else {
      SetHealth(ShardHealth::kDead);
      not_before_ = Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            backoff_.NextDelayMs()));
    }
  }

  void Scrape() override {
    if (health() != ShardHealth::kHealthy) return;  // Probing is Heal's job.
    Result<StatsSnapshot> snap = shard_.ScrapeStats();
    // Best-effort: on error the fleet view just ages; failure handling
    // belongs to the health machinery (the data path or next probe).
    owner_->metrics_
        .GetCounter("selnet_scrape_total",
                    {{"endpoint", name()}, {"result", snap.ok() ? "ok" : "error"}})
        ->Increment();
    if (!snap.ok()) return;
    std::lock_guard<std::mutex> lock(mu_);
    scrape_ = snap.MoveValueUnsafe();
    scrape_at_ = Clock::now();
  }

  void CloseData() override { shard_.CloseData(); }

  Clock::time_point state_since() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return since_ == Clock::time_point{} ? owner_->start_ : since_;
  }

 private:
  /// Probe + re-admit: health check, re-publish every owned route from the
  /// retained bytes, reconnect the data path. Runs on the health loop or the
  /// router's constructor, never on the shard's own reader thread, so the
  /// CloseData of a gray shard's lingering connection is safe here.
  Status Admit() {
    shard_.CloseData();
    SEL_RETURN_NOT_OK(shard_.HealthCheck());
    SetHealth(ShardHealth::kResyncing);
    // A restarted shard_node is EMPTY — re-admitting without this would
    // serve NotFound from a "healthy" replica. Publishing is idempotent on
    // content (versions bump, estimates stay bit-identical), so a surviving
    // process just gets a redundant swap.
    for (const auto& [route, bytes] : owner_->RetainedFor(slot_)) {
      uint64_t frames = 0;
      auto v = shard_.PublishBytes(route, bytes, &frames);
      owner_->RecordPublishResult(name(), v.ok(), bytes.size(), frames);
      if (!v.ok()) return v.status();
    }
    return shard_.Connect();
  }

  /// Store the new state (skipping no-op changes) and record the change.
  void SetHealth(ShardHealth to) {
    auto from = ShardHealth(health_.exchange(int(to), std::memory_order_acq_rel));
    if (from != to) Transition(from, to);
  }

  /// Stamp the state clock and record one observed `from -> to` transition
  /// in the counter + event ring (the caller already swapped the state).
  void Transition(ShardHealth from, ShardHealth to) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      since_ = Clock::now();
    }
    const std::string ep = name();
    owner_->metrics_
        .GetCounter("selnet_health_transitions_total",
                    {{"endpoint", ep},
                     {"from", ShardHealthName(from)},
                     {"to", ShardHealthName(to)}})
        ->Increment();
    owner_->events_.Push("health", ep, ShardHealthName(from),
                         ShardHealthName(to));
  }

  RemoteShard shard_;
  std::atomic<int> health_{int(ShardHealth::kDead)};
  util::Backoff backoff_{{/*base_ms=*/20.0, /*cap_ms=*/2000.0}};
  Clock::time_point not_before_{};

  mutable std::mutex mu_;
  StatsSnapshot scrape_;           ///< Last stats_wire fetch.
  Clock::time_point scrape_at_{};  ///< When; epoch = never scraped.
  Clock::time_point since_{};      ///< Entered the current health state.
};

// --------------------------------------------------------- ShardedRegistry ---

ShardedRegistry::ShardedRegistry(const ShardedConfig& cfg)
    : cfg_(cfg),
      num_shards_(std::max<size_t>(1, cfg.num_shards)),
      ring_(num_shards_ + cfg.remotes.size(), cfg.virtual_nodes) {
  SEL_CHECK_MSG(cfg_.server.scheduler.pool == nullptr,
                "ShardedConfig.server.scheduler.pool must be null: each "
                "shard owns its pool slice");
  size_t threads = cfg_.threads_per_shard;
  if (threads == 0) {
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    threads = std::max<size_t>(1, hw / num_shards_);
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    replicas_.push_back(std::make_unique<LocalReplica>(this, s, threads));
  }
  for (const RemoteShardConfig& rcfg : cfg_.remotes) {
    replicas_.push_back(
        std::make_unique<RemoteReplica>(this, replicas_.size(), rcfg));
  }
  // Admit reachable remotes synchronously so a fleet whose nodes are already
  // up serves from the first request; the rest stay dead until the health
  // loop brings them in.
  for (auto& replica : replicas_) replica->Heal(/*forced=*/true);
  if (!cfg_.remotes.empty()) {
    health_ = std::thread(&ShardedRegistry::HealthLoop, this);
  }
}

ShardedRegistry::~ShardedRegistry() {
  pipelines_.clear();  // A worker mid-retrain publishes through this router.
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_.joinable()) health_.join();
  // Fail every remote's in-flight completions while the failover chain can
  // still land retries on live slots; then the replicas go (each server
  // drains onto its pool) before the metrics their completions record into.
  for (auto& replica : replicas_) replica->CloseData();
  replicas_.clear();
}

ShardedRegistry::Replica& ShardedRegistry::At(size_t slot) const {
  SEL_CHECK_MSG(slot < replicas_.size(),
                ("ShardedRegistry: slot " + std::to_string(slot) +
                 " out of range (num_slots " +
                 std::to_string(replicas_.size()) + ")")
                    .c_str());
  return *replicas_[slot];
}

SelNetServer& ShardedRegistry::shard(size_t i) {
  SelNetServer* server = At(i).server();
  SEL_CHECK_MSG(server != nullptr,
                ("ShardedRegistry: slot " + std::to_string(i) +
                 " is not a local shard")
                    .c_str());
  return *server;
}

SelNetServer* ShardedRegistry::LocalServerOf(const std::string& route) {
  for (size_t slot : ReplicasOf(route)) {
    if (SelNetServer* server = replicas_[slot]->server()) return server;
  }
  return nullptr;
}

size_t ShardedRegistry::ShardOf(const std::string& route) const {
  return ring_.ShardOf(route.empty() ? cfg_.server.model_name : route);
}

std::vector<size_t> ShardedRegistry::ReplicasOf(
    const std::string& route) const {
  return ring_.ReplicasOf(route.empty() ? cfg_.server.model_name : route,
                          std::max<size_t>(1, cfg_.replication));
}

const std::string& ShardedRegistry::EffectiveRoute(
    const EstimateRequest& req) const {
  return req.model.empty() ? cfg_.server.model_name : req.model;
}

ShardHealth ShardedRegistry::slot_health(size_t slot) const {
  return At(slot).health();
}

void ShardedRegistry::NudgeHealth() {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_nudge_ = true;
  }
  health_cv_.notify_all();
}

void ShardedRegistry::RecordPublishResult(const std::string& replica,
                                          bool accepted, size_t bytes,
                                          uint64_t frames) {
  metrics_
      .GetCounter("selnet_publish_replica_total",
                  {{"replica", replica},
                   {"result", accepted ? "accept" : "reject"}})
      ->Increment();
  if (!accepted) {
    events_.Push("publish", replica, "", "reject");
    return;
  }
  if (frames > 0) {
    // The accept rode the state-transfer protocol: count what it shipped.
    metrics_
        .GetCounter("selnet_transfer_tx_bytes_total", {{"replica", replica}})
        ->Increment(bytes);
    metrics_
        .GetCounter("selnet_transfer_tx_frames_total", {{"replica", replica}})
        ->Increment(frames);
    events_.Push("transfer", replica, "", std::to_string(bytes) + " bytes");
  }
}

std::vector<std::pair<std::string, std::string>> ShardedRegistry::RetainedFor(
    size_t slot) const {
  std::vector<std::pair<std::string, std::string>> owned;
  std::lock_guard<std::mutex> lock(publish_mu_);
  for (const auto& [route, bytes] : published_bytes_) {
    std::vector<size_t> replicas = ReplicasOf(route);
    if (std::find(replicas.begin(), replicas.end(), slot) != replicas.end()) {
      owned.emplace_back(route, bytes);
    }
  }
  return owned;
}

uint64_t ShardedRegistry::Publish(std::shared_ptr<eval::Estimator> model) {
  return Publish(cfg_.server.model_name, std::move(model));
}

uint64_t ShardedRegistry::Publish(const std::string& name,
                                  std::shared_ptr<eval::Estimator> model) {
  // Serialize once when the fleet has remote slots: remote replicas receive
  // bytes over state transfer, and the SAME bytes are retained so a crashed
  // replica can be re-synced. A purely local fleet makes no bytes.
  std::string bytes;
  if (!cfg_.remotes.empty()) {
    if (const auto* ct = dynamic_cast<const core::SelNetCt*>(model.get())) {
      auto serialized = core::SaveModelBytes(*ct);
      if (serialized.ok()) bytes = serialized.MoveValueUnsafe();
    }
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (!bytes.empty()) {
      published_bytes_[name] = bytes;
    } else if (published_bytes_.count(name) > 0) {
      // Installing it locally would split the route: remote replicas, and
      // every later resync from the retained bytes, keep the old model.
      util::LogInfo(
          "shard_router: route '%s' has retained model bytes but the new "
          "model cannot serialize for state transfer; publish refused",
          name.c_str());
      return 0;
    } else {
      // Loud, not silent: the ring may still place this route's primary on
      // a remote slot, which will answer not_found (the failover chain then
      // falls through to the local replicas that do hold it).
      util::LogInfo(
          "shard_router: route '%s': model cannot serialize for state "
          "transfer; replicating to local slots only (remote replicas will "
          "answer not_found and failover falls through)",
          name.c_str());
    }
  }
  Result<uint64_t> version = FanOut(name, model, bytes, "", /*retain=*/false);
  if (!version.ok()) {
    util::LogInfo(
        "shard_router: publish of route '%s' reached no replica; returning "
        "version 0 (the health loop re-syncs remotes from retained bytes)",
        name.c_str());
    return 0;
  }
  return version.ValueOrDie();
}

Result<uint64_t> ShardedRegistry::PublishFromBytes(const std::string& name,
                                                   const std::string& bytes,
                                                   const std::string& origin) {
  return FanOut(name, nullptr, bytes, origin,
                /*retain=*/!cfg_.remotes.empty());
}

Result<uint64_t> ShardedRegistry::FanOut(
    const std::string& name, const std::shared_ptr<eval::Estimator>& model,
    const std::string& bytes, const std::string& origin, bool retain) {
  // The FIRST replica that accepts decides the call. One dead replica must
  // not block a publish (the health loop re-syncs it from the retained
  // bytes); bad bytes fail on every replica, fail the call, and are not kept.
  bool accepted = false;
  uint64_t version = 0;
  Status last_error = Status::Internal("no replicas");
  for (size_t slot : ReplicasOf(name)) {
    Replica& replica = *replicas_[slot];
    uint64_t frames = 0;
    Result<uint64_t> v = replica.Publish(name, model, bytes, origin, &frames);
    if (v.ok() && v.ValueOrDie() == 0) continue;  // Needs bytes; none made.
    RecordPublishResult(replica.name(), v.ok(), bytes.size(), frames);
    if (!v.ok()) {
      last_error = v.status();
      replica.MarkSuspect();  // The health loop re-syncs it from the bytes.
      continue;
    }
    if (!accepted) {
      accepted = true;
      version = v.ValueOrDie();
      std::lock_guard<std::mutex> lock(publish_mu_);
      if (retain) published_bytes_[name] = bytes;
    }
  }
  if (!accepted) return last_error;
  return version;
}

void ShardedRegistry::SubmitWith(EstimateRequest req,
                                 SelNetServer::ResponseFn done) {
  std::vector<size_t> replicas = OrderedReplicas(EffectiveRoute(req));
  Replica& first = *replicas_[replicas[0]];
  if (replicas.size() == 1 && !first.supervised()) {
    // Nothing to fail over to or watch: no request copy, no failover frame.
    first.SubmitWith(std::move(req), std::move(done));
    return;
  }
  auto fo = std::make_shared<Failover>();
  fo->req = std::move(req);
  fo->done = std::move(done);
  fo->replicas = std::move(replicas);
  TryReplica(fo, 0, nullptr);
}

std::vector<size_t> ShardedRegistry::OrderedReplicas(
    const std::string& route) const {
  std::vector<size_t> ring_order =
      ring_.ReplicasOf(route, std::max<size_t>(1, cfg_.replication));
  if (ring_order.size() <= 1) return ring_order;
  std::vector<size_t> out;
  out.reserve(ring_order.size());
  for (size_t slot : ring_order) {
    if (replicas_[slot]->health() == ShardHealth::kHealthy) out.push_back(slot);
  }
  for (size_t slot : ring_order) {
    if (replicas_[slot]->health() != ShardHealth::kHealthy) out.push_back(slot);
  }
  return out;
}

void ShardedRegistry::TryReplica(const std::shared_ptr<Failover>& fo,
                                 size_t idx, std::exception_ptr last_error) {
  if (idx >= fo->replicas.size()) {
    EstimateResponse resp;
    resp.tag = fo->req.tag;
    if (!last_error) {
      last_error = std::make_exception_ptr(RemoteError(
          util::StatusCode::kUnavailable,
          "route \"" + fo->req.model + "\": no replica answered"));
    }
    fo->done(std::move(resp), last_error);
    return;
  }
  if (idx > 0 && fo->req.has_deadline() &&
      Clock::now() >= fo->req.deadline) {
    EstimateResponse resp;
    resp.tag = fo->req.tag;
    fo->done(std::move(resp),
             std::make_exception_ptr(OverloadError(
                 ShedReason::kDeadlineExpired,
                 "deadline exhausted during replica failover")));
    return;
  }
  size_t slot = fo->replicas[idx];
  EstimateRequest attempt = fo->req;  // Retries need the original intact.
  replicas_[slot]->SubmitWith(
      std::move(attempt),
      [this, fo, idx, slot](EstimateResponse&& resp, std::exception_ptr error) {
        if (error == nullptr) {
          if (idx > 0) {
            // The request survived a failover: idx replicas were walked
            // past before this one answered.
            metrics_.GetCounter("selnet_failover_successes_total")
                ->Increment();
            metrics_.GetCounter("selnet_failover_replicas_walked_total")
                ->Increment(idx);
            events_.Push("failover", EffectiveRoute(fo->req),
                         "slot " + std::to_string(fo->replicas[0]),
                         "slot " + std::to_string(slot));
          }
          fo->done(std::move(resp), nullptr);
          return;
        }
        Failure failure = Classify(error);
        metrics_
            .GetCounter("selnet_failover_attempts_total",
                        {{"reason", failure.reason}})
            ->Increment();
        if (failure.retry != RetryClass::kFinal) {
          if (failure.retry == RetryClass::kMarkSuspect) {
            replicas_[slot]->MarkSuspect();
          }
          TryReplica(fo, idx + 1, error);
          return;
        }
        fo->done(std::move(resp), error);
      });
}

void ShardedRegistry::HealthLoop() {
  std::unique_lock<std::mutex> lock(health_mu_);
  while (!health_stop_) {
    health_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(
            std::max(1.0, cfg_.health_interval_ms)),
        [this] { return health_stop_ || health_nudge_; });
    bool forced = health_nudge_;  // A nudge overrides per-slot backoff gates.
    health_nudge_ = false;
    if (health_stop_) return;
    lock.unlock();
    for (auto& replica : replicas_) replica->Heal(forced);
    // Scrape tick: piggybacks on the health cadence (so the effective scrape
    // period is max(scrape_interval_ms, health_interval_ms)), touching only
    // HEALTHY replicas — probing the sick ones is Heal's job.
    if (cfg_.scrape_interval_ms > 0) {
      Clock::time_point snow = Clock::now();
      if (next_scrape_ == Clock::time_point{} || snow >= next_scrape_) {
        ScrapeNow();
        next_scrape_ =
            snow + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           cfg_.scrape_interval_ms));
      }
    }
    lock.lock();
  }
}

void ShardedRegistry::ScrapeNow() {
  for (auto& replica : replicas_) replica->Scrape();
}

LiveUpdatePipeline& ShardedRegistry::AttachUpdatePipeline(
    const UpdatePipelineConfig& cfg, const data::Database& db,
    const data::Workload& workload) {
  const std::string route =
      cfg.model_name.empty() ? cfg_.server.model_name : cfg.model_name;
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  std::unique_ptr<LiveUpdatePipeline>& slot = pipelines_[route];
  slot.reset();  // Stop a previous pipeline of this route before the next.
  slot = std::make_unique<LiveUpdatePipeline>(this, cfg, db, workload);
  return *slot;
}

void ShardedRegistry::Drain() {
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             std::max(0.0, cfg_.drain_remote_timeout_ms)));
  for (auto& replica : replicas_) replica->Drain(deadline);
}

std::vector<StatsSnapshot> ShardedRegistry::ShardSnapshots() const {
  std::vector<StatsSnapshot> out;
  out.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    out.push_back(replicas_[s]->server()->stats().Snapshot());
  }
  return out;
}

StatsSnapshot ShardedRegistry::AggregateSnapshot() const {
  const Clock::time_point now = Clock::now();
  std::vector<StatsSnapshot> snaps;
  std::vector<SlotSnapshot> slots;
  slots.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    slots.push_back(replica->Describe(now, &snaps));
  }
  StatsSnapshot agg = AggregateSnapshots(snaps);
  agg.node_id = cfg_.node_id;
  agg.uptime_s = std::chrono::duration<double>(now - start_).count();
  agg.slots = std::move(slots);
  return agg;
}

std::string ShardedRegistry::MetricsText() const {
  // Refresh the time-in-state gauges right before rendering: "how long in
  // the current state" only has a value at observation time. Which state it
  // is lives in the snapshot's slot table; this series is just the clock.
  const Clock::time_point now = Clock::now();
  for (const auto& replica : replicas_) {
    metrics_
        .GetGauge("selnet_slot_state_seconds", {{"endpoint", replica->name()}})
        ->Set(std::chrono::duration<double>(now - replica->state_since())
                  .count());
  }
  return metrics_.RenderText();
}

std::string ShardedRegistry::EventsJson() const {
  std::vector<util::Event> events = events_.Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    JsonWriter w;
    w.Field("seq", events[i].seq);
    w.Field("unix_ms", uint64_t(events[i].unix_ms));
    w.Field("kind", events[i].kind);
    w.Field("target", events[i].target);
    if (!events[i].from.empty()) w.Field("from", events[i].from);
    w.Field("to", events[i].to);
    out += w.Finish();
  }
  out += "]";
  return out;
}

std::vector<SpanRecord> ShardedRegistry::SlowSpans() const {
  std::vector<SpanRecord> out;
  for (size_t s = 0; s < num_shards_; ++s) {
    std::vector<SpanRecord> spans = replicas_[s]->server()->stats().SlowSpans();
    out.insert(out.end(), std::make_move_iterator(spans.begin()),
               std::make_move_iterator(spans.end()));
  }
  return out;
}

std::string ShardedRegistry::StatsReport() const {
  std::vector<StatsSnapshot> snaps = ShardSnapshots();
  util::AsciiTable table({"shard", "routes", "requests", "qps", "p50 ms",
                          "p99 ms", "curve hit rate", "swaps"});
  for (size_t s = 0; s < snaps.size(); ++s) {
    table.AddRow({std::to_string(s), std::to_string(snaps[s].routes.size()),
                  std::to_string(snaps[s].requests),
                  util::AsciiTable::Num(snaps[s].qps, 1),
                  util::AsciiTable::Num(snaps[s].latency_p50_ms, 4),
                  util::AsciiTable::Num(snaps[s].latency_p99_ms, 4),
                  util::AsciiTable::Num(CurveHitRate(snaps[s]), 4),
                  std::to_string(snaps[s].swaps)});
  }
  StatsSnapshot agg = AggregateSnapshots(snaps);
  table.AddRow({"total", std::to_string(agg.routes.size()),
                std::to_string(agg.requests),
                util::AsciiTable::Num(agg.qps, 1),
                util::AsciiTable::Num(agg.latency_p50_ms, 4),
                util::AsciiTable::Num(agg.latency_p99_ms, 4),
                util::AsciiTable::Num(CurveHitRate(agg), 4),
                std::to_string(agg.swaps)});
  std::string out = "sharded serving (" + std::to_string(num_shards_) +
                    " shards)\n" + table.ToString();
  // Per-route placement: which shard owns what (the A/B view, sharded).
  if (!agg.routes.empty()) {
    util::AsciiTable routes({"route", "shard", "requests", "p50 ms", "p99 ms",
                             "curve hit rate"});
    for (size_t s = 0; s < snaps.size(); ++s) {
      for (const auto& r : snaps[s].routes) {
        routes.AddRow({r.route, std::to_string(s),
                       std::to_string(r.requests),
                       util::AsciiTable::Num(r.latency_p50_ms, 4),
                       util::AsciiTable::Num(r.latency_p99_ms, 4),
                       util::AsciiTable::Num(CurveHitRate(r), 4)});
      }
    }
    out += "\n" + routes.ToString();
  }
  // Fleet view: every replica, its failover state, and how fresh the
  // coordinator's view of it is.
  if (!cfg_.remotes.empty()) {
    const Clock::time_point now = Clock::now();
    util::AsciiTable fleet({"slot", "endpoint", "health", "in state s",
                            "scrape age s", "node", "pending"});
    for (const auto& replica : replicas_) {
      SlotSnapshot row = replica->Describe(now, nullptr);
      fleet.AddRow(
          {std::to_string(row.slot), row.endpoint, row.health,
           util::AsciiTable::Num(
               std::chrono::duration<double>(now - replica->state_since())
                   .count(),
               1),
           row.scrape_age_s < 0 ? "-"
                                : util::AsciiTable::Num(row.scrape_age_s, 1),
           row.node_id.empty() ? "-" : row.node_id,
           std::to_string(row.pending)});
    }
    out += "\nreplicas (replication R=" +
           std::to_string(std::max<size_t>(1, cfg_.replication)) + ")\n" +
           fleet.ToString();
    // The failover/transfer story in one line (summed over labels).
    out += "fleet counters: transitions=" +
           std::to_string(metrics_.CounterTotal(
               "selnet_health_transitions_total")) +
           " failover_attempts=" +
           std::to_string(
               metrics_.CounterTotal("selnet_failover_attempts_total")) +
           " failover_successes=" +
           std::to_string(
               metrics_.CounterTotal("selnet_failover_successes_total")) +
           " publishes=" +
           std::to_string(
               metrics_.CounterTotal("selnet_publish_replica_total")) +
           " transfer_tx_bytes=" +
           std::to_string(
               metrics_.CounterTotal("selnet_transfer_tx_bytes_total")) +
           " scrapes=" +
           std::to_string(metrics_.CounterTotal("selnet_scrape_total")) + "\n";
  }
  return out;
}

}  // namespace selnet::serve
