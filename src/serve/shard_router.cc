#include "serve/shard_router.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iterator>
#include <thread>
#include <utility>

#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "serve/admission.h"
#include "serve/update_pipeline.h"
#include "serve/wire.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/table.h"

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

// --------------------------------------------------------- ShardedRegistry ---

ShardedRegistry::ShardedRegistry(const ShardedConfig& cfg)
    : cfg_(cfg),
      ring_(std::max<size_t>(1, cfg.num_shards) + cfg.remotes.size(),
            cfg.virtual_nodes) {
  SEL_CHECK_MSG(cfg_.server.scheduler.pool == nullptr,
                "ShardedConfig.server.scheduler.pool must be null: each "
                "shard owns its pool slice");
  size_t shards = std::max<size_t>(1, cfg_.num_shards);
  size_t threads = cfg_.threads_per_shard;
  if (threads == 0) {
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    threads = std::max<size_t>(1, hw / shards);
  }
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->pool = std::make_unique<util::ThreadPool>(threads);
    ServerConfig scfg = cfg_.server;
    scfg.scheduler.pool = shard->pool.get();
    shard->server = std::make_unique<SelNetServer>(scfg);
    shards_.push_back(std::move(shard));
  }
  remotes_.reserve(cfg_.remotes.size());
  for (const RemoteShardConfig& rcfg : cfg_.remotes) {
    auto remote = std::make_unique<Remote>();
    remote->shard = std::make_unique<RemoteShard>(rcfg);
    remotes_.push_back(std::move(remote));
  }
  // Admit reachable remotes synchronously so a fleet whose nodes are already
  // up serves from the first request; the rest stay dead until the health
  // loop brings them in.
  for (size_t i = 0; i < remotes_.size(); ++i) {
    Status st = AdmitRemote(i);
    SetRemoteHealth(i, st.ok() ? ShardHealth::kHealthy : ShardHealth::kDead);
  }
  if (!remotes_.empty()) {
    health_ = std::thread(&ShardedRegistry::HealthLoop, this);
  }
}

ShardedRegistry::~ShardedRegistry() {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_.joinable()) health_.join();
  // Fail every remote's in-flight completions while the failover chain can
  // still land retries on live slots.
  for (auto& remote : remotes_) remote->shard->CloseData();
  // Servers first (each drains onto its pool), then the pools they used.
  for (auto& shard : shards_) shard->server.reset();
  for (auto& shard : shards_) shard->pool.reset();
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
  if (IsLocalSlot(slot)) return ShardHealth::kHealthy;
  return ShardHealth(remotes_[slot - shards_.size()]->health.load(
      std::memory_order_acquire));
}

void ShardedRegistry::NudgeHealth() {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_nudge_ = true;
  }
  health_cv_.notify_all();
}

void ShardedRegistry::MarkSuspect(size_t slot) {
  if (IsLocalSlot(slot)) return;
  size_t i = slot - shards_.size();
  Remote& remote = *remotes_[i];
  int expected = int(ShardHealth::kHealthy);
  if (remote.health.compare_exchange_strong(expected,
                                            int(ShardHealth::kSuspect),
                                            std::memory_order_acq_rel)) {
    RecordTransition(i, ShardHealth::kHealthy, ShardHealth::kSuspect);
    NudgeHealth();
  }
}

void ShardedRegistry::SetRemoteHealth(size_t i, ShardHealth to) {
  Remote& remote = *remotes_[i];
  auto from = ShardHealth(
      remote.health.exchange(int(to), std::memory_order_acq_rel));
  if (from != to) RecordTransition(i, from, to);
}

void ShardedRegistry::RecordTransition(size_t i, ShardHealth from,
                                       ShardHealth to) {
  Remote& remote = *remotes_[i];
  {
    std::lock_guard<std::mutex> lock(remote.scrape_mu);
    remote.state_since = Clock::now();
  }
  const std::string ep = remote.shard->endpoint();
  metrics_
      .GetCounter("selnet_health_transitions_total",
                  {{"endpoint", ep},
                   {"from", ShardHealthName(from)},
                   {"to", ShardHealthName(to)}})
      ->Increment();
  events_.Push("health", ep, ShardHealthName(from), ShardHealthName(to));
}

void ShardedRegistry::RecordPublishResult(size_t slot, bool accepted,
                                          size_t bytes_sent,
                                          uint64_t frames_sent) {
  const std::string replica =
      IsLocalSlot(slot) ? "shard-" + std::to_string(slot)
                        : remotes_[slot - shards_.size()]->shard->endpoint();
  metrics_
      .GetCounter("selnet_publish_replica_total",
                  {{"replica", replica},
                   {"result", accepted ? "accept" : "reject"}})
      ->Increment();
  if (!accepted) {
    events_.Push("publish", replica, "", "reject");
    return;
  }
  if (bytes_sent > 0) {
    // A remote accept rode the state-transfer protocol: count the shipped
    // volume, frames as SendModelState reported writing them.
    metrics_
        .GetCounter("selnet_transfer_tx_bytes_total", {{"replica", replica}})
        ->Increment(bytes_sent);
    metrics_
        .GetCounter("selnet_transfer_tx_frames_total", {{"replica", replica}})
        ->Increment(frames_sent);
    events_.Push("transfer", replica, "",
                 std::to_string(bytes_sent) + " bytes");
  }
}

void ShardedRegistry::StorePublishedBytes(const std::string& name,
                                          const std::string& bytes) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  published_bytes_[name] = bytes;
}

uint64_t ShardedRegistry::Publish(std::shared_ptr<eval::Estimator> model) {
  return Publish(cfg_.server.model_name, std::move(model));
}

uint64_t ShardedRegistry::Publish(const std::string& name,
                                  std::shared_ptr<eval::Estimator> model) {
  std::vector<size_t> replicas = ReplicasOf(name);
  // Serialize once when the fleet has remote slots: remote replicas receive
  // bytes over state transfer, and the SAME bytes are retained so a crashed
  // replica can be re-synced. Models without SaveModel support (anything
  // that is not a SelNetCt) replicate to local slots only.
  std::string bytes;
  bool have_bytes = false;
  if (!remotes_.empty()) {
    if (const auto* ct = dynamic_cast<const core::SelNetCt*>(model.get())) {
      auto serialized = core::SaveModelBytes(*ct);
      if (serialized.ok()) {
        bytes = serialized.MoveValueUnsafe();
        have_bytes = true;
        StorePublishedBytes(name, bytes);
      }
    }
    if (!have_bytes) {
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
  // The returned version is the FIRST replica that accepted — the primary
  // when it is healthy. A failed remote primary falls back to the next
  // accepting replica (mirroring PublishFromBytes) instead of returning a
  // meaningless 0 alongside successful secondaries.
  uint64_t version = 0;
  bool have_version = false;
  for (size_t slot : replicas) {
    if (IsLocalSlot(slot)) {
      uint64_t v = shards_[slot]->server->Publish(name, model);
      RecordPublishResult(slot, /*accepted=*/true, 0, 0);
      if (!have_version) {
        version = v;
        have_version = true;
      }
    } else if (have_bytes) {
      uint64_t frames = 0;
      auto v = remote_shard(slot).PublishBytes(name, bytes, &frames);
      if (!v.ok()) {
        RecordPublishResult(slot, /*accepted=*/false, 0, 0);
        MarkSuspect(slot);  // The health loop re-syncs it from the bytes.
        continue;
      }
      RecordPublishResult(slot, /*accepted=*/true, bytes.size(), frames);
      if (!have_version) {
        version = v.ValueOrDie();
        have_version = true;
      }
    }
  }
  if (!have_version) {
    util::LogInfo(
        "shard_router: publish of route '%s' reached no replica; returning "
        "version 0 (the health loop re-syncs remotes from retained bytes)",
        name.c_str());
  }
  return version;
}

Result<uint64_t> ShardedRegistry::PublishFromFile(const std::string& name,
                                                  const std::string& path) {
  if (remotes_.empty() && cfg_.replication <= 1) {
    return shards_[ShardOf(name)]->server->PublishFromFile(name, path);
  }
  // Fleet mode: the file's raw bytes ARE the replication payload.
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open model file " + path);
  }
  std::string bytes;
  char buf[64 << 10];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IOError("cannot read model file " + path);
  return PublishFromBytes(name, bytes, path);
}

Result<uint64_t> ShardedRegistry::PublishFromBytes(const std::string& name,
                                                   const std::string& bytes,
                                                   const std::string& origin) {
  std::vector<size_t> replicas = ReplicasOf(name);
  // The FIRST replica that accepts decides the call: a publish must not be
  // blocked by one dead replica (the health loop re-syncs it from the
  // retained bytes), but genuinely bad bytes fail on every replica and so
  // fail the call — nothing is retained for them.
  bool accepted = false;
  uint64_t version = 0;
  Status last_error = Status::Internal("no replicas");
  for (size_t slot : replicas) {
    uint64_t frames = 0;
    Result<uint64_t> v =
        IsLocalSlot(slot)
            ? shards_[slot]->server->PublishFromBytes(name, bytes, origin)
            : remote_shard(slot).PublishBytes(name, bytes, &frames);
    RecordPublishResult(slot, v.ok(),
                        v.ok() && !IsLocalSlot(slot) ? bytes.size() : 0,
                        frames);
    if (!v.ok()) {
      last_error = v.status();
      MarkSuspect(slot);  // No-op for local slots.
      continue;
    }
    if (!accepted) {
      accepted = true;
      version = v.ValueOrDie();
      if (!remotes_.empty()) StorePublishedBytes(name, bytes);
    }
  }
  if (!accepted) return last_error;
  return version;
}

void ShardedRegistry::SubmitWith(EstimateRequest req,
                                 SelNetServer::ResponseFn done) {
  std::vector<size_t> replicas = OrderedReplicas(EffectiveRoute(req));
  if (replicas.size() == 1 && IsLocalSlot(replicas[0])) {
    // Pre-fleet fast path: no request copy, no failover frame.
    shards_[replicas[0]]->server->SubmitWith(std::move(req), std::move(done));
    return;
  }
  auto fo = std::make_shared<Failover>();
  fo->req = std::move(req);
  fo->done = std::move(done);
  fo->replicas = std::move(replicas);
  TryReplica(fo, 0, nullptr);
}

namespace {

/// How a failed attempt steers the failover chain.
enum class RetryClass {
  kFinal,        ///< Deterministic verdict (bad shape, overload shed).
  kNextReplica,  ///< Another replica might answer; this one is healthy.
  kMarkSuspect,  ///< Another replica might answer; this one looks down/gray.
};

/// Typed RemoteErrors only: kUnavailable (never sent) / kIoError (possibly
/// completed — estimates are pure reads, so re-asking is safe) /
/// kDeadlineExceeded (the RECV bound, a gray shard; the request's own
/// deadline is checked separately) mark the replica suspect and move on.
/// kNotFound means THAT replica doesn't hold the route — a rejoining shard
/// awaiting re-sync, or a route that replicates to local slots only — while
/// another replica may; the replica itself answered promptly, so it stays
/// healthy (marking it suspect would tear down its data connection on every
/// request to such a route). Anything else is deterministic or final.
RetryClass ClassifyFailure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const RemoteError& e) {
    switch (e.code()) {
      case util::StatusCode::kUnavailable:
      case util::StatusCode::kIoError:
      case util::StatusCode::kDeadlineExceeded:
        return RetryClass::kMarkSuspect;
      case util::StatusCode::kNotFound:
        return RetryClass::kNextReplica;
      default:
        return RetryClass::kFinal;
    }
  } catch (...) {
    return RetryClass::kFinal;
  }
}

/// Stable label value for the failover attempt counter — the same taxonomy
/// ClassifyFailure keys on, one token per failure flavor.
const char* FailureReasonName(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const RemoteError& e) {
    switch (e.code()) {
      case util::StatusCode::kUnavailable:       return "unavailable";
      case util::StatusCode::kIoError:           return "io_error";
      case util::StatusCode::kDeadlineExceeded:  return "recv_timeout";
      case util::StatusCode::kNotFound:          return "not_found";
      default:                                   return "internal";
    }
  } catch (const OverloadError&) {
    return "overload";
  } catch (...) {
    return "other";
  }
}

}  // namespace

std::vector<size_t> ShardedRegistry::OrderedReplicas(
    const std::string& route) const {
  std::vector<size_t> ring_order =
      ring_.ReplicasOf(route, std::max<size_t>(1, cfg_.replication));
  if (ring_order.size() <= 1) return ring_order;
  std::vector<size_t> out;
  out.reserve(ring_order.size());
  for (size_t slot : ring_order) {
    if (slot_health(slot) == ShardHealth::kHealthy) out.push_back(slot);
  }
  for (size_t slot : ring_order) {
    if (slot_health(slot) != ShardHealth::kHealthy) out.push_back(slot);
  }
  return out;
}

void ShardedRegistry::SlotSubmit(size_t slot, EstimateRequest req,
                                 SelNetServer::ResponseFn done) {
  if (IsLocalSlot(slot)) {
    shards_[slot]->server->SubmitWith(std::move(req), std::move(done));
  } else {
    remotes_[slot - shards_.size()]->shard->SubmitWith(std::move(req),
                                                       std::move(done));
  }
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
  SlotSubmit(slot, std::move(attempt),
             [this, fo, idx, slot](EstimateResponse&& resp,
                                   std::exception_ptr error) {
               if (error == nullptr) {
                 if (idx > 0) {
                   // The request survived a failover: idx replicas were
                   // walked past before this one answered.
                   metrics_.GetCounter("selnet_failover_successes_total")
                       ->Increment();
                   metrics_
                       .GetCounter("selnet_failover_replicas_walked_total")
                       ->Increment(idx);
                   events_.Push("failover", EffectiveRoute(fo->req),
                                "slot " + std::to_string(fo->replicas[0]),
                                "slot " + std::to_string(slot));
                 }
                 fo->done(std::move(resp), nullptr);
                 return;
               }
               metrics_
                   .GetCounter("selnet_failover_attempts_total",
                               {{"reason", FailureReasonName(error)}})
                   ->Increment();
               RetryClass rc = ClassifyFailure(error);
               if (rc != RetryClass::kFinal) {
                 if (rc == RetryClass::kMarkSuspect) MarkSuspect(slot);
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
    Clock::time_point now = Clock::now();
    for (size_t i = 0; i < remotes_.size(); ++i) {
      Remote& remote = *remotes_[i];
      auto h = ShardHealth(remote.health.load(std::memory_order_acquire));
      if (h == ShardHealth::kHealthy) continue;
      if (!forced && remote.not_before != Clock::time_point{} &&
          now < remote.not_before) {
        continue;
      }
      Clock::time_point probe_start = Clock::now();
      Status st = AdmitRemote(i);
      metrics_
          .GetSummary("selnet_health_probe_ms",
                      {{"endpoint", remote.shard->endpoint()}})
          ->Record(std::chrono::duration<double, std::milli>(Clock::now() -
                                                             probe_start)
                       .count());
      if (st.ok()) {
        SetRemoteHealth(i, ShardHealth::kHealthy);
        remote.backoff.Reset();
        remote.not_before = {};
      } else {
        SetRemoteHealth(i, ShardHealth::kDead);
        remote.not_before =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    remote.backoff.NextDelayMs()));
      }
    }
    // Scrape tick: piggybacks on the health cadence (so the effective scrape
    // period is max(scrape_interval_ms, health_interval_ms)), touching only
    // HEALTHY remotes — probing the sick ones is the job above.
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

void ShardedRegistry::ScrapeRemote(size_t i) {
  Remote& remote = *remotes_[i];
  if (ShardHealth(remote.health.load(std::memory_order_acquire)) !=
      ShardHealth::kHealthy) {
    return;
  }
  const std::string ep = remote.shard->endpoint();
  Result<StatsSnapshot> snap = remote.shard->ScrapeStats();
  if (!snap.ok()) {
    // Best-effort: the fleet view just ages; actual failure handling belongs
    // to the health machinery (the data path or next probe will notice).
    metrics_
        .GetCounter("selnet_scrape_total",
                    {{"endpoint", ep}, {"result", "error"}})
        ->Increment();
    return;
  }
  metrics_
      .GetCounter("selnet_scrape_total", {{"endpoint", ep}, {"result", "ok"}})
      ->Increment();
  std::lock_guard<std::mutex> lock(remote.scrape_mu);
  remote.scrape = snap.MoveValueUnsafe();
  remote.scrape_at = Clock::now();
}

void ShardedRegistry::ScrapeNow() {
  for (size_t i = 0; i < remotes_.size(); ++i) ScrapeRemote(i);
}

Status ShardedRegistry::AdmitRemote(size_t i) {
  Remote& remote = *remotes_[i];
  RemoteShard& shard = *remote.shard;
  // Tear down whatever data connection is left (a gray shard's connection
  // may still be "up" TCP-wise). Safe here: this runs on the health loop or
  // the constructor, never on the shard's own reader thread.
  shard.CloseData();
  SEL_RETURN_NOT_OK(shard.HealthCheck());
  SetRemoteHealth(i, ShardHealth::kResyncing);
  // Re-publish every route this slot replicates. A restarted shard_node is
  // EMPTY — re-admitting without this would serve NotFound from a "healthy"
  // replica. Publishing is idempotent on content (versions bump, estimates
  // stay bit-identical), so a surviving process just gets a redundant swap.
  size_t slot = shards_.size() + i;
  std::vector<std::pair<std::string, std::string>> owned;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    for (const auto& [route, bytes] : published_bytes_) {
      std::vector<size_t> replicas = ReplicasOf(route);
      if (std::find(replicas.begin(), replicas.end(), slot) !=
          replicas.end()) {
        owned.emplace_back(route, bytes);
      }
    }
  }
  for (const auto& [route, bytes] : owned) {
    uint64_t frames = 0;
    auto v = shard.PublishBytes(route, bytes, &frames);
    RecordPublishResult(slot, v.ok(), v.ok() ? bytes.size() : 0, frames);
    if (!v.ok()) return v.status();
  }
  return shard.Connect();
}

LiveUpdatePipeline& ShardedRegistry::AttachUpdatePipeline(
    const UpdatePipelineConfig& cfg, const data::Database& db,
    const data::Workload& workload) {
  const std::string& route =
      cfg.model_name.empty() ? cfg_.server.model_name : cfg.model_name;
  // A pipeline runs beside a local shard's server; a route whose primary is
  // a remote slot has none here to attach to.
  size_t slot = ShardOf(route);
  SEL_CHECK_MSG(IsLocalSlot(slot),
                ("ShardedRegistry: route '" + route +
                 "' has a remote primary; update pipelines attach to local "
                 "shards only")
                    .c_str());
  SelNetServer& shard = *shards_[slot]->server;
  // Each SelNetServer holds ONE pipeline slot, and its AttachUpdatePipeline
  // replaces whatever is there. Replacing the SAME route is the documented
  // re-attach semantics; silently stopping a DIFFERENT route's pipeline just
  // because the two routes hash to one shard would be a placement-dependent
  // surprise — fail loudly instead.
  LiveUpdatePipeline* existing = shard.update_pipeline();
  SEL_CHECK_MSG(existing == nullptr || existing->route() == route,
                "ShardedRegistry: shard already runs an update pipeline for "
                "another route; one pipeline per shard");
  return shard.AttachUpdatePipeline(cfg, db, workload);
}

void ShardedRegistry::Drain() {
  for (auto& shard : shards_) shard->server->Drain();
  if (remotes_.empty()) return;
  // Remote in-flight requests complete on their reader threads (a reply, a
  // recv-timeout expiry, or a connection loss all fire the completion), so
  // waiting on pending() converges; the bound covers a remote configured
  // with no recv timeout and requests with no deadline.
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             std::max(0.0, cfg_.drain_remote_timeout_ms)));
  for (auto& remote : remotes_) {
    while (remote->shard->pending() > 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

std::vector<StatsSnapshot> ShardedRegistry::ShardSnapshots() const {
  std::vector<StatsSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->server->stats().Snapshot());
  }
  return out;
}

StatsSnapshot ShardedRegistry::AggregateSnapshot() const {
  std::vector<StatsSnapshot> snaps = ShardSnapshots();
  const Clock::time_point now = Clock::now();
  std::vector<SlotSnapshot> slots;
  slots.reserve(num_slots());
  const double local_uptime_s =
      std::chrono::duration<double>(now - start_).count();
  for (size_t s = 0; s < shards_.size(); ++s) {
    SlotSnapshot slot;
    slot.slot = s;
    slot.kind = "local";
    slot.endpoint = "in-process";
    slot.health = ShardHealthName(ShardHealth::kHealthy);
    slot.node_id = cfg_.node_id;
    slot.uptime_s = local_uptime_s;
    slots.push_back(std::move(slot));
  }
  // Fold in each remote's cached scrape: bucket-merging its histograms with
  // the local shards' gives TRUE pooled fleet percentiles (histogram merge
  // is associative — see util/histogram.h). A scrape older than the TTL is
  // still shown in the slot table (age-stamped) but excluded from the
  // merged counters, so a long-dead node cannot freeze the fleet view.
  for (size_t i = 0; i < remotes_.size(); ++i) {
    const Remote& remote = *remotes_[i];
    SlotSnapshot slot;
    slot.slot = shards_.size() + i;
    slot.kind = "remote";
    slot.endpoint = remote.shard->endpoint();
    slot.health = ShardHealthName(
        ShardHealth(remote.health.load(std::memory_order_acquire)));
    slot.pending = remote.shard->pending();
    {
      std::lock_guard<std::mutex> lock(remote.scrape_mu);
      if (remote.scrape_at != Clock::time_point{}) {
        const double age_ms =
            std::chrono::duration<double, std::milli>(now - remote.scrape_at)
                .count();
        slot.scrape_age_s = age_ms / 1000.0;
        slot.node_id = remote.scrape.node_id;
        slot.uptime_s = remote.scrape.uptime_s;
        if (cfg_.scrape_ttl_ms <= 0 || age_ms <= cfg_.scrape_ttl_ms) {
          snaps.push_back(remote.scrape);
        }
      }
    }
    slots.push_back(std::move(slot));
  }
  StatsSnapshot agg = AggregateSnapshots(snaps);
  agg.node_id = cfg_.node_id;
  agg.uptime_s = local_uptime_s;
  agg.slots = std::move(slots);
  return agg;
}

std::string ShardedRegistry::MetricsText() const {
  // Refresh the time-in-state gauges right before rendering — Gauge is
  // set-based, and "how long in the current state" only has a value at
  // observation time. Which state it is lives in the snapshot's slot table
  // (selnet_slot_health); this series is just the clock.
  const Clock::time_point now = Clock::now();
  for (size_t i = 0; i < remotes_.size(); ++i) {
    const Remote& remote = *remotes_[i];
    Clock::time_point since;
    {
      std::lock_guard<std::mutex> lock(remote.scrape_mu);
      since = remote.state_since;
    }
    if (since == Clock::time_point{}) since = start_;
    metrics_
        .GetGauge("selnet_slot_state_seconds",
                  {{"endpoint", remote.shard->endpoint()}})
        ->Set(std::chrono::duration<double>(now - since).count());
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
  for (const auto& shard : shards_) {
    std::vector<SpanRecord> spans = shard->server->stats().SlowSpans();
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
  std::string out = "sharded serving (" + std::to_string(shards_.size()) +
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
  // Fleet view: remote replicas, their failover state, and how fresh the
  // coordinator's view of each one is.
  if (!remotes_.empty()) {
    const Clock::time_point now = Clock::now();
    util::AsciiTable fleet({"slot", "endpoint", "health", "in state s",
                            "scrape age s", "node", "pending"});
    for (size_t i = 0; i < remotes_.size(); ++i) {
      const Remote& r = *remotes_[i];
      Clock::time_point since;
      double scrape_age_s = -1.0;
      std::string node;
      {
        std::lock_guard<std::mutex> lock(r.scrape_mu);
        since = r.state_since;
        if (r.scrape_at != Clock::time_point{}) {
          scrape_age_s =
              std::chrono::duration<double>(now - r.scrape_at).count();
          node = r.scrape.node_id;
        }
      }
      if (since == Clock::time_point{}) since = start_;
      fleet.AddRow(
          {std::to_string(shards_.size() + i), r.shard->endpoint(),
           ShardHealthName(
               ShardHealth(r.health.load(std::memory_order_acquire))),
           util::AsciiTable::Num(
               std::chrono::duration<double>(now - since).count(), 1),
           scrape_age_s < 0 ? "never" : util::AsciiTable::Num(scrape_age_s, 1),
           node.empty() ? "-" : node, std::to_string(r.shard->pending())});
    }
    out += "\nremote replicas (replication R=" +
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
