#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/remote_shard.h"
#include "serve/server.h"
#include "util/backoff.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

/// \file shard_router.h
/// \brief Serving scale-out: consistent-hash routing of model routes across
/// per-shard ModelRegistry + BatchScheduler pairs.
///
/// One SelNetServer scales until its scheduler pool saturates — then a hot
/// route's batches queue behind every other route's. ShardedRegistry splits
/// the route space across N shards, each a full serving stack (registry,
/// scheduler, estimate cache, stats) with its OWN ThreadPool slice, so:
///
///   * a hot route saturates only its shard's workers — other shards keep
///     their latency;
///   * hot-swap stays shard-local: a route's republish swaps one pointer in
///     one shard's registry, and version-keyed cache invalidation never
///     crosses a shard boundary (each shard owns its cache);
///   * LiveUpdatePipeline attaches per route, on the owning shard, so N
///     routes can retrain concurrently (one pipeline per shard at a time —
///     each SelNetServer holds one pipeline slot).
///
/// Routing is a consistent-hash ring (stable 64-bit FNV-1a, `virtual_nodes`
/// points per shard): the shard owning a route depends only on (route name,
/// shard count, virtual node count) — deterministic across processes and
/// restarts, so a network client, the frontend, and an offline publisher all
/// agree on placement without coordination, and growing the ring moves only
/// ~1/N of the routes.
///
/// Requests with an empty `model` are resolved to the configured default
/// route BEFORE hashing, so the default route lives on one well-defined
/// shard rather than shard 0 by accident.
///
/// Fleet mode (PR 8): the slot list may extend past the in-process shards
/// with REMOTE shards — `shard_node` processes reached through RemoteShard
/// proxies — and each route may be replicated onto `replication` distinct
/// ring successors:
///
///   * SubmitWith routes to the route's primary replica first; a
///     transport-level failure (connection refused, connection lost
///     mid-stream, response timeout) marks that replica suspect and retries
///     the next replica, bounded by the request's own deadline. Estimates
///     are pure reads, so retrying a possibly-completed request is safe by
///     construction.
///   * Publish fans out to every replica of the route — local replicas get
///     the model object, remote replicas get the serialized SaveModel bytes
///     over the state-transfer protocol — and the bytes are retained as the
///     re-sync source of truth.
///   * A health loop probes non-healthy remotes on a decorrelated-jitter
///     backoff schedule (failover itself never sleeps — the next replica is
///     a different endpoint). The failover state machine per remote is
///     healthy -> suspect (data-path failure) -> dead (probe failed) ->
///     resyncing (probe OK; republishing owned routes) -> healthy. A
///     restarted `shard_node` comes back EMPTY, so re-admission always
///     re-publishes from the retained bytes before traffic resumes.

namespace selnet::serve {

/// \brief Deterministic consistent-hash ring: route name -> shard index.
class HashRing {
 public:
  /// \param shards number of shards (>= 1).
  /// \param virtual_nodes ring points per shard; more points = smoother
  /// balance at slightly larger ring (128 keeps the max/mean route load
  /// under ~1.3 for realistic route counts).
  HashRing(size_t shards, size_t virtual_nodes = 128);

  size_t ShardOf(const std::string& route) const;

  /// \brief The `r` distinct shards serving `route`: its primary (== ShardOf)
  /// followed by the next r-1 distinct ring successors clockwise. `r` is
  /// clamped to [1, num_shards]. Deterministic, like ShardOf.
  std::vector<size_t> ReplicasOf(const std::string& route, size_t r) const;

  size_t num_shards() const { return num_shards_; }

  /// \brief Stable FNV-1a 64-bit hash (NOT std::hash: placement must agree
  /// across binaries and libstdc++ versions).
  static uint64_t Hash(const std::string& s);

 private:
  struct Point {
    uint64_t hash;
    uint32_t shard;
    bool operator<(const Point& o) const { return hash < o.hash; }
  };

  size_t num_shards_;
  std::vector<Point> ring_;  ///< Sorted; binary-searched per lookup.
};

/// \brief Scale-out configuration: the per-shard server template plus the
/// shard topology.
struct ShardedConfig {
  /// Template for every shard's SelNetServer (dim, scheduler policy, cache
  /// sizing, sweep fast path…). `server.scheduler.pool` must stay null — each
  /// shard gets its own pool; sharing one pool would reintroduce exactly the
  /// cross-route starvation sharding removes.
  ServerConfig server;
  size_t num_shards = 2;
  size_t virtual_nodes = 128;
  /// Worker threads per shard pool (the shard's thread-pool slice). 0 =
  /// max(1, hardware_concurrency / num_shards).
  size_t threads_per_shard = 0;
  /// R-way replication: each route lives on its primary slot plus the next
  /// R-1 distinct ring successors (clamped to the slot count). 1 = the
  /// pre-fleet behavior, byte for byte.
  size_t replication = 1;
  /// Remote shard endpoints (shard_node processes), appended to the slot
  /// list AFTER the `num_shards` local slots: remote endpoint i is slot
  /// `num_shards + i` on the ring.
  std::vector<RemoteShardConfig> remotes;
  /// Health-loop tick for probing non-healthy remotes (the probe schedule
  /// itself adds decorrelated-jitter backoff per endpoint on top).
  double health_interval_ms = 100.0;
  /// Upper bound on how long Drain() waits for requests still in flight on
  /// remote replicas (local shards drain unconditionally). Pending remote
  /// entries normally resolve within their recv timeout / request deadline;
  /// this caps the wait when neither bound is configured.
  double drain_remote_timeout_ms = 5000.0;
  /// Remote-stats scrape tick: at this cadence the health loop fetches
  /// {"cmd":"stats_wire"} from each HEALTHY remote and caches the snapshot;
  /// AggregateSnapshot bucket-merges the cached scrapes with the local
  /// shards' so fleet percentiles pool every process's histograms. <= 0
  /// disables the tick (ScrapeNow still works).
  double scrape_interval_ms = 1000.0;
  /// A cached scrape older than this is STALE: still shown (age-stamped) in
  /// the slot table, but dropped from the merged fleet counters/histograms
  /// so a long-dead node cannot freeze the fleet view.
  double scrape_ttl_ms = 10000.0;
  /// Process identity stamped into snapshots and the slot table ("" = none;
  /// shard_node processes default to "host:port" of their frontend).
  std::string node_id;
};

/// \brief Remote-replica failover state machine (see the file comment).
enum class ShardHealth { kHealthy, kSuspect, kDead, kResyncing };

/// \brief Stable lowercase state name ("healthy", "suspect", "dead",
/// "resyncing") for reports and tests.
const char* ShardHealthName(ShardHealth h);

/// \brief N per-shard serving stacks behind one consistent-hash router.
///
/// The public surface mirrors SelNetServer — Publish / SubmitWith / Drain /
/// AttachUpdatePipeline — so the frontend (and any embedding code) can treat
/// "one server" and "a shard fleet" interchangeably.
class ShardedRegistry {
 public:
  explicit ShardedRegistry(const ShardedConfig& cfg);
  ~ShardedRegistry();

  ShardedRegistry(const ShardedRegistry&) = delete;
  ShardedRegistry& operator=(const ShardedRegistry&) = delete;

  /// \brief The shard that owns `route` ("" = the default route).
  size_t ShardOf(const std::string& route) const;

  /// \brief The route's replica slots, primary first ("" = default route);
  /// size = min(cfg.replication, num_slots).
  std::vector<size_t> ReplicasOf(const std::string& route) const;

  /// \brief Publish under the default route (on its owning shard).
  uint64_t Publish(std::shared_ptr<eval::Estimator> model);

  /// \brief Publish under `name` to every replica of the route; returns the
  /// version assigned by the first replica that accepted (the primary when
  /// healthy — version counters are shard-local), or 0 when no replica
  /// accepted. Models that cannot serialize (not a SelNetCt) replicate to
  /// local slots only; remote replicas then answer not_found for the route
  /// and failover falls through to the local copies.
  uint64_t Publish(const std::string& name,
                   std::shared_ptr<eval::Estimator> model);

  /// \brief Load a core::SaveModel file and publish it under `name`.
  util::Result<uint64_t> PublishFromFile(const std::string& name,
                                         const std::string& path);

  /// \brief Deserialize SaveModel-format bytes (a state transfer) and
  /// publish under `name` on its owning shard.
  util::Result<uint64_t> PublishFromBytes(const std::string& name,
                                          const std::string& bytes,
                                          const std::string& origin);

  /// \brief The one entry point: route by EstimateRequest::model and submit
  /// to the owning shard (walking the replicas on a retryable failure).
  void SubmitWith(EstimateRequest req, SelNetServer::ResponseFn done);

  /// \brief Attach a live-update pipeline for `cfg.model_name` on its owning
  /// shard (see SelNetServer::AttachUpdatePipeline). One pipeline per shard:
  /// re-attaching the same route replaces its pipeline, but attaching a
  /// second route that happens to hash to an already-piped shard aborts
  /// (placement-dependent silent clobbering would be worse).
  LiveUpdatePipeline& AttachUpdatePipeline(const UpdatePipelineConfig& cfg,
                                           const data::Database& db,
                                           const data::Workload& workload);

  /// \brief Block until every local shard has answered everything it
  /// accepted, then wait — bounded by `drain_remote_timeout_ms` — for
  /// requests still pending on remote replicas to complete.
  void Drain();

  /// \brief LOCAL in-process shard count (the pre-fleet meaning).
  size_t num_shards() const { return shards_.size(); }
  /// \brief Total ring slots: local shards + remote endpoints.
  size_t num_slots() const { return shards_.size() + remotes_.size(); }
  SelNetServer& shard(size_t i) { return *shards_[i]->server; }
  /// \brief True when `slot` is an in-process shard (always serving).
  bool IsLocalSlot(size_t slot) const { return slot < shards_.size(); }
  /// \brief The RemoteShard proxy behind slot `slot` (must be remote).
  RemoteShard& remote_shard(size_t slot) {
    return *remotes_[slot - shards_.size()]->shard;
  }
  /// \brief Failover state of a slot (local slots are always healthy).
  ShardHealth slot_health(size_t slot) const;
  /// \brief Wake the health loop now (tests; after restarting a node).
  void NudgeHealth();
  const HashRing& ring() const { return ring_; }
  const ShardedConfig& config() const { return cfg_; }

  /// \brief Per-shard snapshots, indexed by shard.
  std::vector<StatsSnapshot> ShardSnapshots() const;

  /// \brief Fleet-wide merged view (AggregateSnapshots of ShardSnapshots).
  StatsSnapshot AggregateSnapshot() const;

  /// \brief Every shard's retained slow-request spans, shard order.
  std::vector<SpanRecord> SlowSpans() const;

  /// \brief One report: a per-shard section (requests/QPS/p99/hit-rate per
  /// shard) followed by the merged fleet totals.
  std::string StatsReport() const;

  /// \brief Scrape every healthy remote's stats_wire snapshot NOW,
  /// synchronously (tests; the demo digest). The periodic tick calls the
  /// same path from the health loop.
  void ScrapeNow();

  /// \brief Control-plane registry: health transitions, failover attempts,
  /// publish fan-out verdicts, transfer volume, scrape outcomes.
  util::MetricsRegistry& metrics() const { return metrics_; }

  /// \brief Flight recorder of health/failover/transfer events.
  const util::EventRing& events() const { return events_; }

  /// \brief Registry exposition text with the per-slot time-in-state gauges
  /// refreshed; what the frontend appends to {"cmd":"metrics"}.
  std::string MetricsText() const;

  /// \brief The event ring as a JSON array (the {"cmd":"events"} body).
  std::string EventsJson() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Shard {
    std::unique_ptr<util::ThreadPool> pool;
    std::unique_ptr<SelNetServer> server;
  };

  /// One remote endpoint's proxy + failover state. `health` is the
  /// cross-thread hot field; backoff/not_before belong to the health loop;
  /// the scrape cache and state clock live under their own mutex (read by
  /// snapshot/metrics scrapers, written by the health loop and transition
  /// recording).
  struct Remote {
    std::unique_ptr<RemoteShard> shard;
    std::atomic<int> health{int(ShardHealth::kDead)};
    util::Backoff backoff{{/*base_ms=*/20.0, /*cap_ms=*/2000.0}};
    Clock::time_point not_before{};

    mutable std::mutex scrape_mu;
    StatsSnapshot scrape;          ///< Last stats_wire fetch (scrape_mu).
    Clock::time_point scrape_at{}; ///< When; epoch = never scraped.
    Clock::time_point state_since{}; ///< Entered current health state.
  };

  /// In-flight failover chain for one submitted request: the request copy
  /// (retries need the original), the ordered replica slots, the caller's
  /// completion. Heap-shared because each attempt's callback may fire on a
  /// pool worker, a RemoteShard reader, or the submitting thread.
  struct Failover {
    EstimateRequest req;
    SelNetServer::ResponseFn done;
    std::vector<size_t> replicas;
  };

  /// Resolve "" to the default route name (routing must hash the route the
  /// shard's server will actually serve under).
  const std::string& EffectiveRoute(const EstimateRequest& req) const;

  /// Replicas of `route`, healthy slots first (stable: primary-first within
  /// each class). Unhealthy slots stay in the list as last resorts — a dead
  /// remote fails a submit in microseconds, and it may have just come back.
  std::vector<size_t> OrderedReplicas(const std::string& route) const;

  /// Submit attempt `idx` of the chain; on a retryable failure marks the
  /// slot suspect and recurses to `idx + 1` (bounded by the request
  /// deadline).
  void TryReplica(const std::shared_ptr<Failover>& fo, size_t idx,
                  std::exception_ptr last_error);
  void SlotSubmit(size_t slot, EstimateRequest req,
                  SelNetServer::ResponseFn done);
  /// Data-path failure: healthy -> suspect + health-loop nudge. Never blocks
  /// (teardown happens on the health loop — completions may be running on
  /// the very reader thread CloseData would join).
  void MarkSuspect(size_t slot);

  void HealthLoop();
  /// Probe + re-admit one remote: health check, re-publish every owned route
  /// from the retained bytes, reconnect the data path.
  util::Status AdmitRemote(size_t i);
  /// Retain `bytes` as route's re-sync source of truth.
  void StorePublishedBytes(const std::string& name, const std::string& bytes);
  /// Store remote `i`'s new health state (skipping no-op changes), stamp
  /// state_since, bump the transition counter, and record the event.
  void SetRemoteHealth(size_t i, ShardHealth to);
  /// Stamp state_since and record one observed `from -> to` transition in
  /// the counter + event ring (the caller already swapped the state).
  void RecordTransition(size_t i, ShardHealth from, ShardHealth to);
  /// Count one publish-fan-out verdict for `slot`; a remote accept also adds
  /// the shipped bytes/frames to the transfer_tx counters.
  void RecordPublishResult(size_t slot, bool accepted, size_t bytes_sent);
  /// Fetch + cache one remote's stats_wire snapshot (best-effort).
  void ScrapeRemote(size_t i);

  ShardedConfig cfg_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Remote>> remotes_;

  /// route -> last published SaveModel bytes; what a rejoining replica gets.
  mutable std::mutex publish_mu_;
  std::map<std::string, std::string> published_bytes_;

  std::mutex health_mu_;
  std::condition_variable health_cv_;
  bool health_stop_ = false;
  bool health_nudge_ = false;
  std::thread health_;  ///< Running iff remotes were configured.

  const Clock::time_point start_ = Clock::now();  ///< For uptime_s.
  mutable util::MetricsRegistry metrics_;
  util::EventRing events_{256};
  Clock::time_point next_scrape_{};  ///< Health-loop-only scrape gate.
};

}  // namespace selnet::serve
