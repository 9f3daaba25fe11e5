#pragma once

#include <cstdint>
#include <string>

#include "serve/client_channel.h"
#include "serve/serve_stats.h"
#include "serve/server.h"
#include "util/status.h"

/// \file remote_shard.h
/// \brief Client-side proxy for one shard served by another process: the
/// SelNetServer Submit contract spoken over a pipelined wire connection.
///
/// A ShardedRegistry slot can be an in-process SelNetServer or a RemoteShard
/// pointed at a `shard_node` process — the ring routes to both through the
/// same SubmitWith shape, so replication and failover (shard_router.h) never
/// care where a replica actually runs.
///
/// Two connections, two disciplines:
///
///   * The DATA connection is a ClientChannel (client_channel.h): pipelined,
///     tag-correlated, binary-framed when the peer acks the hello (JSON
///     fallback against older shard_nodes, so mixed fleets interoperate
///     during rollout). Responses may arrive out of order — the tag map is
///     the order; the caller's own tag is restored before its completion
///     fires.
///   * The CONTROL path (PublishBytes, HealthCheck, ScrapeStats) dials a
///     fresh blocking connection per call. Publishes are rare, and dialing
///     doubles as the reachability probe the health loop wants anyway.
///     State transfer negotiates the binary framing on its connection and
///     ships the model in raw transfer frames (state_transfer.h).
///
/// Failure taxonomy, delivered through the completion's exception_ptr so the
/// replication layer can decide retry-vs-fail without string matching:
///
///   * RemoteError(kUnavailable) — never sent (no data connection, or the
///     remote shed it with queue_full/priority_shed/shutdown). Always safe
///     to retry on another replica.
///   * RemoteError(kIoError) — the connection died with the request in
///     flight; the remote MAY have executed it. Estimates are pure reads, so
///     the failover layer retries these too; non-idempotent callers must not.
///   * RemoteError(kDeadlineExceeded) — no response within
///     `recv_timeout_ms`; the shard is gray (alive TCP-wise, not answering).
///     The request's own deadline still has budget, so retry elsewhere.
///   * RemoteError(kNotFound) — the shard answered but doesn't hold the
///     route (restarted and awaiting re-sync, or a route replicated to
///     local slots only). Another replica may hold it — retryable, but the
///     shard itself is healthy (no suspect marking).
///   * OverloadError(kDeadlineExpired) — the REQUEST's deadline passed
///     (locally, or shed by the remote admission controller). Matches what
///     an in-process SelNetServer throws, so callers see one taxonomy
///     whether the shard is local or remote. No retry can help.
///
/// Every accepted SubmitWith fires its completion exactly once: a timed-out
/// entry is erased from the tag map when its error is delivered, so the late
/// reply (if one ever arrives) finds no entry and is discarded.

namespace selnet::serve {

/// \brief Where the remote shard lives and how long to wait for it.
struct RemoteShardConfig {
  std::string address = "127.0.0.1";
  uint16_t port = 0;
  /// Data-path response bound per request: a submitted estimate with no
  /// response after this long fails with RemoteError(kDeadlineExceeded)
  /// (gray-shard detector). <= 0 disables the bound — only the request's own
  /// deadline then applies.
  int recv_timeout_ms = 2000;
  /// Control-path bound (publish acks, health probes).
  int admin_timeout_ms = 5000;
  /// Data-path framing to ask for at Connect. Binary by default; the hello
  /// falls back to JSON against shard_nodes that predate negotiation.
  WireProto data_proto = WireProto::kBinary;
};

/// \brief One remote shard endpoint: pipelined data connection + per-call
/// control connections, presenting the SelNetServer submit contract.
class RemoteShard {
 public:
  explicit RemoteShard(const RemoteShardConfig& cfg);
  ~RemoteShard();

  RemoteShard(const RemoteShard&) = delete;
  RemoteShard& operator=(const RemoteShard&) = delete;

  const RemoteShardConfig& config() const { return cfg_; }

  /// \brief "address:port", for error messages and the fleet report.
  std::string endpoint() const { return channel_.endpoint(); }

  /// \brief (Re)dial the data connection, negotiate framing, and start its
  /// reader. Any previous connection is torn down first (its in-flight
  /// requests fail with kIoError). kUnavailable when the peer is not
  /// accepting.
  util::Status Connect() { return channel_.Connect(); }

  /// \brief Drop the data connection; every pending completion fires with
  /// RemoteError(kIoError). Idempotent. Control calls still work.
  void CloseData() { channel_.Close(); }

  /// \brief True between a successful Connect and the first transport
  /// failure (or CloseData). A false here fails SubmitWith immediately with
  /// kUnavailable — the failover layer owns reconnect policy.
  bool data_up() const { return channel_.up(); }

  /// \brief The framing the data connection negotiated (while up).
  WireProto data_proto() const { return channel_.proto(); }

  /// \brief Pipelined submit (the SelNetServer::SubmitWith contract). The
  /// completion fires exactly once, from this thread (immediate failure) or
  /// the reader thread (response, timeout, connection loss).
  void SubmitWith(EstimateRequest req, SelNetServer::ResponseFn done) {
    channel_.Call(std::move(req), std::move(done));
  }

  /// \brief Ship SaveModel-format bytes and publish them under `name` on the
  /// remote (state_transfer.h over a fresh control connection); returns the
  /// version the remote registry assigned, and the number of transfer frames
  /// sent via `*frames_sent` when non-null.
  util::Result<uint64_t> PublishBytes(const std::string& name,
                                      const std::string& bytes,
                                      uint64_t* frames_sent = nullptr);

  /// \brief Dial + {"cmd":"health"} round trip, bounded by admin_timeout_ms.
  util::Status HealthCheck();

  /// \brief Dial + {"cmd":"stats_wire"} round trip: the remote's flat
  /// machine-scrape snapshot (counters + encoded histograms), for the
  /// coordinator's scrape tick to bucket-merge into the fleet view.
  util::Result<StatsSnapshot> ScrapeStats();

  /// \brief Requests currently awaiting a response (tests, fleet report).
  size_t pending() const { return channel_.pending(); }

 private:
  static ClientChannelConfig ChannelConfig(const RemoteShardConfig& cfg);

  RemoteShardConfig cfg_;
  ClientChannel channel_;
};

}  // namespace selnet::serve
