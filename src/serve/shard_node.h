#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "serve/frontend.h"
#include "serve/server.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file shard_node.h
/// \brief One shard as a standalone serving process: the remote end of a
/// RemoteShard proxy.
///
/// A ShardNode bundles the full single-shard stack — a private ThreadPool, a
/// SelNetServer (registry + scheduler + caches + admission), and a
/// NetFrontend with the state-transfer install hook wired — behind one bound
/// port. It starts EMPTY: models arrive over the wire via state transfer
/// (state_transfer.h: binary begin / data / commit frames, installed on the
/// frontend's loop thread in about a millisecond), which is exactly how the
/// replication layer re-syncs a crashed-and-restarted replica.
///
/// Two ways to run one:
///   * in process (fleet tests): construct, check status(), talk to port();
///     Stop() is the graceful kill;
///   * as a process (`serve_demo shard_node`, the fault harness):
///     RunShardNodeProcess binds, writes the bound port to a handshake file,
///     then serves until SIGTERM/SIGINT (graceful) or SIGKILL (the crash the
///     fault scenarios inject).

namespace selnet::serve {

/// \brief Everything a shard process needs.
struct ShardNodeConfig {
  /// Per-shard server template; `scheduler.pool` must stay null — the node
  /// owns its pool.
  ServerConfig server;
  FrontendConfig frontend;
  /// Worker threads for the node's pool (0 = hardware_concurrency).
  size_t threads = 1;
};

/// \brief ThreadPool + SelNetServer + NetFrontend, started together.
class ShardNode {
 public:
  explicit ShardNode(const ShardNodeConfig& cfg);
  ~ShardNode();

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  /// \brief OK once the frontend is bound and serving; the bind error
  /// otherwise.
  util::Status status() const { return frontend_->status(); }

  /// \brief The bound port (resolves an ephemeral request).
  uint16_t port() const { return frontend_->port(); }

  SelNetServer& server() { return *server_; }
  NetFrontend& frontend() { return *frontend_; }

  /// \brief Graceful stop: drain the frontend, then the server. Idempotent;
  /// also run by the destructor. (The fault harness's kill -9 never gets
  /// here — that is the point.)
  void Stop();

 private:
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<SelNetServer> server_;
  std::unique_ptr<NetFrontend> frontend_;
};

/// \brief Options for the standalone process entry.
struct ShardNodeProcessOptions {
  size_t dim = 2;
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (read it from `port_file`).
  /// When non-empty, the bound port is written here ("<port>\n", atomically
  /// via rename) AFTER the node is serving — the parent's readiness
  /// handshake, immune to the race of polling a port that is not up yet.
  std::string port_file;
  size_t threads = 1;
  /// Frontend poll loops (FrontendConfig::num_loops). 1 keeps the classic
  /// single-loop node; >1 shards connections across loops for wire-bound
  /// shards.
  size_t net_loops = 1;
};

/// \brief Run one ShardNode until SIGTERM/SIGINT; returns a process exit
/// code. Used by `serve_demo shard_node` and self-exec'd by the fault
/// harness.
int RunShardNodeProcess(const ShardNodeProcessOptions& opts);

}  // namespace selnet::serve
