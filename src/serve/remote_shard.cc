#include "serve/remote_shard.h"

#include "serve/frontend.h"
#include "serve/state_transfer.h"
#include "serve/wire.h"

namespace selnet::serve {

using util::Result;
using util::Status;

ClientChannelConfig RemoteShard::ChannelConfig(const RemoteShardConfig& cfg) {
  ClientChannelConfig ch;
  ch.address = cfg.address;
  ch.port = cfg.port;
  ch.preferred_proto = cfg.data_proto;
  ch.recv_timeout_ms = cfg.recv_timeout_ms;
  ch.hello_timeout_ms = cfg.admin_timeout_ms;
  return ch;
}

RemoteShard::RemoteShard(const RemoteShardConfig& cfg)
    : cfg_(cfg), channel_(ChannelConfig(cfg)) {}

RemoteShard::~RemoteShard() { CloseData(); }

Result<uint64_t> RemoteShard::PublishBytes(const std::string& name,
                                           const std::string& bytes) {
  NetClient client;
  SEL_RETURN_NOT_OK(client.Connect(cfg_.address, cfg_.port));
  client.set_recv_timeout_ms(cfg_.admin_timeout_ms);
  uint64_t version = 0;
  SEL_RETURN_NOT_OK(SendModelState(&client, name, bytes, &version));
  return version;
}

Status RemoteShard::HealthCheck() {
  NetClient client;
  SEL_RETURN_NOT_OK(client.Connect(cfg_.address, cfg_.port));
  client.set_recv_timeout_ms(cfg_.admin_timeout_ms);
  ClientCall health;
  health.cmd = Command::kHealth;
  return client.Call(health).status();
}

Result<StatsSnapshot> RemoteShard::ScrapeStats() {
  NetClient client;
  SEL_RETURN_NOT_OK(client.Connect(cfg_.address, cfg_.port));
  client.set_recv_timeout_ms(cfg_.admin_timeout_ms);
  ClientCall scrape;
  scrape.cmd = Command::kStatsWire;
  SEL_ASSIGN_OR_RETURN(ClientReply reply, client.Call(scrape));
  return std::move(reply.stats);
}

}  // namespace selnet::serve
