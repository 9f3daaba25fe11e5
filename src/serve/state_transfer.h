#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

/// \file state_transfer.h
/// \brief Framed, checksummed model-state transfer between serving processes.
///
/// Publishing to a remote shard ships the model itself: the EXACT bytes
/// core::SaveModelBytes produces (the SaveModel file format, config +
/// checksummed parameters) travel raw in typed binary frames
/// (wire_binary.h), each data frame carrying its own CRC-32, with a
/// whole-payload CRC-32 verified at commit. Because the wire carries the file
/// format verbatim, a shard restored from a transfer serves BIT-IDENTICAL
/// answers to one that loaded the same model from disk — the property the
/// failover tests pin.
///
/// Wire sequence (sender -> receiver on a binary connection, written back
/// to back; the receiver answers every frame in order, and the sender reads
/// the replies once, after the commit):
///
///   kTransferBegin  {route, size N, frames K}       -> kTransferAck
///   kTransferData   {seq 0, crc C0, bytes}          -> kTransferAck
///   ...
///   kTransferData   {seq K-1, crc, bytes}           -> kTransferAck
///   kTransferCommit {route, whole-payload crc W}    -> kTransferAck{version}
///
/// Failure handling is receiver-side and per-connection: a frame whose CRC
/// or sequence number disagrees aborts the transfer and is answered with a
/// typed kError frame (so are the frames after it: the transfer is gone);
/// the sender restarts from begin. A connection that dies mid-transfer
/// discards the partial state with it. Nothing is published until the
/// commit's whole-payload checksum passes, so a receiver can never serve a
/// torn model. A peer that only speaks JSON cannot send or receive model
/// state.

namespace selnet::serve {

class NetClient;

/// \brief Data bytes per frame for SendModelState. The receiver's frame cap
/// (FrontendConfig::max_line_bytes, 1 MiB by default) bounds it; 256 KiB
/// ships the ~600 KB servebench model in three frames.
constexpr size_t kDefaultFrameBytes = 256 << 10;

/// \brief Ceiling on one transfer's announced payload size. The begin
/// frame's `size` is attacker-controlled input on an open TCP port, so Begin
/// must reject it with a typed error rather than attempt the allocation — a
/// 2^64-1 claim would otherwise throw out of buf_.reserve and take the
/// whole serving process down. 1 GiB is ~3 orders of magnitude above any
/// real SaveModel payload here.
constexpr uint64_t kMaxTransferBytes = 1ull << 30;

/// \brief Receiver-side reassembly of one transfer. One instance per
/// connection (a transfer never spans connections); not thread-safe — the
/// frontend drives it from its loop thread only.
class TransferAssembler {
 public:
  /// \brief Start a transfer (implicitly aborting any in-progress one — the
  /// sender gave up on it, or is retrying after a failure).
  util::Status Begin(const std::string& model, uint64_t size, uint64_t frames);

  /// \brief Append frame `seq` after verifying its CRC. Frames must arrive
  /// in order — the transfer rides a single TCP stream, so a gap means a
  /// sender bug, not reordering. Any failure aborts the transfer.
  util::Status AddFrame(uint64_t seq, uint32_t crc, const char* data,
                        size_t len);

  /// \brief Verify frame count, byte count, and the whole-payload CRC, then
  /// hand the assembled bytes out (the transfer ends either way).
  util::Result<std::string> Commit(const std::string& model,
                                   uint32_t whole_crc);

  void Abort();
  bool active() const { return active_; }

  /// \brief Override the per-transfer payload ceiling (tests; embedders with
  /// bigger models).
  void set_max_bytes(uint64_t max_bytes) { max_bytes_ = max_bytes; }

 private:
  bool active_ = false;
  std::string model_;
  uint64_t expect_size_ = 0;
  uint64_t expect_frames_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t max_bytes_ = kMaxTransferBytes;
  std::string buf_;
};

/// \brief Sender side: negotiate the binary framing on a connected
/// client, write the whole transfer of `bytes` as route `model`, then read
/// every reply. Returns the version the receiver published (via `*version`)
/// and the number of data frames written (via `*frames_sent`), each when
/// non-null. Any error means the transfer must restart from scratch; the
/// first rejected frame's error is the one returned.
util::Status SendModelState(NetClient* client, const std::string& model,
                            const std::string& bytes,
                            uint64_t* version = nullptr,
                            uint64_t* frames_sent = nullptr,
                            size_t frame_bytes = kDefaultFrameBytes);

}  // namespace selnet::serve
