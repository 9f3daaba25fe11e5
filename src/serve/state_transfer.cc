#include "serve/state_transfer.h"

#include <algorithm>

#include "serve/frontend.h"
#include "serve/wire.h"
#include "serve/wire_binary.h"
#include "util/crc32.h"

namespace selnet::serve {

using util::Result;
using util::Status;

// ------------------------------------------------------- TransferAssembler ---

Status TransferAssembler::Begin(const std::string& model, uint64_t size,
                                uint64_t frames) {
  Abort();
  if (model.empty()) {
    return Status::Invalid("state transfer: begin needs a model route");
  }
  if (frames == 0) {
    return Status::Invalid("state transfer: begin needs >= 1 frame");
  }
  // `size` and `frames` are sender-supplied bytes off an open port: bound
  // them BEFORE any allocation sized by them, and reply with a typed error
  // (std::length_error out of an unchecked reserve would terminate the
  // process instead).
  if (size > max_bytes_) {
    return Status::Invalid("state transfer: announced size " +
                           std::to_string(size) + " exceeds the " +
                           std::to_string(max_bytes_) + "-byte limit");
  }
  if (frames > std::max<uint64_t>(1, size)) {
    return Status::Invalid(
        "state transfer: announced " + std::to_string(frames) +
        " frames for " + std::to_string(size) +
        " bytes (frames carry at least one byte each)");
  }
  active_ = true;
  model_ = model;
  expect_size_ = size;
  expect_frames_ = frames;
  next_seq_ = 0;
  buf_.clear();
  // Capacity hint only, capped at 1 MiB — memory materializes as verified
  // frames arrive (and AddFrame caps growth at expect_size_), so a sender
  // claiming a large size commits us to little up front.
  buf_.reserve(size_t(std::min<uint64_t>(size, 1u << 20)));
  return Status::OK();
}

Status TransferAssembler::AddFrame(uint64_t seq, uint32_t crc,
                                   const char* data, size_t len) {
  if (!active_) {
    return Status::Invalid("state transfer: data frame without begin");
  }
  if (seq != next_seq_) {
    Status st = Status::Invalid(
        "state transfer for '" + model_ + "': frame out of order (got seq " +
        std::to_string(seq) + ", expected " + std::to_string(next_seq_) + ")");
    Abort();
    return st;
  }
  uint32_t computed = util::Crc32(data, len);
  if (computed != crc) {
    Status st = Status::IOError(
        "state transfer for '" + model_ + "': frame " + std::to_string(seq) +
        " checksum mismatch (sent crc32 " + std::to_string(crc) +
        ", computed " + std::to_string(computed) + ") — frame corrupt");
    Abort();
    return st;
  }
  if (len > expect_size_ - buf_.size()) {
    Status st = Status::Invalid("state transfer for '" + model_ +
                                "': payload exceeds announced size " +
                                std::to_string(expect_size_));
    Abort();
    return st;
  }
  buf_.append(data, len);
  ++next_seq_;
  return Status::OK();
}

Result<std::string> TransferAssembler::Commit(const std::string& model,
                                              uint32_t whole_crc) {
  if (!active_) {
    return Status::Invalid("state transfer: commit without begin");
  }
  // The transfer is over after this call, success or not.
  std::string bytes = std::move(buf_);
  std::string route = model_;
  uint64_t got_frames = next_seq_;
  uint64_t want_frames = expect_frames_;
  uint64_t want_size = expect_size_;
  Abort();
  if (model != route) {
    return Status::Invalid("state transfer: commit route '" + model +
                           "' does not match begin route '" + route + "'");
  }
  if (got_frames != want_frames || bytes.size() != want_size) {
    return Status::Invalid(
        "state transfer for '" + route + "': incomplete payload (" +
        std::to_string(got_frames) + "/" + std::to_string(want_frames) +
        " frames, " + std::to_string(bytes.size()) + "/" +
        std::to_string(want_size) + " bytes)");
  }
  uint32_t computed = util::Crc32(bytes.data(), bytes.size());
  if (computed != whole_crc) {
    return Status::IOError("state transfer for '" + route +
                           "': whole-payload checksum mismatch (sent crc32 " +
                           std::to_string(whole_crc) + ", computed " +
                           std::to_string(computed) + ")");
  }
  return bytes;
}

void TransferAssembler::Abort() {
  active_ = false;
  model_.clear();
  expect_size_ = expect_frames_ = next_seq_ = 0;
  buf_.clear();
  buf_.shrink_to_fit();
}

// --------------------------------------------------------- SendModelState ---

Status SendModelState(NetClient* client, const std::string& model,
                      const std::string& bytes, uint64_t* version,
                      uint64_t* frames_sent, size_t frame_bytes) {
  if (client->proto() != WireProto::kBinary) {
    SEL_RETURN_NOT_OK(client->Hello(WireProto::kBinary));
  }
  if (client->proto() != WireProto::kBinary) {
    return Status::NotImplemented(
        "state transfer: the peer does not speak the binary framing");
  }
  const size_t chunk = std::max<size_t>(1, frame_bytes);
  // An empty payload still ships one (empty) data frame, so begin and commit
  // always bracket at least one — simpler invariants on both ends.
  const uint64_t frames =
      std::max<uint64_t>(1, (bytes.size() + chunk - 1) / chunk);
  std::string out;
  out.reserve(bytes.size() + (frames + 2) * 32 + 2 * model.size());
  TransferFields f{model, bytes.size(), frames};
  uint64_t tag = 1;
  AppendTransferFrame(&out, FrameType::kTransferBegin, tag++, f);
  for (uint64_t seq = 0; seq < frames; ++seq) {
    const size_t off = size_t(seq) * chunk;
    f.seq = seq;
    f.data = bytes.data() + off;
    f.data_len = std::min(chunk, bytes.size() - off);
    f.crc = util::Crc32(f.data, f.data_len);
    AppendTransferFrame(&out, FrameType::kTransferData, tag++, f);
  }
  f.crc = util::Crc32(bytes.data(), bytes.size());
  AppendTransferFrame(&out, FrameType::kTransferCommit, tag, f);
  SEL_RETURN_NOT_OK(client->SendRaw(out));

  // One reply per frame, in order. The first rejection is the verdict (the
  // receiver aborted there, so later frames are refused as well); the
  // commit's ack carries the published version.
  Status verdict;
  for (uint64_t i = 0; i < frames + 2; ++i) {
    FrameHeader hdr;
    Result<std::string> payload =
        client->ReadReply(FrameType::kTransferAck, &hdr);
    // Anything but an ack or a typed rejection means the stream is lost.
    if (!payload.ok() && hdr.type != FrameType::kError) return payload.status();
    TransferFields ack;
    Status st = payload.ok() ? DecodeTransferPayload(
                                   hdr.type, payload.ValueOrDie().data(),
                                   payload.ValueOrDie().size(), &ack)
                             : payload.status();
    if (verdict.ok()) verdict = st;
    if (verdict.ok() && version != nullptr) *version = ack.version;
  }
  if (verdict.ok() && frames_sent != nullptr) *frames_sent = frames;
  return verdict;
}

}  // namespace selnet::serve
