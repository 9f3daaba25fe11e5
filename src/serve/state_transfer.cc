#include "serve/state_transfer.h"

#include <algorithm>

#include "serve/frontend.h"
#include "serve/wire.h"
#include "util/base64.h"
#include "util/crc32.h"

namespace selnet::serve {

using util::Result;
using util::Status;

std::vector<TransferFrame> BuildFrames(const std::string& bytes,
                                       size_t frame_bytes) {
  std::vector<TransferFrame> frames;
  size_t chunk = std::max<size_t>(1, frame_bytes);
  frames.reserve(bytes.size() / chunk + 1);
  // An empty payload still ships one (empty) frame so begin/commit always
  // bracket at least one data line — simpler invariants on both ends.
  size_t off = 0;
  do {
    TransferFrame f;
    f.seq = frames.size();
    f.data = bytes.substr(off, chunk);
    f.crc = util::Crc32(f.data.data(), f.data.size());
    off += f.data.size();
    frames.push_back(std::move(f));
  } while (off < bytes.size());
  return frames;
}

std::string SerializeXferBegin(const std::string& model, uint64_t size,
                               uint64_t frames, uint64_t tag) {
  JsonWriter w;
  w.Field("cmd", "xfer_begin");  // "cmd" first: LineLooksAdmin keys on it.
  w.Field("model", model);
  w.Field("size", size);
  w.Field("frames", frames);
  if (tag != 0) w.Field("tag", tag);
  return w.Finish();
}

std::string SerializeXferFrame(const TransferFrame& frame, uint64_t tag) {
  JsonWriter w;
  w.Field("cmd", "xfer_frame");
  w.Field("seq", frame.seq);
  w.Field("crc", uint64_t(frame.crc));
  w.Field("data", util::Base64Encode(frame.data));
  if (tag != 0) w.Field("tag", tag);
  return w.Finish();
}

std::string SerializeXferCommit(const std::string& model, uint32_t whole_crc,
                                uint64_t tag) {
  JsonWriter w;
  w.Field("cmd", "xfer_commit");
  w.Field("model", model);
  w.Field("crc", uint64_t(whole_crc));
  if (tag != 0) w.Field("tag", tag);
  return w.Finish();
}

// ------------------------------------------------------- TransferAssembler ---

Status TransferAssembler::Begin(const std::string& model, uint64_t size,
                                uint64_t frames) {
  Abort();
  if (model.empty()) {
    return Status::Invalid("state transfer: xfer_begin needs a model route");
  }
  if (frames == 0) {
    return Status::Invalid("state transfer: xfer_begin needs >= 1 frame");
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
  // Capacity hint only — memory materializes as verified frames arrive (and
  // AddFrame caps growth at expect_size_), so a sender claiming a large size
  // commits us to nothing up front.
  buf_.reserve(size_t(std::min<uint64_t>(size, uint64_t(kDefaultFrameBytes) * 16)));
  return Status::OK();
}

Status TransferAssembler::AddFrame(uint64_t seq, uint32_t crc,
                                   const std::string& data) {
  if (!active_) {
    return Status::Invalid("state transfer: xfer_frame without xfer_begin");
  }
  if (seq != next_seq_) {
    Status st = Status::Invalid(
        "state transfer for '" + model_ + "': frame out of order (got seq " +
        std::to_string(seq) + ", expected " + std::to_string(next_seq_) + ")");
    Abort();
    return st;
  }
  uint32_t computed = util::Crc32(data.data(), data.size());
  if (computed != crc) {
    Status st = Status::IOError(
        "state transfer for '" + model_ + "': frame " + std::to_string(seq) +
        " checksum mismatch (sent crc32 " + std::to_string(crc) +
        ", computed " + std::to_string(computed) + ") — frame corrupt");
    Abort();
    return st;
  }
  buf_ += data;
  ++next_seq_;
  if (buf_.size() > expect_size_) {
    Status st = Status::Invalid("state transfer for '" + model_ +
                                "': payload exceeds announced size " +
                                std::to_string(expect_size_));
    Abort();
    return st;
  }
  return Status::OK();
}

Result<std::string> TransferAssembler::Commit(const std::string& model,
                                              uint32_t whole_crc) {
  if (!active_) {
    return Status::Invalid("state transfer: xfer_commit without xfer_begin");
  }
  // The transfer is over after this call, success or not.
  std::string bytes = std::move(buf_);
  std::string route = model_;
  uint64_t got_frames = next_seq_;
  uint64_t want_frames = expect_frames_;
  uint64_t want_size = expect_size_;
  Abort();
  if (model != route) {
    return Status::Invalid("state transfer: xfer_commit route '" + model +
                           "' does not match xfer_begin route '" + route +
                           "'");
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

namespace {

Status SendAwaitAck(NetClient* client, const std::string& line,
                 uint64_t* version = nullptr) {
  SEL_RETURN_NOT_OK(client->SendRaw(line + "\n"));
  Result<std::string> reply = client->ReadLine();
  if (!reply.ok()) return reply.status();
  return ParseAckLine(reply.ValueOrDie(), version);
}

}  // namespace

Status SendModelState(NetClient* client, const std::string& model,
                      const std::string& bytes, uint64_t* version,
                      size_t frame_bytes) {
  std::vector<TransferFrame> frames = BuildFrames(bytes, frame_bytes);
  SEL_RETURN_NOT_OK(SendAwaitAck(
      client, SerializeXferBegin(model, bytes.size(), frames.size())));
  for (const TransferFrame& f : frames) {
    SEL_RETURN_NOT_OK(SendAwaitAck(client, SerializeXferFrame(f)));
  }
  uint32_t whole = util::Crc32(bytes.data(), bytes.size());
  return SendAwaitAck(client, SerializeXferCommit(model, whole), version);
}

}  // namespace selnet::serve
