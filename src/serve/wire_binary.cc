#include "serve/wire_binary.h"

#include <cstring>

#include "serve/wire.h"

namespace selnet::serve {

using util::Status;

namespace {

// Explicit little-endian put/get: the codec's byte order is part of the
// protocol, not a property of the host.

void PutU32(std::string* out, uint32_t v) {
  char b[4] = {char(v & 0xff), char((v >> 8) & 0xff), char((v >> 16) & 0xff),
               char((v >> 24) & 0xff)};
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = char((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

void PutF32(std::string* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  PutU32(out, bits);
}

uint32_t GetU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return uint32_t(u[0]) | uint32_t(u[1]) << 8 | uint32_t(u[2]) << 16 |
         uint32_t(u[3]) << 24;
}

uint64_t GetU64(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(u[i]) << (8 * i);
  return v;
}

float GetF32(const char* p) {
  uint32_t bits = GetU32(p);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

/// Bounds-checked sequential reader over one payload. Every Read* fails
/// (never over-reads) on a payload truncated or lying about its counts —
/// payloads are client bytes off an open port.
class PayloadReader {
 public:
  PayloadReader(const char* p, size_t len) : p_(p), len_(len) {}

  bool AtEnd() const { return off_ == len_; }

  Status Fail(const char* what) const {
    return Status::Invalid(std::string("wire: binary payload: ") + what);
  }

  Status ReadU8(uint8_t* out) {
    if (len_ - off_ < 1) return Fail("truncated");
    *out = uint8_t(p_[off_++]);
    return Status::OK();
  }

  Status ReadU32(uint32_t* out) {
    if (len_ - off_ < 4) return Fail("truncated");
    *out = GetU32(p_ + off_);
    off_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    if (len_ - off_ < 8) return Fail("truncated");
    *out = GetU64(p_ + off_);
    off_ += 8;
    return Status::OK();
  }

  Status ReadF32(float* out) {
    if (len_ - off_ < 4) return Fail("truncated");
    *out = GetF32(p_ + off_);
    off_ += 4;
    return Status::OK();
  }

  /// u8 length + bytes (model names, error codes).
  Status ReadShortString(std::string* out) {
    uint8_t n = 0;
    SEL_RETURN_NOT_OK(ReadU8(&n));
    if (len_ - off_ < n) return Fail("truncated string");
    out->assign(p_ + off_, n);
    off_ += n;
    return Status::OK();
  }

  /// u32 length + bytes (error messages).
  Status ReadString(std::string* out) {
    uint32_t n = 0;
    SEL_RETURN_NOT_OK(ReadU32(&n));
    if (len_ - off_ < n) return Fail("truncated string");
    out->assign(p_ + off_, n);
    off_ += n;
    return Status::OK();
  }

  /// Everything left in the payload, without a copy.
  const char* TakeRest(size_t* n) {
    *n = len_ - off_;
    off_ = len_;
    return p_ + off_ - *n;
  }

  /// u32 count + raw f32 words. The count is validated against the bytes
  /// actually present BEFORE any allocation — a hostile count cannot force
  /// a giant reserve.
  Status ReadF32Array(std::vector<float>* out) {
    uint32_t n = 0;
    SEL_RETURN_NOT_OK(ReadU32(&n));
    if ((len_ - off_) / 4 < n) return Fail("float array count exceeds payload");
    out->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      (*out)[i] = GetF32(p_ + off_);
      off_ += 4;
    }
    return Status::OK();
  }

 private:
  const char* p_;
  size_t len_;
  size_t off_ = 0;
};

void PutShortString(std::string* out, const std::string& s) {
  // Routes and code tokens are short by construction; a pathological name is
  // truncated rather than corrupting the frame layout.
  const size_t n = s.size() < 255 ? s.size() : 255;
  out->push_back(char(uint8_t(n)));
  out->append(s.data(), n);
}

void PutF32Array(std::string* out, const std::vector<float>& v) {
  PutU32(out, uint32_t(v.size()));
  for (float f : v) PutF32(out, f);
}

void AppendHeader(std::string* out, FrameType type, uint64_t tag,
                  size_t payload_len) {
  out->push_back(char(kFrameMagic0));
  out->push_back(char(kFrameMagic1));
  out->push_back(char(kWireVersion));
  out->push_back(char(uint8_t(type)));
  PutU32(out, uint32_t(payload_len));
  PutU64(out, tag);
}

/// Write the frame header after the payload is built: append a placeholder
/// header, build the payload in place, then patch the length.
class FrameBuilder {
 public:
  FrameBuilder(std::string* out, FrameType type, uint64_t tag) : out_(out) {
    start_ = out->size();
    AppendHeader(out, type, tag, 0);
  }

  ~FrameBuilder() {
    const uint32_t len = uint32_t(out_->size() - start_ - kFrameHeaderBytes);
    char* p = &(*out_)[start_ + 4];
    p[0] = char(len & 0xff);
    p[1] = char((len >> 8) & 0xff);
    p[2] = char((len >> 16) & 0xff);
    p[3] = char((len >> 24) & 0xff);
  }

 private:
  std::string* out_;
  size_t start_;
};

constexpr uint8_t kReqFlagDeadline = 1u << 0;
constexpr uint8_t kReqFlagTrace = 1u << 1;
constexpr uint8_t kRespFlagFastPath = 1u << 0;
constexpr uint8_t kRespFlagDegraded = 1u << 1;

}  // namespace

FramePeel PeelFrameHeader(const char* data, size_t len, size_t max_payload,
                          FrameHeader* hdr, std::string* err) {
  if (len < kFrameHeaderBytes) return FramePeel::kNeedMore;
  const unsigned char* u = reinterpret_cast<const unsigned char*>(data);
  if (u[0] != kFrameMagic0 || u[1] != kFrameMagic1) {
    if (err != nullptr) *err = "wire: bad frame magic";
    return FramePeel::kBad;
  }
  if (u[2] == 0 || u[2] > kWireVersion) {
    if (err != nullptr) {
      *err = "wire: unsupported frame version " + std::to_string(u[2]);
    }
    return FramePeel::kBad;
  }
  if (u[3] < uint8_t(FrameType::kEstimate) ||
      u[3] > uint8_t(FrameType::kTransferAck)) {
    if (err != nullptr) {
      *err = "wire: unknown frame type " + std::to_string(u[3]);
    }
    return FramePeel::kBad;
  }
  const uint32_t payload_len = GetU32(data + 4);
  if (payload_len > max_payload) {
    if (err != nullptr) {
      *err = "wire: frame payload " + std::to_string(payload_len) +
             " exceeds " + std::to_string(max_payload) + " bytes";
    }
    return FramePeel::kBad;
  }
  hdr->version = u[2];
  hdr->type = FrameType(u[3]);
  hdr->payload_len = payload_len;
  hdr->tag = GetU64(data + 8);
  return FramePeel::kFrame;
}

void AppendRequestFrame(std::string* out, const EstimateRequest& req) {
  FrameBuilder frame(out, FrameType::kEstimate, req.tag);
  uint8_t flags = 0;
  if (req.has_deadline()) flags |= kReqFlagDeadline;
  if (req.wire_trace || req.trace) flags |= kReqFlagTrace;
  out->push_back(char(flags));
  PutShortString(out, req.model);
  if (req.has_deadline()) {
    // The budget REMAINING at serialization time, clamped at 0 — identical
    // semantics to the JSON deadline_ms field.
    double remaining_ms = std::chrono::duration<double, std::milli>(
                              req.deadline - std::chrono::steady_clock::now())
                              .count();
    PutF32(out, remaining_ms > 0.0 ? float(remaining_ms) : 0.0f);
  }
  PutF32Array(out, req.x);
  PutF32Array(out, req.thresholds);
}

void AppendResponseFrame(std::string* out, const EstimateResponse& resp) {
  FrameBuilder frame(out, FrameType::kResponse, resp.tag);
  uint8_t flags = 0;
  if (resp.fast_path) flags |= kRespFlagFastPath;
  if (resp.degraded) flags |= kRespFlagDegraded;
  out->push_back(char(flags));
  PutShortString(out, resp.model);
  PutU64(out, resp.version);
  PutU32(out, resp.cache_hits);
  PutF32Array(out, resp.estimates);
  PutF32Array(out, resp.stage_ms);
}

void AppendErrorFrame(std::string* out, const std::string& message,
                      const std::string& code, uint64_t tag) {
  FrameBuilder frame(out, FrameType::kError, tag);
  PutShortString(out, code);
  PutU32(out, uint32_t(message.size()));
  out->append(message);
}

void AppendAdminFrame(std::string* out, FrameType type, uint64_t tag,
                      const std::string& json) {
  FrameBuilder frame(out, type, tag);
  out->append(json);
}

void AppendTransferFrame(std::string* out, FrameType type, uint64_t tag,
                         const TransferFields& f) {
  FrameBuilder frame(out, type, tag);
  switch (type) {
    case FrameType::kTransferBegin:
      PutShortString(out, f.model);
      PutU64(out, f.size);
      PutU64(out, f.frames);
      break;
    case FrameType::kTransferData:
      PutU64(out, f.seq);
      PutU32(out, f.crc);
      out->append(f.data, f.data_len);
      break;
    case FrameType::kTransferCommit:
      PutShortString(out, f.model);
      PutU32(out, f.crc);
      break;
    default:  // kTransferAck.
      PutU64(out, f.version);
      break;
  }
}

Status DecodeTransferPayload(FrameType type, const char* p, size_t len,
                             TransferFields* f) {
  TransferFields parsed;
  PayloadReader r(p, len);
  switch (type) {
    case FrameType::kTransferBegin:
      SEL_RETURN_NOT_OK(r.ReadShortString(&parsed.model));
      SEL_RETURN_NOT_OK(r.ReadU64(&parsed.size));
      SEL_RETURN_NOT_OK(r.ReadU64(&parsed.frames));
      break;
    case FrameType::kTransferData:
      SEL_RETURN_NOT_OK(r.ReadU64(&parsed.seq));
      SEL_RETURN_NOT_OK(r.ReadU32(&parsed.crc));
      parsed.data = r.TakeRest(&parsed.data_len);
      break;
    case FrameType::kTransferCommit:
      SEL_RETURN_NOT_OK(r.ReadShortString(&parsed.model));
      SEL_RETURN_NOT_OK(r.ReadU32(&parsed.crc));
      break;
    case FrameType::kTransferAck:
      SEL_RETURN_NOT_OK(r.ReadU64(&parsed.version));
      break;
    default:
      return r.Fail("not a transfer frame");
  }
  if (!r.AtEnd()) return r.Fail("trailing bytes");
  *f = std::move(parsed);
  return Status::OK();
}

Status DecodeRequestPayload(const char* p, size_t len,
                            std::chrono::steady_clock::time_point now,
                            EstimateRequest* req) {
  EstimateRequest parsed;
  PayloadReader r(p, len);
  uint8_t flags = 0;
  SEL_RETURN_NOT_OK(r.ReadU8(&flags));
  SEL_RETURN_NOT_OK(r.ReadShortString(&parsed.model));
  if (flags & kReqFlagDeadline) {
    float budget_ms = 0.0f;
    SEL_RETURN_NOT_OK(r.ReadF32(&budget_ms));
    SEL_RETURN_NOT_OK(DeadlineFromBudget(budget_ms, now, &parsed.deadline));
  }
  parsed.wire_trace = (flags & kReqFlagTrace) != 0;
  SEL_RETURN_NOT_OK(r.ReadF32Array(&parsed.x));
  SEL_RETURN_NOT_OK(r.ReadF32Array(&parsed.thresholds));
  if (!r.AtEnd()) return r.Fail("trailing bytes");
  if (parsed.x.empty()) {
    return Status::Invalid("wire: request needs a non-empty x array");
  }
  if (parsed.thresholds.empty()) {
    return Status::Invalid("wire: request needs a non-empty thresholds array");
  }
  *req = std::move(parsed);
  return Status::OK();
}

Status DecodeResponsePayload(const char* p, size_t len,
                             EstimateResponse* resp) {
  EstimateResponse parsed;
  PayloadReader r(p, len);
  uint8_t flags = 0;
  SEL_RETURN_NOT_OK(r.ReadU8(&flags));
  parsed.fast_path = (flags & kRespFlagFastPath) != 0;
  parsed.degraded = (flags & kRespFlagDegraded) != 0;
  SEL_RETURN_NOT_OK(r.ReadShortString(&parsed.model));
  SEL_RETURN_NOT_OK(r.ReadU64(&parsed.version));
  uint32_t cache_hits = 0;
  SEL_RETURN_NOT_OK(r.ReadU32(&cache_hits));
  parsed.cache_hits = cache_hits;
  SEL_RETURN_NOT_OK(r.ReadF32Array(&parsed.estimates));
  SEL_RETURN_NOT_OK(r.ReadF32Array(&parsed.stage_ms));
  if (!r.AtEnd()) return r.Fail("trailing bytes");
  *resp = std::move(parsed);
  return Status::OK();
}

Status DecodeErrorPayload(const char* p, size_t len, std::string* code,
                          std::string* message) {
  PayloadReader r(p, len);
  SEL_RETURN_NOT_OK(r.ReadShortString(code));
  SEL_RETURN_NOT_OK(r.ReadString(message));
  if (!r.AtEnd()) return r.Fail("trailing bytes");
  return Status::OK();
}

}  // namespace selnet::serve
