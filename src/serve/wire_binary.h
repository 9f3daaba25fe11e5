#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/request.h"
#include "util/status.h"

/// \file wire_binary.h
/// \brief The length-prefixed binary framing — the negotiated fast path of
/// the wire protocol in wire.h.
///
/// Why it exists: the JSON framing costs a number-to-decimal conversion per
/// float in both directions, and a blocking one-line-per-round-trip client
/// cannot amortize the network latency. The binary framing ships floats as
/// raw IEEE-754 little-endian words (bit-identical round trip by
/// construction — the same contract the JSON path earns with
/// shortest-round-trip decimals) inside tagged frames a client can pipeline
/// by the hundreds on one connection.
///
/// Frame layout (all multi-byte integers little-endian):
///
///   offset  size  field
///        0     1  magic0 = 0xD5   (never '{' or whitespace, so a JSON line
///        1     1  magic1 = 0x53    can never alias a frame header)
///        2     1  version         (kWireVersion from the hello exchange)
///        3     1  type            (FrameType below)
///        4     4  payload_len     (u32; bounded by the peer's frame cap)
///        8     8  tag             (u64; correlation tag, 0 = untagged)
///       16     .  payload
///
/// Frame types and payloads:
///   * kEstimate (client -> server): flags u8 (bit0 = deadline present,
///     bit1 = trace requested), model (u8 length + bytes), optional
///     deadline_ms f32 (RELATIVE budget, anchored at decode like JSON),
///     x (u32 count + raw f32 words), thresholds (u32 count + raw f32
///     words). The header tag is the request tag.
///   * kResponse (server -> client): flags u8 (bit0 = fast_path, bit1 =
///     degraded), model (u8 length + bytes), version u64, cache_hits u32
///     (always 0; kept for layout compatibility),
///     estimates (u32 count + f32 words), stage_ms (u32 count + f32 words;
///     non-empty only for wire-traced requests).
///   * kError (server -> client): code (u8 length + bytes; a ShedReasonName
///     or "not_found", empty for untyped failures) + message (u32 length +
///     bytes). Maps to the same typed Status taxonomy as a JSON error line
///     (StatusFromWireError).
///   * kAdmin / kAdminReply: the payload is one JSON admin line / reply
///     (wire.h) WITHOUT the trailing newline. The admin plane — stats,
///     metrics, health — rides binary connections unchanged; framing is the
///     only difference.
///   * State transfer (state_transfer.h; binary connections only), sender
///     -> receiver, then one reply per frame:
///       - kTransferBegin: route (u8 length + bytes), size u64, frames u64;
///       - kTransferData: seq u64, crc u32 (CRC-32 of the data), then the
///         raw payload bytes up to the end of the frame;
///       - kTransferCommit: route (u8 length + bytes), crc u32 (CRC-32 of
///         the whole payload);
///       - kTransferAck (receiver -> sender): version u64 (the published
///         version on a commit, 0 otherwise). A rejected frame is answered
///         with a kError frame carrying its tag instead.
///
/// Malformed-frame policy (mirrors the JSON oversized-line policy): a header
/// with bad magic, an unknown version, or a payload_len over the receiver's
/// cap means FRAMING IS LOST — the receiver sends one kError frame (tag 0)
/// and closes the connection. A well-framed payload that fails to decode
/// only fails that request: kError with the frame's tag, connection stays
/// open. A truncated frame is not an error — just bytes still in flight.

namespace selnet::serve {

inline constexpr uint8_t kFrameMagic0 = 0xD5;
inline constexpr uint8_t kFrameMagic1 = 0x53;
inline constexpr size_t kFrameHeaderBytes = 16;

enum class FrameType : uint8_t {
  kEstimate = 1,
  kResponse = 2,
  kError = 3,
  kAdmin = 4,
  kAdminReply = 5,
  kTransferBegin = 6,
  kTransferData = 7,
  kTransferCommit = 8,
  kTransferAck = 9,
};

/// \brief One decoded frame header.
struct FrameHeader {
  uint8_t version = 0;
  FrameType type = FrameType::kEstimate;
  uint32_t payload_len = 0;
  uint64_t tag = 0;
};

/// \brief What PeelFrameHeader saw at the front of the buffer.
enum class FramePeel {
  kNeedMore,  ///< Fewer than kFrameHeaderBytes buffered — keep reading.
  kFrame,     ///< Valid header in `*hdr`; the payload may still be partial.
  kBad,       ///< Bad magic / version / oversized length: framing is lost.
};

/// \brief Validate the frame header at `data` (first `len` bytes of the
/// receive buffer). kBad fills `*err` with a client-safe reason;
/// payload_len > max_payload is kBad (a hostile length must be rejected
/// before any buffering decision trusts it).
FramePeel PeelFrameHeader(const char* data, size_t len, size_t max_payload,
                          FrameHeader* hdr, std::string* err);

/// \brief Append a whole kEstimate frame for `req` (tag from req.tag; a
/// deadline is encoded as the remaining relative budget, like JSON).
void AppendRequestFrame(std::string* out, const EstimateRequest& req);

/// \brief Append a whole kResponse frame (tag from resp.tag).
void AppendResponseFrame(std::string* out, const EstimateResponse& resp);

/// \brief Append a whole kError frame (`code` may be empty).
void AppendErrorFrame(std::string* out, const std::string& message,
                      const std::string& code, uint64_t tag);

/// \brief Append a kAdmin or kAdminReply frame wrapping one JSON line.
void AppendAdminFrame(std::string* out, FrameType type, uint64_t tag,
                      const std::string& json);

/// \brief The fields of one state-transfer frame; which are meaningful
/// depends on the type (see the frame table above).
struct TransferFields {
  std::string model;           ///< Begin, commit.
  uint64_t size = 0;           ///< Begin: whole payload bytes.
  uint64_t frames = 0;         ///< Begin: data frame count.
  uint64_t seq = 0;            ///< Data.
  uint32_t crc = 0;            ///< Data: its bytes; commit: whole payload.
  const char* data = nullptr;  ///< Data: raw bytes (decoded: points INTO
  size_t data_len = 0;         ///  the frame payload, no copy).
  uint64_t version = 0;        ///< Ack.
};

/// \brief Append a whole transfer frame of `type` (kTransferBegin / Data /
/// Commit / Ack) carrying `f`.
void AppendTransferFrame(std::string* out, FrameType type, uint64_t tag,
                         const TransferFields& f);

/// \brief Decode a transfer frame payload of `type`. Counts and lengths are
/// checked against the payload; nothing is allocated from them.
util::Status DecodeTransferPayload(FrameType type, const char* p, size_t len,
                                   TransferFields* f);

/// \brief Decode a kEstimate payload. `now` anchors a relative deadline to
/// the steady clock — passed in so a batch of frames decoded in one read
/// round shares a single clock sample. The header tag is NOT applied here;
/// the caller sets req->tag from the frame header.
util::Status DecodeRequestPayload(const char* p, size_t len,
                                  std::chrono::steady_clock::time_point now,
                                  EstimateRequest* req);

/// \brief Decode a kResponse payload (tag comes from the header).
util::Status DecodeResponsePayload(const char* p, size_t len,
                                   EstimateResponse* resp);

/// \brief Decode a kError payload into its code token + message. The
/// returned Status is the DECODE result; map the decoded pair through
/// StatusFromWireError for the request's typed failure.
util::Status DecodeErrorPayload(const char* p, size_t len, std::string* code,
                                std::string* message);

}  // namespace selnet::serve
