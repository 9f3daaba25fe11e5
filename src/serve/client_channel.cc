#include "serve/client_channel.h"

#include <sys/socket.h>

#include <algorithm>
#include <exception>
#include <utility>

#include "serve/admission.h"
#include "serve/frontend.h"

namespace selnet::serve {

using util::Result;
using util::Status;
using util::StatusCode;

ClientChannel::ClientChannel(const ClientChannelConfig& cfg) : cfg_(cfg) {}

ClientChannel::~ClientChannel() { Close(); }

std::string ClientChannel::endpoint() const {
  return cfg_.address + ":" + std::to_string(cfg_.port);
}

size_t ClientChannel::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

Status ClientChannel::Connect() {
  Close();
  // The hello exchange is one blocking round trip before the reader exists:
  // NetClient's, then the socket and any bytes past the reply move here.
  NetClient dial;
  SEL_RETURN_NOT_OK(dial.Connect(cfg_.address, cfg_.port));
  util::SetNoDelay(dial.fd());
  if (cfg_.preferred_proto == WireProto::kBinary) {
    // Bounded: a peer that accepts but never answers must not hang Connect.
    dial.set_recv_timeout_ms(cfg_.hello_timeout_ms > 0 ? cfg_.hello_timeout_ms
                                                       : 5000);
    SEL_RETURN_NOT_OK(dial.Hello(WireProto::kBinary));
  }
  const WireProto negotiated = dial.proto();
  std::string seed;
  util::Fd sock = dial.Release(&seed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_ = std::move(sock);
    reader_stop_ = false;
  }
  proto_ = negotiated;
  seed_ = std::move(seed);
  {
    std::lock_guard<std::mutex> wl(wq_mu_);
    wq_.clear();
    writing_ = false;
  }
  up_.store(true, std::memory_order_release);
  reader_ = std::thread(&ClientChannel::ReaderLoop, this);
  return Status::OK();
}

void ClientChannel::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reader_stop_ = true;
    // shutdown (not close) so the descriptor number stays reserved until
    // every user is done — the reader polls the raw fd outside the lock,
    // and a Call may be mid-WriteAll under write_mu_.
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  }
  wake_.Notify();
  if (reader_.joinable()) reader_.join();
  {
    // write_mu_ too: closing while a writer holds the raw descriptor would
    // let a concurrent open reuse the fd number and receive the request
    // bytes. Order write_mu_ -> mu_, same as the write path.
    std::lock_guard<std::mutex> wlock(write_mu_);
    std::lock_guard<std::mutex> lock(mu_);
    fd_.Close();
  }
  FailAllPending(StatusCode::kIoError, endpoint() + ": connection closed");
}

void ClientChannel::FailAllPending(StatusCode code, const std::string& msg) {
  up_.store(false, std::memory_order_release);
  std::vector<Pending> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    taken.reserve(pending_.size());
    for (auto& [tag, entry] : pending_) taken.push_back(std::move(entry));
    pending_.clear();
  }
  if (taken.empty()) return;
  auto error = std::make_exception_ptr(RemoteError(code, msg));
  for (auto& entry : taken) {
    EstimateResponse resp;
    resp.tag = entry.caller_tag;
    entry.done(std::move(resp), error);
  }
}

void ClientChannel::Call(EstimateRequest req, SelNetServer::ResponseFn done) {
  std::vector<SelNetServer::Submission> one(1);
  one[0].req = std::move(req);
  one[0].done = std::move(done);
  CallMany(std::move(one));
}

void ClientChannel::CallMany(std::vector<SelNetServer::Submission> batch) {
  if (batch.empty()) return;
  const Clock::time_point now = Clock::now();

  // Register the whole batch under one lock acquisition, assigning wire
  // tags; serialization happens after, outside the lock the reader needs.
  std::vector<uint64_t> wire_tags(batch.size(), 0);
  bool registered = false;
  bool nudge = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (up_.load(std::memory_order_relaxed) && fd_.valid()) {
      registered = true;
      for (size_t i = 0; i < batch.size(); ++i) {
        EstimateRequest& req = batch[i].req;
        Pending entry;
        entry.caller_tag = req.tag;
        entry.trace = req.trace;
        entry.sent = now;
        if (cfg_.recv_timeout_ms > 0) {
          entry.expires = now + std::chrono::milliseconds(cfg_.recv_timeout_ms);
        }
        if (req.has_deadline() && (entry.expires == Clock::time_point{} ||
                                   req.deadline < entry.expires)) {
          entry.expires = req.deadline;
          entry.expiry_is_request_deadline = true;
        }
        if (entry.expires != Clock::time_point{} &&
            entry.expires < armed_expiry_) {
          armed_expiry_ = entry.expires;
          nudge = true;
        }
        entry.done = std::move(batch[i].done);
        wire_tags[i] = next_tag_++;
        pending_.emplace(wire_tags[i], std::move(entry));
      }
    }
  }
  if (!registered) {
    auto error = std::make_exception_ptr(RemoteError(
        StatusCode::kUnavailable, endpoint() + ": no data connection"));
    for (auto& s : batch) {
      EstimateResponse resp;
      resp.tag = s.req.tag;
      s.done(std::move(resp), error);
    }
    return;
  }

  // One contiguous buffer for the burst. The caller's tag was captured in
  // the pending entry; the wire carries the internal correlation tag.
  std::string out;
  const bool binary = proto_ == WireProto::kBinary;
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].req.tag = wire_tags[i];
    if (binary) {
      AppendRequestFrame(&out, batch[i].req);
    } else {
      out += SerializeRequest(batch[i].req);
      out += '\n';
    }
  }

  // Flush-combining: append under the queue lock; the first appender of a
  // burst becomes the flusher and swap-drains until the queue is empty, so
  // concurrent Calls coalesce into few write syscalls.
  bool flusher = false;
  {
    std::lock_guard<std::mutex> wl(wq_mu_);
    wq_ += out;
    if (!writing_) {
      writing_ = true;
      flusher = true;
    }
  }
  if (flusher && !FlushQueued()) {
    // The connection is dead with an unknowable subset of queued requests
    // on the wire; fail everything in flight (kIoError: the remote MAY have
    // executed some). The reader notices the dead socket independently.
    FailAllPending(StatusCode::kIoError, endpoint() + ": send failed");
    return;
  }
  // Only an expiry earlier than the reader's armed wake-up needs a nudge;
  // every other one is found by the reader's next scan.
  if (nudge) wake_.Notify();
}

bool ClientChannel::FlushQueued() {
  for (;;) {
    std::string out;
    {
      std::lock_guard<std::mutex> wl(wq_mu_);
      if (wq_.empty()) {
        writing_ = false;
        return true;
      }
      out.swap(wq_);
    }
    std::lock_guard<std::mutex> wlock(write_mu_);
    int raw_fd = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fd_.valid() && !reader_stop_) raw_fd = fd_.get();
    }
    Status wrote = raw_fd < 0
                       ? Status::IOError("data connection closed")
                       : util::WriteAll(raw_fd, out.data(), out.size());
    if (!wrote.ok()) {
      std::lock_guard<std::mutex> wl(wq_mu_);
      writing_ = false;
      wq_.clear();
      return false;
    }
  }
}

void ClientChannel::ReaderLoop() {
  std::string rbuf = std::move(seed_);
  seed_.clear();
  char buf[16 << 10];
  const bool binary = proto_ == WireProto::kBinary;
  for (;;) {
    int raw_fd = -1;
    int timeout_ms = -1;
    std::vector<Pending> expired;
    {
      Clock::time_point now = Clock::now();
      Clock::time_point next{};
      std::lock_guard<std::mutex> lock(mu_);
      if (reader_stop_) return;
      raw_fd = fd_.get();
      for (auto it = pending_.begin(); it != pending_.end();) {
        const Clock::time_point& e = it->second.expires;
        if (e != Clock::time_point{} && e <= now) {
          expired.push_back(std::move(it->second));
          it = pending_.erase(it);
        } else {
          if (e != Clock::time_point{} &&
              (next == Clock::time_point{} || e < next)) {
            next = e;
          }
          ++it;
        }
      }
      armed_expiry_ = Clock::time_point::max();
      if (next != Clock::time_point{}) {
        auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      next - now)
                      .count();
        timeout_ms = int(std::clamp<long long>(ms + 1, 1, 60'000));
        armed_expiry_ = next;
      } else if (cfg_.recv_timeout_ms > 0) {
        // Idle: sleep one recv timeout, so no recv-timeout expiry of a
        // request sent from now on precedes this wake-up.
        timeout_ms = cfg_.recv_timeout_ms;
        armed_expiry_ = now + std::chrono::milliseconds(timeout_ms);
      }
    }
    for (auto& entry : expired) {
      EstimateResponse resp;
      resp.tag = entry.caller_tag;
      std::exception_ptr error;
      if (entry.expiry_is_request_deadline) {
        // Mirrors the in-process shed: the request itself ran out of time.
        error = std::make_exception_ptr(OverloadError(
            ShedReason::kDeadlineExpired,
            endpoint() + ": deadline expired awaiting the remote"));
      } else {
        error = std::make_exception_ptr(RemoteError(
            StatusCode::kDeadlineExceeded,
            endpoint() + ": no response within " +
                std::to_string(cfg_.recv_timeout_ms) + "ms (peer suspect)"));
      }
      entry.done(std::move(resp), error);
    }

    std::vector<util::PollEntry> entries(2);
    entries[0].fd = raw_fd;
    entries[0].want_read = true;
    entries[1].fd = wake_.read_fd();
    entries[1].want_read = true;
    auto polled = util::Poll(&entries, timeout_ms);
    if (!polled.ok()) {
      FailAllPending(StatusCode::kIoError,
                     endpoint() + ": poll failed (" +
                         polled.status().message() + ")");
      return;
    }
    if (entries[1].readable) wake_.Drain();
    if (!entries[0].readable && !entries[0].error) continue;

    auto n = util::ReadSome(raw_fd, buf, sizeof buf);
    if (!n.ok()) {
      if (n.status().code() == StatusCode::kOutOfRange) continue;  // EAGAIN
      FailAllPending(StatusCode::kIoError,
                     endpoint() + ": read failed (" + n.status().message() +
                         ")");
      return;
    }
    int64_t got = n.ValueOrDie();
    if (got == 0) {
      FailAllPending(StatusCode::kIoError,
                     endpoint() + ": connection closed by peer");
      return;
    }
    rbuf.append(buf, size_t(got));
    if (binary) {
      size_t start = 0;
      for (;;) {
        FrameHeader hdr;
        std::string err;
        const FramePeel peel =
            PeelFrameHeader(rbuf.data() + start, rbuf.size() - start,
                            size_t(1) << 26, &hdr, &err);
        if (peel == FramePeel::kNeedMore) break;
        if (peel == FramePeel::kBad) {
          // Framing lost mid-stream: nothing downstream is trustworthy.
          FailAllPending(StatusCode::kIoError,
                         endpoint() + ": bad frame (" + err + ")");
          return;
        }
        const size_t total = kFrameHeaderBytes + size_t(hdr.payload_len);
        if (rbuf.size() - start < total) break;
        HandleFrame(hdr, rbuf.data() + start + kFrameHeaderBytes);
        start += total;
      }
      rbuf.erase(0, start);
    } else {
      size_t start = 0;
      size_t nl;
      while ((nl = rbuf.find('\n', start)) != std::string::npos) {
        HandleLine(rbuf.substr(start, nl - start));
        start = nl + 1;
      }
      rbuf.erase(0, start);
    }
  }
}

void ClientChannel::HandleLine(const std::string& line) {
  EstimateResponse resp;
  Status st = ParseResponseLine(line, &resp);
  uint64_t wire_tag = st.ok() ? resp.tag : ExtractTagBestEffort(line);
  CompleteReply(wire_tag, std::move(resp), st);
}

void ClientChannel::HandleFrame(const FrameHeader& hdr, const char* payload) {
  EstimateResponse resp;
  Status st;
  switch (hdr.type) {
    case FrameType::kResponse:
      st = DecodeResponsePayload(payload, hdr.payload_len, &resp);
      break;
    case FrameType::kError: {
      std::string code, message;
      Status dec = DecodeErrorPayload(payload, hdr.payload_len, &code,
                                      &message);
      st = dec.ok() ? StatusFromWireError(code, message)
                    : Status::Internal(dec.message());
      break;
    }
    default:
      // Admin replies are not data-plane traffic; nothing pends on them
      // here (control calls dial their own connection).
      return;
  }
  CompleteReply(hdr.tag, std::move(resp), st);
}

void ClientChannel::CompleteReply(uint64_t wire_tag, EstimateResponse resp,
                                  Status st) {
  if (wire_tag == 0) return;  // Untagged reply — we tag every request, so
                              // nothing can be waiting on it.
  SelNetServer::ResponseFn cb;
  uint64_t caller_tag = 0;
  std::shared_ptr<RequestTrace> trace;
  Clock::time_point sent{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(wire_tag);
    if (it == pending_.end()) return;  // Expired earlier; its completion
                                       // already fired — discard the late
                                       // reply so it fires exactly once.
    cb = std::move(it->second.done);
    caller_tag = it->second.caller_tag;
    trace = std::move(it->second.trace);
    sent = it->second.sent;
    pending_.erase(it);
  }
  resp.tag = caller_tag;
  if (trace) {
    // Attribute the hop: the remote's own queue/predict time (from its
    // stage block) becomes the remote_* stages, and remote_wire is the
    // whole caller-observed round trip — floored at the remote's share so
    // remote_queue + remote_predict <= remote_wire holds even against
    // clock granularity noise.
    double wire_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent)
            .count();
    double remote_share = 0.0;
    if (resp.stage_ms.size() >= kNumLocalStages) {
      double rq = double(resp.stage_ms[size_t(Stage::kQueue)]);
      double rp = double(resp.stage_ms[size_t(Stage::kPredict)]);
      remote_share = rq + rp;
      trace->Observe(Stage::kRemoteQueue, rq);
      trace->Observe(Stage::kRemotePredict, rp);
    }
    trace->Observe(Stage::kRemoteWire, std::max(wire_ms, remote_share));
  }
  // The block is coordinator-internal: it merged into the trace above and
  // must not leak into the caller-visible response.
  resp.stage_ms.clear();
  if (st.ok()) {
    cb(std::move(resp), nullptr);
    return;
  }
  std::exception_ptr error;
  switch (st.code()) {
    case StatusCode::kDeadlineExceeded:
      // The remote admission controller shed it — same taxonomy as local.
      error = std::make_exception_ptr(
          OverloadError(ShedReason::kDeadlineExpired, st.message()));
      break;
    case StatusCode::kUnavailable:
      // queue_full / priority_shed / shutdown: never served; another
      // replica may have capacity.
      error = std::make_exception_ptr(
          RemoteError(StatusCode::kUnavailable, st.message()));
      break;
    case StatusCode::kNotFound:
      // This replica doesn't hold the route — another may. Retryable.
      error = std::make_exception_ptr(
          RemoteError(StatusCode::kNotFound, st.message()));
      break;
    default:
      // Deterministic request failure (bad shape, unknown route): a retry
      // would fail the same way.
      error = std::make_exception_ptr(
          RemoteError(StatusCode::kInternal, st.message()));
      break;
  }
  cb(std::move(resp), error);
}

}  // namespace selnet::serve
