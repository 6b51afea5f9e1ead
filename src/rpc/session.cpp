#include "rpc/session.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "obs/metrics.hpp"

namespace chronus::rpc {

Session::Session(Reactor& reactor, int fd, std::uint64_t sid, Hooks hooks)
    : reactor_(reactor), fd_(fd), sid_(sid), hooks_(std::move(hooks)) {}

Session::~Session() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Session::start() {
  obs::add("rpc.sessions_opened");
  obs::gauge_add("rpc.open_sessions", 1);
  interest_ = Reactor::kReadable;
  reactor_.add_fd(fd_, interest_, [this](short revents) { on_io(revents); });
}

const char* Session::codec_tag() const {
  if (decoder_ == nullptr) return "unknown";
  return to_string(codec_);
}

void Session::on_io(short revents) {
  if (state_ == State::kClosed) return;
  // A backlog the socket refused in an earlier pass goes out first.
  if ((revents & Reactor::kWritable) != 0) write_out();
  if (state_ == State::kClosed) return;
  // POLLERR/POLLHUP route through the read path, where recv() reports
  // the EOF or error authoritatively.
  const short err_bits = static_cast<short>(POLLERR | POLLHUP | POLLNVAL);
  if (paused_ && (revents & err_bits) != 0) {
    // A paused session has no read interest, so only error events can
    // arrive; without this close they would re-fire every poll cycle.
    close_now("peer closed while paused");
    return;
  }
  const short readish = static_cast<short>(Reactor::kReadable | err_bits);
  if ((revents & readish) != 0) handle_readable();
  // One write for every reply the read loop queued.
  flush();
}

void Session::handle_readable() {
  char chunk[4096];
  for (;;) {
    if (paused_ || state_ == State::kClosed) return;
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      process_input(std::string_view(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      // Peer EOF. Mid-frame bytes mean the peer died mid-message.
      if (decoder_ != nullptr && decoder_->has_partial()) {
        obs::add("rpc.protocol_errors");
        close_now("truncated frame at connection EOF");
      } else if (state_ == State::kDraining && finishing_) {
        close_now("");
      } else if (state_ == State::kDraining || state_ == State::kStreaming) {
        // Client hung up before its report was delivered; nothing left
        // to deliver it to.
        close_now("peer closed before report delivery");
      } else {
        close_now("peer closed during handshake");
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_now("read error");
    return;
  }
}

void Session::process_input(std::string_view bytes) {
  if (decoder_ == nullptr) {
    sniff_buf_.append(bytes);
    if (sniff_buf_.empty()) return;
    Codec sniffed;
    if (!sniff_codec(sniff_buf_[0], &sniffed)) {
      obs::add("rpc.protocol_errors");
      fail("unrecognised protocol (expected binary magic or JSON)");
      return;
    }
    if (sniffed == Codec::kBinary) {
      if (sniff_buf_.size() < kBinaryMagic.size()) return;  // need more
      if (std::string_view(sniff_buf_).substr(0, kBinaryMagic.size()) !=
          kBinaryMagic) {
        obs::add("rpc.protocol_errors");
        fail("bad binary magic");
        return;
      }
      codec_ = Codec::kBinary;
      decoder_ = std::make_unique<Decoder>(codec_);
      obs::add("rpc.binary.bytes_in", sniff_buf_.size());
      decoder_->feed(std::string_view(sniff_buf_).substr(kBinaryMagic.size()));
    } else {
      codec_ = Codec::kJson;
      decoder_ = std::make_unique<Decoder>(codec_);
      obs::add("rpc.json.bytes_in", sniff_buf_.size());
      decoder_->feed(sniff_buf_);
    }
    sniff_buf_.clear();
    sniff_buf_.shrink_to_fit();
  } else {
    if (codec_ == Codec::kBinary) {
      obs::add("rpc.binary.bytes_in", bytes.size());
    } else {
      obs::add("rpc.json.bytes_in", bytes.size());
    }
    decoder_->feed(bytes);
  }

  Message m;
  std::string error;
  for (;;) {
    if (paused_ || state_ == State::kClosed) return;
    Decoder::Result r = decoder_->next(&m, &error);
    if (r == Decoder::Result::kNeedMore) return;
    if (r == Decoder::Result::kError) {
      obs::add("rpc.protocol_errors");
      fail(error);
      return;
    }
    if (codec_ == Codec::kBinary) {
      obs::add("rpc.binary.frames_in");
    } else {
      obs::add("rpc.json.frames_in");
    }
    handle_message(m);
  }
}

void Session::handle_message(const Message& m) {
  switch (state_) {
    case State::kHandshake:
      if (m.type != MsgType::kHello) {
        obs::add("rpc.protocol_errors");
        fail("expected hello, got " + std::string(to_string(m.type)));
        return;
      }
      if (m.version != kProtocolVersion) {
        obs::add("rpc.protocol_errors");
        fail("protocol version " + std::to_string(m.version) +
             " unsupported (want " + std::to_string(kProtocolVersion) + ")");
        return;
      }
      state_ = State::kStreaming;
      {
        Message ack;
        ack.type = MsgType::kHelloAck;
        ack.version = kProtocolVersion;
        send(ack);
      }
      return;
    case State::kStreaming:
      if (m.type == MsgType::kSubmit) {
        ++submitted_;
        if (codec_ == Codec::kBinary) {
          obs::add("rpc.binary.submits");
        } else {
          obs::add("rpc.json.submits");
        }
        Message reply = hooks_.on_submit(*this, m.submit);
        send(reply);
        return;
      }
      if (m.type == MsgType::kDone) {
        state_ = State::kDraining;
        if (hooks_.on_done) hooks_.on_done(*this);
        return;
      }
      obs::add("rpc.protocol_errors");
      fail("unexpected " + std::string(to_string(m.type)) +
           " in request stream");
      return;
    case State::kDraining:
      obs::add("rpc.protocol_errors");
      fail("client frame after done");
      return;
    case State::kClosed:
      return;
  }
}

void Session::send(const Message& m) {
  if (state_ == State::kClosed) return;
  if (m.type == MsgType::kRecord) ++delivered_;
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
  const std::size_t before = out_.size();
  encode_to(codec_, m, out_);
  if (codec_ == Codec::kBinary) {
    obs::add("rpc.binary.frames_out");
    obs::add("rpc.binary.bytes_out", out_.size() - before);
  } else {
    obs::add("rpc.json.frames_out");
    obs::add("rpc.json.bytes_out", out_.size() - before);
  }
}

void Session::finish() {
  if (state_ == State::kClosed) return;
  finishing_ = true;
  write_out();
  if (state_ == State::kClosed) return;
  if (out_pos_ == out_.size()) {
    close_now("");
  } else {
    update_interest();
  }
}

void Session::fail(const std::string& reason) {
  if (state_ == State::kClosed) return;
  // Best-effort courtesy frame; the close does not wait for it.
  Message err;
  err.type = MsgType::kError;
  err.text = reason;
  if (decoder_ != nullptr) {
    encode_to(codec_, err, out_);
    write_out();
  }
  close_now(reason);
}

void Session::flush() {
  if (state_ == State::kClosed) return;
  write_out();
  if (state_ != State::kClosed) update_interest();
}

void Session::write_out() {
  while (out_pos_ < out_.size()) {
    // Counted before the call, so a peer that has read the bytes also
    // sees the count. Wall-timing-dependent, hence a gauge, which
    // logical() drops.
    obs::gauge_add("rpc.socket_writes", 1);
    ssize_t n = ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                       MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close_now("write error");
    return;
  }
  if (finishing_ && out_pos_ == out_.size()) close_now("");
}

void Session::pause_reading() {
  if (paused_ || state_ == State::kClosed) return;
  paused_ = true;
  obs::gauge_add("rpc.paused_sessions", 1);
  update_interest();
}

void Session::resume_reading() {
  if (!paused_ || state_ == State::kClosed) return;
  paused_ = false;
  obs::gauge_add("rpc.paused_sessions", -1);
  // Bytes already buffered in the decoder were parked by the pause;
  // process them now rather than waiting for new socket traffic, and
  // send their replies in one write.
  process_input(std::string_view());
  flush();
}

void Session::update_interest() {
  short events = 0;
  if (!paused_) events = static_cast<short>(events | Reactor::kReadable);
  if (out_pos_ < out_.size()) {
    events = static_cast<short>(events | Reactor::kWritable);
  }
  if (events == interest_) return;
  interest_ = events;
  reactor_.set_events(fd_, events);
}

void Session::close_now(const std::string& reason) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (paused_) {
    paused_ = false;
    obs::gauge_add("rpc.paused_sessions", -1);
  }
  reactor_.remove_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  obs::add("rpc.sessions_closed");
  obs::gauge_add("rpc.open_sessions", -1);
  if (!closed_hook_fired_ && hooks_.on_close) {
    closed_hook_fired_ = true;
    hooks_.on_close(*this, reason);
  }
}

}  // namespace chronus::rpc
