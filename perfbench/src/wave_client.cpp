#include "wave_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "rpc/wire.hpp"

namespace chronus::perfbench {

namespace {

constexpr double kTimeoutSeconds = 60.0;

}  // namespace

struct WaveClient::Conn {
  int fd = -1;
  std::unique_ptr<rpc::Decoder> decoder;
  std::string out;
  std::size_t out_pos = 0;
  /// Submit frames not yet handed to the socket: (offset in `out`,
  /// request index in the wave).
  std::deque<std::pair<std::size_t, std::size_t>> unsent;
  bool greeted = false;
  bool reported = false;
};

WaveClient::WaveClient(const net::Graph& graph, std::uint16_t port,
                       rpc::Codec codec, std::size_t connections)
    : graph_(graph), port_(port), codec_(codec) {
  for (std::size_t i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>());
  }
}

WaveClient::~WaveClient() { close_all(); }

void WaveClient::close_all() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
}

std::string WaveClient::connect() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (auto& c : conns_) {
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd < 0) return "socket() failed";
    int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(c->fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return std::string("connect() failed: ") + std::strerror(errno);
    }
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
    c->decoder = std::make_unique<rpc::Decoder>(codec_);
    if (codec_ == rpc::Codec::kBinary) c->out.append(rpc::kBinaryMagic);
    rpc::Message hello;
    hello.type = rpc::MsgType::kHello;
    c->out.append(rpc::encode(codec_, hello));
  }
  return pump(
      [this] {
        for (const auto& c : conns_) {
          if (!c->greeted) return false;
        }
        return true;
      },
      [](Conn& c, const rpc::Message& m) -> std::string {
        if (m.type != rpc::MsgType::kHelloAck || c.greeted) {
          return std::string("unexpected ") + rpc::to_string(m.type) +
                 " during handshake";
        }
        c.greeted = true;
        return "";
      });
}

WaveResult WaveClient::run_wave(
    const std::vector<service::UpdateRequest>& wave) {
  WaveResult res;
  res.records.resize(wave.size());
  res.latency_ms.assign(wave.size(), 0.0);
  submitted_at_.assign(wave.size(), Clock::time_point{});
  if (wave.empty()) return res;
  const std::uint64_t first_id = wave.front().id;

  for (std::size_t i = 0; i < wave.size(); ++i) {
    Conn& c = *conns_[i % conns_.size()];
    rpc::Message m;
    m.type = rpc::MsgType::kSubmit;
    m.submit = rpc::to_wire(graph_, wave[i]);
    c.unsent.emplace_back(c.out.size(), i);
    c.out.append(rpc::encode(codec_, m));
  }

  std::size_t acked = 0;
  std::size_t recorded = 0;
  const auto index_of = [&](std::uint64_t id, std::size_t* idx) {
    if (id < first_id || id - first_id >= wave.size()) return false;
    *idx = static_cast<std::size_t>(id - first_id);
    return wave[*idx].id == id;
  };
  res.error = pump(
      [&] { return acked == wave.size() && recorded == wave.size(); },
      [&](Conn&, const rpc::Message& m) -> std::string {
        std::size_t idx = 0;
        switch (m.type) {
          case rpc::MsgType::kAck:
            if (!index_of(m.id, &idx)) return "ack for unknown id";
            ++acked;
            return "";
          case rpc::MsgType::kRecord: {
            const Clock::time_point now = Clock::now();
            if (!index_of(m.record.id, &idx)) return "record for unknown id";
            if (!res.records[idx].status.empty()) return "duplicate record";
            res.records[idx] = m.record;
            res.latency_ms[idx] =
                std::chrono::duration<double, std::milli>(now -
                                                          submitted_at_[idx])
                    .count();
            ++recorded;
            return "";
          }
          case rpc::MsgType::kDeferred:
            return "deferred reply for id " + std::to_string(m.id) +
                   " (intake below the wave size)";
          case rpc::MsgType::kRejected:
            return "rejected id " + std::to_string(m.id) + ": " + m.text;
          case rpc::MsgType::kError:
            return "server error: " + m.text;
          default:
            return std::string("unexpected ") + rpc::to_string(m.type);
        }
      });
  return res;
}

std::string WaveClient::finish() {
  for (auto& c : conns_) {
    rpc::Message done;
    done.type = rpc::MsgType::kDone;
    c->out.append(rpc::encode(codec_, done));
  }
  std::string err = pump(
      [this] {
        for (const auto& c : conns_) {
          if (!c->reported) return false;
        }
        return true;
      },
      [](Conn& c, const rpc::Message& m) -> std::string {
        if (m.type != rpc::MsgType::kReport) {
          return std::string("unexpected ") + rpc::to_string(m.type) +
                 " while finishing";
        }
        c.reported = true;
        return "";
      });
  close_all();
  return err;
}

std::string WaveClient::pump(const std::function<bool()>& done,
                             const Handler& handler) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kTimeoutSeconds));
  std::vector<pollfd> fds(conns_.size());
  while (!done()) {
    if (Clock::now() > deadline) return "timed out";
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& c = *conns_[i];
      fds[i].fd = c.fd;
      fds[i].events = POLLIN;
      if (c.out_pos < c.out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    const int n = ::poll(fds.data(), fds.size(), 100);
    if (n < 0 && errno != EINTR) return "poll() failed";
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      if ((fds[i].revents & POLLOUT) != 0) {
        if (std::string err = flush(c); !err.empty()) return err;
      }
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        if (std::string err = read(c, handler); !err.empty()) return err;
      }
    }
  }
  return "";
}

std::string WaveClient::flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const Clock::time_point now = Clock::now();
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return "";
      if (errno == EINTR) continue;
      return "send() failed";
    }
    c.out_pos += static_cast<std::size_t>(n);
    while (!c.unsent.empty() && c.unsent.front().first < c.out_pos) {
      submitted_at_[c.unsent.front().second] = now;
      c.unsent.pop_front();
    }
  }
  c.out.clear();
  c.out_pos = 0;
  return "";
}

std::string WaveClient::read(Conn& c, const Handler& handler) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      if (!c.reported) return "server closed the connection";
      ::close(c.fd);  // the server closes a session after its report
      c.fd = -1;
      return "";
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return "";
      if (errno == EINTR) continue;
      return "recv() failed";
    }
    c.decoder->feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    rpc::Message m;
    std::string error;
    for (;;) {
      const rpc::Decoder::Result r = c.decoder->next(&m, &error);
      if (r == rpc::Decoder::Result::kNeedMore) break;
      if (r == rpc::Decoder::Result::kError) return "decode error: " + error;
      if (std::string err = handler(c, m); !err.empty()) return err;
    }
  }
}

}  // namespace chronus::perfbench
