#include "rpc/load_driver.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "rpc/reactor.hpp"
#include "rpc/wire.hpp"
#include "util/stopwatch.hpp"

namespace chronus::rpc {

namespace {

struct Conn {
  enum class State {
    kConnecting,
    kHello,
    kStreaming,
    kAwaitingReport,
    kDone,
    kFailed,
  };

  int fd = -1;
  State state = State::kConnecting;
  std::unique_ptr<Decoder> decoder;
  std::string out;
  std::size_t out_pos = 0;
  bool done_sent = false;
  std::string fail_reason;

  /// Assigned submits by id, kept for deferred retransmission.
  std::map<std::uint64_t, Message> submits;
  std::map<std::uint64_t, bool> outstanding;  // id -> true (awaiting verdict)

  std::vector<WireRecord> records;
  std::string digest;
  bool got_report = false;

  bool terminal() const {
    return state == State::kDone || state == State::kFailed;
  }
};

class Driver {
 public:
  Driver(const net::Graph& graph,
         const std::vector<service::UpdateRequest>& requests,
         const LoadOptions& opts)
      : opts_(opts) {
    conns_.resize(opts.connections == 0 ? 1 : opts.connections);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Conn& c = conns_[i % conns_.size()];
      Message m;
      m.type = MsgType::kSubmit;
      m.submit = to_wire(graph, requests[i]);
      c.submits.emplace(m.submit.id, std::move(m));
    }
  }

  LoadResult run() {
    LoadResult result;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
      result.error = "bad host '" + opts_.host + "'";
      return result;
    }

    for (Conn& c : conns_) {
      if (!open_conn(c, addr)) {
        finish(result);
        return result;
      }
    }

    util::Deadline deadline(opts_.timeout_seconds);
    while (live_ > 0) {
      reactor_.poll_once(50);
      if (deadline.expired()) {
        for (Conn& c : conns_) {
          if (!c.terminal()) fail_conn(c, "load driver timeout");
        }
        break;
      }
    }
    finish(result);
    return result;
  }

 private:
  bool open_conn(Conn& c, const sockaddr_in& addr) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      fail_conn(c, "socket() failed");
      return false;
    }
    ++live_;
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int rc = ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      fail_conn(c, "connect() failed");
      return false;
    }
    c.decoder = std::make_unique<Decoder>(opts_.codec);
    obs::add("rpc.client_connections");
    reactor_.add_fd(c.fd, Reactor::kWritable,
                    [this, &c](short revents) { on_io(c, revents); });
    return true;
  }

  void on_io(Conn& c, short revents) {
    if (c.terminal()) return;
    const short err_bits =
        static_cast<short>(POLLERR | POLLHUP | POLLNVAL);
    if (c.state == Conn::State::kConnecting &&
        (revents & (Reactor::kWritable | err_bits)) != 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        fail_conn(c, "connect failed");
        return;
      }
      c.state = Conn::State::kHello;
      if (opts_.codec == Codec::kBinary) c.out.append(kBinaryMagic);
      Message hello;
      hello.type = MsgType::kHello;
      hello.version = kProtocolVersion;
      encode_to(opts_.codec, hello, c.out);
    }
    if ((revents & Reactor::kWritable) != 0) flush(c);
    if (c.terminal()) return;
    if ((revents & (Reactor::kReadable | err_bits)) != 0) read_some(c);
    if (!c.terminal()) update_interest(c);
  }

  void read_some(Conn& c) {
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c.decoder->feed(std::string_view(chunk, static_cast<std::size_t>(n)));
        if (!drain_messages(c)) return;
        continue;
      }
      if (n == 0) {
        if (!c.terminal()) fail_conn(c, "server closed connection early");
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      fail_conn(c, "read error");
      return;
    }
  }

  bool drain_messages(Conn& c) {
    Message m;
    std::string error;
    for (;;) {
      Decoder::Result r = c.decoder->next(&m, &error);
      if (r == Decoder::Result::kNeedMore) return true;
      if (r == Decoder::Result::kError) {
        fail_conn(c, "decode error: " + error);
        return false;
      }
      if (!handle_message(c, m)) return false;
    }
  }

  bool handle_message(Conn& c, const Message& m) {
    switch (m.type) {
      case MsgType::kHelloAck:
        if (c.state != Conn::State::kHello) {
          fail_conn(c, "unexpected hello_ack");
          return false;
        }
        c.state = Conn::State::kStreaming;
        for (auto& [id, submit] : c.submits) {
          c.outstanding[id] = true;
          encode_to(opts_.codec, submit, c.out);
          ++submits_;
        }
        maybe_send_done(c);
        return true;
      case MsgType::kAck:
        ++acked_;
        c.outstanding.erase(m.id);
        maybe_send_done(c);
        return true;
      case MsgType::kDeferred: {
        ++deferred_;
        obs::add("rpc.client_deferred");
        auto it = c.submits.find(m.id);
        if (it == c.submits.end()) {
          fail_conn(c, "deferred for unknown id");
          return false;
        }
        // Immediate retransmit: the server reads it after its next round.
        encode_to(opts_.codec, it->second, c.out);
        ++submits_;
        return true;
      }
      case MsgType::kRejected:
        ++rejected_;
        c.outstanding.erase(m.id);
        maybe_send_done(c);
        return true;
      case MsgType::kRecord:
        c.records.push_back(m.record);
        return true;
      case MsgType::kReport:
        c.digest = m.report.digest;
        c.got_report = true;
        close_conn(c, Conn::State::kDone);
        return false;
      case MsgType::kError:
        fail_conn(c, "server error: " + m.text);
        return false;
      default:
        fail_conn(c, "unexpected server message");
        return false;
    }
  }

  void maybe_send_done(Conn& c) {
    if (c.state != Conn::State::kStreaming) return;
    if (c.done_sent || !c.outstanding.empty()) return;
    c.done_sent = true;
    Message done;
    done.type = MsgType::kDone;
    encode_to(opts_.codec, done, c.out);
    c.state = Conn::State::kAwaitingReport;
  }

  void flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                         c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      fail_conn(c, "write error");
      return;
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
  }

  void update_interest(Conn& c) {
    short events = Reactor::kReadable;
    if (c.state == Conn::State::kConnecting ||
        c.out_pos < c.out.size()) {
      events = static_cast<short>(events | Reactor::kWritable);
    }
    reactor_.set_events(c.fd, events);
  }

  void close_conn(Conn& c, Conn::State final_state) {
    if (c.fd >= 0) {
      reactor_.remove_fd(c.fd);
      ::close(c.fd);
      c.fd = -1;
    }
    if (!c.terminal()) {
      c.state = final_state;
      --live_;
    }
  }

  void fail_conn(Conn& c, const std::string& reason) {
    if (c.terminal()) return;
    c.fail_reason = reason;
    if (c.fd >= 0) {
      reactor_.remove_fd(c.fd);
      ::close(c.fd);
      c.fd = -1;
      close_conn(c, Conn::State::kFailed);
    } else {
      c.state = Conn::State::kFailed;
    }
  }

  void finish(LoadResult& result) {
    for (Conn& c : conns_) {
      if (c.fd >= 0) {
        reactor_.remove_fd(c.fd);
        ::close(c.fd);
        c.fd = -1;
      }
    }
    result.submits = submits_;
    result.acked = acked_;
    result.deferred = deferred_;
    result.rejected = rejected_;
    result.ok = true;
    for (Conn& c : conns_) {
      if (c.state != Conn::State::kDone || !c.got_report) {
        if (result.ok) {
          result.ok = false;
          result.error = c.fail_reason.empty() ? "connection incomplete"
                                               : c.fail_reason;
        }
      }
      if (c.got_report) ++result.reports;
      result.digests.push_back(c.digest);
      for (WireRecord& r : c.records) result.records.push_back(std::move(r));
    }
    std::sort(result.records.begin(), result.records.end(),
              [](const WireRecord& a, const WireRecord& b) {
                return a.id < b.id;
              });
  }

  LoadOptions opts_;
  Reactor reactor_;
  std::vector<Conn> conns_;
  std::size_t live_ = 0;
  std::uint64_t submits_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t deferred_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace

LoadResult run_load(const net::Graph& graph,
                    const std::vector<service::UpdateRequest>& requests,
                    const LoadOptions& opts) {
  Driver driver(graph, requests, opts);
  return driver.run();
}

}  // namespace chronus::rpc
