#include "rpc/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace chronus::rpc {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Server::Server(net::Graph base, ServerOptions opts)
    : base_(std::move(base)),
      opts_(opts),
      index_(node_index(base_)),
      intake_(opts.intake_capacity) {
  std::size_t cap = intake_.capacity();
  std::size_t want = opts_.round_trigger_depth == 0 ? cap
                                                    : opts_.round_trigger_depth;
  trigger_ = std::clamp<std::size_t>(want, 1, cap);
}

Server::~Server() {
  if (started_) join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("rpc: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("rpc: bad listen host '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error("rpc: bind failed: " +
                             std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, opts_.listen_backlog) != 0) {
    throw std::runtime_error("rpc: listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw std::runtime_error("rpc: getsockname failed");
  }
  port_ = ntohs(bound.sin_port);

  reactor_.add_fd(listen_fd_, Reactor::kReadable,
                  [this](short) { on_acceptable(); });

  started_ = true;
  reactor_thread_ = std::thread([this] { reactor_.run(); });
  planner_thread_ = std::thread([this] { planner_main(); });
}

void Server::on_acceptable() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: back to poll
    }
    set_nodelay(fd);
    std::uint64_t sid = ++next_sid_;
    Session::Hooks hooks;
    hooks.on_submit = [this](Session& s, const WireRequest& w) {
      return on_submit(s, w);
    };
    hooks.on_done = [this](Session& s) { on_done(s); };
    hooks.on_close = [this](Session& s, const std::string& reason) {
      on_close(s, reason);
    };
    SessionCtx ctx;
    ctx.session = std::make_unique<Session>(reactor_, fd, sid,
                                            std::move(hooks));
    ctx.counted_active = true;
    Session* raw = ctx.session.get();
    sessions_.emplace(sid, std::move(ctx));
    {
      util::MutexLock lock(coord_mu_);
      ++active_streams_;
    }
    stats_.sessions.fetch_add(1, std::memory_order_relaxed);
    raw->start();
  }
}

Message Server::on_submit(Session& s, const WireRequest& w) {
  stats_.submits.fetch_add(1, std::memory_order_relaxed);
  Message reply;
  reply.id = w.id;

  service::UpdateRequest req;
  try {
    req = from_wire(index_, w);
  } catch (const std::runtime_error& e) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    obs::add("rpc.submit_rejected");
    reply.type = MsgType::kRejected;
    reply.text = e.what();
    return reply;
  }
  if (seen_ids_.count(w.id) != 0) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    obs::add("rpc.submit_rejected");
    reply.type = MsgType::kRejected;
    reply.text = "duplicate request id " + std::to_string(w.id);
    return reply;
  }

  if (intake_.try_push(std::move(req)) ==
      service::IntakeQueue::Push::kDeferred) {
    stats_.deferred.fetch_add(1, std::memory_order_relaxed);
    obs::add("rpc.submit_deferred");
    // Explicit deferral *and* transport backpressure: the client is told
    // to retry, and this session is not read again until the planner
    // takes the next batch (resume_all).
    s.pause_reading();
    reply.type = MsgType::kDeferred;
    return reply;
  }
  seen_ids_.insert(w.id);
  owners_[w.id] = s.sid();
  sessions_.at(s.sid()).accepted += 1;
  stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  bool fire;
  {
    util::MutexLock lock(coord_mu_);
    ++pending_;
    fire = pending_ >= trigger_;
  }
  if (fire) coord_cv_.notify_all();
  reply.type = MsgType::kAck;
  return reply;
}

void Server::drop_active(SessionCtx& ctx) {
  if (!ctx.counted_active) return;
  ctx.counted_active = false;
  {
    util::MutexLock lock(coord_mu_);
    --active_streams_;
  }
  coord_cv_.notify_all();
}

void Server::on_done(Session& s) {
  SessionCtx& ctx = sessions_.at(s.sid());
  ctx.draining = true;
  drop_active(ctx);
  maybe_send_report(ctx);
}

void Server::on_close(Session& s, const std::string& reason) {
  if (!reason.empty()) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t sid = s.sid();
  auto it = sessions_.find(sid);
  if (it != sessions_.end()) {
    drop_active(it->second);
    // The Session object is on the stack right now (close runs from its
    // own callback); destroy it after this dispatch pass.
    reactor_.post([this, sid] {
      sessions_.erase(sid);
      maybe_finish_shutdown();
    });
  }
}

void Server::maybe_send_report(SessionCtx& ctx) {
  if (!ctx.draining || ctx.report_sent) return;
  if (ctx.delivered != ctx.accepted) return;  // records still in flight
  ctx.report_sent = true;
  Message m;
  m.type = MsgType::kReport;
  m.report.requests = ctx.session->submitted();
  m.report.records = ctx.delivered;
  m.report.digest = ctx.last_digest;
  ctx.session->send(m);
  ctx.session->finish();
}

void Server::resume_all() {
  for (auto& [sid, ctx] : sessions_) {
    if (ctx.session->paused()) ctx.session->resume_reading();
  }
}

void Server::deliver_round(std::size_t idx) {
  const service::ServiceReport* rep = nullptr;
  {
    util::MutexLock lock(coord_mu_);
    rep = reports_[idx].get();
  }
  const std::string digest = rep->digest();
  for (const service::RequestRecord& rec : rep->records) {
    auto oit = owners_.find(rec.id);
    if (oit == owners_.end()) continue;
    std::uint64_t sid = oit->second;
    owners_.erase(oit);
    auto sit = sessions_.find(sid);
    if (sit == sessions_.end()) continue;  // owner died before delivery
    SessionCtx& ctx = sit->second;
    ctx.delivered += 1;
    ctx.last_digest = digest;
    Message m;
    m.type = MsgType::kRecord;
    m.record = to_wire(rec);
    ctx.session->send(m);
  }
  // One write per session for its records (and its report, which
  // finish() flushes); an untouched session has nothing to write.
  for (auto& [sid, ctx] : sessions_) {
    maybe_send_report(ctx);
    ctx.session->flush();
  }
  maybe_finish_shutdown();
}

void Server::planner_main() {
  service::UpdateService svc(base_, opts_.service);
  for (;;) {
    {
      util::MutexLock lock(coord_mu_);
      for (;;) {
        if (drain_) break;
        if (pending_ > 0 &&
            (pending_ >= trigger_ || active_streams_ == 0)) {
          break;
        }
        coord_cv_.wait(coord_mu_);
      }
      if (drain_ && pending_ == 0) {
        if (active_streams_ == 0) break;  // flushed; nothing can arrive
        coord_cv_.wait(coord_mu_);        // sessions still streaming
        continue;
      }
      pending_ = 0;
    }

    std::vector<service::UpdateRequest> batch = intake_.take_batch();
    reactor_.post([this] { resume_all(); });
    if (batch.empty()) continue;

    obs::add("rpc.rounds");
    obs::observe("rpc.round_batch",
                 static_cast<std::int64_t>(batch.size()));
    auto rep = std::make_unique<service::ServiceReport>(
        svc.run(std::move(batch)));
    std::size_t idx;
    {
      util::MutexLock lock(coord_mu_);
      reports_.push_back(std::move(rep));
      idx = reports_.size() - 1;
    }
    stats_.rounds.fetch_add(1, std::memory_order_relaxed);
    reactor_.post([this, idx] { deliver_round(idx); });
  }
  planner_done_.store(true, std::memory_order_release);
  reactor_.post([this] { maybe_finish_shutdown(); });
}

void Server::begin_drain() {
  // Reactor thread: stop accepting and turn away half-open handshakes.
  if (listen_fd_ >= 0) {
    reactor_.remove_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<Session*> handshaking;
  for (auto& [sid, ctx] : sessions_) {
    if (ctx.session->state() == Session::State::kHandshake) {
      handshaking.push_back(ctx.session.get());
    }
  }
  for (Session* s : handshaking) s->fail("server draining");
  {
    util::MutexLock lock(coord_mu_);
    drain_ = true;
  }
  coord_cv_.notify_all();
  maybe_finish_shutdown();
}

void Server::drain() {
  if (!started_) return;
  if (drain_posted_.exchange(true)) return;
  reactor_.post([this] { begin_drain(); });
}

void Server::maybe_finish_shutdown() {
  if (!drain_posted_.load(std::memory_order_relaxed)) return;
  if (!planner_done_.load(std::memory_order_acquire)) return;
  if (!sessions_.empty()) return;
  reactor_.stop();
}

void Server::join() {
  if (!started_) return;
  drain();
  if (planner_thread_.joinable()) planner_thread_.join();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  started_ = false;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.sessions = stats_.sessions.load(std::memory_order_relaxed);
  s.submits = stats_.submits.load(std::memory_order_relaxed);
  s.accepted = stats_.accepted.load(std::memory_order_relaxed);
  s.deferred = stats_.deferred.load(std::memory_order_relaxed);
  s.rejected = stats_.rejected.load(std::memory_order_relaxed);
  s.protocol_errors = stats_.protocol_errors.load(std::memory_order_relaxed);
  s.rounds = stats_.rounds.load(std::memory_order_relaxed);
  return s;
}

std::vector<service::ServiceReport> Server::round_reports() const {
  std::vector<service::ServiceReport> out;
  util::MutexLock lock(coord_mu_);
  out.reserve(reports_.size());
  for (const auto& r : reports_) out.push_back(*r);
  return out;
}

}  // namespace chronus::rpc
