// The rpc server: socket front-end of the update service.
//
// Two threads, one queue:
//
//   reactor thread — owns the listener, every Session, the per-request
//     owner map and all wire I/O (rpc/reactor.hpp). Submits are decoded
//     against the base graph and pushed into the shared IntakeQueue;
//     the push verdict becomes the wire reply (ack / deferred /
//     rejected).
//   planner thread — waits for a *round trigger*, drains the intake
//     queue in one batch, runs the deterministic UpdateService::run over
//     it, and posts the resulting records back to the reactor for
//     delivery to their owning sessions.
//
// Round triggers (the intake/planning split of ROADMAP item 1): a round
// starts when the queued depth reaches `round_trigger_depth`, or when
// requests are queued and no session is still streaming (everyone sent
// `done` — the whole workload is in, run it), or on drain. Each round is
// an independent UpdateService::run on the base graph, so its report —
// and its digest — is a pure function of the batch contents: any
// transport, connection count or arrival interleaving that delivers the
// same requests into one round produces the bit-identical digest
// (tests/rpc_soak_test.cpp's three-transport gate).
//
// Backpressure (DESIGN.md §14): a full intake queue turns submits into
// explicit `deferred` replies, and a session that just got deferred
// stops being read until the planner takes the next batch — pushing
// further arrivals into the kernel socket buffers and from there to the
// client. Because the trigger depth is clamped to the queue capacity, a
// fully-deferred steady state always fires a round, so the ladder cannot
// wedge.
//
// Drain: stop accepting (listener closed, handshakes failed), let
// streaming sessions finish, flush every queued request through final
// rounds, deliver records and per-session reports, then stop both
// threads. join() returns when the last session has closed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/graph.hpp"
#include "rpc/reactor.hpp"
#include "rpc/session.hpp"
#include "service/intake_queue.hpp"
#include "service/service.hpp"

namespace chronus::rpc {

struct ServerOptions {
  /// Loopback-only by design: this is a bench/test front-end, not a
  /// hardened daemon.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Server::port())

  /// Queue depth at which submits are deferred (IntakeQueue capacity).
  std::size_t intake_capacity = 256;
  /// Queue depth that fires a planning round; clamped to the intake
  /// capacity; 0 = capacity.
  std::size_t round_trigger_depth = 0;

  std::size_t max_frame = kDefaultMaxFrame;
  int listen_backlog = 1024;

  service::ServiceOptions service;
};

struct ServerStats {
  std::uint64_t sessions = 0;         ///< connections accepted
  std::uint64_t submits = 0;          ///< kSubmit frames handled
  std::uint64_t accepted = 0;         ///< pushed into the intake queue
  std::uint64_t deferred = 0;         ///< backpressure replies
  std::uint64_t rejected = 0;         ///< malformed / duplicate
  std::uint64_t protocol_errors = 0;  ///< sessions failed on bad frames
  std::uint64_t rounds = 0;           ///< planning rounds run
};

class Server {
 public:
  Server(net::Graph base, ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the reactor and planner threads. Throws
  /// std::runtime_error if the socket setup fails.
  void start();

  /// The bound port (valid after start(); resolves port 0 requests).
  std::uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, flush in-flight work, emit the
  /// final reports. Thread-safe, idempotent, returns immediately.
  void drain();

  /// Waits for the drain to complete (both threads joined). Implies
  /// drain().
  void join();

  ServerStats stats() const;

  /// Reports of every planning round, in round order. Call after join().
  std::vector<service::ServiceReport> round_reports() const
      CHRONUS_EXCLUDES(coord_mu_);

 private:
  /// Reactor-thread-only per-connection bookkeeping next to the Session.
  struct SessionCtx {
    std::unique_ptr<Session> session;
    std::uint64_t accepted = 0;   ///< submits pushed into the queue
    std::uint64_t delivered = 0;  ///< records sent back
    bool draining = false;        ///< client sent done
    bool counted_active = false;  ///< included in active_streams_
    bool report_sent = false;
    std::string last_digest;      ///< digest of its latest delivered round
  };

  void planner_main();
  // Reactor-thread-only helpers.
  void on_acceptable();
  Message on_submit(Session& s, const WireRequest& w);
  void on_done(Session& s);
  void on_close(Session& s, const std::string& reason);
  void deliver_round(std::size_t idx);
  void resume_all();
  void maybe_send_report(SessionCtx& ctx);
  void drop_active(SessionCtx& ctx) CHRONUS_EXCLUDES(coord_mu_);
  void begin_drain();
  void maybe_finish_shutdown();

  net::Graph base_;
  ServerOptions opts_;
  std::map<std::string, net::NodeId> index_;
  service::IntakeQueue intake_;
  Reactor reactor_;

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread reactor_thread_;
  std::thread planner_thread_;
  bool started_ = false;
  std::atomic<bool> drain_posted_{false};
  std::atomic<bool> planner_done_{false};

  // Reactor-thread-only session state.
  std::uint64_t next_sid_ = 0;
  std::map<std::uint64_t, SessionCtx> sessions_;        // by sid
  std::map<std::uint64_t, std::uint64_t> owners_;       // request id -> sid
  std::set<std::uint64_t> seen_ids_;                    // duplicate guard

  // Reactor <-> planner coordination.
  mutable util::Mutex coord_mu_;
  util::CondVar coord_cv_;
  std::size_t pending_ CHRONUS_GUARDED_BY(coord_mu_) = 0;
  std::size_t active_streams_ CHRONUS_GUARDED_BY(coord_mu_) = 0;
  bool drain_ CHRONUS_GUARDED_BY(coord_mu_) = false;
  std::vector<std::unique_ptr<service::ServiceReport>> reports_
      CHRONUS_GUARDED_BY(coord_mu_);
  std::size_t trigger_ = 0;  // immutable after construction

  // Stats (atomic: bumped on the reactor/planner threads, read anywhere).
  struct AtomicStats {
    std::atomic<std::uint64_t> sessions{0};
    std::atomic<std::uint64_t> submits{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> deferred{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> rounds{0};
  };
  AtomicStats stats_;
};

}  // namespace chronus::rpc
