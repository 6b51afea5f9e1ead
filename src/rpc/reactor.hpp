// Single-threaded poll(2) reactor: the event loop that owns every socket
// of the rpc server (and of the multi-connection load driver).
//
// Threading model (the whole point of the design): *all* I/O callbacks,
// session state machines and fd registrations run on the one thread
// inside run(). Other threads interact with the loop only through the two
// thread-safe entry points, post() — enqueue a closure for the loop
// thread, waking it through a self-pipe — and stop(). This confinement is
// what keeps the session layer lock-free: the reactor thread is the
// synchronisation domain, so sessions need no mutexes at all, and the
// lock-across-blocking gate (tools/chronus_analyzer) stays trivially
// satisfied — poll(2) is never entered with a lock held.
//
// Registration model: add_fd/set_events/remove_fd are loop-thread-only
// (callers elsewhere must post()). remove_fd during dispatch is safe: the
// entry is tombstoned and swept after the dispatch pass, so a callback
// can close its own fd — or a sibling's — without invalidating the scan.
#pragma once

#include <functional>
#include <vector>

#include "util/thread_annotations.hpp"

namespace chronus::rpc {

class Reactor {
 public:
  /// Bitmask aliases so callers don't need <poll.h> in their headers.
  static const short kReadable;   // POLLIN
  static const short kWritable;   // POLLOUT

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers `fd` for `events`; `cb(revents)` fires from the loop
  /// thread. Loop-thread-only. The fd stays owned by the caller.
  void add_fd(int fd, short events, std::function<void(short)> cb);

  /// Updates the interest set of a registered fd. Loop-thread-only.
  void set_events(int fd, short events);

  /// Unregisters an fd (tombstone; swept after the current dispatch
  /// pass). Loop-thread-only; safe from inside a callback.
  void remove_fd(int fd);

  /// Enqueues `fn` to run on the loop thread and wakes it. Thread-safe.
  void post(std::function<void()> fn) CHRONUS_EXCLUDES(mu_);

  /// One poll/dispatch iteration (posted closures, then ready fds).
  /// `timeout_ms` < 0 blocks until an event. Returns false iff stop()
  /// has been requested. Loop-thread-only.
  bool poll_once(int timeout_ms);

  /// Runs poll_once until stop(). Becomes "the loop thread" for the
  /// duration of the call.
  void run();

  /// Requests run() to return after the current iteration. Thread-safe.
  void stop() CHRONUS_EXCLUDES(mu_);

 private:
  struct Entry {
    int fd = -1;
    short events = 0;
    bool dead = false;
    std::function<void(short)> cb;
  };

  void drain_posted() CHRONUS_EXCLUDES(mu_);
  void sweep();

  std::vector<Entry> entries_;  // loop-thread-only
  int wake_read_ = -1;
  int wake_write_ = -1;

  mutable util::Mutex mu_;
  std::vector<std::function<void()>> posted_ CHRONUS_GUARDED_BY(mu_);
  bool stop_requested_ CHRONUS_GUARDED_BY(mu_) = false;
};

}  // namespace chronus::rpc
