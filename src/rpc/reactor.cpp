#include "rpc/reactor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cstddef>
#include <utility>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace chronus::rpc {

const short Reactor::kReadable = POLLIN;
const short Reactor::kWritable = POLLOUT;

Reactor::Reactor() {
  int fds[2] = {-1, -1};
  int rc = ::pipe2(fds, O_NONBLOCK | O_CLOEXEC);
  CHRONUS_EXPECTS(rc == 0, "reactor wake pipe creation failed");
  wake_read_ = fds[0];
  wake_write_ = fds[1];
}

Reactor::~Reactor() {
  ::close(wake_read_);
  ::close(wake_write_);
}

void Reactor::add_fd(int fd, short events, std::function<void(short)> cb) {
  CHRONUS_EXPECTS(fd >= 0, "reactor fd must be valid");
  for (Entry& e : entries_) {
    if (e.fd == fd && !e.dead) {
      CHRONUS_EXPECTS(false, "fd already registered with the reactor");
    }
  }
  entries_.push_back(Entry{fd, events, false, std::move(cb)});
}

void Reactor::set_events(int fd, short events) {
  for (Entry& e : entries_) {
    if (e.fd == fd && !e.dead) {
      e.events = events;
      return;
    }
  }
  CHRONUS_EXPECTS(false, "set_events on unregistered fd");
}

void Reactor::remove_fd(int fd) {
  for (Entry& e : entries_) {
    if (e.fd == fd && !e.dead) {
      e.dead = true;
      e.cb = nullptr;
      return;
    }
  }
}

void Reactor::post(std::function<void()> fn) {
  {
    util::MutexLock lock(mu_);
    posted_.push_back(std::move(fn));
  }
  // A full pipe already guarantees a pending wake; EAGAIN is fine.
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
}

void Reactor::stop() {
  {
    util::MutexLock lock(mu_);
    stop_requested_ = true;
  }
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
}

void Reactor::drain_posted() {
  std::vector<std::function<void()>> run_now;
  {
    util::MutexLock lock(mu_);
    run_now.swap(posted_);
  }
  for (auto& fn : run_now) fn();
}

void Reactor::sweep() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].dead) {
      if (kept != i) entries_[kept] = std::move(entries_[i]);
      ++kept;
    }
  }
  entries_.resize(kept);
}

bool Reactor::poll_once(int timeout_ms) {
  {
    util::MutexLock lock(mu_);
    if (stop_requested_) return false;
  }
  drain_posted();

  std::vector<pollfd> fds;
  fds.reserve(entries_.size() + 1);
  fds.push_back(pollfd{wake_read_, POLLIN, 0});
  for (const Entry& e : entries_) {
    if (!e.dead) fds.push_back(pollfd{e.fd, e.events, 0});
  }

  int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) return true;  // EINTR and friends: just iterate again
  // Iteration count is wall-timing-dependent, so it lives in a gauge —
  // gauges are dropped from the logical() replay slice (obs/metrics.hpp).
  obs::gauge_add("rpc.reactor_polls", 1);

  if ((fds[0].revents & POLLIN) != 0) {
    char scratch[256];
    while (::read(wake_read_, scratch, sizeof(scratch)) > 0) {
    }
  }

  // Dispatch against the snapshot: entries_ may grow (accept adds
  // sessions) or get tombstoned (sessions close) under our feet, so
  // re-find each fd and skip anything already dead.
  for (std::size_t i = 1; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    for (Entry& e : entries_) {
      if (e.fd == fds[i].fd && !e.dead) {
        e.cb(fds[i].revents);
        break;
      }
    }
  }
  sweep();
  drain_posted();

  {
    util::MutexLock lock(mu_);
    return !stop_requested_;
  }
}

void Reactor::run() {
  while (poll_once(-1)) {
  }
  // One final drain so closures posted just before stop() still run.
  drain_posted();
}

}  // namespace chronus::rpc
