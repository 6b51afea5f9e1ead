// Compiler-enforced lock contracts: Clang thread-safety-analysis attribute
// wrappers plus the annotated synchronisation vocabulary the concurrent
// modules are written in.
//
// The macros expand to Clang `capability` attributes when the compiler
// supports them (`-Wthread-safety`, turned into an error through
// chronus_strict on Clang builds) and to nothing elsewhere, so GCC builds
// compile the exact same code with zero overhead and zero syntax drift.
//
// Library code does not take `std::mutex` directly: libstdc++'s mutex is
// not capability-annotated, so Clang's analysis cannot see its lock() and
// unlock() and every annotated member would false-positive. Instead the
// concurrent classes (obs::MetricsRegistry, service::CapacityLedger,
// service::IntakeQueue, rpc::Reactor, rpc::Server) hold a `util::Mutex`
// and scope their critical sections with `util::MutexLock`; condition
// waits go through `util::CondVar`, whose wait() is annotated
// CHRONUS_REQUIRES(mu) so a wait outside the critical section is a
// compile error on Clang.
//
// Conventions (enforced by `-Wthread-safety -Werror` on Clang and spelled
// out in DESIGN.md §12):
//
//   * every member written under a mutex carries CHRONUS_GUARDED_BY(mu_);
//   * a member function that takes the lock itself is annotated
//     CHRONUS_EXCLUDES(mu_) (calling it with the lock held deadlocks);
//   * a private helper that expects the caller to hold the lock is
//     annotated CHRONUS_REQUIRES(mu_) and never locks;
//   * data handed between threads by ownership transfer is documented at
//     the declaration instead — a hand-off is outside what the static
//     analysis can express.
#pragma once

#include <condition_variable>
#include <mutex>

// clang-format off
#if defined(__clang__) && defined(__has_attribute)
#  if __has_attribute(capability)
#    define CHRONUS_THREAD_ANNOTATION(x) __attribute__((x))
#  endif
#endif
#ifndef CHRONUS_THREAD_ANNOTATION
#  define CHRONUS_THREAD_ANNOTATION(x)  // not Clang: annotations vanish
#endif

#define CHRONUS_CAPABILITY(x) CHRONUS_THREAD_ANNOTATION(capability(x))
#define CHRONUS_SCOPED_CAPABILITY CHRONUS_THREAD_ANNOTATION(scoped_lockable)
#define CHRONUS_GUARDED_BY(x) CHRONUS_THREAD_ANNOTATION(guarded_by(x))
#define CHRONUS_PT_GUARDED_BY(x) CHRONUS_THREAD_ANNOTATION(pt_guarded_by(x))
#define CHRONUS_ACQUIRED_BEFORE(...) \
  CHRONUS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define CHRONUS_ACQUIRED_AFTER(...) \
  CHRONUS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define CHRONUS_REQUIRES(...) \
  CHRONUS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define CHRONUS_ACQUIRE(...) \
  CHRONUS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define CHRONUS_RELEASE(...) \
  CHRONUS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define CHRONUS_TRY_ACQUIRE(...) \
  CHRONUS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define CHRONUS_EXCLUDES(...) \
  CHRONUS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define CHRONUS_ASSERT_CAPABILITY(x) \
  CHRONUS_THREAD_ANNOTATION(assert_capability(x))
#define CHRONUS_RETURN_CAPABILITY(x) \
  CHRONUS_THREAD_ANNOTATION(lock_returned(x))
#define CHRONUS_NO_THREAD_SAFETY_ANALYSIS \
  CHRONUS_THREAD_ANNOTATION(no_thread_safety_analysis)
// clang-format on

namespace chronus::util {

/// A std::mutex the thread-safety analysis can see. Same cost, same
/// semantics; the annotations are compile-time only.
class CHRONUS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CHRONUS_ACQUIRE() { mu_.lock(); }
  void unlock() CHRONUS_RELEASE() { mu_.unlock(); }
  bool try_lock() CHRONUS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII critical section over util::Mutex — the annotated stand-in for
/// std::lock_guard. chronus_analyzer's lock-discipline pass recognises it
/// alongside the std guards.
class CHRONUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CHRONUS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CHRONUS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to util::Mutex. wait() requires the caller to
/// hold the mutex (a compile error otherwise on Clang); the capability is
/// held again when wait returns, exactly like std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// No predicate overload on purpose: a predicate lambda cannot carry
  /// REQUIRES portably, so waits are written as explicit loops —
  /// `while (!cond) cv.wait(mu);` — which the analysis verifies directly.
  void wait(Mutex& mu) CHRONUS_REQUIRES(mu) {
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace chronus::util
