// Capability-annotated mutex wrappers: the ONLY place in src/ allowed
// to name std::mutex / std::shared_mutex / std::condition_variable
// directly (enforced by ci/lint_concurrency.py). Everything else locks
// through pxq::Mutex + pxq::MutexLock so Clang's thread-safety
// analysis (-Wthread-safety, promoted to an error) can prove the
// GUARDED_BY / REQUIRES discipline on every build.
//
// The wrappers are zero-cost shims over the std primitives: MutexLock
// is a std::unique_lock so CondVar::Wait can hand it to
// std::condition_variable without translation.
#ifndef PXQ_COMMON_MUTEX_H_
#define PXQ_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace pxq {

/// Plain exclusive mutex, annotated as a capability. Lock directly only
/// in special cases (manual two-phase paths); prefer MutexLock.
class PXQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PXQ_ACQUIRE() { mu_.lock(); }
  void Unlock() PXQ_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII critical section over a Mutex (the std::lock_guard /
/// std::unique_lock replacement). Waitable: CondVar::Wait* take the
/// MutexLock so condition-variable loops stay inside the analyzed
/// critical section.
class PXQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PXQ_ACQUIRE(mu) : lock_(mu->mu_) {}
  ~MutexLock() PXQ_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to MutexLock critical sections. No
/// predicate overloads on purpose: a lambda predicate is analyzed as a
/// separate function that cannot prove it holds the lock, so waits are
/// written as explicit `while (!cond) cv.Wait(lock);` loops — which the
/// analysis checks field access inside of.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Reader/writer mutex capability. NOTE: this wraps std::shared_mutex,
/// whose glibc implementation is reader-preferring — the database's
/// GlobalLock deliberately does NOT use it (writer starvation; see
/// txn/lock_manager.h). Provided for read-mostly state with rare,
/// short writers where preference does not matter, and as the
/// annotated primitive the ROADMAP's per-core reader-slot work will
/// slot behind.
class PXQ_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() PXQ_ACQUIRE() { mu_.lock(); }
  void Unlock() PXQ_RELEASE() { mu_.unlock(); }
  void LockShared() PXQ_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() PXQ_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII shared (reader) section over a SharedMutex.
class PXQ_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) PXQ_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() PXQ_RELEASE_GENERIC() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII exclusive (writer) section over a SharedMutex.
class PXQ_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) PXQ_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() PXQ_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace pxq

#endif  // PXQ_COMMON_MUTEX_H_
