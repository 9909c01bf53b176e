#include "txn/lock_manager.h"

#include "common/strings.h"

namespace pxq::txn {

Status PageLockManager::Acquire(TxnId owner, PageId page) {
  MutexLock lock(&mu_);
  auto deadline = std::chrono::steady_clock::now() + timeout_;
  for (;;) {
    auto it = owner_of_.find(page);
    if (it == owner_of_.end()) {
      owner_of_[page] = owner;
      held_[owner].insert(page);
      return Status::OK();
    }
    if (it->second == owner) return Status::OK();  // re-entrant
    if (cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      // The wait may have outlived the holder: `it` can be erased, so
      // look the page up again (and take it if it is free now).
      auto holder = owner_of_.find(page);
      if (holder == owner_of_.end()) continue;
      return Status::Conflict(StrFormat(
          "page %lld is write-locked by txn %llu (deadlock timeout)",
          static_cast<long long>(page),
          static_cast<unsigned long long>(holder->second)));
    }
  }
}

void PageLockManager::ReleaseAll(TxnId owner) {
  {
    MutexLock lock(&mu_);
    auto it = held_.find(owner);
    if (it == held_.end()) return;
    for (PageId p : it->second) owner_of_.erase(p);
    held_.erase(it);
  }
  cv_.NotifyAll();
}

std::unordered_set<PageId> PageLockManager::HeldBy(TxnId owner) const {
  MutexLock lock(&mu_);
  auto it = held_.find(owner);
  return it == held_.end() ? std::unordered_set<PageId>{} : it->second;
}

}  // namespace pxq::txn
