// Checked, fault-injectable file I/O for the durability path.
//
// The WAL and the checkpoint snapshot writer route every mutating
// filesystem operation through these primitives so that (a) every
// write/flush/fsync return value is checked — an ENOSPC can never
// masquerade as a successful checkpoint — and (b) the deterministic
// fault injector (common/fault_injection.h) can fail any single step
// to prove the crash protocol: each primitive asks the injector first,
// and an injected failure behaves exactly like the real error
// (including torn writes that persist a prefix of the payload).
//
// Reads are deliberately not faulted: recovery code must handle
// arbitrary on-disk bytes anyway, and the tests corrupt files directly.
//
// Thread compatibility: a WritableFile is owned and used by one
// logical writer at a time (the WAL's exclusive commit window, the
// checkpoint path under the commit mutex); it adds no locking.
#ifndef PXQ_COMMON_IO_FILE_H_
#define PXQ_COMMON_IO_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"

namespace pxq {

/// A buffered file opened for writing ("wb" or "ab"). Move-only; the
/// destructor closes silently (call Close() to observe the error).
class WritableFile {
 public:
  WritableFile() = default;
  ~WritableFile();
  WritableFile(WritableFile&& other) noexcept;
  WritableFile& operator=(WritableFile&& other) noexcept;
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  /// Open `path` for writing; truncate=false appends. Fails (and stays
  /// closed) on an injected or real open error.
  Status Open(const std::string& path, bool truncate);
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Buffered write of n bytes, return value checked. An injected torn
  /// write persists a prefix of `data` and then fails — the state a
  /// crash mid-write leaves behind.
  Status Append(const char* data, size_t n);
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }

  /// fflush + fsync: the data is durable after this returns OK.
  Status SyncData();

  /// Close, reporting the flush error fclose can surface. The file is
  /// closed afterwards even on failure.
  Status Close();

  /// Current file offset (for rollback bookkeeping before an append).
  StatusOr<int64_t> Offset();

  /// Shrink the file to `size` bytes and fsync the truncation. Used to
  /// roll a failed WAL batch append back off the log so a garbage tail
  /// can never shadow later commits.
  Status TruncateTo(int64_t size);

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// rename(2) `from` over `to` (atomic within a filesystem).
Status AtomicRename(const std::string& from, const std::string& to);

/// fsync the directory containing `path`, making a rename of `path`
/// itself durable (the rename lives in the directory's data).
Status SyncParentDir(const std::string& path);

/// Slurp a file (recovery-side; not fault-injected). NotFound when the
/// file does not exist.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace pxq

#endif  // PXQ_COMMON_IO_FILE_H_
