// Types shared by the storage schemas: the string pools of Fig. 5/6, the
// dense node-record form produced by the shredder, and size-delta lists
// (the commutative update currency of Section 3.2).
#ifndef PXQ_STORAGE_STORE_COMMON_H_
#define PXQ_STORAGE_STORE_COMMON_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/qname_pool.h"
#include "storage/value_pool.h"

namespace pxq::storage {

/// Whether a store other than the caller still references `p`, i.e.
/// whether an in-place write must copy first. Base and clones share
/// pages, node/pos chunks and attribute chunks, and drop references
/// from other threads (a clone privatizing a chunk, a commit installing
/// an image). use_count() alone is a relaxed load: seeing 1 would not
/// order the dropping thread's earlier reads before our write. Copying
/// the pointer is a reference-count RMW, which is acq_rel in libstdc++
/// (the standard library this project builds against) and so does
/// order them. The standard does not promise that: libc++ increments
/// with a relaxed RMW, so under libc++ this ordering would need a
/// fence.
template <typename T>
bool SharedWithOthers(const std::shared_ptr<T>& p) {
  const std::shared_ptr<T> probe = p;
  return probe.use_count() > 2;
}

/// The auxiliary string tables of the schema: qn (qualified names),
/// text/com/ins (node values) and prop (deduplicated attribute values).
/// Pools are append-only; Intern/Add are serialized by a mutex so
/// concurrent transactions can intern values without coordination
/// (uncommitted appends are unreachable garbage, never incorrect).
/// Readers (Text/Prop/QnameOf/...) take NO lock: they run concurrently
/// with rival transactions' interning, which is safe because the
/// backing storage is pointer-stable chunks (StableStrings) and a
/// reader only dereferences ids published by committed store state.
class ContentPools {
 public:
  ContentPools()
      : texts_(/*dedup=*/false),
        comments_(/*dedup=*/false),
        pis_(/*dedup=*/false),
        props_(/*dedup=*/true) {}

  QnameId InternQname(std::string_view name) {
    MutexLock lock(&mu_);
    return qnames_.Intern(name);
  }
  QnameId FindQname(std::string_view name) const {
    MutexLock lock(&mu_);
    return qnames_.Find(name);
  }
  // Lock-free reader: ids come from committed store state; the backing
  // chunks are pointer-stable and published release/acquire by
  // StableStrings (see value_pool.h), so no mutex is needed — the
  // annotation opt-out below documents exactly that contract.
  const std::string& QnameOf(QnameId id) const PXQ_NO_THREAD_SAFETY_ANALYSIS {
    return qnames_.Name(id);
  }

  ValueId AddText(std::string_view v) {
    MutexLock lock(&mu_);
    return texts_.Add(v);
  }
  ValueId AddComment(std::string_view v) {
    MutexLock lock(&mu_);
    return comments_.Add(v);
  }
  ValueId AddPi(std::string_view v) {
    MutexLock lock(&mu_);
    return pis_.Add(v);
  }
  ValueId AddProp(std::string_view v) {
    MutexLock lock(&mu_);
    return props_.Add(v);
  }

  // Lock-free readers — same chunk-publication contract as QnameOf.
  const std::string& Text(ValueId id) const PXQ_NO_THREAD_SAFETY_ANALYSIS {
    return texts_.Get(id);
  }
  const std::string& Comment(ValueId id) const PXQ_NO_THREAD_SAFETY_ANALYSIS {
    return comments_.Get(id);
  }
  const std::string& Pi(ValueId id) const PXQ_NO_THREAD_SAFETY_ANALYSIS {
    return pis_.Get(id);
  }
  const std::string& Prop(ValueId id) const PXQ_NO_THREAD_SAFETY_ANALYSIS {
    return props_.Get(id);
  }

  /// Value of a node given its kind and ref (elements have no value
  /// here). Lock-free reader — same contract as QnameOf.
  const std::string& ValueOf(NodeKind kind, ValueId ref) const
      PXQ_NO_THREAD_SAFETY_ANALYSIS {
    switch (kind) {
      case NodeKind::kText: return texts_.Get(ref);
      case NodeKind::kComment: return comments_.Get(ref);
      default: return pis_.Get(ref);
    }
  }

  // Lock-free stat reads (sizes are monotone; skew is acceptable).
  int64_t ByteSize() const PXQ_NO_THREAD_SAFETY_ANALYSIS {
    return qnames_.ByteSize() + texts_.ByteSize() + comments_.ByteSize() +
           pis_.ByteSize() + props_.ByteSize();
  }
  int64_t qname_count() const PXQ_NO_THREAD_SAFETY_ANALYSIS {
    return qnames_.size();
  }

  // --- WAL / snapshot support ------------------------------------------
  enum class PoolKind : uint8_t { kQname, kText, kComment, kPi, kProp };
  struct PoolSizes {
    int64_t sizes[5];
  };
  /// Current entry counts per pool (captured at transaction begin; the
  /// WAL logs entries appended after that point).
  PoolSizes Sizes() const {
    MutexLock lock(&mu_);
    return {{qnames_.size(), texts_.size(), comments_.size(), pis_.size(),
             props_.size()}};
  }
  std::string Entry(PoolKind kind, int32_t id) const {
    MutexLock lock(&mu_);
    switch (kind) {
      case PoolKind::kQname: return qnames_.Name(id);
      case PoolKind::kText: return texts_.Get(id);
      case PoolKind::kComment: return comments_.Get(id);
      case PoolKind::kPi: return pis_.Get(id);
      case PoolKind::kProp: return props_.Get(id);
    }
    return {};
  }
  /// Idempotent positional install (WAL replay / snapshot load).
  void SetEntry(PoolKind kind, int32_t id, std::string_view value) {
    MutexLock lock(&mu_);
    switch (kind) {
      case PoolKind::kQname: qnames_.SetAt(id, value); break;
      case PoolKind::kText: texts_.SetAt(id, value); break;
      case PoolKind::kComment: comments_.SetAt(id, value); break;
      case PoolKind::kPi: pis_.SetAt(id, value); break;
      case PoolKind::kProp: props_.SetAt(id, value); break;
    }
  }

 private:
  mutable Mutex mu_;
  // Guarded for WRITES (Intern/Add/SetAt) and map lookups (Find);
  // value reads by id bypass mu_ through the NO_THREAD_SAFETY_ANALYSIS
  // readers above, riding the pools' release/acquire chunk publication.
  QnamePool qnames_ PXQ_GUARDED_BY(mu_);
  ValuePool texts_ PXQ_GUARDED_BY(mu_);
  ValuePool comments_ PXQ_GUARDED_BY(mu_);
  ValuePool pis_ PXQ_GUARDED_BY(mu_);
  ValuePool props_ PXQ_GUARDED_BY(mu_);
};

/// One node of a subtree being inserted, in document order. `level_rel`
/// is the depth relative to the subtree root (root itself = 0); the store
/// rebases it onto the insertion parent's level. For elements `ref` is a
/// QnameId; for value kinds it indexes the matching pool.
struct NewTuple {
  int32_t level_rel;
  NodeKind kind;
  int32_t ref;
};

/// Attribute attached to the i-th tuple of a NewTuple sequence.
struct NewAttr {
  int32_t tuple_index;  // index into the NewTuple vector (must be element)
  QnameId qname;
  ValueId prop;
};

/// Dense (hole-free) image of a document as emitted by the shredder:
/// read-only stores adopt it directly; the paged store repacks it into
/// logical pages. `size` here counts real descendants (classic
/// pre/size/level); the paged store converts to view extents.
struct DenseDocument {
  std::vector<int64_t> size;
  std::vector<int32_t> level;
  std::vector<uint8_t> kind;
  std::vector<int32_t> ref;
  /// Attributes in document order; owner = dense pre rank of the element.
  struct DenseAttr {
    int64_t owner_pre;
    QnameId qname;
    ValueId prop;
  };
  std::vector<DenseAttr> attrs;
  std::shared_ptr<ContentPools> pools;

  int64_t node_count() const { return static_cast<int64_t>(size.size()); }
};

}  // namespace pxq::storage

#endif  // PXQ_STORAGE_STORE_COMMON_H_
