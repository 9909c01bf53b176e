#include "txn/wal.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>

#include "common/checksum.h"
#include "common/io_file.h"
#include "common/strings.h"

namespace pxq::txn {
namespace {

constexpr uint32_t kRecordMagic = 0x50585158;    // "PXQX": v2
constexpr uint32_t kRecordMagicV1 = 0x50585157;  // "PXQW": v1, refused

// --- little-endian buffer primitives ---------------------------------

// The WAL is little-endian on disk and scalars and page columns are
// written as raw native bytes, so only little-endian hosts are
// supported — as for the snapshot, which is machine-local checkpoint
// state too.
static_assert(std::endian::native == std::endian::little,
              "the WAL encoding assumes a little-endian host");

template <typename T>
void Put(std::string* b, T v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(T));
}
void PutU8(std::string* b, uint8_t v) { Put(b, v); }
void PutU32(std::string* b, uint32_t v) { Put(b, v); }
void PutI32(std::string* b, int32_t v) { Put(b, v); }
void PutU64(std::string* b, uint64_t v) { Put(b, v); }
void PutI64(std::string* b, int64_t v) { Put(b, v); }
void PutStr(std::string* b, const std::string& s) {
  PutU32(b, static_cast<uint32_t>(s.size()));
  b->append(s);
}

// Tuples [lo, hi) of a column as one byte run. An empty range copies
// nothing: an empty column's data() may be null.
template <typename T>
void PutColumn(std::string* b, const std::vector<T>& v, size_t lo,
               size_t hi) {
  if (hi == lo) return;
  b->append(reinterpret_cast<const char*>(v.data() + lo),
            (hi - lo) * sizeof(T));
}

// Bytes per tuple over the five page columns.
constexpr size_t kTupleBytes = sizeof(int64_t) + sizeof(int32_t) +
                               sizeof(uint8_t) + sizeof(int32_t) +
                               sizeof(int64_t);

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* v) {
    if (sizeof(T) > size_ - pos_) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool U8(uint8_t* v) { return Get(v); }
  bool U32(uint32_t* v) { return Get(v); }
  bool I32(int32_t* v) { return Get(v); }
  bool U64(uint64_t* v) { return Get(v); }
  bool I64(int64_t* v) { return Get(v); }
  bool Str(std::string* s) {
    uint32_t n;
    return U32(&n) && Bytes(n, s);
  }
  bool Bytes(uint64_t n, std::string* s) {
    if (n > size_ - pos_) return false;
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  // Inverse of PutColumn: fills all of `v`. An empty column (an empty
  // tuple range) reads nothing; its data() may be null.
  template <typename T>
  bool Column(std::vector<T>* v) {
    const size_t n = v->size() * sizeof(T);
    if (n > size_ - pos_) return false;
    if (n == 0) return true;
    std::memcpy(v->data(), data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool done() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void PutTuples(std::string* b, const storage::Page& pg, size_t lo,
               size_t hi) {
  PutColumn(b, pg.size, lo, hi);
  PutColumn(b, pg.level, lo, hi);
  PutColumn(b, pg.kind, lo, hi);
  PutColumn(b, pg.ref, lo, hi);
  PutColumn(b, pg.node, lo, hi);
}

bool ReadTuples(Reader* r, storage::Page* pg) {
  return r->Column(&pg->size) && r->Column(&pg->level) &&
         r->Column(&pg->kind) && r->Column(&pg->ref) && r->Column(&pg->node);
}

void PutPage(std::string* b, const storage::Page& pg) {
  PutI32(b, pg.used);
  PutU32(b, static_cast<uint32_t>(pg.size.size()));
  PutTuples(b, pg, 0, pg.size.size());
}

// A page image as its changed range: phys, used, lo, hi, then the
// range's tuples column by column.
void PutRange(std::string* b, const storage::OpLog::PageImage& pi) {
  PutI64(b, pi.phys);
  PutI32(b, pi.image->used);
  PutI32(b, pi.lo);
  PutI32(b, pi.hi);
  PutTuples(b, *pi.image, static_cast<size_t>(pi.lo),
            static_cast<size_t>(pi.hi));
}

bool ReadRange(Reader* r, int32_t page_tuples, Wal::PageRange* out) {
  int32_t hi;
  if (!r->I64(&out->phys) || !r->I32(&out->used) || !r->I32(&out->lo) ||
      !r->I32(&hi)) {
    return false;
  }
  if (out->lo < 0 || out->lo > hi || hi > page_tuples) return false;
  out->tuples = storage::Page(hi - out->lo);
  return ReadTuples(r, &out->tuples);
}

bool ReadPage(Reader* r, int32_t page_tuples,
              std::shared_ptr<storage::Page>* out) {
  int32_t used;
  uint32_t cap;
  if (!r->I32(&used) || !r->U32(&cap)) return false;
  if (cap != static_cast<uint32_t>(page_tuples)) return false;
  auto pg = std::make_shared<storage::Page>(page_tuples);
  pg->used = used;
  if (!ReadTuples(r, pg.get())) return false;
  *out = std::move(pg);
  return true;
}

// Exact encoded size of one record, so the batch buffer is allocated
// once.
size_t RecordBytes(const storage::OpLog& log,
                   const std::vector<PoolDelta>& pool_delta) {
  size_t n = 4 + 8 + 8 + 8 + 8;  // magic, txn, snapshot lsn, lsn, length
  n += 4;
  for (const PoolDelta& d : pool_delta) n += 1 + 4 + 4 + d.value.size();
  n += 4;
  for (const auto& pi : log.page_images) {
    n += 8 + 4 + 4 + 4 + static_cast<size_t>(pi.hi - pi.lo) * kTupleBytes;
  }
  n += 4;
  for (const auto& pa : log.page_appends) {
    n += 8 + 4 + 4 + pa.image->size.size() * kTupleBytes;
  }
  n += 4 + log.logical_inserts.size() * (8 + 8);
  n += 4 + log.node_pos_sets.size() * (8 + 8 + 4);
  n += 4 + log.size_claims.size() * 8;
  n += 4 + log.attr_ops.size() * (1 + 8 + 4 + 4);
  n += 4 + log.freed_nodes.size() * 8;
  n += 8;  // used_delta
  return n + 8;  // checksum
}

// Appends the payload to `b` (no intermediate string: page images are
// most of a record).
void PutPayload(std::string* b, const storage::OpLog& log,
                const std::vector<PoolDelta>& pool_delta) {
  PutU32(b, static_cast<uint32_t>(pool_delta.size()));
  for (const PoolDelta& d : pool_delta) {
    PutU8(b, static_cast<uint8_t>(d.kind));
    PutI32(b, d.id);
    PutStr(b, d.value);
  }
  PutU32(b, static_cast<uint32_t>(log.page_images.size()));
  for (const auto& pi : log.page_images) PutRange(b, pi);
  PutU32(b, static_cast<uint32_t>(log.page_appends.size()));
  for (const auto& pa : log.page_appends) {
    PutI64(b, pa.clone_phys);
    PutPage(b, *pa.image);
  }
  PutU32(b, static_cast<uint32_t>(log.logical_inserts.size()));
  for (const auto& li : log.logical_inserts) {
    PutI64(b, li.clone_phys);
    PutI64(b, li.anchor_phys);
  }
  PutU32(b, static_cast<uint32_t>(log.node_pos_sets.size()));
  for (const auto& np : log.node_pos_sets) {
    PutI64(b, np.node);
    PutI64(b, np.clone_phys);
    PutI32(b, np.offset);
  }
  PutU32(b, static_cast<uint32_t>(log.size_claims.size()));
  for (NodeId n : log.size_claims) PutI64(b, n);
  PutU32(b, static_cast<uint32_t>(log.attr_ops.size()));
  for (const auto& op : log.attr_ops) {
    PutU8(b, static_cast<uint8_t>(op.kind));
    PutI64(b, op.owner);
    PutI32(b, op.qname);
    PutI32(b, op.prop);
  }
  PutU32(b, static_cast<uint32_t>(log.freed_nodes.size()));
  for (NodeId n : log.freed_nodes) PutI64(b, n);
  PutI64(b, log.used_delta);
}

bool DeserializePayload(const std::string& payload, int32_t page_tuples,
                        Wal::Recovered* rec) {
  storage::OpLog* log = &rec->log;
  std::vector<PoolDelta>* pool_delta = &rec->pool_delta;
  Reader r(payload.data(), payload.size());
  uint32_t n;
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    PoolDelta d;
    uint8_t kind;
    if (!r.U8(&kind) || !r.I32(&d.id) || !r.Str(&d.value)) return false;
    d.kind = static_cast<storage::ContentPools::PoolKind>(kind);
    pool_delta->push_back(std::move(d));
  }
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    Wal::PageRange range;
    if (!ReadRange(&r, page_tuples, &range)) return false;
    rec->page_ranges.push_back(std::move(range));
  }
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    storage::OpLog::PageAppend pa;
    if (!r.I64(&pa.clone_phys) || !ReadPage(&r, page_tuples, &pa.image)) {
      return false;
    }
    log->page_appends.push_back(std::move(pa));
  }
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    storage::OpLog::LogicalInsert li;
    if (!r.I64(&li.clone_phys) || !r.I64(&li.anchor_phys)) return false;
    log->logical_inserts.push_back(li);
  }
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    storage::OpLog::NodePosSet np;
    if (!r.I64(&np.node) || !r.I64(&np.clone_phys) || !r.I32(&np.offset)) {
      return false;
    }
    log->node_pos_sets.push_back(np);
  }
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    NodeId id;
    if (!r.I64(&id)) return false;
    log->size_claims.push_back(id);
  }
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    storage::OpLog::AttrOp op;
    uint8_t kind;
    if (!r.U8(&kind) || !r.I64(&op.owner) || !r.I32(&op.qname) ||
        !r.I32(&op.prop)) {
      return false;
    }
    op.kind = static_cast<storage::OpLog::AttrOp::Kind>(kind);
    log->attr_ops.push_back(op);
  }
  if (!r.U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    NodeId id;
    if (!r.I64(&id)) return false;
    log->freed_nodes.push_back(id);
  }
  if (!r.I64(&log->used_delta)) return false;
  return r.done();
}

template <typename T>
void CopyColumn(const std::vector<T>& from, size_t lo, std::vector<T>* to) {
  std::copy(from.begin(), from.end(), to->begin() + static_cast<ptrdiff_t>(lo));
}

}  // namespace

void Wal::PageRange::LayOver(storage::Page* page) const {
  const auto at = static_cast<size_t>(lo);
  CopyColumn(tuples.size, at, &page->size);
  CopyColumn(tuples.level, at, &page->level);
  CopyColumn(tuples.kind, at, &page->kind);
  CopyColumn(tuples.ref, at, &page->ref);
  CopyColumn(tuples.node, at, &page->node);
  page->used = used;
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const std::string& path) {
  auto wal = std::unique_ptr<Wal>(new Wal());
  wal->path_ = path;
  PXQ_RETURN_IF_ERROR(wal->file_.Open(path, /*truncate=*/false));
  return wal;
}

Status Wal::AppendBatch(const std::vector<BatchEntry>& entries) {
  if (entries.empty()) return Status::OK();
  if (broken_) {
    return Status::IOError("WAL poisoned by an unrollable failed append");
  }
  if (!file_.is_open()) return Status::IOError("WAL not open: " + path_);
  const auto t0 = std::chrono::steady_clock::now();
  std::string buf;
  size_t bytes = 0;
  for (const BatchEntry& e : entries) {
    bytes += RecordBytes(*e.log, *e.pool_delta);
  }
  buf.reserve(bytes);
  for (const BatchEntry& e : entries) {
    PutU32(&buf, kRecordMagic);
    PutU64(&buf, e.txn_id);
    PutU64(&buf, e.snapshot_lsn);
    PutU64(&buf, e.commit_lsn);
    // Length placeholder, patched once the payload is in place.
    const size_t len_at = buf.size();
    PutU64(&buf, 0);
    const size_t payload_at = buf.size();
    PutPayload(&buf, *e.log, *e.pool_delta);
    const uint64_t len = buf.size() - payload_at;
    std::memcpy(&buf[len_at], &len, sizeof(len));
    PutU64(&buf, Checksum64(buf.data() + payload_at, len));
  }
  assert(buf.size() == bytes);
  StatusOr<int64_t> start = file_.Offset();
  if (!start.ok()) return start.status();
  Status s = file_.Append(buf);
  // The paper's single-I/O commit point — one fsync for the whole
  // batch.
  if (s.ok()) s = file_.SyncData();
  if (!s.ok()) {
    // The file may hold a torn prefix of the batch. Recovery would stop
    // at it — but a LATER successful append behind that garbage would
    // be unreachable forever. Truncate the log back to the pre-append
    // offset so the failure costs only this batch.
    Status rollback = file_.TruncateTo(start.value());
    if (!rollback.ok()) broken_ = true;
    return Status::IOError("WAL append failed: " + s.message());
  }
  // relaxed: stat counter; the commit mutex serializes writers.
  commit_count_.fetch_add(static_cast<int64_t>(entries.size()),
                          std::memory_order_relaxed);
  appended_bytes_.Inc(static_cast<int64_t>(buf.size()));
  append_ns_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  return Status::OK();
}

Status Wal::AppendCommit(TxnId txn_id, uint64_t snapshot_lsn,
                         uint64_t commit_lsn, const storage::OpLog& log,
                         const std::vector<PoolDelta>& pool_delta) {
  return AppendBatch({{txn_id, snapshot_lsn, commit_lsn, &log, &pool_delta}});
}

Status Wal::Reset() {
  // Checked truncation: close the old handle (surfacing buffered-write
  // errors), reopen truncating, and fsync the zero length — a reset
  // that is not durable is a failed checkpoint, not an OK. On failure
  // the WAL may be left closed; AppendBatch then reports IOError
  // rather than silently logging nowhere.
  PXQ_RETURN_IF_ERROR(file_.Close());
  PXQ_RETURN_IF_ERROR(file_.Open(path_, /*truncate=*/true));
  PXQ_RETURN_IF_ERROR(file_.SyncData());
  broken_ = false;
  // relaxed: stat counter reset under the commit mutex.
  commit_count_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

StatusOr<std::vector<Wal::Recovered>> Wal::ReadAll(const std::string& path,
                                                   int32_t page_tuples) {
  std::vector<Recovered> out;
  StatusOr<std::string> content_or = ReadFileToString(path);
  if (!content_or.ok()) {
    if (content_or.status().IsNotFound()) {
      return out;  // no WAL yet: nothing to recover
    }
    return content_or.status();
  }
  const std::string& content = content_or.value();
  Reader r(content.data(), content.size());
  for (;;) {
    uint32_t magic;
    if (!r.U32(&magic)) break;             // clean EOF
    if (magic == kRecordMagicV1) {
      // Read as a torn tail, it would silently drop every logged
      // commit.
      return Status::Corruption(
          "WAL " + path + " holds a v1 record (whole-page images, FNV "
          "checksum); this build reads only v2 records: recover and "
          "checkpoint it with the build that wrote it");
    }
    if (magic != kRecordMagic) break;      // torn tail
    uint64_t txn_id, snapshot_lsn, commit_lsn, len;
    if (!r.U64(&txn_id) || !r.U64(&snapshot_lsn) || !r.U64(&commit_lsn) ||
        !r.U64(&len)) {
      break;
    }
    // A torn length header could claim terabytes; the payload cannot
    // exceed what is actually in the file.
    std::string payload;
    if (!r.Bytes(len, &payload)) break;  // torn record
    uint64_t crc;
    if (!r.U64(&crc) || crc != Checksum64(payload.data(), payload.size())) {
      break;  // torn/corrupt
    }
    Recovered rec;
    rec.txn_id = txn_id;
    rec.snapshot_lsn = snapshot_lsn;
    rec.commit_lsn = commit_lsn;
    if (!DeserializePayload(payload, page_tuples, &rec)) {
      break;
    }
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace pxq::txn
