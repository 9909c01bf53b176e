#include "xpath/plan_cache.h"

namespace pxq::xpath {

namespace {

size_t NextQuote(std::string_view text, size_t from) {
  for (size_t i = from; i < text.size(); ++i) {
    if (text[i] == '\'' || text[i] == '"') return i;
  }
  return std::string_view::npos;
}

}  // namespace

std::optional<std::string_view> ShapeKey(std::string_view text,
                                         std::string* buf,
                                         std::vector<std::string>* literals) {
  literals->clear();
  size_t q = NextQuote(text, 0);
  if (q == std::string_view::npos) return text;
  buf->clear();
  size_t from = 0;
  while (q != std::string_view::npos) {
    const size_t close = text.find(text[q], q + 1);
    if (close == std::string_view::npos) return std::nullopt;
    buf->append(text.substr(from, q - from)).append("''");
    literals->emplace_back(text.substr(q + 1, close - q - 1));
    from = close + 1;
    q = NextQuote(text, from);
  }
  buf->append(text.substr(from));
  return std::string_view(*buf);
}

std::shared_ptr<const Plan> PlanCache::Lookup(std::string_view text,
                                              uint64_t pool_gen,
                                              uint64_t env_fp,
                                              uint64_t stats_epoch) {
  MutexLock lock(&mu_);
  auto it = map_.find(text);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  const Plan& plan = *it->second.plan;
  const bool valid = plan.env_fp == env_fp &&
                     (plan.fully_resolved || plan.pool_gen == pool_gen) &&
                     (plan.stats_epoch == 0 ||
                      plan.stats_epoch == stats_epoch);
  if (!valid) {
    // Epoch-invalidated: the caller recompiles and re-inserts.
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  return it->second.plan;
}

void PlanCache::NoteRecompile() {
  MutexLock lock(&mu_);
  --stats_.hits;
  ++stats_.misses;
  ++stats_.recompiles;
}

void PlanCache::Insert(std::string_view text,
                       std::shared_ptr<const Plan> plan) {
  MutexLock lock(&mu_);
  auto it = map_.find(text);
  if (it != map_.end()) {
    // Concurrent compile race: last writer wins, LRU position refreshed.
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (map_.size() >= capacity_ && !lru_.empty()) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.emplace_front(text);
  map_.emplace(lru_.front(), Entry{std::move(plan), lru_.begin()});
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t PlanCache::size() const {
  MutexLock lock(&mu_);
  return map_.size();
}

void PlanCache::Clear() {
  MutexLock lock(&mu_);
  map_.clear();
  lru_.clear();
}

void PlanCache::RegisterMetrics(obs::MetricsRegistry* reg) const {
  reg->RegisterHistogram("pxq_plan_compile_ns", &compile_ns_);
  reg->RegisterGroup([this](std::vector<std::pair<std::string, int64_t>>* o) {
    const Stats s = stats();
    o->emplace_back("pxq_plan_cache_hits", s.hits);
    o->emplace_back("pxq_plan_cache_misses", s.misses);
    o->emplace_back("pxq_plan_cache_evictions", s.evictions);
    o->emplace_back("pxq_plan_cache_recompiles", s.recompiles);
    o->emplace_back("pxq_plan_cache_size", static_cast<int64_t>(size()));
  });
}

}  // namespace pxq::xpath
