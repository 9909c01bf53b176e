// HostGauge: a timed pass over a buffer flushed out of the caches, read
// between operations to scale end-to-end timings to a fixed host speed.
#include <algorithm>

#include "bench_e2e.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pxq::e2e {

HostGauge::HostGauge() : buf_((size_t{4} << 20) / sizeof(uint64_t), 1) {}

void HostGauge::Sample() {
#if defined(__x86_64__) || defined(__i386__)
  for (size_t i = 0; i < buf_.size(); i += 64 / sizeof(uint64_t)) {
    _mm_clflush(&buf_[i]);
  }
  _mm_mfence();
#endif
  // Without the flush (other CPUs) the pass may read the caches, and the
  // gauge follows the host less closely.
  const int64_t t0 = NowNs();
  uint64_t sum = 0;
  for (uint64_t v : buf_) sum += v;
  const int64_t t1 = NowNs();
  sink_ += sum;
  samples_.push_back({t1, t1 - t0});
}

double HostGauge::ScaleOf(std::vector<int64_t> ns) const {
  if (ns.empty()) return 1;
  const double med = Percentile(std::move(ns), 50);
  return med > 0 ? static_cast<double>(kRefNs) / med : 1;
}

double HostGauge::ScaleAt(int64_t t) const {
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Reading& r, int64_t v) { return r.end_ns < v; });
  const auto i = it - samples_.begin();
  const auto n = static_cast<ptrdiff_t>(samples_.size());
  std::vector<int64_t> ns;
  for (ptrdiff_t j = std::max<ptrdiff_t>(0, i - 2); j < std::min(n, i + 3);
       ++j) {
    ns.push_back(samples_[j].ns);
  }
  return ScaleOf(std::move(ns));
}

double HostGauge::Scale(int64_t t0, int64_t t1) const {
  std::vector<int64_t> ns;
  for (const Reading& r : samples_) {
    if (r.end_ns >= t0 && r.end_ns <= t1) ns.push_back(r.ns);
  }
  return ScaleOf(std::move(ns));
}

double HostGauge::MedianMs() const {
  std::vector<int64_t> ns;
  for (const Reading& r : samples_) ns.push_back(r.ns);
  return Percentile(std::move(ns), 50) / 1e6;
}

}  // namespace pxq::e2e
