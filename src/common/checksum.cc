#include "common/checksum.h"

#include <cstring>

namespace pxq {
namespace {

constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;  // odd: invertible

uint64_t Step(uint64_t lane, uint64_t word) {
  lane = (lane ^ word) * kMul;
  return lane ^ (lane >> 32);
}

uint64_t Word(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

uint64_t Checksum64(const char* data, size_t n) {
  uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                      0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = Step(lane[0], Word(data + i));
    lane[1] = Step(lane[1], Word(data + i + 8));
    lane[2] = Step(lane[2], Word(data + i + 16));
    lane[3] = Step(lane[3], Word(data + i + 24));
  }
  for (int k = 0; i + 8 <= n; i += 8, ++k) {
    lane[k] = Step(lane[k], Word(data + i));
  }
  if (i < n) {
    char tail[8] = {};
    std::memcpy(tail, data + i, n - i);
    lane[3] = Step(lane[3], Word(tail));
  }
  // The length separates inputs that differ only by trailing zero bytes.
  uint64_t h = Step(static_cast<uint64_t>(n), 0);
  for (uint64_t l : lane) h = Step(h, l);
  return h;
}

}  // namespace pxq
