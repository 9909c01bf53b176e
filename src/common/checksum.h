// The one checksum of the on-disk formats (WAL records, the snapshot
// trailer): detects torn writes and corrupted bytes. Not a
// cryptographic hash.
#ifndef PXQ_COMMON_CHECKSUM_H_
#define PXQ_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace pxq {

/// 64-bit checksum of `n` bytes. Reads 8-byte words round-robin into
/// four independent multiply/xorshift lanes, so it runs at memory
/// speed rather than one multiply per byte. Each lane step is a
/// bijection of the lane state for a given word, so any single changed
/// word changes the result. Words are read in native byte order; the
/// formats that store it are little-endian only.
uint64_t Checksum64(const char* data, size_t n);

}  // namespace pxq

#endif  // PXQ_COMMON_CHECKSUM_H_
