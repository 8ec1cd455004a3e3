// Bit-granular output and input streams.
//
// All compressed dictionary payloads in this library are stored as one
// contiguous bit stream addressed by bit offsets, so codecs never need
// per-string terminators or byte padding. Bits are written MSB-first within
// each byte, which keeps the stream's lexicographic byte order consistent
// with the bit order (relevant for order-preserving codes).
#ifndef ADICT_UTIL_BIT_STREAM_H_
#define ADICT_UTIL_BIT_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace adict {

/// Append-only bit stream writer. Bits are packed MSB-first into bytes.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the `nbits` low-order bits of `value`, most significant first.
  /// Fills the current byte, then whole bytes, up to 8 bits per step.
  void WriteBits(uint64_t value, int nbits) {
    ADICT_DCHECK(nbits >= 0 && nbits <= 64);
    while (nbits > 0) {
      const int used = static_cast<int>(bit_count_ & 7);
      if (used == 0) bytes_.push_back(0);
      const int take = std::min(8 - used, nbits);
      nbits -= take;
      const unsigned chunk =
          static_cast<unsigned>(value >> nbits) & ((1u << take) - 1);
      bytes_.back() |= static_cast<uint8_t>(chunk << (8 - used - take));
      bit_count_ += take;
    }
  }

  /// Appends a single bit (0 or 1).
  void WriteBit(unsigned bit) { WriteBits(bit, 1); }

  /// Number of bits written so far.
  uint64_t bit_count() const { return bit_count_; }

  /// Underlying byte buffer (last byte may be partially used).
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  /// Moves the byte buffer out; the writer is left empty.
  std::vector<uint8_t> TakeBytes() {
    bit_count_ = 0;
    return std::move(bytes_);
  }

  void Clear() {
    bytes_.clear();
    bit_count_ = 0;
  }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t bit_count_ = 0;
};

/// Bit stream reader positioned at an arbitrary bit offset.
class BitReader {
 public:
  /// Reads from `data` starting at absolute bit position `bit_offset`.
  /// `data` must outlive the reader.
  BitReader(const uint8_t* data, uint64_t bit_offset)
      : data_(data), pos_(bit_offset) {}

  /// Reads a single bit.
  unsigned ReadBit() {
    const unsigned bit = (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }

  /// Reads `nbits` bits MSB-first and returns them as the low-order bits of
  /// the result. Moves up to 8 bits per step and touches no byte past the
  /// one holding the last bit read.
  uint64_t ReadBits(int nbits) {
    ADICT_DCHECK(nbits >= 0 && nbits <= 64);
    uint64_t value = 0;
    while (nbits > 0) {
      const int used = static_cast<int>(pos_ & 7);
      const int take = std::min(8 - used, nbits);
      const unsigned chunk =
          (data_[pos_ >> 3] >> (8 - used - take)) & ((1u << take) - 1);
      value = (value << take) | chunk;
      pos_ += take;
      nbits -= take;
    }
    return value;
  }

  /// Absolute bit position of the reader.
  uint64_t position() const { return pos_; }

 private:
  const uint8_t* data_;
  uint64_t pos_;
};

}  // namespace adict

#endif  // ADICT_UTIL_BIT_STREAM_H_
