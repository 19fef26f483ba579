/// \file bit_io.h
/// \brief Bit-granular serialization: BitWriter/BitReader, varint and
/// Elias gamma/delta codes.
///
/// The whole point of the paper is counting *bits* of state; this module is
/// the substrate that lets counters serialize to (and report) exact bit
/// footprints; `SerializeState` is also the layout of the state words
/// `analytics::CounterStore` packs and persists.
///
/// Bit order: within the stream, bits are appended LSB-first into bytes.

#ifndef COUNTLIB_UTIL_BIT_IO_H_
#define COUNTLIB_UTIL_BIT_IO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace countlib {

/// \brief Appends bit fields to a growable byte buffer.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `width` bits of `value` (0 <= width <= 64).
  void WriteBits(uint64_t value, int width);

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends `value` in LEB128 (7 bits per byte, high bit = continue).
  void WriteVarint(uint64_t value);

  /// Appends `value >= 1` in Elias gamma code (unary length + binary body).
  void WriteEliasGamma(uint64_t value);

  /// Appends `value >= 1` in Elias delta code (gamma-coded length + body).
  void WriteEliasDelta(uint64_t value);

  /// Number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  /// The underlying buffer; the final partial byte is zero-padded.
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  /// Clears all written data.
  void Reset() {
    bytes_.clear();
    bit_count_ = 0;
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

/// \brief Reads bit fields from a byte buffer produced by BitWriter.
class BitReader {
 public:
  /// The buffer must outlive the reader. `bit_limit` bounds reads (pass the
  /// writer's `bit_count()`).
  BitReader(const uint8_t* data, size_t bit_limit)
      : data_(data), bit_limit_(bit_limit) {}

  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size() * 8) {}

  /// Reads `width` bits (0 <= width <= 64) into the low bits of the result.
  Result<uint64_t> ReadBits(int width);

  /// Reads one bit.
  Result<bool> ReadBit();

  /// Reads an LEB128 varint.
  Result<uint64_t> ReadVarint();

  /// Reads an Elias gamma code.
  Result<uint64_t> ReadEliasGamma();

  /// Reads an Elias delta code.
  Result<uint64_t> ReadEliasDelta();

  /// Current read position in bits.
  size_t position() const { return pos_; }

  /// Bits remaining before the limit.
  size_t remaining() const { return bit_limit_ - pos_; }

 private:
  const uint8_t* data_;
  size_t bit_limit_;
  size_t pos_ = 0;
};

}  // namespace countlib

#endif  // COUNTLIB_UTIL_BIT_IO_H_
