// Re-Pair grammar compression (Larsson & Moffat, DCC 1999; paper Section 3.2).
//
// Training repeatedly replaces the most frequent pair of adjacent symbols by
// a fresh nonterminal until no pair occurs twice or the symbol space is
// exhausted. The symbol space is 12 bits (256 terminals + up to 3840 rules,
// "rp 12") or 16 bits (up to 65280 rules, "rp 16"); compressed strings are
// sequences of fixed-width symbol codes.
//
// Pairs never span two strings: every dictionary entry must decompress
// independently, so training inserts non-pairable separators between strings.
#ifndef ADICT_TEXT_REPAIR_H_
#define ADICT_TEXT_REPAIR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "text/codec.h"

namespace adict {

/// Open-addressing hash map from a symbol pair key (a << 16 | b) to a 32-bit
/// value, for RePairCodec and its trainer. Entries are never erased.
class PairMap {
 public:
  static constexpr uint32_t kMissing = ~0u;

  static uint32_t Key(uint32_t a, uint32_t b) { return (a << 16) | b; }

  /// The value stored for `key`, or kMissing.
  uint32_t Find(uint32_t key) const {
    if (slots_.empty()) return kMissing;
    for (size_t i = Home(key);; i = (i + 1) & (slots_.size() - 1)) {
      const uint64_t slot = slots_[i];
      if (slot == kEmptySlot) return kMissing;
      if (static_cast<uint32_t>(slot >> 32) == key) {
        return static_cast<uint32_t>(slot);
      }
    }
  }

  /// The value stored for `key`; stores `value` first if `key` is absent.
  /// `value` must not be kMissing.
  uint32_t FindOrInsert(uint32_t key, uint32_t value);

  void Reserve(size_t entries);

 private:
  static constexpr uint64_t kEmptySlot = ~0ull;  // value kMissing: never stored

  size_t Home(uint32_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void Rehash(size_t capacity);

  std::vector<uint64_t> slots_;  // key << 32 | value
  size_t size_ = 0;
  int shift_ = 64;
};

class RePairCodec final : public StringCodec {
 public:
  /// Rules that fit the 12-bit symbol space (after the 256 terminals).
  static constexpr size_t kTwelveBitRules = (1u << 12) - 256;

  /// Trains a Re-Pair grammar over `samples`. `symbol_bits` is 12 or 16.
  static std::unique_ptr<RePairCodec> Train(
      int symbol_bits, const std::vector<std::string_view>& samples);

  /// Reconstructs a codec written by Serialize (kind tag already consumed).
  static std::unique_ptr<RePairCodec> Deserialize(int symbol_bits,
                                                  ByteReader* in);

  CodecKind kind() const override {
    return symbol_bits_ == 12 ? CodecKind::kRePair12 : CodecKind::kRePair16;
  }
  uint64_t Encode(std::string_view s, BitWriter* out) const override;
  void Decode(BitReader* in, uint64_t bit_len, std::string* out) const override;
  size_t TableBytes() const override;
  bool order_preserving() const override { return false; }
  void Serialize(ByteWriter* out) const override;

  int symbol_bits() const { return symbol_bits_; }
  size_t num_rules() const { return rules_.size(); }

  /// Encoded bit lengths of `s` under Train(12, samples) and under this
  /// codec, trained as Train(16, samples), from one parse. Training is one
  /// greedy loop that the 12-bit symbol space stops after 3840 rules, so
  /// the 12-bit grammar is this one's first rules, and Parse applies rules
  /// in creation order: the 12-bit parse is this parse stopped before its
  /// first rule >= 3840.
  std::pair<uint64_t, uint64_t> EncodedBitsAt12And16(std::string_view s) const;

  /// Expands a single symbol (terminal or rule) to its character string.
  void ExpandSymbol(uint32_t symbol, std::string* out) const;

 private:
  static constexpr uint32_t kFirstRuleSymbol = 256;

  RePairCodec(int symbol_bits,
              std::vector<std::pair<uint16_t, uint16_t>> rules);

  /// Parses `s` into grammar symbols: the lowest-numbered rule that applies
  /// anywhere is applied first, at all its non-overlapping occurrences,
  /// leftmost first (most frequent pairs were created first). If
  /// `twelve_bit_symbols` is set, it receives the symbol count at the first
  /// rule outside the 12-bit symbol space (the final count if none applies).
  void Parse(std::string_view s, std::vector<uint32_t>* symbols,
             size_t* twelve_bit_symbols = nullptr) const;

  int symbol_bits_;
  // rules_[k] = (left, right) defines symbol 256 + k.
  std::vector<std::pair<uint16_t, uint16_t>> rules_;
  // Pair key -> rule index (not symbol).
  PairMap pair_to_rule_;
};

}  // namespace adict

#endif  // ADICT_TEXT_REPAIR_H_
