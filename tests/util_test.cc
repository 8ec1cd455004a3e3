// Unit tests for the utility layer: bit streams, varints, RNG, Zipf, SHA-256.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/bit_stream.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "util/varint.h"
#include "util/zipf.h"

namespace adict {
namespace {

TEST(BitStream, SingleBitsRoundtrip) {
  BitWriter writer;
  const std::vector<unsigned> bits = {1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1};
  for (unsigned b : bits) writer.WriteBit(b);
  EXPECT_EQ(writer.bit_count(), bits.size());

  BitReader reader(writer.bytes().data(), 0);
  for (unsigned b : bits) EXPECT_EQ(reader.ReadBit(), b);
}

TEST(BitStream, MultiBitValuesRoundtrip) {
  BitWriter writer;
  writer.WriteBits(0x5, 3);
  writer.WriteBits(0x1234, 16);
  writer.WriteBits(0x1, 1);
  writer.WriteBits(0xdeadbeefcafebabeull, 64);

  BitReader reader(writer.bytes().data(), 0);
  EXPECT_EQ(reader.ReadBits(3), 0x5u);
  EXPECT_EQ(reader.ReadBits(16), 0x1234u);
  EXPECT_EQ(reader.ReadBits(1), 0x1u);
  EXPECT_EQ(reader.ReadBits(64), 0xdeadbeefcafebabeull);
}

TEST(BitStream, MsbFirstByteLayout) {
  BitWriter writer;
  writer.WriteBits(0b10110001, 8);
  EXPECT_EQ(writer.bytes()[0], 0b10110001);
}

TEST(BitStream, ReaderAtArbitraryOffset) {
  BitWriter writer;
  writer.WriteBits(0x00, 5);
  writer.WriteBits(0x2a, 7);

  BitReader reader(writer.bytes().data(), 5);
  EXPECT_EQ(reader.ReadBits(7), 0x2au);
  EXPECT_EQ(reader.position(), 12u);
}

TEST(BitStream, RandomizedRoundtrip) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    BitWriter writer;
    std::vector<std::pair<uint64_t, int>> values;
    for (int i = 0; i < 200; ++i) {
      const int nbits = 1 + static_cast<int>(rng.Uniform(64));
      const uint64_t value =
          nbits == 64 ? rng.Next() : rng.Next() & ((1ull << nbits) - 1);
      values.emplace_back(value, nbits);
      writer.WriteBits(value, nbits);
    }
    BitReader reader(writer.bytes().data(), 0);
    for (const auto& [value, nbits] : values) {
      ASSERT_EQ(reader.ReadBits(nbits), value);
    }
  }
}

/// Bit-at-a-time reference for BitWriter's MSB-first layout.
void ReferenceWriteBits(uint64_t value, int nbits, uint64_t* bit_count,
                        std::vector<uint8_t>* bytes) {
  for (int i = nbits - 1; i >= 0; --i, ++*bit_count) {
    if ((*bit_count & 7) == 0) bytes->push_back(0);
    if ((value >> i) & 1) bytes->back() |= 0x80 >> (*bit_count & 7);
  }
}

TEST(BitStream, EveryWidthAtEveryOffsetMatchesBitAtATimeReference) {
  Rng rng(17);
  for (int offset = 0; offset < 16; ++offset) {
    for (int width = 1; width <= 64; ++width) {
      // A prefix of `offset` bits, then three values of `width` bits; the
      // values carry garbage above their low `width` bits.
      const uint64_t prefix = rng.Next();
      const std::array<uint64_t, 3> values = {rng.Next(), rng.Next(), ~0ull};
      BitWriter writer;
      std::vector<uint8_t> expected;
      uint64_t expected_bits = 0;
      writer.WriteBits(prefix, offset);
      ReferenceWriteBits(prefix, offset, &expected_bits, &expected);
      for (uint64_t value : values) {
        writer.WriteBits(value, width);
        ReferenceWriteBits(value, width, &expected_bits, &expected);
      }
      ASSERT_EQ(writer.bit_count(), expected_bits);
      ASSERT_EQ(writer.bytes(), expected) << "offset " << offset << " width "
                                          << width;

      // Read back from a heap buffer of exactly ceil(bits / 8) bytes, so a
      // read past the last needed byte is a heap overflow under ASan.
      const size_t size = (expected_bits + 7) / 8;
      auto buffer = std::make_unique<uint8_t[]>(size);
      std::copy(expected.begin(), expected.end(), buffer.get());
      const uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
      BitReader reader(buffer.get(), offset);
      for (uint64_t value : values) {
        ASSERT_EQ(reader.ReadBits(width), value & mask)
            << "offset " << offset << " width " << width;
      }
      ASSERT_EQ(reader.position(), expected_bits);
      if (offset > 0) {
        BitReader prefix_reader(buffer.get(), 0);
        ASSERT_EQ(prefix_reader.ReadBits(offset),
                  prefix & ((1ull << offset) - 1));
      }
    }
  }
}

TEST(Varint, Roundtrip) {
  const std::vector<uint64_t> values = {0,   1,    127,        128,
                                        300, 1234, 1ull << 35, ~0ull};
  std::vector<uint8_t> buf;
  for (uint64_t v : values) PutVarint(&buf, v);
  size_t pos = 0;
  for (uint64_t v : values) EXPECT_EQ(GetVarint(buf.data(), &pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, LengthMatchesEncoding) {
  std::vector<uint8_t> buf;
  for (uint64_t v : {0ull, 127ull, 128ull, 16383ull, 16384ull, ~0ull}) {
    buf.clear();
    PutVarint(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v)) << v;
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RandomStringUsesAlphabet) {
  Rng rng(9);
  const std::string s = rng.RandomString(500, "abc");
  EXPECT_EQ(s.size(), 500u);
  for (char c : s) EXPECT_TRUE(c == 'a' || c == 'b' || c == 'c');
}

TEST(Zipf, RankZeroIsMostFrequent) {
  ZipfDistribution zipf(100, 1.0);
  Rng rng(11);
  std::map<uint64_t, int> histogram;
  for (int i = 0; i < 20000; ++i) ++histogram[zipf.Sample(&rng)];
  // Rank 0 should dominate rank 10 which should dominate rank 90.
  EXPECT_GT(histogram[0], histogram[10]);
  EXPECT_GT(histogram[10], histogram[90]);
}

TEST(Zipf, CoversFullRange) {
  ZipfDistribution zipf(4, 0.5);
  Rng rng(13);
  std::map<uint64_t, int> histogram;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t r = zipf.Sample(&rng);
    ASSERT_LT(r, 4u);
    ++histogram[r];
  }
  EXPECT_EQ(histogram.size(), 4u);
}

TEST(Sha256, KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  // One million 'a' characters (FIPS vector).
  const std::string input(1000000, 'a');
  EXPECT_EQ(Sha256Hex(input),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingBoundaryLengths) {
  // Lengths 55, 56, 63, 64, 65 exercise the one- vs two-block padding paths.
  for (size_t len : {55u, 56u, 63u, 64u, 65u}) {
    const std::string input(len, 'x');
    const std::string hex = Sha256Hex(input);
    EXPECT_EQ(hex.size(), 64u);
    // Digest must be stable.
    EXPECT_EQ(hex, Sha256Hex(input));
  }
}

}  // namespace
}  // namespace adict
