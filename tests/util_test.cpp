#include <gtest/gtest.h>

#include <set>

#include "util/bytes.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/shared_bytes.h"
#include "util/serde.h"

namespace wakurln::util {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0x0001ABFF7F"), data);
}

TEST(BytesTest, EmptyHex) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
  EXPECT_TRUE(from_hex("0x").empty());
}

TEST(BytesTest, RejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(BytesTest, RejectsInvalidDigits) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(BytesTest, ToBytesCopiesString) {
  const Bytes b = to_bytes("hi");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 'h');
  EXPECT_EQ(b[1], 'i');
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(equal_ct(a, b));
  EXPECT_FALSE(equal_ct(a, c));
  EXPECT_FALSE(equal_ct(a, d));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(RngTest, UnitInHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMeanRoughlyCalibrated) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(RngTest, FillCoversBuffer) {
  Rng rng(19);
  std::array<std::uint8_t, 37> buf{};
  rng.fill(buf);
  std::set<std::uint8_t> distinct(buf.begin(), buf.end());
  EXPECT_GT(distinct.size(), 10u);  // astronomically unlikely to fail
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(SerdeTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  const Bytes buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.empty());
}

TEST(SerdeTest, VarBufferRoundTrip) {
  ByteWriter w;
  const Bytes payload = {9, 8, 7};
  w.put_var(payload);
  w.put_var({});
  const Bytes buf = w.take();

  ByteReader r(buf);
  const auto a = r.get_var();
  EXPECT_EQ(Bytes(a.begin(), a.end()), payload);
  EXPECT_TRUE(r.get_var().empty());
}

TEST(SerdeTest, TruncatedInputThrows) {
  const Bytes buf = {1, 2};
  ByteReader r(buf);
  EXPECT_THROW(r.get_u32(), DecodeError);
}

TEST(SerdeTest, VarLengthBeyondBufferThrows) {
  ByteWriter w;
  w.put_u32(1000);  // claims 1000 bytes follow
  w.put_u8(1);
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.get_var(), DecodeError);
}

TEST(SerdeTest, GetArrayExactSize) {
  ByteWriter w;
  const Bytes payload = {1, 2, 3, 4};
  w.put_raw(payload);
  ByteReader r(w.data());
  const auto arr = r.get_array<4>();
  EXPECT_EQ(arr[0], 1);
  EXPECT_EQ(arr[3], 4);
  EXPECT_THROW(r.get_u8(), DecodeError);
}

TEST(SerdeTest, RemainingTracksPosition) {
  const Bytes buf = {1, 2, 3, 4, 5};
  ByteReader r(buf);
  EXPECT_EQ(r.remaining(), 5u);
  r.get_u8();
  EXPECT_EQ(r.remaining(), 4u);
  r.get_raw(4);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SharedBytesTest, SharesOneBufferAcrossCopiesAndSlices) {
  const std::uint64_t allocs0 = SharedBytes::allocation_count();
  SharedBytes a{Bytes{1, 2, 3, 4, 5}};
  EXPECT_EQ(SharedBytes::allocation_count(), allocs0 + 1);
  const SharedBytes b = a;                 // refcount bump, no allocation
  const SharedBytes mid = a.slice(1, 3);   // view, no allocation
  EXPECT_EQ(SharedBytes::allocation_count(), allocs0 + 1);
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_EQ(b, a);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0], 2);
  EXPECT_EQ(mid[2], 4);
  EXPECT_EQ(mid.data(), a.data() + 1);  // same buffer, shifted view
  EXPECT_EQ(mid.to_vector(), (Bytes{2, 3, 4}));
}

TEST(SharedBytesTest, ComparesByContentAndHandlesEmpty) {
  const SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_EQ(empty, SharedBytes{});
  const SharedBytes a{Bytes{9, 8}};
  const SharedBytes same = SharedBytes::copy_of(a.span());
  EXPECT_EQ(a, same);                  // equal content, distinct buffers
  EXPECT_NE(a.data(), same.data());
  const Bytes plain{9, 8};
  EXPECT_EQ(a, plain);                 // span comparison against vectors
  EXPECT_FALSE(a == SharedBytes{Bytes{9}});
}

TEST(SharedBytesTest, SliceBoundsAreChecked) {
  const SharedBytes a{Bytes{1, 2, 3}};
  EXPECT_NO_THROW(a.slice(3, 0));
  EXPECT_THROW(a.slice(2, 2), std::out_of_range);
  EXPECT_THROW(a.slice(4, 0), std::out_of_range);
}

TEST(CliArgsTest, KnownFlagsParseAndUnknownFlagThrows) {
  const char* const argv[] = {"prog", "--nodes", "9", "--seed=4", "--obs"};
  const CliArgs args(5, argv);
  EXPECT_NO_THROW(args.reject_unknown({"nodes", "seed", "obs", "out"}));
  EXPECT_EQ(args.get_u64("nodes", 0), 9U);
  EXPECT_EQ(args.get_u64("seed", 0), 4U);
  EXPECT_TRUE(args.has("obs"));
  EXPECT_EQ(args.get("out", "."), ".");

  // A misspelt flag is named in the error instead of silently ignored.
  const char* const typo[] = {"prog", "--node", "9999", "--seeds", "1"};
  const CliArgs bad(5, typo);
  try {
    bad.reject_unknown({"nodes", "seeds"});
    FAIL() << "unknown flag accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --node");
  }
}

}  // namespace
}  // namespace wakurln::util
