// Unit tests for the common utility layer.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "common/bits.hpp"
#include "common/crc.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "common/xml.hpp"

namespace hermes {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status status = Status::Error(ErrorCode::kParseError, "bad token");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kParseError);
  EXPECT_EQ(status.to_string(), "parse_error: bad token");
}

TEST(Status, DeadlineExceededRenders) {
  const Status status = Status::Error(ErrorCode::kDeadlineExceeded, "stuck");
  EXPECT_EQ(status.to_string(), "deadline_exceeded: stuck");
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Error(ErrorCode::kNotFound, "missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Crc32, KnownVectors) {
  // Standard test vector: "123456789" -> 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
  // Empty input.
  EXPECT_EQ(crc32(data, 0), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  Crc32 crc;
  crc.update(text.data(), 10);
  crc.update(text.data() + 10, text.size() - 10);
  EXPECT_EQ(crc.value(), crc32(text.data(), text.size()));
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data), 0x29B1u);
}

TEST(Sha256, KnownVectors) {
  // SHA-256("") and SHA-256("abc") from FIPS 180-4.
  EXPECT_EQ(to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(to_hex(sha256(abc)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, MultiBlockMessage) {
  // 200 'a' bytes crosses multiple 64-byte blocks.
  std::vector<std::uint8_t> data(200, 'a');
  Sha256 incremental;
  incremental.update(std::span(data.data(), 77));
  incremental.update(std::span(data.data() + 77, data.size() - 77));
  EXPECT_EQ(incremental.digest(), sha256(data));
}

// The three folds of common/hash.hpp, checked at compile time. Values built
// from them through the subsystems are pinned in test_hash.cpp.
static_assert(Fnv64().bytes("").digest() == 0xcbf2'9ce4'8422'2325ULL);
static_assert(Fnv64().bytes("a").digest() == 0xaf63dc4c8601ec8cULL);
static_assert(Fnv64().bytes("foobar").digest() == 0x85944171f73967e8ULL);
constexpr std::string_view kLe64Bytes("\x00\x01\x02\x03\x04\x05\x06\x07", 8);
static_assert(Fnv64().le64(0x0706050403020100ULL).digest() ==
              Fnv64().bytes(kLe64Bytes).digest());
static_assert(Fnv64().word('f').word('o').digest() ==
              Fnv64().bytes("fo").digest());
static_assert(Fnv64(Fnv64().bytes("foo").digest()).bytes("bar").digest() ==
              Fnv64().bytes("foobar").digest());
static_assert(Fnv64().word(0x100).digest() != Fnv64().le64(0x100).digest());
static_assert(mix64(0) == 0);

TEST(Hash, ByteSpanAndCharFoldsAgree) {
  const std::vector<std::uint8_t> bytes = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(Fnv64().bytes(bytes).digest(), Fnv64().bytes("foobar").digest());
  // Bytes above 0x7F fold unsigned whatever the signedness of char.
  const std::vector<std::uint8_t> high = {0xFF, 0x80};
  EXPECT_EQ(Fnv64().bytes(high).digest(),
            Fnv64().bytes("\xFF\x80").digest());
}

TEST(Hash, Mix64IsSplitMix64) {
  // First outputs of the reference SplitMix64 generator seeded with 0:
  // mix64 of the state after each golden-gamma increment.
  EXPECT_EQ(mix64(kGoldenGamma), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(mix64(2 * kGoldenGamma), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(mix64(3 * kGoldenGamma), 0x06C45D188009454FULL);
}

TEST(Bits, MaskAndTruncate) {
  EXPECT_EQ(bit_mask(0), 0u);
  EXPECT_EQ(bit_mask(1), 1u);
  EXPECT_EQ(bit_mask(32), 0xFFFFFFFFull);
  EXPECT_EQ(bit_mask(64), ~0ULL);
  EXPECT_EQ(truncate(0x1FF, 8), 0xFFu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xFFFFFFFF, 32), -1);
  EXPECT_EQ(sign_extend(5, 32), 5);
  EXPECT_EQ(sign_extend(~0ULL, 64), -1);
}

TEST(Bits, BitWidthOf) {
  EXPECT_EQ(bit_width_of(0), 1u);
  EXPECT_EQ(bit_width_of(1), 1u);
  EXPECT_EQ(bit_width_of(2), 2u);
  EXPECT_EQ(bit_width_of(255), 8u);
  EXPECT_EQ(bit_width_of(256), 9u);
}

TEST(Bits, Parity) {
  EXPECT_FALSE(parity(0));
  EXPECT_TRUE(parity(1));
  EXPECT_TRUE(parity(0x8000000000000000ull));
  EXPECT_FALSE(parity(0x3));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next_u64() != b.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedDraws) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Strings, SplitAndTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%05u", 7u), "00007");
}

TEST(Strings, JoinAndAffixes) {
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_TRUE(starts_with("hermes", "her"));
  EXPECT_FALSE(starts_with("her", "hermes"));
  EXPECT_TRUE(ends_with("bitstream.bin", ".bin"));
}

TEST(Xml, NestedDocumentWithEscaping) {
  XmlWriter xml;
  xml.begin_element("lib");
  xml.attribute("name", "a<b&\"c\"");
  xml.begin_element("cell");
  xml.attribute("width", std::int64_t{32});
  xml.text("payload");
  xml.end_element();
  xml.end_element();
  const std::string doc = xml.str();
  EXPECT_NE(doc.find("a&lt;b&amp;&quot;c&quot;"), std::string::npos);
  EXPECT_NE(doc.find("<cell width=\"32\">"), std::string::npos);
  EXPECT_NE(doc.find("</lib>"), std::string::npos);
}

TEST(Xml, EmptyElementSelfCloses) {
  XmlWriter xml;
  xml.begin_element("root");
  xml.empty_element("leaf", {{"k", "v"}});
  xml.end_element();
  EXPECT_NE(xml.str().find("<leaf k=\"v\"/>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ThreadPool::run_queue — the compile service's drain primitive
// ---------------------------------------------------------------------------

/// Thread-safe pop-then-run counter queue: pull() claims one of `total`
/// tickets and records it, returning false once the tickets run out.
struct TicketQueue {
  explicit TicketQueue(int total) : remaining(total) {}
  bool pull() {
    std::lock_guard<std::mutex> lock(mutex);
    if (remaining == 0) return false;
    claimed.push_back(--remaining);
    return true;
  }
  std::mutex mutex;
  int remaining;
  std::vector<int> claimed;
};

TEST(ThreadPoolRunQueue, InlineWithZeroWorkersDrainsEverything) {
  ThreadPool pool(0);
  TicketQueue queue(100);
  pool.run_queue([&] { return queue.pull(); });
  EXPECT_EQ(queue.claimed.size(), 100u);
  EXPECT_EQ(queue.remaining, 0);
}

TEST(ThreadPoolRunQueue, PooledDrainsEveryTicketExactlyOnce) {
  ThreadPool pool(4);
  TicketQueue queue(1000);
  pool.run_queue([&] { return queue.pull(); });
  ASSERT_EQ(queue.claimed.size(), 1000u);
  std::vector<bool> seen(1000, false);
  for (const int ticket : queue.claimed) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(ticket)])
        << "ticket " << ticket << " claimed twice";
    seen[static_cast<std::size_t>(ticket)] = true;
  }
}

TEST(ThreadPoolRunQueue, EmptyQueueReturnsImmediately) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.run_queue([&] {
    ++calls;
    return false;
  });
  // Every participant observes the drained queue at most once.
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 3);
}

TEST(ThreadPoolRunQueue, ReusableAcrossSubmissions) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    TicketQueue queue(50);
    pool.run_queue([&] { return queue.pull(); });
    EXPECT_EQ(queue.claimed.size(), 50u) << "round " << round;
  }
}

}  // namespace
}  // namespace hermes
