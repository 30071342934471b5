#include "itoyori/common/sha1.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace {

std::string hex(const ityr::common::sha1::digest_type& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  for (auto b : d) {
    s += k[b >> 4];
    s += k[b & 0xf];
  }
  return s;
}

std::string sha1_hex(const std::string& msg) {
  return hex(ityr::common::sha1::hash(msg.data(), msg.size()));
}

}  // namespace

// FIPS 180-1 / well-known test vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  ityr::common::sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

// Incremental updates with odd split points must agree with one-shot.
TEST(Sha1, IncrementalSplitsAgree) {
  const std::string msg =
      "Itoyori is the Japanese name of the fish threadfin breams. "
      "0123456789 0123456789 0123456789 0123456789 0123456789";
  const auto ref = sha1_hex(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    ityr::common::sha1 h;
    h.update(msg.data(), split);
    h.update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(hex(h.finish()), ref) << "split=" << split;
  }
}

// Boundary lengths around the 64-byte block / 56-byte padding threshold.
// Digests of `len` bytes of 'x', from Python's hashlib.sha1.
TEST(Sha1, PaddingBoundaries) {
  const struct {
    std::size_t len;
    const char* digest;
  } cases[] = {
      {54, "31045e7bb077ff8d188a776b196b980388735dbb"},
      {55, "cef734ba81a024479e09eb5a75b6ddae62e6abf1"},
      {56, "901305367c259952f4e7af8323f480d59f81335b"},
      {57, "025ecbd5d70f8fb3c5457cd96bab13fda305dc59"},
      {63, "0ddc4e0cccd9a12850deb5abb0853a4425559fec"},
      {64, "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163"},
      {65, "78c741ddc482e4cdf8c474a0876347a0905b6233"},
      {119, "4300320394f7ee239bcdce7d3b8bcee173a0cd5c"},
      {120, "ceb2821639c4b6dcb10bce0e522ca2e608ce056d"},
      {128, "150fa3fbdc899bd0b8f95a9fb6027f564d953762"},
  };
  for (const auto& c : cases) {
    std::string m(c.len, 'x');
    ityr::common::sha1 a;
    a.update(m.data(), m.size());
    auto one = hex(a.finish());
    EXPECT_EQ(one, c.digest) << "len=" << c.len;

    ityr::common::sha1 b;
    for (char ch : m) b.update(&ch, 1);
    auto bytewise = hex(b.finish());
    EXPECT_EQ(one, bytewise) << "len=" << c.len;
  }
}

TEST(Sha1, ResetReusesObject) {
  ityr::common::sha1 h;
  h.update("garbage", 7);
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(hex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}
