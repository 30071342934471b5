#include "itoyori/common/sha1.hpp"

#include <cstring>

namespace ityr::common {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

constexpr std::uint32_t ch(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return d ^ (b & (c ^ d));
}

constexpr std::uint32_t parity(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return b ^ c ^ d;
}

constexpr std::uint32_t maj(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (b & c) | (d & (b | c));
}

/// W[t] of the message schedule, kept in a 16-word ring: from round 16 on,
/// W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]) overwrites W[t-16].
template <int t>
inline std::uint32_t schedule(std::uint32_t (&w)[16]) {
  if constexpr (t >= 16) {
    w[t & 15] = rotl32(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15], 1);
  }
  return w[t & 15];
}

using round_fn = std::uint32_t (*)(std::uint32_t, std::uint32_t, std::uint32_t);

/// Rounds t..t+4. A round computes the new a into the variable holding e and
/// rotates b in place; the caller's five names then stand for (e, a, b, c, d).
/// Passing them in that rotated order to the next round replaces the
/// four-register shift of the textbook round, and after five rounds every
/// name is back in place.
template <int t, round_fn f, std::uint32_t k>
inline void rounds5(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d,
                    std::uint32_t& e, std::uint32_t (&w)[16]) {
  e += rotl32(a, 5) + f(b, c, d) + k + schedule<t>(w);
  b = rotl32(b, 30);
  d += rotl32(e, 5) + f(a, b, c) + k + schedule<t + 1>(w);
  a = rotl32(a, 30);
  c += rotl32(d, 5) + f(e, a, b) + k + schedule<t + 2>(w);
  e = rotl32(e, 30);
  b += rotl32(c, 5) + f(d, e, a) + k + schedule<t + 3>(w);
  d = rotl32(d, 30);
  a += rotl32(b, 5) + f(c, d, e) + k + schedule<t + 4>(w);
  c = rotl32(c, 30);
}

/// Rounds t..t+19, which share one round function and constant.
template <int t, round_fn f, std::uint32_t k>
inline void rounds20(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d,
                     std::uint32_t& e, std::uint32_t (&w)[16]) {
  rounds5<t, f, k>(a, b, c, d, e, w);
  rounds5<t + 5, f, k>(a, b, c, d, e, w);
  rounds5<t + 10, f, k>(a, b, c, d, e, w);
  rounds5<t + 15, f, k>(a, b, c, d, e, w);
}

}  // namespace

void sha1::reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xefcdab89u;
  h_[2] = 0x98badcfeu;
  h_[3] = 0x10325476u;
  h_[4] = 0xc3d2e1f0u;
  total_len_ = 0;
  buf_len_ = 0;
}

void sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; i++) {
    w[i] = (std::uint32_t(block[4 * i]) << 24) | (std::uint32_t(block[4 * i + 1]) << 16) |
           (std::uint32_t(block[4 * i + 2]) << 8) | std::uint32_t(block[4 * i + 3]);
  }

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];

  rounds20<0, ch, 0x5a827999u>(a, b, c, d, e, w);
  rounds20<20, parity, 0x6ed9eba1u>(a, b, c, d, e, w);
  rounds20<40, maj, 0x8f1bbcdcu>(a, b, c, d, e, w);
  rounds20<60, parity, 0xca62c1d6u>(a, b, c, d, e, w);

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void sha1::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buf_len_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buf_len_, len);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == 64) {
      process_block(buf_);
      buf_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buf_, p, len);
    buf_len_ = len;
  }
}

sha1::digest_type sha1::finish() {
  const std::uint64_t bit_len = total_len_ * 8;

  // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
  // big-endian bit length. With more than 55 bytes buffered, the 0x80 and
  // the length do not fit together and the zeros run into a second block.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    process_block(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; i++) buf_[56 + i] = std::uint8_t(bit_len >> (56 - 8 * i));
  process_block(buf_);
  buf_len_ = 0;

  digest_type d;
  for (int i = 0; i < 5; i++) {
    d[4 * i]     = std::uint8_t(h_[i] >> 24);
    d[4 * i + 1] = std::uint8_t(h_[i] >> 16);
    d[4 * i + 2] = std::uint8_t(h_[i] >> 8);
    d[4 * i + 3] = std::uint8_t(h_[i]);
  }
  return d;
}

}  // namespace ityr::common
