#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ityr::common {

/// Minimal SHA-1 implementation (FIPS 180-1).
///
/// The UTS benchmark (Olivier et al., LCPC '06) derives the shape of its
/// unbalanced tree from SHA-1 of (parent digest, child index); reproducing
/// UTS-Mem therefore needs a bit-exact SHA-1. This is a from-scratch,
/// dependency-free implementation; correctness is pinned by the FIPS test
/// vectors and padding-boundary digests in tests/common/sha1_test.cpp.
///
/// It is also UTS's per-node kernel: every node expansion (`apps::uts_child`)
/// is one 24-byte message, i.e. one block. So the block function is unrolled
/// into four straight-line 20-round groups over a 16-word rolling schedule,
/// with no per-round branch, and `finish()` pads in place. This stays the one
/// portable implementation: no intrinsics and no CPU dispatch, so every
/// platform hashes, and is timed, through the same code.
class sha1 {
public:
  static constexpr std::size_t digest_size = 20;
  using digest_type = std::array<std::uint8_t, digest_size>;

  sha1() { reset(); }

  void reset();
  void update(const void* data, std::size_t len);
  digest_type finish();

  /// One-shot convenience.
  static digest_type hash(const void* data, std::size_t len) {
    sha1 h;
    h.update(data, len);
    return h.finish();
  }

private:
  void process_block(const std::uint8_t* block);

  std::uint32_t h_[5]{};
  std::uint64_t total_len_ = 0;
  std::uint8_t buf_[64]{};
  std::size_t buf_len_ = 0;
};

}  // namespace ityr::common
