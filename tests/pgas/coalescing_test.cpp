/// Cross-block RMA coalescing: a multi-block checkout whose home blocks are
/// pool-contiguous on one rank must ride fewer messages with
/// options::coalesce_rma on, with byte-identical results. Also covers the
/// writeback side (dirty runs batched at a release fence).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/pgas/cache_system.hpp"
#include "itoyori/rma/window.hpp"
#include "itoyori/sim/engine.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

namespace {

struct run_result {
  std::vector<std::uint32_t> data;
  std::uint64_t messages = 0;
  std::uint64_t coalesced = 0;
};

/// Like test::run_pgas, but keeps the RMA context visible so the network
/// message counter can be read back.
run_result run_span_workload(bool coalesce) {
  auto o = it::tiny_opts(2, 1);
  o.coalesce_rma = coalesce;
  ityr::sim::engine eng(o);
  ityr::rma::context rma(eng);
  ip::pgas_space space(eng, rma);

  run_result res;
  const std::size_t bs = 4 * ic::KiB;
  const std::size_t n_blocks = 8;  // dist_policy::block: 4 contiguous per rank
  eng.run([&](int r) {
    auto& s = space;
    auto g = s.heap().coll_alloc(n_blocks * bs, ic::dist_policy::block);
    if (r == 1) {
      // Initialize the remote half (blocks 4..7, pool-contiguous on rank 1).
      auto* p = static_cast<std::uint32_t*>(
          s.checkout(g + 4 * bs, 4 * bs, access_mode::write));
      for (std::size_t i = 0; i < 4 * bs / 4; i++) p[i] = static_cast<std::uint32_t>(i ^ 0x5a);
      s.checkin(g + 4 * bs, 4 * bs, access_mode::write);
    }
    s.barrier();
    if (r == 0) {
      // One cold 4-block checkout: with coalescing this is a single get
      // spanning all four blocks; without, at least one get per block.
      auto* p = static_cast<const std::uint32_t*>(
          s.checkout(g + 4 * bs, 4 * bs, access_mode::read));
      res.data.assign(p, p + 4 * bs / 4);
      s.checkin(g + 4 * bs, 4 * bs, access_mode::read);

      // Dirty the same remote span, then release: the writeback runs must
      // batch the same way.
      auto* w = static_cast<std::uint32_t*>(
          s.checkout(g + 4 * bs, 4 * bs, access_mode::read_write));
      for (std::size_t i = 0; i < 4 * bs / 4; i++) w[i] += 1;
      s.checkin(g + 4 * bs, 4 * bs, access_mode::read_write);
      s.release();
    }
    s.barrier();
  });
  res.messages = rma.net().total_messages();
  res.coalesced = space.aggregate_stats().coalesced_messages;
  return res;
}

}  // namespace

TEST(Coalescing, MultiBlockSpanFewerMessagesSameData) {
  const auto on = run_span_workload(true);
  const auto off = run_span_workload(false);

  // Same bytes observed either way.
  ASSERT_EQ(on.data.size(), off.data.size());
  EXPECT_EQ(on.data, off.data);
  EXPECT_EQ(on.data[3], 3u ^ 0x5au);

  // Coalescing must actually save messages, and account for the savings.
  EXPECT_LT(on.messages, off.messages);
  EXPECT_GT(on.coalesced, 0u);
  EXPECT_EQ(off.coalesced, 0u);
  // The fetch of 4 contiguous blocks plus the writeback of 4 dirty runs save
  // at least 3 messages each.
  EXPECT_GE(off.messages - on.messages, 6u);
}
