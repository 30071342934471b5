#pragma once

#include <functional>

#include "itoyori/common/options.hpp"
#include "itoyori/pgas/pgas_space.hpp"
#include "itoyori/rma/window.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::test {

/// Small, fast, deterministic cluster configuration for unit tests:
/// 4 KiB blocks, 1 KiB sub-blocks, a 16-block cache.
inline common::options tiny_opts(int nodes = 2, int rpn = 2) {
  common::options o;
  o.n_nodes = nodes;
  o.ranks_per_node = rpn;
  o.deterministic = true;
  o.block_size = 4 * common::KiB;
  o.sub_block_size = 1 * common::KiB;
  o.cache_size = 64 * common::KiB;
  o.coll_heap_per_rank = 256 * common::KiB;
  o.noncoll_heap_per_rank = 128 * common::KiB;
  // Tests build their options directly; take ITYR_ASYNC_RELEASE from
  // from_env() so the whole suite can be re-run with the asynchronous
  // release protocol (the itoyori_tests_async_release ctest) without editing
  // every test, and so a malformed value throws.
  o.async_release = common::options::from_env().async_release;
  return o;
}

/// Builds engine + RMA + PGAS and runs `body(rank, space)` on every rank.
inline void run_pgas(const common::options& o,
                     const std::function<void(int, pgas::pgas_space&)>& body) {
  sim::engine eng(o);
  rma::context rma(eng);
  pgas::pgas_space space(eng, rma);
  eng.run([&](int r) { body(r, space); });
}

}  // namespace ityr::test
