/// Microbenchmarks of the runtime's host-side primitives, measured in real
/// time with google-benchmark's standard loop (these are data-structure
/// costs on the critical path of checkout/checkin, not simulated ones).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/common/interval_set.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/common/sha1.hpp"
#include "itoyori/apps/fmm/kernels.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/pgas/free_list.hpp"
#include "itoyori/vm/physical_pool.hpp"

namespace ic = ityr::common;

namespace {

void BM_IntervalSetAddCoalesced(benchmark::State& state) {
  for (auto _ : state) {
    ic::interval_set s;
    for (std::uint64_t i = 0; i < 64; i++) s.add({i * 64, i * 64 + 64});
    benchmark::DoNotOptimize(s.count());
  }
}
BENCHMARK(BM_IntervalSetAddCoalesced);

void BM_IntervalSetAddFragmented(benchmark::State& state) {
  for (auto _ : state) {
    ic::interval_set s;
    for (std::uint64_t i = 0; i < 64; i++) s.add({i * 128, i * 128 + 64});
    benchmark::DoNotOptimize(s.count());
  }
}
BENCHMARK(BM_IntervalSetAddFragmented);

void BM_IntervalSetMissingQuery(benchmark::State& state) {
  ic::interval_set s;
  for (std::uint64_t i = 0; i < 64; i++) s.add({i * 128, i * 128 + 64});
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.missing({0, 8192}));
  }
}
BENCHMARK(BM_IntervalSetMissingQuery);

void BM_IntervalSetContainsHit(benchmark::State& state) {
  ic::interval_set s;
  s.add({0, 65536});
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.contains({1024, 2048}));
  }
}
BENCHMARK(BM_IntervalSetContainsHit);

void BM_FreeListAllocFree(benchmark::State& state) {
  ityr::pgas::free_list fl(1 << 24);
  for (auto _ : state) {
    auto a = fl.alloc(256, 64);
    auto b = fl.alloc(1024, 64);
    fl.dealloc(*a, 256);
    fl.dealloc(*b, 1024);
  }
}
BENCHMARK(BM_FreeListAllocFree);

void BM_Sha1Block(benchmark::State& state) {
  std::uint8_t data[24] = {1, 2, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ic::sha1::hash(data, sizeof(data)));
  }
}
BENCHMARK(BM_Sha1Block);

void BM_XoshiroBelow(benchmark::State& state) {
  ic::xoshiro256ss g(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.below(48));
  }
}
BENCHMARK(BM_XoshiroBelow);

void BM_FmmP2P(benchmark::State& state) {
  namespace f = ityr::apps::fmm;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<f::body> b(n);
  std::vector<f::body_acc> acc(n);
  ic::xoshiro256ss g(2);
  for (auto& x : b) x = {{g.uniform(), g.uniform(), g.uniform()}, 1.0};
  for (auto _ : state) {
    f::p2p(b.data(), n, acc.data(), b.data(), n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_FmmP2P)->Arg(32)->Arg(128);

void BM_FmmM2L(benchmark::State& state) {
  namespace f = ityr::apps::fmm;
  f::complex_t M[f::kNTerm] = {}, L[f::kNTerm] = {};
  M[0] = 1.0;
  for (auto _ : state) {
    f::m2l(M, {0, 0, 0}, {4, 3, 2}, L);
    benchmark::DoNotOptimize(L[0]);
  }
}
BENCHMARK(BM_FmmM2L);

void BM_FmmP2M(benchmark::State& state) {
  namespace f = ityr::apps::fmm;
  std::vector<f::body> b(32);
  ic::xoshiro256ss g(3);
  for (auto& x : b) x = {{g.uniform() - 0.5, g.uniform() - 0.5, g.uniform() - 0.5}, 1.0};
  f::complex_t M[f::kNTerm] = {};
  for (auto _ : state) {
    f::p2m(b.data(), b.size(), {0, 0, 0}, M);
    benchmark::DoNotOptimize(M[0]);
  }
}
BENCHMARK(BM_FmmP2M);

// ---------------------------------------------------------------------------
// cilksort leaf kernels (paper Fig. 9 "Serial Quicksort" and "Serial Merge")
// ---------------------------------------------------------------------------

// Iterations rotate through 16 distinct 2048-key leaves. A branch predictor
// learns the outcomes of one 2048-key input repeated back to back, which
// flatters a compare-and-branch kernel (~4x on the merge); no run repeats a
// leaf.
constexpr std::size_t kLeafN = 2048, kLeaves = 16;

std::vector<std::uint32_t> cilksort_leaves() {
  std::vector<std::uint32_t> v(kLeafN * kLeaves);
  for (std::size_t i = 0; i < v.size(); i++) v[i] = ityr::apps::cilksort_input(i, 1);
  return v;
}

void BM_CilksortLeafSort(benchmark::State& state) {
  // Each iteration restores a leaf of cilksort_input values, then sorts it.
  // The restore (an 8 KiB copy, under 1% of the sort) is timed.
  const std::vector<std::uint32_t> src = cilksort_leaves();
  std::vector<std::uint32_t> a(kLeafN);
  std::size_t leaf = 0;
  for (auto _ : state) {
    const std::uint32_t* s = src.data() + leaf * kLeafN;
    std::copy(s, s + kLeafN, a.begin());
    ityr::apps::detail::quicksort_serial(a.data(), kLeafN);
    benchmark::ClobberMemory();
    leaf = (leaf + 1) % kLeaves;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kLeafN));
}
BENCHMARK(BM_CilksortLeafSort);

void BM_CilksortLeafMerge(benchmark::State& state) {
  // Two sorted 1024-key runs (the halves of a leaf) into 2048 keys.
  std::vector<std::uint32_t> src = cilksort_leaves();
  for (std::size_t k = 0; k < 2 * kLeaves; k++) {
    std::sort(src.begin() + k * kLeafN / 2, src.begin() + (k + 1) * kLeafN / 2);
  }
  std::vector<std::uint32_t> d(kLeafN);
  std::size_t leaf = 0;
  for (auto _ : state) {
    const std::uint32_t* s = src.data() + leaf * kLeafN;
    ityr::apps::detail::merge_serial(s, kLeafN / 2, s + kLeafN / 2, kLeafN / 2, d.data());
    benchmark::ClobberMemory();
    leaf = (leaf + 1) % kLeaves;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kLeafN));
}
BENCHMARK(BM_CilksortLeafMerge);

// ---------------------------------------------------------------------------
// checkout hot path (small simulations, measured in host time)
// ---------------------------------------------------------------------------

ic::options checkout_bench_opts() {
  ic::options o;
  o.n_nodes = 2;
  o.ranks_per_node = 1;
  o.coll_heap_per_rank = 8 * ic::MiB;
  o.noncoll_heap_per_rank = 8 * ic::MiB;
  o.cache_size = 4 * ic::MiB;
  o.policy = ic::cache_policy::write_back_lazy;
  o.default_dist = ic::dist_policy::block;
  o.deterministic = true;  // skip host clock reads inside the sim
  return o;
}

/// Repeated single-element loads from one remote, fully-valid block: with a
/// front table these are served by the fast path (one table probe + memcpy);
/// with front_table_size = 0 every load walks the generic checkout/checkin
/// machinery. Arg = front table entries.
void BM_CheckoutSingleBlockHit(benchmark::State& state) {
  auto o = checkout_bench_opts();
  o.front_table_size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kOps = 8192;
  constexpr std::size_t kBlockElems = (64 * ic::KiB) / sizeof(std::uint64_t);
  for (auto _ : state) {
    ityr::runtime rt(o);
    rt.spmd([&] {
      // 8 blocks, block-distributed over 2 ranks: the upper half is homed on
      // rank 1, so rank 0 reaches it through its software cache.
      auto a = ityr::coll_new<std::uint64_t>(8 * kBlockElems, ic::dist_policy::block);
      if (ityr::my_rank() == 0) {
        auto p = a + static_cast<std::ptrdiff_t>(4 * kBlockElems);
        // Warm once: the full-block read makes the block fully valid and
        // memoizes it.
        ityr::with_checkout(p, kBlockElems, ityr::access_mode::read,
                            [](const std::uint64_t*) {});
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < kOps; i++) {
          sink ^= ityr::get(p + static_cast<std::ptrdiff_t>((i * 97) % kBlockElems));
        }
        benchmark::DoNotOptimize(sink);
      }
      ityr::barrier();
      ityr::coll_delete(a, 8 * kBlockElems);
    });
    if (o.front_table_size > 0) {
      // The warm-up checkout plus every single-element load must hit.
      const auto cst = rt.pgas().aggregate_stats();
      ITYR_CHECK(cst.fast_path_hits >= kOps);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kOps));
}
BENCHMARK(BM_CheckoutSingleBlockHit)->Arg(64)->Arg(0);

/// Repeated small read checkouts inside the one fetched sub-block of a
/// remote block that is not fully valid: the common hit of sub-block
/// fetching (UTS's pointer chase, paper Fig. 10). The front table serves
/// them once the block is memoized, with one interval query on top of the
/// fully-valid case. Arg = front table entries (0 = generic path).
void BM_CheckoutPartialBlockHit(benchmark::State& state) {
  auto o = checkout_bench_opts();
  o.front_table_size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kOps = 8192;
  constexpr std::size_t kBlockElems = (64 * ic::KiB) / sizeof(std::uint64_t);
  constexpr std::size_t kSubElems = (4 * ic::KiB) / sizeof(std::uint64_t);
  for (auto _ : state) {
    ityr::runtime rt(o);
    rt.spmd([&] {
      auto a = ityr::coll_new<std::uint64_t>(8 * kBlockElems, ic::dist_policy::block);
      if (ityr::my_rank() == 0) {
        auto p = a + static_cast<std::ptrdiff_t>(4 * kBlockElems);
        // Warm once: fetches only the first sub-block of the remote block.
        ityr::with_checkout(p, kSubElems, ityr::access_mode::read, [](const std::uint64_t*) {});
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < kOps; i++) {
          const auto q = p + static_cast<std::ptrdiff_t>((i * 97) % (kSubElems - 1));
          sink ^= ityr::with_checkout(q, 2, ityr::access_mode::read,
                                      [](const std::uint64_t* v) { return v[0] ^ v[1]; });
        }
        benchmark::DoNotOptimize(sink);
      }
      ityr::barrier();
      ityr::coll_delete(a, 8 * kBlockElems);
    });
    if (o.front_table_size > 0) {
      const auto cst = rt.pgas().aggregate_stats();
      ITYR_CHECK(cst.fast_path_hits >= kOps);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kOps));
}
BENCHMARK(BM_CheckoutPartialBlockHit)->Arg(64)->Arg(0);

/// Cold multi-block checkouts of a remote span whose home blocks sit
/// back-to-back in one rank's pool: with coalescing the whole span rides one
/// RMA message per round; without it every sub-block gap is its own message.
/// Arg = coalesce_rma. The "messages" counter reports RMA messages per round.
void BM_CheckoutMultiBlockCold(benchmark::State& state) {
  auto o = checkout_bench_opts();
  o.coalesce_rma = state.range(0) != 0;
  constexpr std::size_t kRounds = 16;
  constexpr std::size_t kBlockElems = (64 * ic::KiB) / sizeof(std::uint64_t);
  constexpr std::size_t kSpanElems = 4 * kBlockElems;  // 4 blocks = 256 KiB
  std::uint64_t messages = 0;
  for (auto _ : state) {
    ityr::runtime rt(o);
    rt.spmd([&] {
      auto a = ityr::coll_new<std::uint64_t>(8 * kBlockElems, ic::dist_policy::block);
      for (std::size_t r = 0; r < kRounds; r++) {
        if (ityr::my_rank() == 0) {
          auto p = a + static_cast<std::ptrdiff_t>(4 * kBlockElems);
          ityr::with_checkout(p, kSpanElems, ityr::access_mode::read,
                              [](const std::uint64_t*) {});
        }
        // The barrier's acquire invalidates the cache, so every round
        // re-fetches the whole span.
        ityr::barrier();
      }
      ityr::coll_delete(a, 8 * kBlockElems);
    });
    messages = rt.rma().net().total_messages();
  }
  state.counters["messages"] = static_cast<double>(messages);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRounds * kSpanElems * sizeof(std::uint64_t)));
}
BENCHMARK(BM_CheckoutMultiBlockCold)->Arg(1)->Arg(0);

// ---------------------------------------------------------------------------
// host VM calls
// ---------------------------------------------------------------------------

/// One punch (physical_pool::drop_pages) of a pool the size of perfbench's
/// caches, 64 blocks of 64 KiB, holding Arg resident pages spread over it:
/// what an acquire pays to give a rank's stale cache pages back to the
/// kernel, which is why it waits for a block's worth of fetches. Only the
/// punch is timed; the writes that make the pages resident again are not.
void BM_PoolDropPages(benchmark::State& state) {
  ityr::vm::physical_pool pool(64 * ic::KiB, 64, "ityr-bench-pool");
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const auto pages = static_cast<std::size_t>(state.range(0));
  const std::size_t stride = pool.bytes() / page / pages * page;
  for (auto _ : state) {
    for (std::size_t i = 0; i < pages; i++) pool.base()[i * stride] = std::byte{1};
    benchmark::ClobberMemory();
    const auto t0 = std::chrono::steady_clock::now();
    pool.drop_pages();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
}
BENCHMARK(BM_PoolDropPages)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->UseManualTime();

// ---------------------------------------------------------------------------
// fork-join hot path
// ---------------------------------------------------------------------------

void spawn_tree(int depth) {
  if (depth == 0) return;
  ityr::parallel_invoke([=] { spawn_tree(depth - 1); }, [=] { spawn_tree(depth - 1); });
}

/// A binary spawn tree on one rank: every fork returns on the serialized
/// fast path, so this is the runtime's own cost per fork and join (spawning
/// the child fiber, the continuation deque, the join state), with the
/// deque depth swinging through every level. The per_fork counter is the
/// wall time of one fork and its join.
void BM_ForkJoin(benchmark::State& state) {
  ic::options o;
  o.n_nodes = 1;
  o.ranks_per_node = 1;
  o.coll_heap_per_rank = 1 * ic::MiB;
  o.noncoll_heap_per_rank = 1 * ic::MiB;
  o.cache_size = 1 * ic::MiB;
  o.deterministic = true;
  constexpr int kDepth = 12;
  constexpr double kForks = (1 << kDepth) - 1;
  ityr::runtime rt(o);
  rt.spmd([&] {
    for (auto _ : state) ityr::root_exec([] { spawn_tree(kDepth); });
  });
  state.counters["per_fork"] = benchmark::Counter(
      kForks, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ForkJoin);

}  // namespace

BENCHMARK_MAIN();
