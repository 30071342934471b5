/// Release-protocol ablation: blocking vs asynchronous epoch-pipelined
/// write-back (ITYR_ASYNC_RELEASE), emitted as BENCH_release.json so the
/// release-stall trajectory is tracked across PRs.
///
/// Two workloads, each run in both modes:
///  * cilksort — the paper's fork-join staple under write_back_lazy; releases
///    are rare (steal-triggered), so async mode must simply not diverge or
///    regress.
///  * writeburst — a write-heavy fork-join microkernel under the eager
///    write_back policy: every task boundary flushes its dirty slices, so the
///    blocking protocol stalls on every fence. Async mode must cut
///    release_stall_s by >= 30% and produce a bit-identical final array
///    (positional checksum).
///
/// Usage: ./build/bench/ablation_release [output.json]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/runtime.hpp"

namespace ic = ityr::common;

namespace {

struct point {
  std::string name;
  bool async = false;
  double time = 0;      ///< virtual seconds of the whole run
  double stall = 0;     ///< release-stall virtual seconds (both modes account it)
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;  ///< positional hash of the final array
  ityr::pgas::cache_system::stats cst;
};

/// Order-sensitive digest so reordered-but-same-multiset results still differ.
std::uint64_t mix_into(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Positional checksum in cache-friendly chunks (a whole-array checkout would
/// exceed the small cilksort cache configuration).
template <typename T>
std::uint64_t checksum_array(ityr::global_ptr<T> a, std::size_t n) {
  constexpr std::size_t kChunk = 4096;
  std::uint64_t h = 0;
  for (std::size_t lo = 0; lo < n; lo += kChunk) {
    const std::size_t len = std::min(kChunk, n - lo);
    ityr::with_checkout(a + static_cast<std::ptrdiff_t>(lo), len,
                        ityr::access_mode::read, [&](const T* c) {
                          for (std::size_t i = 0; i < len; i++) h = mix_into(h, c[i]);
                        });
  }
  return h;
}

// ---- workload 1: cilksort under write_back_lazy --------------------------

point run_cilksort(bool async) {
  ic::options o;
  o.n_nodes = 2;
  o.ranks_per_node = 2;
  o.deterministic = true;
  o.block_size = 4 * ic::KiB;
  o.sub_block_size = 1 * ic::KiB;
  o.cache_size = 64 * ic::KiB;
  o.coll_heap_per_rank = 1 * ic::MiB;
  o.noncoll_heap_per_rank = 256 * ic::KiB;
  o.policy = ic::cache_policy::write_back_lazy;
  o.async_release = async;

  constexpr std::size_t n = 1 << 16;
  point p;
  p.name = std::string("cilksort_") + (async ? "async" : "blocking");
  p.async = async;
  ityr::runtime rt(o);
  double elapsed = 0;
  std::uint64_t sum = 0;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] { ityr::apps::cilksort_generate(a, n, 7, 4096); });
    ityr::barrier();
    ityr::root_exec([=] {
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), 2048);
    });
    ityr::barrier();
    if (ityr::my_rank() == 0) {
      sum = checksum_array(a, n);
      elapsed = rt.eng().now();
    }
    ityr::barrier();
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  p.time = elapsed;
  p.checksum = sum;
  p.messages = rt.rma().net().total_messages();
  p.bytes = rt.rma().net().total_bytes();
  p.cst = rt.pgas().aggregate_stats();
  p.stall = p.cst.release_stall_s;
  return p;
}

// ---- workload 2: write-heavy fork-join burst under eager write_back ------

constexpr std::size_t kBurstElems = 128 * 1024;  // 1 MiB of u64
constexpr std::size_t kLeaf = 2048;              // 16 KiB written per leaf

constexpr std::uint64_t stamp(std::uint64_t i, std::uint64_t pass) {
  return i * 0x2545f4914f6cdd1dull + pass * 0x9e3779b97f4a7c15ull + 1;
}

void write_rec(ityr::global_ptr<std::uint64_t> a, std::size_t lo, std::size_t hi,
               std::uint64_t pass) {
  if (hi - lo <= kLeaf) {
    ityr::with_checkout(a + static_cast<std::ptrdiff_t>(lo), hi - lo,
                        ityr::access_mode::write, [&](std::uint64_t* p) {
                          for (std::size_t i = 0; i < hi - lo; i++) {
                            p[i] = stamp(lo + i, pass);
                          }
                        });
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  ityr::parallel_invoke([=] { write_rec(a, lo, mid, pass); },
                        [=] { write_rec(a, mid, hi, pass); });
}

point run_writeburst(bool async) {
  ic::options o;
  o.n_nodes = 2;
  o.ranks_per_node = 2;
  o.deterministic = true;
  o.coll_heap_per_rank = 4 * ic::MiB;
  o.noncoll_heap_per_rank = 1 * ic::MiB;
  o.cache_size = 2 * ic::MiB;
  // Eager write-back: every task boundary flushes, the worst case for a
  // blocking release and the best case for epoch pipelining.
  o.policy = ic::cache_policy::write_back;
  o.default_dist = ic::dist_policy::block;
  o.async_release = async;

  point p;
  p.name = std::string("writeburst_") + (async ? "async" : "blocking");
  p.async = async;
  ityr::runtime rt(o);
  double elapsed = 0;
  std::uint64_t sum = 0;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint64_t>(kBurstElems, ic::dist_policy::block);
    ityr::root_exec([=] {
      for (std::uint64_t pass = 0; pass < 3; pass++) {
        write_rec(a, 0, kBurstElems, pass);
      }
    });
    ityr::barrier();
    if (ityr::my_rank() == 0) {
      sum = checksum_array(a, kBurstElems);
      elapsed = rt.eng().now();
    }
    ityr::barrier();
    ityr::coll_delete(a, kBurstElems);
  });
  p.time = elapsed;
  p.checksum = sum;
  p.messages = rt.rma().net().total_messages();
  p.bytes = rt.rma().net().total_bytes();
  p.cst = rt.pgas().aggregate_stats();
  p.stall = p.cst.release_stall_s;
  return p;
}

void emit(std::FILE* f, const point& p, bool last) {
  std::fprintf(f,
               "    {\n"
               "      \"name\": \"%s\",\n"
               "      \"async_release\": %s,\n"
               "      \"virtual_time_s\": %.9f,\n"
               "      \"release_stall_s\": %.9f,\n"
               "      \"releases\": %llu,\n"
               "      \"releases_noop\": %llu,\n"
               "      \"async_wb_rounds\": %llu,\n"
               "      \"epochs_in_flight\": %llu,\n"
               "      \"written_back_bytes\": %llu,\n"
               "      \"messages\": %llu,\n"
               "      \"bytes\": %llu,\n"
               "      \"checksum\": %llu\n"
               "    }%s\n",
               p.name.c_str(), p.async ? "true" : "false", p.time, p.stall,
               static_cast<unsigned long long>(p.cst.releases),
               static_cast<unsigned long long>(p.cst.releases_noop),
               static_cast<unsigned long long>(p.cst.async_wb_rounds),
               static_cast<unsigned long long>(p.cst.epochs_in_flight),
               static_cast<unsigned long long>(p.cst.written_back_bytes),
               static_cast<unsigned long long>(p.messages),
               static_cast<unsigned long long>(p.bytes),
               static_cast<unsigned long long>(p.checksum), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_release.json";

  std::vector<point> points;
  points.push_back(run_cilksort(/*async=*/false));
  points.push_back(run_cilksort(/*async=*/true));
  points.push_back(run_writeburst(/*async=*/false));
  points.push_back(run_writeburst(/*async=*/true));

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"release_ablation\",\n"
               "  \"workload\": \"cilksort n=64Ki u32 (write_back_lazy) + 3-pass 1MiB "
               "write burst (write_back), 2 nodes x 2 ranks, deterministic=1\",\n"
               "  \"runs\": [\n");
  for (std::size_t i = 0; i < points.size(); i++) emit(f, points[i], i + 1 == points.size());
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  int rc = 0;
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    const point& off = points[i];
    const point& on = points[i + 1];
    const double reduction = off.stall > 0 ? 100.0 * (1.0 - on.stall / off.stall) : 0.0;
    std::printf("  %-12s stall %.6fs -> %.6fs (%+.1f%% reduction), time %.6fs -> %.6fs\n",
                off.name.substr(0, off.name.find('_')).c_str(), off.stall, on.stall, reduction,
                off.time, on.time);
    if (off.checksum != on.checksum) {
      std::fprintf(stderr, "FAIL: %s checksum diverged between modes (%llu vs %llu)\n",
                   off.name.c_str(), static_cast<unsigned long long>(off.checksum),
                   static_cast<unsigned long long>(on.checksum));
      rc = 1;
    }
    if (on.cst.async_wb_rounds == 0) {
      std::fprintf(stderr, "FAIL: %s async run never took the async path\n", on.name.c_str());
      rc = 1;
    }
    if (i == 2 && reduction < 30.0) {
      std::fprintf(stderr,
                   "FAIL: write burst needs >=30%% release-stall reduction (got %+.1f%%)\n",
                   reduction);
      rc = 1;
    }
  }
  return rc;
}
