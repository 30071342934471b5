/// Cilksort demo (paper Fig. 1 / Section 6.2): sort a global array with the
/// recursive parallel merge sort, comparing cache policies on the simulated
/// cluster.
///
///   $ ./sort_demo [n_elements] [cutoff]

#include <cstdio>
#include <cstdlib>

#include "itoyori/apps/cilksort.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : (std::size_t{1} << 20);
  const std::size_t cutoff = argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 16384;

  std::printf("cilksort: %zu elements, cutoff %zu\n", n, cutoff);
  std::printf("%-18s %12s %10s %10s %10s\n", "policy", "time[s]", "steals", "fetchMB", "wbMB");

  bool all_ok = true;
  for (auto policy : {ityr::cache_policy::none, ityr::cache_policy::write_through,
                      ityr::cache_policy::write_back, ityr::cache_policy::write_back_lazy}) {
    ityr::options opt = ityr::options::from_env();
    opt.policy = policy;
    opt.coll_heap_per_rank =
        std::max<std::size_t>(opt.coll_heap_per_rank,
                              4 * n * sizeof(std::uint32_t) / static_cast<std::size_t>(opt.n_ranks()));
    ityr::runtime rt(opt);

    double elapsed = 0;
    bool ok = false;
    rt.spmd([&] {
      auto a = ityr::coll_new<std::uint32_t>(n);
      auto b = ityr::coll_new<std::uint32_t>(n);
      const double t0 = ityr::rt().eng().now();
      bool sorted = ityr::root_exec([=] {
        ityr::apps::cilksort_generate(a, n, 42, 8192);
        ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                             ityr::global_span<std::uint32_t>(b, n), cutoff);
        return ityr::apps::cilksort_validate(a, n, 42, 8192);
      });
      ityr::barrier();
      if (ityr::my_rank() == 0) {
        elapsed = ityr::rt().eng().now() - t0;
        ok = sorted;
      }
      ityr::coll_delete(a, n);
      ityr::coll_delete(b, n);
    });

    const auto cst = rt.pgas().aggregate_stats();
    const auto sst = rt.sched().get_stats();
    std::printf("%-18s %12.4f %10llu %10.1f %10.1f  %s\n", ityr::common::to_string(policy),
                elapsed, static_cast<unsigned long long>(sst.steals),
                static_cast<double>(cst.fetched_bytes) / 1e6,
                static_cast<double>(cst.written_back_bytes + cst.write_through_bytes) / 1e6,
                ok ? "ok" : "SORT FAILED");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}
