/// UTS-Mem demo (paper Section 6.3): build an unbalanced tree in global
/// memory with work-stolen noncollective allocations, then traverse it by
/// chasing global pointers — the cache-sensitive phase the paper measures.
///
///   $ ./uts_mem_demo [b0] [gen_mx] [seed]

#include <cstdio>
#include <cstdlib>

#include "itoyori/apps/uts.hpp"

int main(int argc, char** argv) {
  ityr::apps::uts_params p;
  p.b0 = argc > 1 ? std::strtod(argv[1], nullptr) : 4.0;
  p.gen_mx = argc > 2 ? std::atoi(argv[2]) : 11;
  p.root_seed = argc > 3 ? std::atoi(argv[3]) : 19;

  const std::uint64_t expect = ityr::apps::uts_count_serial(p);
  std::printf("UTS geometric tree: b0=%.1f gen_mx=%d seed=%d -> %llu nodes\n", p.b0, p.gen_mx,
              p.root_seed, static_cast<unsigned long long>(expect));

  bool all_ok = true;
  for (bool cached : {false, true}) {
    ityr::options opt = ityr::options::from_env();
    opt.policy = cached ? ityr::cache_policy::write_back_lazy : ityr::cache_policy::none;
    opt.noncoll_heap_per_rank = std::max<std::size_t>(
        opt.noncoll_heap_per_rank,
        expect * 96 / static_cast<std::size_t>(opt.n_ranks()) + ityr::common::MiB);
    ityr::runtime rt(opt);

    double build_time = 0, traverse_time = 0;
    std::uint64_t built = 0, traversed = 0;
    rt.spmd([&] {
      const double t0 = ityr::rt().eng().now();
      auto tree = ityr::root_exec([p] { return ityr::apps::uts_mem_build(p); });
      ityr::barrier();
      const double t1 = ityr::rt().eng().now();
      auto count = ityr::root_exec([tree] { return ityr::apps::uts_mem_traverse(tree.root); });
      ityr::barrier();
      const double t2 = ityr::rt().eng().now();
      if (ityr::my_rank() == 0) {
        build_time = t1 - t0;
        traverse_time = t2 - t1;
        built = tree.n_nodes;
        traversed = count;
      }
    });

    const bool ok = built == expect && traversed == expect;
    std::printf("%-10s build %8.4f s   traverse %8.4f s   throughput %10.0f nodes/s   %s\n",
                cached ? "cache" : "no-cache", build_time, traverse_time,
                static_cast<double>(traversed) / traverse_time, ok ? "ok" : "COUNT MISMATCH");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}
