/// Simulator-core scaling sweep, emitted as BENCH_simcore.json: how many DES
/// resumes per host-second the engine sustains as the simulated cluster
/// grows from 16 to 1024 ranks, plus a topology sweep that routes the same
/// message pattern over flat / fat_tree / dragonfly distance-class models.
/// Sweep points carry the config label "asm", the context switch they ran on.
///
/// The workload is engine + network only (no PGAS): each rank alternates
/// modelled compute with a few one-sided messages to a deterministic
/// neighbour set, then flushes. That keeps one simulated event cheap, so the
/// sweep measures the simulator's own overheads (pick-next structure,
/// context-switch path, per-rank footprint) rather than application work.
///
/// Usage: ./build/bench/sim_scaling [output.json]
///        ./build/bench/sim_scaling --smoke [ranks]   # CI: assert-only run
///
/// Peak RSS is getrusage's process-wide high-water mark, so within one
/// invocation it is monotone across configs; configs run smallest-first and
/// the 1024-rank point is the figure that matters (the "laptop budget"
/// acceptance bar is <= 1 GiB).

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "itoyori/common/options.hpp"
#include "itoyori/rma/window.hpp"
#include "itoyori/sim/engine.hpp"

namespace ic = ityr::common;
namespace is = ityr::sim;

namespace {

// Large enough that per-run setup (one mmap'd stack per rank inside
// engine::run) and timer noise are negligible against the resume loop.
constexpr int kItersPerRank = 2000;
constexpr int kRanksPerNode = 8;

/// assert() that survives -DNDEBUG: the smoke mode runs in Release CI.
void require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "sim_scaling: check failed: %s\n", what);
    std::exit(1);
  }
}

double peak_rss_mib() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

ic::options sweep_opts(int ranks, const std::string& topology) {
  ic::options o;
  o.ranks_per_node = kRanksPerNode;
  o.n_nodes = ranks / kRanksPerNode;
  o.deterministic = true;
  o.topology = ic::topology_spec::parse(topology);
  // 64 KiB pooled stacks: the workload below never recurses, so the lazily
  // faulted footprint per rank is a few pages.
  o.ult_stack_size = 64 * ic::KiB;
  return o;
}

struct sweep_point {
  int ranks = 0;
  std::string config;
  std::string topology;
  std::uint64_t resumes = 0;
  double virtual_s = 0;     ///< final max virtual clock
  double wall_s = 0;        ///< host seconds inside engine::run
  double resumes_per_s = 0;
  double wall_per_virtual = 0;
  double peak_rss_mib = 0;
  std::uint64_t inter_messages = 0;  ///< classes >= 1 (0 intra by design)
  double mean_inter_latency = 0;     ///< modelled per-message latency, mixed over classes
};

/// One full simulation. The rank sweep runs a pure modelled-compute loop
/// (every iteration yields), so resumes/sec measures the DES core itself —
/// pick-next structure plus context switch — rather than network
/// bookkeeping. With `with_messages`, every rank additionally talks to a
/// same-node neighbour, a near off-node rank, and a far rank (opposite end),
/// so non-flat topologies populate several distance classes.
sweep_point run_config(const ic::options& o, const std::string& config_name,
                       bool with_messages, bool check_monotone = false) {
  sweep_point pt;
  pt.ranks = o.n_ranks();
  pt.config = config_name;
  pt.topology = o.topology.str();

  is::engine eng(o);
  ityr::rma::context rma(eng);  // messages go through net().issue: cost model only

  std::vector<double> last_clock;
  if (check_monotone) {
    // Only smoke runs install the hook: a per-resume std::function call is
    // measurable overhead and would dilute the throughput measurement.
    last_clock.assign(static_cast<std::size_t>(o.n_ranks()), 0.0);
    eng.set_resume_hook([&](int r, double clk) {
      require(clk >= last_clock[static_cast<std::size_t>(r)], "virtual clock went backwards");
      last_clock[static_cast<std::size_t>(r)] = clk;
    });
  }

  const int n = o.n_ranks();
  double latency_sum = 0;
  std::uint64_t latency_msgs = 0;
  const auto w0 = std::chrono::steady_clock::now();
  eng.run([&](int r) {
    const int same = (r % kRanksPerNode == kRanksPerNode - 1) ? r - 1 : r + 1;
    const int near = (r + kRanksPerNode) % n;
    const int far = (r + n / 2) % n;
    for (int i = 0; i < kItersPerRank; i++) {
      // Deterministic per-slice cost that still de-synchronises the rank
      // clocks (so pick-next sees a mixed ordering, not pure round-robin)
      // without paying an rng draw inside the measured loop.
      eng.advance(1.0e-6 * static_cast<double>(1 + ((i + r) & 3)));
      if (with_messages && i % 4 == 0) {
        for (const int t : {same, near, far}) {
          if (t == r) continue;
          rma.net().issue(t, 256);
          if (r == 0) {
            latency_sum += eng.topo().latency(r, t);
            latency_msgs++;
          }
        }
        rma.net().flush();
      }
    }
  });
  pt.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - w0).count();

  pt.resumes = eng.total_resumes();
  pt.virtual_s = eng.max_clock();
  pt.resumes_per_s = pt.wall_s > 0 ? static_cast<double>(pt.resumes) / pt.wall_s : 0;
  pt.wall_per_virtual = pt.virtual_s > 0 ? pt.wall_s / pt.virtual_s : 0;
  pt.peak_rss_mib = peak_rss_mib();
  pt.inter_messages = rma.net().total_inter_messages();
  pt.mean_inter_latency = latency_msgs > 0 ? latency_sum / static_cast<double>(latency_msgs) : 0;

  if (check_monotone) {
    require(eng.total_resumes() > 0, "smoke run made no progress");
    require(pt.virtual_s > 0, "virtual time did not advance");
  }
  return pt;
}

/// Best-of-N: resume counts, clocks, and message totals are deterministic
/// (identical across repeats); only wall time varies with machine noise, so
/// the fastest repeat is the measurement.
void fold_best(sweep_point& best, sweep_point p) {
  if (best.resumes == 0) {
    best = std::move(p);
    return;
  }
  require(p.resumes == best.resumes, "repeat changed deterministic resume count");
  if (p.resumes_per_s > best.resumes_per_s) best = std::move(p);
}

void print_point(const sweep_point& p) {
  std::printf("%-18s %-14s %6d ranks: %8llu resumes, %8.0f resumes/s, "
              "wall %6.3fs, rss %6.1f MiB\n",
              p.config.c_str(), p.topology.c_str(), p.ranks,
              static_cast<unsigned long long>(p.resumes), p.resumes_per_s, p.wall_s,
              p.peak_rss_mib);
}

void emit_json(const char* path, const std::vector<sweep_point>& points) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n\"schema\": \"itoyori.bench.simcore.v1\",\n");
  std::fprintf(f, "\"iters_per_rank\": %d,\n", kItersPerRank);
  std::fprintf(f, "\"points\": [\n");
  for (std::size_t i = 0; i < points.size(); i++) {
    const sweep_point& p = points[i];
    std::fprintf(f,
                 "  {\"config\": \"%s\", \"topology\": \"%s\", \"ranks\": %d, "
                 "\"resumes\": %llu, \"resumes_per_s\": %.1f, \"wall_s\": %.6f, "
                 "\"virtual_s\": %.9f, \"wall_per_virtual\": %.3f, "
                 "\"peak_rss_mib\": %.1f, \"inter_messages\": %llu, "
                 "\"mean_inter_latency_s\": %.9e}%s\n",
                 p.config.c_str(), p.topology.c_str(), p.ranks,
                 static_cast<unsigned long long>(p.resumes), p.resumes_per_s, p.wall_s,
                 p.virtual_s, p.wall_per_virtual, p.peak_rss_mib,
                 static_cast<unsigned long long>(p.inter_messages), p.mean_inter_latency,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    // CI smoke: one deterministic run at the requested size with the default
    // (fastest) configuration; asserts completion and monotone clocks.
    const int ranks = argc > 2 ? std::atoi(argv[2]) : 256;
    const auto pt = run_config(sweep_opts(ranks, "flat"), "smoke",
                               /*with_messages=*/true, /*check_monotone=*/true);
    print_point(pt);
    const std::uint64_t min_resumes = static_cast<std::uint64_t>(ranks) * kItersPerRank;
    if (pt.resumes < min_resumes) {
      std::fprintf(stderr, "smoke: expected >= %llu resumes, got %llu\n",
                   static_cast<unsigned long long>(min_resumes),
                   static_cast<unsigned long long>(pt.resumes));
      return 1;
    }
    std::printf("smoke ok: %d ranks, %llu resumes, monotone clocks\n", ranks,
                static_cast<unsigned long long>(pt.resumes));
    return 0;
  }

  const char* out_path = argc > 1 ? argv[1] : "BENCH_simcore.json";
  const char* config = "asm";
  std::vector<sweep_point> points;

  // Rank sweep, smallest first (peak RSS is a process-wide high-water mark).
  for (const int ranks : {16, 64, 256, 1024}) {
    sweep_point best{};
    for (int rep = 0; rep < 5; rep++) {
      fold_best(best, run_config(sweep_opts(ranks, "flat"), config,
                                 /*with_messages=*/false));
    }
    print_point(best);
    points.push_back(std::move(best));
  }

  // Topology sweep at a fixed size: same message pattern, different distance
  // classes — mean modelled inter-node latency must differ across models.
  for (const char* topo : {"flat", "fat_tree:4,3", "dragonfly:4"}) {
    auto pt = run_config(sweep_opts(256, topo), config, /*with_messages=*/true);
    print_point(pt);
    points.push_back(std::move(pt));
  }

  emit_json(out_path, points);
  std::printf("wrote %s\n", out_path);
  return 0;
}
