/// Blocked matrix multiply over global memory: C = A * B with a recursive
/// 2x2 decomposition down to cache-friendly tiles, each tile product
/// executed under checkout/checkin. Demonstrates task-parallel dense
/// compute with working sets far larger than the per-rank cache.
///
///   $ ./matmul [n]        (n x n doubles; default 512)

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "itoyori/itoyori.hpp"

namespace {

constexpr std::size_t kTile = 64;

struct gmat {
  ityr::global_ptr<double> data;
  std::size_t ld = 0;  // leading dimension (row stride)

  ityr::global_ptr<double> row(std::size_t i) const {
    return data + static_cast<std::ptrdiff_t>(i * ld);
  }
  gmat sub(std::size_t i, std::size_t j) const {  // quadrant offset
    return {data + static_cast<std::ptrdiff_t>(i * ld + j), ld};
  }
};

/// C[0..n)x[0..n) += A * B, tiles running as leaf tasks. Writers own
/// disjoint C quadrants in the two parallel phases, so the computation is
/// data-race-free.
void matmul_rec(gmat a, gmat b, gmat c, std::size_t n) {
  if (n <= kTile) {
    // One tile: checkout row blocks (rows are contiguous; a tile is ld-strided,
    // so check out row by row of the tile through a whole-rows window).
    for (std::size_t i = 0; i < n; i++) {
      ityr::with_checkout(a.row(i), n, ityr::access_mode::read, [&](const double* ai) {
        ityr::with_checkout(c.row(i), n, ityr::access_mode::read_write, [&](double* ci) {
          for (std::size_t k = 0; k < n; k++) {
            ityr::with_checkout(b.row(k), n, ityr::access_mode::read, [&](const double* bk) {
              const double aik = ai[k];
              for (std::size_t j = 0; j < n; j++) ci[j] += aik * bk[j];
            });
          }
        });
      });
    }
    return;
  }
  const std::size_t h = n / 2;
  // C11 += A11*B11 ; C12 += A11*B12 ; C21 += A21*B11 ; C22 += A21*B12
  ityr::parallel_invoke([=] { matmul_rec(a.sub(0, 0), b.sub(0, 0), c.sub(0, 0), h); },
                        [=] { matmul_rec(a.sub(0, 0), b.sub(0, h), c.sub(0, h), h); },
                        [=] { matmul_rec(a.sub(h, 0), b.sub(0, 0), c.sub(h, 0), h); },
                        [=] { matmul_rec(a.sub(h, 0), b.sub(0, h), c.sub(h, h), h); });
  // Second half of the k-dimension (same C quadrants, sequential phase).
  ityr::parallel_invoke([=] { matmul_rec(a.sub(0, h), b.sub(h, 0), c.sub(0, 0), h); },
                        [=] { matmul_rec(a.sub(0, h), b.sub(h, h), c.sub(0, h), h); },
                        [=] { matmul_rec(a.sub(h, h), b.sub(h, 0), c.sub(h, 0), h); },
                        [=] { matmul_rec(a.sub(h, h), b.sub(h, h), c.sub(h, h), h); });
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 512;

  ityr::options opt = ityr::options::from_env();
  opt.coll_heap_per_rank = std::max<std::size_t>(
      opt.coll_heap_per_rank,
      4 * n * n * sizeof(double) / static_cast<std::size_t>(opt.n_ranks()) + 8 * ityr::common::MiB);
  ityr::runtime rt(opt);

  bool ok = false;
  rt.spmd([n, &ok] {
    auto A = ityr::coll_new<double>(n * n);
    auto B = ityr::coll_new<double>(n * n);
    auto C = ityr::coll_new<double>(n * n);

    const double t0 = ityr::rt().eng().now();
    double max_err = ityr::root_exec([=] {
      // A[i][k] = f(i,k), B chosen so that C has a closed form:
      // B = identity => C == A. Keeps verification exact and O(n^2).
      ityr::parallel_for_each(A, n * n, 8192, ityr::access_mode::write,
                              [n](double& x, std::size_t idx) {
                                x = std::sin(static_cast<double>(idx % (n + 7))) + 2.0;
                              });
      ityr::parallel_for_each(B, n * n, 8192, ityr::access_mode::write,
                              [n](double& x, std::size_t idx) {
                                x = (idx / n == idx % n) ? 1.0 : 0.0;
                              });
      ityr::parallel_fill(C, n * n, 8192, 0.0);

      matmul_rec({A, n}, {B, n}, {C, n}, n);

      // C must equal A exactly (B = I).
      struct err_acc {
        double max_abs = 0;
      };
      double worst = 0;
      for (std::size_t base = 0; base < n * n; base += 8192) {
        const std::size_t len = std::min<std::size_t>(8192, n * n - base);
        ityr::with_checkout(A + static_cast<std::ptrdiff_t>(base), len,
                            ityr::access_mode::read, [&](const double* pa) {
                              ityr::with_checkout(C + static_cast<std::ptrdiff_t>(base), len,
                                                  ityr::access_mode::read,
                                                  [&](const double* pc) {
                                                    for (std::size_t i = 0; i < len; i++) {
                                                      worst = std::max(
                                                          worst, std::fabs(pa[i] - pc[i]));
                                                    }
                                                  });
                            });
      }
      return worst;
    });
    ityr::barrier();
    const double t1 = ityr::rt().eng().now();

    if (ityr::my_rank() == 0) {
      ok = max_err < 1e-12;
      std::printf("matmul %zux%zu: %.4f virtual s, %.2f GFLOP, max |C-A| = %.2e %s\n", n, n,
                  t1 - t0, 2.0 * static_cast<double>(n) * n * n / 1e9, max_err,
                  ok ? "(ok)" : "(WRONG)");
    }
    ityr::barrier();
    ityr::coll_delete(A, n * n);
    ityr::coll_delete(B, n * n);
    ityr::coll_delete(C, n * n);
  });
  return ok ? 0 : 1;
}
