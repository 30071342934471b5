#pragma once

/// \file
/// Cilksort: the recursive parallel merge sort of paper Fig. 1, ported
/// verbatim in structure. The array is recursively split into four spans
/// sorted in parallel, pairs are merged into a temporary buffer, and the
/// final merge lands back in the original span. At the cutoff, spans are
/// checked out and sorted/merged serially. The parallel merge splits at a
/// binary-search point, whose probes are sparse single-element global loads
/// (the "Get" category of Fig. 9).

#include <algorithm>
#include <cstdint>
#include <utility>

#include "itoyori/core/ityr.hpp"

namespace ityr::apps {

namespace detail {

// The two leaf kernels below are still the paper's quicksort and two-way
// merge, its "Serial Quicksort" and "Serial Merge" (Fig. 9), and do all of
// cilksort's compute. Their inner loops are branch-free, because on random
// keys a loop that branches on each comparison mispredicts about every other
// key. Each step turns its comparison into a 0/1 that advances a cursor and
// selects values with conditional moves; no branch in a partition or merge
// loop depends on a key, only on the loop bounds.

/// Branch-free Lomuto pass: moves the elements of [first, last) that satisfy
/// `pred` to the front, in no particular order, and returns the end of that
/// prefix. Every step swaps unconditionally and advances the store cursor by
/// the predicate's result.
template <typename T, typename Pred>
T* partition_branchfree(T* first, T* last, Pred pred) {
  T* store = first;
  for (T* p = first; p != last; ++p) {
    T x = std::move(*p);
    const bool keep = pred(x);
    *p = std::move(*store);
    *store = std::move(x);
    store += keep;
  }
  return store;
}

/// Serial quicksort (median-of-three, insertion sort tail), as in Cilk's
/// original cilksort leaf kernel, with a branch-free partition pass.
///
/// The three keys whose median is the pivot sit at pseudo-random positions,
/// drawn from a stream seeded by n so that every sort is reproducible. A
/// Lomuto pass rotates the keys it leaves above the pivot, which turns a
/// sorted run into one with its extremes at its ends; medians of the first,
/// middle and last keys then go quadratic on sorted, reversed and organ-pipe
/// input.
///
/// A pass that splits at "below the pivot" alone makes no progress on a run
/// of equal keys: every level would peel off a single key, a quadratic sort.
/// So when few keys (under n/8) fall below the pivot, a second pass peels
/// off the keys equal to it (pdqsort's `partition_left`). Equal runs then
/// cost two linear passes, and random keys rarely pay for the second one.
template <typename T>
void quicksort_serial(T* a, std::size_t n) {
  std::uint64_t draws = n;
  while (n > 16) {
    // Median of three to pick a pivot, then move it to the front.
    T* lo = a + common::splitmix64(draws) % n;
    T* mid = a + common::splitmix64(draws) % n;
    T* hi = a + common::splitmix64(draws) % n;
    if (*mid < *lo) std::swap(mid, lo);
    if (*hi < *mid) {
      std::swap(hi, mid);
      if (*mid < *lo) std::swap(mid, lo);
    }
    std::swap(*a, *mid);
    const T pivot = *a;
    // [a, lt) < pivot, *lt is the pivot, [lt + 1, a + n) >= pivot.
    T* lt = partition_branchfree(a + 1, a + n, [&](const T& x) { return x < pivot; }) - 1;
    std::swap(*a, *lt);
    const std::size_t left_n = static_cast<std::size_t>(lt - a);
    // [lt, gt) == pivot, [gt, a + n) > pivot.
    T* gt = lt + 1;
    if (left_n < n / 8) {
      gt = partition_branchfree(gt, a + n, [&](const T& x) { return !(pivot < x); });
    }
    // Recurse on the smaller side, iterate on the larger (bounded stack).
    const std::size_t right_n = n - static_cast<std::size_t>(gt - a);
    if (left_n < right_n) {
      quicksort_serial(a, left_n);
      n = right_n;
      a = gt;
    } else {
      quicksort_serial(gt, right_n);
      n = left_n;
    }
  }
  // Insertion sort for small runs.
  for (std::size_t k = 1; k < n; k++) {
    T v = std::move(a[k]);
    std::size_t m = k;
    while (m > 0 && v < a[m - 1]) {
      a[m] = std::move(a[m - 1]);
      m--;
    }
    a[m] = std::move(v);
  }
}

/// Serial two-way merge of sorted s1 and s2 into d. Stable: of equal keys,
/// those of s1 come first, as in std::merge.
///
/// The merge runs from both ends at once. Each front step writes the smaller
/// head, each back step the larger tail, and each advances one cursor by its
/// comparison result. The two ends are independent dependency chains, so they
/// overlap. For m = min(n1, n2) steps, with 2m <= n1 + n2, the front takes
/// only the m smallest keys and the back only the m largest, so neither end
/// reads outside its runs or takes a key the other took. When one run is
/// much longer, the front finishes what is left between the two ends.
template <typename T>
void merge_serial(const T* s1, std::size_t n1, const T* s2, std::size_t n2, T* d) {
  // s1[i1, e1) and s2[i2, e2) are left, to go to [lo, hi).
  std::size_t i1 = 0, i2 = 0, e1 = n1, e2 = n2;
  T* lo = d;
  T* hi = d + n1 + n2;
  auto front_step = [&] {
    const bool take2 = s2[i2] < s1[i1];
    *lo++ = take2 ? s2[i2] : s1[i1];
    i1 += !take2;
    i2 += take2;
  };
  for (std::size_t m = std::min(n1, n2); m > 0; m--) {
    front_step();
    const bool take1 = s2[e2 - 1] < s1[e1 - 1];
    *--hi = take1 ? s1[e1 - 1] : s2[e2 - 1];
    e1 -= take1;
    e2 -= !take1;
  }
  while (i1 < e1 && i2 < e2) front_step();
  lo = std::copy(s1 + i1, s1 + e1, lo);
  std::copy(s2 + i2, s2 + e2, lo);
}

/// Index of the first element of s that is >= key (lower bound), probing
/// global memory element by element — the sparse-access pattern called out
/// in paper Section 3.3 / Fig. 9 ("Get").
template <typename T>
std::size_t binary_search_global(global_span<T> s, const T& key) {
  std::size_t lo = 0, hi = s.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ityr::get(s.ptr(mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace detail

/// Parallel merge of sorted s1 and s2 into d (paper Fig. 1 lines 25-45).
template <typename T>
void cilkmerge(global_span<T> s1, global_span<T> s2, global_span<T> d, std::size_t cutoff) {
  ITYR_CHECK(s1.size() + s2.size() == d.size());
  // Keep s1 the larger span so the split point is well defined.
  if (s1.size() < s2.size()) std::swap(s1, s2);

  if (d.size() < cutoff || s2.empty() || s1.size() <= 1) {
    with_checkout(s1.data(), s1.size(), access_mode::read, [&](const T* p1) {
      if (s2.empty()) {
        with_checkout(d.data(), d.size(), access_mode::write, [&](T* pd) {
          common::profiler::maybe_scope sc(&rt().prof(), common::prof_event::serial_b);
          std::copy(p1, p1 + s1.size(), pd);
        });
        return;
      }
      with_checkout(s2.data(), s2.size(), access_mode::read, [&](const T* p2) {
        with_checkout(d.data(), d.size(), access_mode::write, [&](T* pd) {
          common::profiler::maybe_scope sc(&rt().prof(), common::prof_event::serial_b);
          detail::merge_serial(p1, s1.size(), p2, s2.size(), pd);
        });
      });
    });
    return;
  }

  const std::size_t p1 = (s1.size() + 1) / 2;
  const T pivot = ityr::get(s1.ptr(p1 - 1));
  const std::size_t p2 = detail::binary_search_global(s2, pivot);
  auto [s11, s12] = split_at(s1, p1);
  auto [s21, s22] = split_at(s2, p2);
  auto [d1, d2] = split_at(d, p1 + p2);
  parallel_invoke([=] { cilkmerge(s11, s21, d1, cutoff); },
                  [=] { cilkmerge(s12, s22, d2, cutoff); });
}

/// Sort span a using b as a temporary buffer (paper Fig. 1 lines 1-24).
template <typename T>
void cilksort(global_span<T> a, global_span<T> b, std::size_t cutoff) {
  ITYR_CHECK(a.size() == b.size());
  if (a.size() < std::max<std::size_t>(cutoff, 4)) {
    with_checkout(a.data(), a.size(), access_mode::read_write, [&](T* p) {
      common::profiler::maybe_scope sc(&rt().prof(), common::prof_event::serial_a);
      detail::quicksort_serial(p, a.size());
    });
    return;
  }

  auto [a12, a34] = split_two(a);
  auto [a1, a2] = split_two(a12);
  auto [a3, a4] = split_two(a34);
  auto [b12, b34] = split_two(b);
  auto [b1, b2] = split_two(b12);
  auto [b3, b4] = split_two(b34);
  parallel_invoke([=] { cilksort(a1, b1, cutoff); },   // sort a1
                  [=] { cilksort(a2, b2, cutoff); },   // sort a2
                  [=] { cilksort(a3, b3, cutoff); },   // sort a3
                  [=] { cilksort(a4, b4, cutoff); });  // sort a4
  parallel_invoke([=] { cilkmerge(a1, a2, b12, cutoff); },   // merge a1,a2 -> b12
                  [=] { cilkmerge(a3, a4, b34, cutoff); });  // merge a3,a4 -> b34
  cilkmerge(b12, b34, a, cutoff);  // merge b12,b34 -> a
}

// ---------------------------------------------------------------------------
// driver helpers shared by tests / examples / benchmarks
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random value for index i (so input generation is a
/// parallel write-only sweep).
inline std::uint32_t cilksort_input(std::size_t i, std::uint64_t seed) {
  std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  return static_cast<std::uint32_t>(common::splitmix64(s));
}

/// Fill [a, a+n) with the deterministic random input.
inline void cilksort_generate(global_ptr<std::uint32_t> a, std::size_t n, std::uint64_t seed,
                              std::size_t grain) {
  parallel_for_each(a, n, grain, access_mode::write,
                    [seed](std::uint32_t& x, std::size_t i) { x = cilksort_input(i, seed); });
}

/// Serially verify sortedness plus an order-independent checksum (catches
/// lost/duplicated elements). Runs on the root thread in grain-sized chunks
/// so arrays larger than the cache can be validated.
inline bool cilksort_validate(global_ptr<std::uint32_t> a, std::size_t n, std::uint64_t seed,
                              std::size_t grain) {
  bool ok = true;
  std::uint64_t sum = 0;
  std::uint32_t prev = 0;
  for (std::size_t base = 0; base < n && ok; base += grain) {
    const std::size_t len = std::min(grain, n - base);
    with_checkout(a + static_cast<std::ptrdiff_t>(base), len, access_mode::read,
                  [&](const std::uint32_t* p) {
                    for (std::size_t i = 0; i < len; i++) {
                      if (p[i] < prev) ok = false;
                      prev = p[i];
                      sum += p[i];
                    }
                  });
  }
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < n; i++) expect += cilksort_input(i, seed);
  return ok && sum == expect;
}

}  // namespace ityr::apps
