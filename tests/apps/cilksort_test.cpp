#include "itoyori/apps/cilksort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "../support/fixture.hpp"

namespace ia = ityr::apps;

namespace {

ityr::options app_opts(int nodes = 2, int rpn = 2) {
  auto o = ityr::test::tiny_opts(nodes, rpn);
  o.coll_heap_per_rank = 4 * ityr::common::MiB;
  o.cache_size = 128 * ityr::common::KiB;
  return o;
}

enum class pattern { random, sorted, reversed, organ_pipe, few_distinct };

std::vector<std::uint32_t> make_keys(std::size_t n, pattern p, std::mt19937_64& gen) {
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; i++) {
    switch (p) {
      case pattern::random: v[i] = static_cast<std::uint32_t>(gen()); break;
      case pattern::sorted: v[i] = static_cast<std::uint32_t>(i); break;
      case pattern::reversed: v[i] = static_cast<std::uint32_t>(n - i); break;
      case pattern::organ_pipe: v[i] = static_cast<std::uint32_t>(std::min(i, n - 1 - i)); break;
      case pattern::few_distinct: v[i] = static_cast<std::uint32_t>(gen() % 3); break;
    }
  }
  return v;
}

/// Sizes 0-40 straddle the insertion-sort tail; the larger ones partition.
void expect_quicksort_matches_std_sort(pattern p) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 40; n++) sizes.push_back(n);
  for (std::size_t n : {2047, 2048, 4097}) sizes.push_back(n);
  std::mt19937_64 gen(1);
  for (std::size_t n : sizes) {
    auto v = make_keys(n, p, gen);
    auto ref = v;
    ia::detail::quicksort_serial(v.data(), v.size());
    std::sort(ref.begin(), ref.end());
    EXPECT_EQ(v, ref) << "n=" << n << " pattern=" << static_cast<int>(p);
  }
}

/// A key whose operator< counts its calls.
struct counted_key {
  std::uint32_t v;
  static inline std::uint64_t compares = 0;
  friend bool operator<(const counted_key& a, const counted_key& b) {
    compares++;
    return a.v < b.v;
  }
};

/// A key with a tag that operator< ignores, to observe the order of ties.
struct tagged_key {
  std::uint32_t key;
  std::uint32_t tag;
  friend bool operator<(const tagged_key& a, const tagged_key& b) { return a.key < b.key; }
  friend bool operator==(const tagged_key&, const tagged_key&) = default;
};

}  // namespace

TEST(CilksortSerial, QuicksortSortsRandom) { expect_quicksort_matches_std_sort(pattern::random); }

TEST(CilksortSerial, QuicksortEdgeCases) {
  for (pattern p : {pattern::sorted, pattern::reversed, pattern::organ_pipe, pattern::few_distinct}) {
    expect_quicksort_matches_std_sort(p);
  }
}

TEST(CilksortSerial, QuicksortComparisonsStayNLogN) {
  // A partition that only splits at "below the pivot" peels one key per
  // level off a run of equal keys: without the equal-run pass, 2048 equal
  // keys take ~93 n ceil(log2 n) compares. With medians of the first, middle
  // and last keys, sorted input takes ~16 and organ-pipe input ~47.
  std::mt19937_64 gen(3);
  for (std::size_t n : {2047, 2048}) {
    const std::size_t log2n = std::bit_width(n - 1);  // ceil(log2 n)
    std::vector<std::uint32_t> distinct(n);
    std::iota(distinct.begin(), distinct.end(), 0u);
    std::shuffle(distinct.begin(), distinct.end(), gen);
    std::vector<std::pair<std::string, std::vector<std::uint32_t>>> inputs = {
        {"distinct", distinct}};
    for (std::uint32_t values : {1u, 2u, 4u}) {
      auto keys = distinct;
      for (auto& k : keys) k %= values;
      inputs.emplace_back(std::to_string(values) + " values", keys);
    }
    for (pattern p : {pattern::sorted, pattern::reversed, pattern::organ_pipe}) {
      inputs.emplace_back("pattern " + std::to_string(static_cast<int>(p)), make_keys(n, p, gen));
    }
    for (auto& [what, keys] : inputs) {
      std::vector<counted_key> v(n);
      for (std::size_t i = 0; i < n; i++) v[i].v = keys[i];
      counted_key::compares = 0;
      ia::detail::quicksort_serial(v.data(), v.size());
      std::sort(keys.begin(), keys.end());
      for (std::size_t i = 0; i < n; i++) ASSERT_EQ(v[i].v, keys[i]) << what << " n=" << n;
      EXPECT_LE(counted_key::compares, 2 * n * log2n) << what << " n=" << n;
    }
  }
}

TEST(CilksortSerial, MergeInterleaves) {
  std::vector<int> a{1, 3, 5, 7}, b{2, 4, 6, 8, 10}, d(9);
  ia::detail::merge_serial(a.data(), a.size(), b.data(), b.size(), d.data());
  EXPECT_EQ(d, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 10}));
}

TEST(CilksortSerial, MergeEmptySides) {
  std::vector<int> a{1, 2}, d(2);
  ia::detail::merge_serial<int>(a.data(), a.size(), nullptr, 0, d.data());
  EXPECT_EQ(d, a);
  ia::detail::merge_serial<int>(nullptr, 0, a.data(), a.size(), d.data());
  EXPECT_EQ(d, a);
}

TEST(CilksortSerial, MergeMatchesStdMergeAndKeepsTieOrder) {
  // Tags record which run a key came from: std::merge is stable, so equal
  // (key, tag) sequences mean ties took s1 first.
  std::mt19937_64 gen(5);
  std::vector<std::pair<std::size_t, std::size_t>> lengths = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}, {0, 700}, {1, 700},
      {700, 1}, {3, 1000}, {1000, 3}, {1024, 1024}, {1023, 1025}};
  for (int k = 0; k < 40; k++) lengths.emplace_back(gen() % 300, gen() % 300);
  for (std::uint32_t key_range : {4u, 1u << 30}) {
    for (auto [n1, n2] : lengths) {
      std::vector<tagged_key> s1(n1), s2(n2), d(n1 + n2), ref(n1 + n2);
      for (std::size_t i = 0; i < n1; i++) s1[i] = {static_cast<std::uint32_t>(gen() % key_range), 1};
      for (std::size_t i = 0; i < n2; i++) s2[i] = {static_cast<std::uint32_t>(gen() % key_range), 2};
      std::sort(s1.begin(), s1.end());
      std::sort(s2.begin(), s2.end());
      ia::detail::merge_serial(s1.data(), n1, s2.data(), n2, d.data());
      std::merge(s1.begin(), s1.end(), s2.begin(), s2.end(), ref.begin());
      EXPECT_EQ(d, ref) << "n1=" << n1 << " n2=" << n2 << " key_range=" << key_range;
    }
  }
}

class CilksortParam : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CilksortParam, SortsCorrectly) {
  const auto [n, cutoff] = GetParam();
  ityr::runtime rt(app_opts());
  rt.spmd([&, n = n, cutoff = cutoff] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool ok = ityr::root_exec([=] {
      ia::cilksort_generate(a, n, 42, 1024);
      ia::cilksort(ityr::global_span<std::uint32_t>(a, n),
                   ityr::global_span<std::uint32_t>(b, n), cutoff);
      return ia::cilksort_validate(a, n, 42, 1024);
    });
    EXPECT_TRUE(ok) << "n=" << n << " cutoff=" << cutoff;
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCutoffs, CilksortParam,
    ::testing::Values(std::make_tuple(std::size_t{1000}, std::size_t{64}),
                      std::make_tuple(std::size_t{4096}, std::size_t{64}),
                      std::make_tuple(std::size_t{10000}, std::size_t{256}),
                      std::make_tuple(std::size_t{65536}, std::size_t{1024}),
                      std::make_tuple(std::size_t{100000}, std::size_t{4096}),
                      std::make_tuple(std::size_t{12345}, std::size_t{128})));

TEST(Cilksort, WorksUnderEveryCachePolicy) {
  for (auto policy : {ityr::cache_policy::none, ityr::cache_policy::write_through,
                      ityr::cache_policy::write_back, ityr::cache_policy::write_back_lazy}) {
    auto o = app_opts();
    o.policy = policy;
    ityr::runtime rt(o);
    rt.spmd([&] {
      const std::size_t n = 20000;
      auto a = ityr::coll_new<std::uint32_t>(n);
      auto b = ityr::coll_new<std::uint32_t>(n);
      bool ok = ityr::root_exec([=] {
        ia::cilksort_generate(a, n, 7, 512);
        ia::cilksort(ityr::global_span<std::uint32_t>(a, n),
                     ityr::global_span<std::uint32_t>(b, n), 512);
        return ia::cilksort_validate(a, n, 7, 512);
      });
      EXPECT_TRUE(ok) << "policy=" << ityr::common::to_string(policy);
      ityr::coll_delete(a, n);
      ityr::coll_delete(b, n);
    });
  }
}

TEST(Cilksort, LargerThanCacheWorkingSet) {
  // 1M uint32 = 4 MB per buffer; cache is 128 KiB per rank: heavy eviction.
  auto o = app_opts(2, 2);
  o.coll_heap_per_rank = 8 * ityr::common::MiB;
  ityr::runtime rt(o);
  rt.spmd([&] {
    const std::size_t n = 1 << 20;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool ok = ityr::root_exec([=] {
      ia::cilksort_generate(a, n, 3, 8192);
      ia::cilksort(ityr::global_span<std::uint32_t>(a, n), ityr::global_span<std::uint32_t>(b, n),
                   16384);
      return ia::cilksort_validate(a, n, 3, 8192);
    });
    EXPECT_TRUE(ok);
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  EXPECT_GT(rt.pgas().aggregate_stats().cache_evictions, 0u);
}
