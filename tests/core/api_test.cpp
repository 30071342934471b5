#include "itoyori/core/ityr.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "../support/fixture.hpp"

namespace {

ityr::options api_opts(int nodes = 2, int rpn = 2) {
  auto o = ityr::test::tiny_opts(nodes, rpn);
  o.coll_heap_per_rank = 1 * ityr::common::MiB;
  return o;
}

/// A uint64_t count whose byte size wraps to 8 when multiplied out.
constexpr std::size_t kWrappingCount = std::numeric_limits<std::size_t>::max() / 8 + 2;

/// `f` must throw api_error with `call` in its message.
template <typename F>
void expect_api_error_naming(const std::string& call, F&& f) {
  try {
    f();
    ADD_FAILURE() << call << " did not throw";
  } catch (const ityr::common::api_error& e) {
    EXPECT_NE(std::string(e.what()).find(call), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(CoreApi, GlobalPtrArithmetic) {
  ityr::global_ptr<int> p(0x10000);
  EXPECT_EQ((p + 4).raw(), 0x10000u + 16);
  EXPECT_EQ((p + 4) - p, 4);
  EXPECT_TRUE(p < p + 1);
  EXPECT_FALSE(ityr::global_ptr<int>{});
  auto q = p.cast<char>();
  EXPECT_EQ(q.raw(), p.raw());
}

TEST(CoreApi, GlobalSpanSplit) {
  ityr::global_span<int> s(ityr::global_ptr<int>(0x10000), 10);
  auto [a, b] = ityr::split_two(s);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.data() - a.data(), 5);
  auto [c, d] = ityr::split_at(s, 3);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(d.size(), 7u);
}

TEST(CoreApi, PutGetRoundTrip) {
  ityr::runtime rt(api_opts());
  rt.spmd([&] {
    auto a = ityr::coll_new<long>(1024);
    if (ityr::my_rank() == 0) {
      for (int i = 0; i < 1024; i += 64) ityr::put(a + i, long{i} * 3);
      ityr::rt().pgas().release();
    }
    ityr::barrier();
    if (ityr::my_rank() == 3) {
      for (int i = 0; i < 1024; i += 64) EXPECT_EQ(ityr::get(a + i), long{i} * 3);
    }
    ityr::barrier();
    ityr::coll_delete(a, 1024);
  });
}

TEST(CoreApi, ParallelFillAndReduce) {
  ityr::runtime rt(api_opts());
  rt.spmd([&] {
    auto a = ityr::coll_new<int>(10000);
    long sum = ityr::root_exec([=] {
      ityr::parallel_fill(a, 10000, 256, 7);
      return ityr::parallel_reduce(
          a, 10000, 256, 0L, [](int x) { return static_cast<long>(x); },
          [](long x, long y) { return x + y; });
    });
    EXPECT_EQ(sum, 70000);
    ityr::coll_delete(a, 10000);
  });
}

TEST(CoreApi, ParallelForEachWithIndex) {
  ityr::runtime rt(api_opts());
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint64_t>(4096);
    ityr::root_exec([=] {
      ityr::parallel_for_each(a, 4096, 128, ityr::access_mode::write,
                              [](std::uint64_t& x, std::size_t i) { x = i * i; });
      // Verify with a reduction over (value - i*i).
      std::uint64_t bad = ityr::parallel_reduce(
          a, 4096, 128, std::uint64_t{0},
          [](std::uint64_t v) { return v; },
          [](std::uint64_t x, std::uint64_t y) { return x + y; });
      std::uint64_t expect = 0;
      for (std::uint64_t i = 0; i < 4096; i++) expect += i * i;
      EXPECT_EQ(bad, expect);
    });
    ityr::coll_delete(a, 4096);
  });
}

TEST(CoreApi, ParallelTransform) {
  ityr::runtime rt(api_opts());
  rt.spmd([&] {
    auto in = ityr::coll_new<int>(2048);
    auto out = ityr::coll_new<long>(2048);
    ityr::root_exec([=] {
      ityr::parallel_for_each(in, 2048, 128, ityr::access_mode::write,
                              [](int& x, std::size_t i) { x = static_cast<int>(i); });
      ityr::parallel_transform(in, out, 2048, 128, [](int x) { return long{x} * 2 + 1; });
      long sum = ityr::parallel_reduce(
          out, 2048, 128, 0L, [](long v) { return v; }, [](long a, long b) { return a + b; });
      EXPECT_EQ(sum, 2048L * 2047 + 2048);  // sum(2i+1) = 2*sum(i) + n
    });
    ityr::coll_delete(in, 2048);
    ityr::coll_delete(out, 2048);
  });
}

TEST(CoreApi, RepeatedMutationRoundsUnderStealing) {
  // DRF increments across rounds: every round is separated by fork-join
  // synchronization, so all caches must observe the previous round.
  ityr::runtime rt(api_opts(2, 2));
  rt.spmd([&] {
    const std::size_t n = 2048;
    auto a = ityr::coll_new<int>(n);
    ityr::root_exec([=] {
      ityr::parallel_fill(a, n, 64, 0);
      for (int round = 0; round < 5; round++) {
        ityr::parallel_for_each(a, n, 64, ityr::access_mode::read_write,
                                [](int& x, std::size_t) { x++; });
      }
      long sum = ityr::parallel_reduce(
          a, n, 64, 0L, [](int v) { return static_cast<long>(v); },
          [](long x, long y) { return x + y; });
      EXPECT_EQ(sum, static_cast<long>(n) * 5);
    });
    ityr::coll_delete(a, n);
  });
  EXPECT_GT(rt.sched().get_stats().steals, 0u);
}

namespace {
struct nontrivial {
  std::string name;
  std::vector<int> values;
  nontrivial(std::string n, std::vector<int> v) : name(std::move(n)), values(std::move(v)) {}
};
}  // namespace

TEST(CoreApi, NontriviallyCopyableGlobalObjects) {
  // Checkout/checkin never changes an object's virtual address, so types
  // with internal invariants can live in global memory (paper Section 3.2).
  // NOTE: containers holding *local heap* pointers (like std::vector) are
  // only safe under the simulator's shared-memory substitution; this test
  // documents the paper's API property with a self-contained type instead.
  ityr::runtime rt(api_opts(1, 1));
  rt.spmd([&] {
    struct fixed_obj {
      int header;
      std::array<double, 4> payload;
      fixed_obj(int h, double base) : header(h), payload{base, base + 1, base + 2, base + 3} {}
      ~fixed_obj() { header = -1; }
    };
    auto p = ityr::make_global<fixed_obj>(7, 1.5);
    ityr::with_checkout(p, 1, ityr::access_mode::read, [](const fixed_obj* o) {
      EXPECT_EQ(o->header, 7);
      EXPECT_DOUBLE_EQ(o->payload[3], 4.5);
    });
    ityr::destroy_global(p);
  });
}

TEST(CoreApi, NoCachePolicyUsesGetPut) {
  auto o = api_opts(2, 1);
  o.policy = ityr::cache_policy::none;
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto a = ityr::coll_new<int>(4096);
    ityr::root_exec([=] {
      ityr::parallel_fill(a, 4096, 256, 5);
      long sum = ityr::parallel_reduce(
          a, 4096, 256, 0L, [](int v) { return static_cast<long>(v); },
          [](long x, long y) { return x + y; });
      EXPECT_EQ(sum, 4096L * 5);
    });
    // checkout() proper must reject policy none.
    EXPECT_THROW(ityr::checkout(a, 1, ityr::access_mode::read), ityr::common::api_error);
    ityr::coll_delete(a, 4096);
  });
  // The cache must have stayed cold.
  EXPECT_EQ(rt.pgas().aggregate_stats().checkouts, 0u);
}

TEST(CoreApi, CheckoutSpanRaii) {
  ityr::runtime rt(api_opts(1, 1));
  rt.spmd([&] {
    auto a = ityr::coll_new<int>(64);
    {
      ityr::checkout_span<int> cs(a, 64, ityr::access_mode::write);
      for (std::size_t i = 0; i < cs.size(); i++) cs[i] = static_cast<int>(i);
    }
    {
      ityr::checkout_span<int> cs(a, 64, ityr::access_mode::read);
      EXPECT_EQ(cs[63], 63);
    }
    EXPECT_EQ(rt.pgas().cache_of(0).checked_out_bytes(), 0u);
    ityr::coll_delete(a, 64);
  });
}

TEST(CoreApi, WithCheckoutChecksInWhenTheBodyThrows) {
  // 16 cache blocks of 4 KiB per rank; block-cyclic over two single-rank
  // nodes makes every other block remote. Each half of the array pins 12
  // remote blocks, so the outer checkout fits and the nested one cannot.
  ityr::runtime rt(api_opts(2, 1));
  rt.spmd([&] {
    constexpr std::size_t half = 24 * 4 * ityr::common::KiB / sizeof(int);
    auto a = ityr::coll_new<int>(2 * half);
    auto nested = [=] {
      ityr::root_exec([=] {
        ityr::with_checkout(a, half, ityr::access_mode::read, [=](const int*) {
          ityr::with_checkout(a + half, half, ityr::access_mode::read, [](const int*) {});
        });
      });
    };
    // root_exec rethrows the root task's error on rank 0 only.
    if (ityr::my_rank() == 0) {
      EXPECT_THROW(nested(), ityr::common::too_much_checkout_error);
    } else {
      nested();
    }
    EXPECT_EQ(rt.pgas().cache_of(ityr::my_rank()).checked_out_bytes(), 0u);
    // The outer region was checked in, so the rank forks and checks out again.
    long sum = ityr::root_exec([=] {
      ityr::parallel_fill(a, 2 * half, 1024, 1);
      return ityr::parallel_reduce(
          a, 2 * half, 1024, 0L, [](int v) { return static_cast<long>(v); },
          [](long x, long y) { return x + y; });
    });
    EXPECT_EQ(sum, static_cast<long>(2 * half));
    ityr::coll_delete(a, 2 * half);
  });
}

TEST(CoreApi, NoncollectiveNewDelete) {
  ityr::runtime rt(api_opts(1, 2));
  rt.spmd([&] {
    auto p = ityr::noncoll_new<double>(16);
    ityr::with_checkout(p, 16, ityr::access_mode::write, [](double* d) {
      for (int i = 0; i < 16; i++) d[i] = i * 0.5;
    });
    ityr::with_checkout(p, 16, ityr::access_mode::read,
                        [](const double* d) { EXPECT_DOUBLE_EQ(d[15], 7.5); });
    ityr::noncoll_delete(p, 16);
  });
}

TEST(CoreApi, NoncollectiveNewRejectsZeroCount) {
  ityr::runtime rt(api_opts(1, 2));
  rt.spmd([&] {
    expect_api_error_naming("noncoll_new", [] { ityr::noncoll_new<int>(0); });
    const auto p = ityr::noncoll_new<int>(4);
    expect_api_error_naming("noncoll_delete", [p] { ityr::noncoll_delete(p, 0); });
    ityr::noncoll_delete(p, 4);
    EXPECT_EQ(ityr::rt().pgas().heap().nc_bytes_in_use(ityr::my_rank()), 0u);
  });
}

TEST(CoreApi, NoncollectiveNewRejectsOverflowingCount) {
  ityr::runtime rt(api_opts(1, 2));
  rt.spmd([&] {
    expect_api_error_naming("noncoll_new",
                            [] { ityr::noncoll_new<std::uint64_t>(kWrappingCount); });
    EXPECT_EQ(ityr::rt().pgas().heap().nc_bytes_in_use(ityr::my_rank()), 0u);
  });
}

TEST(CoreApi, CollectiveNewRejectsZeroCountOnEveryRank) {
  std::vector<ityr::global_ptr<int>> after(4);
  ityr::runtime rt(api_opts());
  rt.spmd([&] {
    // Thrown before the barrier, so the ranks stay in step for the next call.
    expect_api_error_naming("coll_new", [] { ityr::coll_new<int>(0); });
    after[static_cast<std::size_t>(ityr::my_rank())] = ityr::coll_new<int>(16);
    ityr::coll_delete(after[static_cast<std::size_t>(ityr::my_rank())], 16);
  });
  for (const auto& p : after) EXPECT_EQ(p, after[0]);
  EXPECT_EQ(rt.pgas().heap().live_coll_allocs(), 0u);
}

TEST(CoreApi, CollectiveNewRejectsOverflowingCountOnEveryRank) {
  std::vector<ityr::global_ptr<std::uint64_t>> after(4);
  ityr::runtime rt(api_opts());
  rt.spmd([&] {
    expect_api_error_naming("coll_new",
                            [] { ityr::coll_new<std::uint64_t>(kWrappingCount); });
    after[static_cast<std::size_t>(ityr::my_rank())] = ityr::coll_new<std::uint64_t>(16);
    ityr::coll_delete(after[static_cast<std::size_t>(ityr::my_rank())], 16);
  });
  for (const auto& p : after) EXPECT_EQ(p, after[0]);
  EXPECT_EQ(rt.pgas().heap().live_coll_allocs(), 0u);
}

TEST(CoreApi, ProfilerAttributesEvents) {
  auto o = api_opts(2, 1);
  o.deterministic = false;  // measured time: cheap ops get real nonzero cost
  ityr::runtime rt(o);
  rt.prof().set_enabled(true);
  rt.spmd([&] {
    auto a = ityr::coll_new<int>(8192);
    ityr::root_exec([=] {
      ityr::parallel_fill(a, 8192, 512, 3);
      (void)ityr::parallel_reduce(
          a, 8192, 512, 0L, [](int v) { return static_cast<long>(v); },
          [](long x, long y) { return x + y; });
    });
    ityr::coll_delete(a, 8192);
  });
  using ityr::common::prof_event;
  EXPECT_GT(rt.prof().total(prof_event::checkout), 0.0);
  EXPECT_GT(rt.prof().total(prof_event::checkin), 0.0);
  EXPECT_GT(rt.prof().total(prof_event::spmd), 0.0);
}
