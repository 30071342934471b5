#pragma once

#include <cstdint>

namespace ityr::pgas {

/// Counters of one rank's software cache. Owned by the cache_system facade
/// and shared (by reference) with every layer of the coherence stack, so the
/// aggregate view stays a single flat struct for metrics/bench consumers.
struct cache_stats {
  std::uint64_t checkouts = 0;
  std::uint64_t checkins = 0;
  std::uint64_t block_visits = 0;      ///< (checkout, block) pairs processed
  std::uint64_t block_hits = 0;        ///< visits needing no fetch (incl. home)
  std::uint64_t block_misses = 0;      ///< visits that fetched remote data
  std::uint64_t write_skips = 0;       ///< write-mode visits (fetch elided)
  std::uint64_t fast_path_hits = 0;    ///< checkouts served by the front table
  std::uint64_t front_table_conflicts = 0;  ///< probes losing to a different block's memo
  std::uint64_t coalesced_messages = 0;  ///< RMA messages saved by coalescing
  std::uint64_t fetched_bytes = 0;
  std::uint64_t written_back_bytes = 0;
  std::uint64_t write_through_bytes = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t home_evictions = 0;
  std::uint64_t releases = 0;          ///< write-back-all rounds
  std::uint64_t acquires = 0;          ///< invalidate-all rounds
  std::uint64_t lazy_release_waits = 0;  ///< acquires that had to wait
  // prefetcher (all zero unless ITYR_PREFETCH is on)
  std::uint64_t prefetch_issued = 0;        ///< prefetch get segments issued
  std::uint64_t prefetch_issued_bytes = 0;  ///< bytes those segments carried
  std::uint64_t prefetch_useful_bytes = 0;  ///< prefetched bytes later read
  std::uint64_t prefetch_wasted_bytes = 0;  ///< evicted/overwritten unread
  std::uint64_t prefetch_late = 0;     ///< consumes that waited on in-flight data
  /// Virtual time checkout spent stalled on fetch completion (the flush /
  /// targeted wait at the end of the block walk). Accounted identically
  /// with prefetching off, so on/off stall times are directly comparable.
  double fetch_stall_s = 0;
  /// The same stall time split by topology distance class (class 0 =
  /// intra-node; see common::topology). A round touching several homes is
  /// attributed to its *max* class — the farthest home bounds the wait.
  /// Deeper topologies than this are clamped into the last slot. Invariant:
  /// the per-class entries sum to fetch_stall_s (resp. release_stall_s).
  static constexpr int max_stall_classes = 8;
  double fetch_stall_class_s[max_stall_classes] = {};
  // release pipeline (counted in both modes unless noted)
  std::uint64_t releases_noop = 0;   ///< release fences with nothing dirty
  std::uint64_t async_wb_rounds = 0; ///< nonblocking write-back rounds (async only)
  std::uint64_t epochs_in_flight = 0;  ///< peak write-back rounds pending at once
  /// Virtual time release fences spent blocked: the flush in synchronous
  /// mode, the over-budget stall in async mode. Accounted identically in
  /// both modes, so blocking/async stall times are directly comparable.
  double release_stall_s = 0;
  /// release_stall_s split by distance class (same convention as
  /// fetch_stall_class_s; over-budget async stalls are attributed to the
  /// class of the most recently collected round).
  double release_stall_class_s[max_stall_classes] = {};
};

}  // namespace ityr::pgas
