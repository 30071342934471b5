#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "itoyori/common/histogram.hpp"
#include "itoyori/common/options.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::rma {

/// LogGP-flavoured network cost model over the simulated topology.
///
/// Each rank owns one injection channel: a message of n bytes issued at
/// virtual time t (a) costs the issuer `injection_overhead` of CPU,
/// (b) occupies the channel for n/bandwidth starting no earlier than t, and
/// (c) completes (data delivered / fetched) one `latency` after leaving the
/// channel. Nonblocking operations record their completion time; flush()
/// advances the issuer to the latest pending completion — mirroring
/// MPI_Win_flush_all over RDMA, where the target CPU is never involved.
///
/// Traffic accounting is split by distance class (class 0 = intra-node
/// shared memory; classes >= 1 refine the inter-node interconnect per the
/// ITYR_TOPOLOGY model — see common::topology). The historic intra/inter
/// split the paper's Tofu-D discussion uses is preserved as class 0 vs the
/// sum of classes >= 1, and the unsplit totals remain available as sums.
class network {
public:
  explicit network(sim::engine& eng)
      : eng_(eng), nm_(eng.opts().net), flow_sample_(eng.opts().trace_flow_sample) {
    state_.resize(static_cast<std::size_t>(eng.n_ranks()));
    const auto nc = static_cast<std::size_t>(eng.topo().n_classes());
    for (auto& s : state_) {
      s.class_messages.assign(nc, 0);
      s.class_bytes.assign(nc, 0);
    }
  }

  /// Mirror inter-rank messages as trace flow arrows from issuer to target
  /// (nullptr detaches). Only every ITYR_TRACE_FLOW_SAMPLE-th message per
  /// rank is drawn (1 = all, 0 = none): at O(1000) ranks, per-message flows
  /// dominate trace size and render as solid ink anyway.
  void set_tracer(common::tracer* t) { trace_ = t; }

  double latency_to(int target) const { return eng_.topo().latency(eng_.my_rank(), target); }
  double bandwidth_to(int target) const { return eng_.topo().bandwidth(eng_.my_rank(), target); }

  /// Charge issue-side costs of a nonblocking transfer; remembers the
  /// completion time for the next flush(). Returns the completion time.
  double issue(int target, std::size_t bytes) {
    const int me = eng_.my_rank();
    per_rank& s = state_[static_cast<std::size_t>(me)];
    eng_.charge(nm_.injection_overhead);
    const double now = eng_.now();
    const double channel_free = s.channel_busy_until > now ? s.channel_busy_until : now;
    const int cls = eng_.topo().class_of(me, target);
    const double bw = eng_.topo().bandwidth_of_class(cls);
    const double done = channel_free + static_cast<double>(bytes) / bw +
                        eng_.topo().latency_of_class(cls);
    s.channel_busy_until = channel_free + static_cast<double>(bytes) / bw;
    if (done > s.pending_until) s.pending_until = done;
    s.class_messages[static_cast<std::size_t>(cls)]++;
    s.class_bytes[static_cast<std::size_t>(cls)] += bytes;
    msg_hist_.record(static_cast<double>(bytes));
    if (trace_ != nullptr && target != me && flow_sample_ != 0 &&
        s.issued_since_flow++ % flow_sample_ == 0) {
      trace_->flow(me, now, target, done, "rma");
    }
    return done;
  }

  /// Wait (in virtual time) until `t`, a completion time previously returned
  /// by issue(). Unlike flush(), transfers completing after `t` (e.g.
  /// prefetches the caller is not consuming yet) stay pending — mirroring a
  /// per-request MPI_Wait against flush_all.
  void wait_until(double t) {
    const double now = eng_.now();
    if (t > now) eng_.advance(t - now);
  }

  /// Wait (in virtual time) for all of this rank's pending transfers.
  void flush() {
    per_rank& s = state_[static_cast<std::size_t>(eng_.my_rank())];
    const double now = eng_.now();
    if (s.pending_until > now) {
      eng_.advance(s.pending_until - now);
    }
    s.pending_until = 0.0;
  }

  /// Blocking round trip for remote atomics (network-offloaded, so the
  /// target CPU is not charged). Yields, so other ranks interleave within
  /// the round-trip window — giving realistic contention races on CAS.
  void atomic_round_trip() { eng_.advance(nm_.atomic_latency); }

  // ---- distance-class accounting ----
  int n_classes() const { return eng_.topo().n_classes(); }
  std::uint64_t class_messages_of(int rank, int cls) const {
    return state_[static_cast<std::size_t>(rank)].class_messages[static_cast<std::size_t>(cls)];
  }
  std::uint64_t class_bytes_of(int rank, int cls) const {
    return state_[static_cast<std::size_t>(rank)].class_bytes[static_cast<std::size_t>(cls)];
  }
  std::uint64_t total_class_messages(int cls) const {
    std::uint64_t n = 0;
    for (const auto& s : state_) n += s.class_messages[static_cast<std::size_t>(cls)];
    return n;
  }
  std::uint64_t total_class_bytes(int cls) const {
    std::uint64_t n = 0;
    for (const auto& s : state_) n += s.class_bytes[static_cast<std::size_t>(cls)];
    return n;
  }

  // ---- locality-split accounting (intra = class 0, inter = classes >= 1) ----
  std::uint64_t intra_messages_of(int rank) const { return class_messages_of(rank, 0); }
  std::uint64_t inter_messages_of(int rank) const {
    std::uint64_t n = 0;
    for (int c = 1; c < n_classes(); c++) n += class_messages_of(rank, c);
    return n;
  }
  std::uint64_t intra_bytes_of(int rank) const { return class_bytes_of(rank, 0); }
  std::uint64_t inter_bytes_of(int rank) const {
    std::uint64_t n = 0;
    for (int c = 1; c < n_classes(); c++) n += class_bytes_of(rank, c);
    return n;
  }
  std::uint64_t total_intra_messages() const { return total_class_messages(0); }
  std::uint64_t total_inter_messages() const {
    std::uint64_t n = 0;
    for (int c = 1; c < n_classes(); c++) n += total_class_messages(c);
    return n;
  }
  std::uint64_t total_intra_bytes() const { return total_class_bytes(0); }
  std::uint64_t total_inter_bytes() const {
    std::uint64_t n = 0;
    for (int c = 1; c < n_classes(); c++) n += total_class_bytes(c);
    return n;
  }

  // ---- locality-blind sums (legacy interface) ----
  std::uint64_t total_messages() const { return total_intra_messages() + total_inter_messages(); }
  std::uint64_t total_bytes() const { return total_intra_bytes() + total_inter_bytes(); }
  std::uint64_t messages_of(int rank) const {
    return intra_messages_of(rank) + inter_messages_of(rank);
  }
  std::uint64_t bytes_of(int rank) const { return intra_bytes_of(rank) + inter_bytes_of(rank); }

  /// RMA message-size histogram (bytes), one for all ranks.
  const common::log_histogram& msg_hist() const { return msg_hist_; }

private:
  struct per_rank {
    double channel_busy_until = 0.0;
    double pending_until = 0.0;
    std::vector<std::uint64_t> class_messages;  ///< indexed by distance class
    std::vector<std::uint64_t> class_bytes;
    std::uint64_t issued_since_flow = 0;  ///< flow-sampling counter
  };

  sim::engine& eng_;
  common::network_model nm_;
  common::tracer* trace_ = nullptr;
  std::uint64_t flow_sample_;
  std::vector<per_rank> state_;
  /// Message sizes in bytes: the floor is 1 byte (min_value 1.0), not 1 ns.
  common::log_histogram msg_hist_{common::log_histogram::kDefaultBuckets, 1.0};
};

}  // namespace ityr::rma
