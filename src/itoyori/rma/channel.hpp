#pragma once

#include <cstddef>
#include <cstdint>

namespace ityr::rma {

struct window;
struct io_segment;

/// Abstract one-sided communication surface used by the cache engines
/// (fetch_engine, writeback_engine): the subset of rma::context they are
/// allowed to touch. Engines hold a channel& so unit tests can substitute a
/// mock with scripted completion times and message accounting, without
/// booting the full network model.
///
/// Semantics match rma::context: the *_nb operations move data immediately
/// (an admissible RMA completion order) and return the modelled completion
/// time; the issuer's virtual clock only reflects completion after flush()
/// or a targeted wait_until() on a returned completion time.
class channel {
public:
  virtual ~channel() = default;

  virtual double get_nb(window& w, int target, std::uint64_t off, void* dst,
                        std::size_t len) = 0;
  virtual double put_nb(window& w, int target, std::uint64_t off, const void* src,
                        std::size_t len) = 0;
  virtual double get_nb_multi(window& w, int target, const io_segment* segs,
                              std::size_t n) = 0;
  virtual double put_nb_multi(window& w, int target, const io_segment* segs,
                              std::size_t n) = 0;

  /// Complete all outstanding one-sided operations of the calling rank.
  virtual void flush() = 0;
  /// Wait (in virtual time) until `t`, a completion time previously returned
  /// by a *_nb call; later completions stay pending (per-request MPI_Wait).
  virtual void wait_until(double t) = 0;

  /// Blocking 8-byte read (epoch polls of the lazy-release protocol).
  virtual std::uint64_t get_value(window& w, int target, std::uint64_t off) = 0;
  /// Remote atomic max (request-epoch bump, Fig. 6).
  virtual void atomic_max(window& w, int target, std::uint64_t off, std::uint64_t value) = 0;
};

}  // namespace ityr::rma
