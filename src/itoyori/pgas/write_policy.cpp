#include "itoyori/pgas/write_policy.hpp"

#include "itoyori/pgas/placement.hpp"

namespace ityr::pgas {

bool write_through_policy::on_dirty(mem_block& mb, common::interval iv) {
  // The put lands on mb.home directly: safe under migration because a pinned
  // block's home never moves and the write-through happens under the same
  // checkout that pinned it. Replicas of the block are stale the moment the
  // put is issued.
  if (pl_ != nullptr) pl_->note_writeback(mb.mb_id, rank_, iv.size());
  ch_.put_nb(*mb.home.win, mb.home.rank, mb.home.pool_off + iv.begin,
             dir_.view_ptr(mb) + iv.begin, iv.size());
  st_.write_through_bytes += iv.size();
  return true;
}

std::unique_ptr<write_policy> make_write_policy(common::cache_policy p, rma::channel& ch,
                                                block_directory& dir, writeback_engine& wb,
                                                cache_stats& st, placement_engine* pl, int rank) {
  if (p == common::cache_policy::write_through) {
    return std::make_unique<write_through_policy>(ch, dir, st, pl, rank);
  }
  return std::make_unique<write_back_policy>(wb);
}

}  // namespace ityr::pgas
