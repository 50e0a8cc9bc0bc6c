// Transaction engine of the base filesystem: epoch-based group commit
// over a pipelined journal. Operations tag the blocks they dirty with the
// open epoch; fsync/sync closes the open epoch (a brief rotation under
// op_gate_ that does no IO) and stages its dirty *delta* as one pipelined
// journal transaction -- N concurrent fsyncs collapse into one
// transaction, and transaction E+1 may write its descriptor/payload while
// E's commit record is still in flight. Checkpointing runs off the commit
// critical path. Validate-on-sync (the paper's detect-before-persist
// enhancement, §3.1) runs on each epoch's delta inside the rotation, and
// install_blocks absorbs the shadow's recovery output (§3.2).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "basefs/base_fs.h"
#include "blockdev/qdepth_probe.h"
#include "common/worker_pool.h"
#include "obs/flight_recorder.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace raefs {

namespace {

// Commit timing uses the sim clock when present (simulated ns, like every
// other _ns metric) and falls back to the monotonic clock in benches that
// run without one.
Nanos mono_now(const SimClock* clock) {
  if (clock != nullptr) return clock->now();
  return static_cast<Nanos>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

obs::Histogram& commit_wait_hist() {
  static obs::Histogram* h = &obs::metrics().histogram(obs::kMBaseCommitWaitNs);
  return *h;
}

obs::Histogram& group_ops_hist() {
  static obs::Histogram* h =
      &obs::metrics().histogram(obs::kMBaseCommitGroupOps);
  return *h;
}

obs::Histogram& commit_latency_hist() {
  static obs::Histogram* h =
      &obs::metrics().histogram(obs::kMJournalCommitLatencyNs);
  return *h;
}

}  // namespace

// Everything a closed epoch needs to become durable, shared with the
// async completion callback. Block payloads are shared handles out of the
// cache snapshot -- nothing here copies block contents.
struct BaseFs::CommitCtx {
  uint64_t upto = 0;   // highest epoch this transaction covers
  Seq op_seq = 0;      // op-log watermark captured at rotation
  Nanos start = 0;
  std::vector<JournalRecord> meta;
  std::vector<BlockNo> data_blocks;
  // Journaled-metadata blocks freed by this epoch: carried as revoke
  // records so replay cannot resurrect their stale journaled copies
  // (journal.h). On a failed commit they return to the pending set.
  std::vector<BlockNo> revokes;
  // Set by a failed in-place (ordered-mode) data write; vetoes the commit.
  std::shared_ptr<std::atomic<bool>> data_abort;
};

Status BaseFs::commit_txn(bool force_checkpoint) {
  return commit_upto(epoch_open_.load(std::memory_order_acquire),
                     force_checkpoint);
}

Status BaseFs::commit_upto(uint64_t target_epoch, bool force_checkpoint) {
  obs::TraceSpan span(obs::kSpanBaseCommit, clock_.get());
  commit_waiters_.fetch_add(1, std::memory_order_relaxed);
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> lk(commit_mu_);
    for (;;) {
      // Durability first: an epoch that became durable satisfies this
      // waiter even if a *later* epoch has since failed.
      if (epoch_durable_ >= target_epoch) break;
      if (epoch_failed_ >= target_epoch) {
        st = commit_error_.ok() ? Status(Errno::kIo) : commit_error_;
        break;
      }
      if (!committer_busy_ &&
          (pipeline_broken_ || epoch_staged_ < target_epoch)) {
        committer_busy_ = true;
        Status cst;
        try {
          cst = commit_cycle_locked(lk);
        } catch (...) {
          // validate-on-sync panics unwind to the RAE supervisor; leave
          // the engine usable for the waiters we strand.
          if (!lk.owns_lock()) lk.lock();
          committer_busy_ = false;
          lk.unlock();
          commit_cv_.notify_all();
          commit_waiters_.fetch_sub(1, std::memory_order_relaxed);
          throw;
        }
        committer_busy_ = false;
        commit_cv_.notify_all();
        if (!cst.ok()) {
          st = cst;
          break;
        }
        continue;  // staged: durability arrives via the done callback
      }
      // Group commit: a transaction covering this epoch is staged (or
      // another thread is staging one) -- wait for it to turn durable.
      const Nanos wait_from = mono_now(clock_.get());
      {
        obs::TraceSpan wait(obs::kSpanBaseCommitWait, clock_.get(), span.id());
        commit_cv_.wait(lk);
      }
      commit_wait_hist().record(mono_now(clock_.get()) - wait_from);
    }
  }
  commit_waiters_.fetch_sub(1, std::memory_order_relaxed);
  if (!st.ok()) return st;

  // Checkpoint off the commit critical path: every waiter on this epoch
  // was already released by the done callback; only this caller pays.
  if (force_checkpoint ||
      journal_.fill_ratio() > opts_.checkpoint_fill_threshold) {
    std::unique_lock<std::mutex> lk(commit_mu_);
    return checkpoint_now_locked(lk, force_checkpoint);
  }
  return Status::Ok();
}

Status BaseFs::commit_cycle_locked(std::unique_lock<std::mutex>& lk) {
  for (int attempt = 0;; ++attempt) {
    Status st = commit_cycle_once_(lk);
    if (st.ok() || st.error() != Errno::kBusy || attempt >= 2) return st;
    // The journal refused with kBusy: an already-staged transaction failed
    // while this cycle was staging (the failure callback may not even have
    // run yet). This is transient engine state, not a device error -- it
    // must never surface to an fsync caller. Mark the pipeline broken and
    // go around: the recovery at the top of the next attempt drains the
    // queue, rewinds the journal, and re-stages everything still dirty.
    pipeline_broken_ = true;
  }
}

Status BaseFs::commit_cycle_once_(std::unique_lock<std::mutex>& lk) {
  uint64_t base = epoch_staged_;
  // journal_.pipeline_failed() is checked alongside our own flag because
  // it turns true under the journal's lock at the instant of failure,
  // while pipeline_broken_ only follows once the failure callback has
  // taken commit_mu_ -- without the early check this cycle would stage a
  // transaction into a doomed pipeline and share its abort.
  if (pipeline_broken_ || journal_.pipeline_failed()) {
    // Pipeline recovery: let the async queue settle (this also runs every
    // pending failure callback), rewind the journal to just past the last
    // durable transaction (failed transactions never wrote commit records,
    // so their remains are legal torn tail), and re-stage from scratch.
    lk.unlock();
    async_.drain();
    journal_.rewind_pipeline();
    lk.lock();
    epoch_staged_ = epoch_durable_;
    pipeline_broken_ = false;
    commit_error_ = Status::Ok();
    // Re-cover every dirty block regardless of its epoch tag: failed
    // epochs' blocks keep their old tags, and a privately-failed barrier
    // epoch (data_abort with no journal transaction to veto) may sit below
    // an epoch that still turned durable, so an epoch-bounded delta could
    // miss still-dirty blocks.
    base = 0;
  }
  lk.unlock();

  auto ctx = std::make_shared<CommitCtx>();
  ctx->start = mono_now(clock_.get());
  std::vector<std::pair<BlockNo, BlockBufPtr>> dirty;
  Status stage_st = Status::Ok();
  {
    // Epoch rotation: the only moment ops are excluded, and it does no
    // device IO. Capture inode-cache dirt into the block cache, close the
    // epoch, snapshot its delta, and validate the delta while nothing can
    // re-dirty it.
    obs::TraceSpan lock_wait(obs::kSpanBaseLockWait, clock_.get());
    std::unique_lock<std::shared_mutex> gate(op_gate_);
    lock_wait.end();
    ctx->op_seq = max_dirty_seq_.load();
    stage_st = flush_inode_cache_locked();
    ctx->upto = epoch_open_.load(std::memory_order_relaxed);
    epoch_open_.store(ctx->upto + 1, std::memory_order_release);
    block_cache_.set_open_epoch(ctx->upto + 1);
    if (stage_st.ok()) {
      dirty = block_cache_.dirty_snapshot_range(base, ctx->upto);
      // Frees performed by epochs <= upto are all visible here (ops hold
      // the gate shared), so the revoke set is exactly this delta's.
      ctx->revokes = take_pending_revokes_();
      if (opts_.validate_on_sync && !dirty.empty()) {
        Status valid = validate_dirty_locked(dirty);
        // Detection before persistence: a corrupt delta must never reach
        // the device. Panic; RAE recovers from S0 + op log.
        BASE_BUG_ON(!valid.ok(), "basefs.validate_on_sync",
                    "dirty metadata failed validation before persist");
      }
    }
  }
  if (!stage_st.ok()) {
    lk.lock();
    // The rotation already happened: epoch `upto` is closed but unstaged.
    // epoch_staged_ stays at `base` so the next committer's delta
    // re-covers it; mark it failed so current waiters see the error.
    epoch_failed_ = std::max(epoch_failed_, ctx->upto);
    commit_error_ = stage_st;
    return stage_st;
  }

  if (dirty.empty()) {
    // No journal transaction will be staged; the revokes wait for the
    // next one. (A free always dirties the block bitmap, so this arises
    // only on retry after a failure that committed the bitmap first.)
    return_pending_revokes_(ctx->revokes);
    ctx->revokes.clear();
    lk.lock();
    epoch_staged_ = std::max(epoch_staged_, ctx->upto);
    if (journal_.staged_txns() == 0) {
      // Nothing dirty and the pipeline is idle: trivially durable.
      epoch_durable_ = std::max(epoch_durable_, ctx->upto);
      if (durable_cb_ && ctx->op_seq > 0) durable_cb_(ctx->op_seq);
      return Status::Ok();
    }
    // Earlier transactions still in flight: ride a barrier through the
    // pipeline so this epoch turns durable strictly after them.
    lk.unlock();
    Status fst = journal_.flush_async(&async_, make_commit_done_(ctx));
    lk.lock();
    if (!fst.ok()) {
      if (fst.error() == Errno::kBusy) return fst;  // retry loop recovers
      epoch_failed_ = std::max(epoch_failed_, ctx->upto);
      commit_error_ = fst;
      return fst;
    }
    return Status::Ok();
  }

  obs::TraceSpan jspan(obs::kSpanJournalGroupCommit, clock_.get());
  // Partition the delta. Snapshot entries are shared handles out of the
  // cache -- nothing here copies a block payload.
  std::vector<std::pair<BlockNo, BlockBufPtr>> data;
  for (auto& [block, bytes] : dirty) {
    if (is_meta_block(block)) {
      ctx->meta.emplace_back(block, std::move(bytes));
    } else {
      ctx->data_blocks.push_back(block);
      data.emplace_back(block, std::move(bytes));
    }
  }
  // A revoke must not suppress a copy re-journaled by this very
  // transaction (same seq): the fresh copy is the block's newest durable
  // content. jbd2 calls this revoke cancellation.
  if (!ctx->revokes.empty() && !ctx->meta.empty()) {
    std::unordered_set<BlockNo> journaled;
    journaled.reserve(ctx->meta.size());
    for (const auto& r : ctx->meta) journaled.insert(r.target);
    std::erase_if(ctx->revokes,
                  [&](BlockNo b) { return journaled.count(b) > 0; });
  }
  // How many fsyncs this transaction collapses (the committer included).
  group_ops_hist().record(
      static_cast<Nanos>(commit_waiters_.load(std::memory_order_relaxed)));

  // Ordered mode, pipelined: submit the in-place data writes now. The
  // journal payload flush barrier queued behind them proves them durable
  // before this epoch's commit record can reach the device; a data write
  // error vetoes the commit through data_abort.
  if (!data.empty()) {
    ctx->data_abort = std::make_shared<std::atomic<bool>>(false);
    auto flag = ctx->data_abort;
    submit_writeback_runs(std::move(data), [flag](Status wst) {
      if (!wst.ok()) flag->store(true, std::memory_order_release);
    });
  }

  if (ctx->meta.empty()) {
    // Data-only epoch: a durability barrier is all the journal owes us.
    // Revokes wait for the next metadata transaction (any reallocation of
    // a revoked block dirties the bitmap, so that transaction commits no
    // later than the first epoch that could make the hazard durable).
    return_pending_revokes_(ctx->revokes);
    ctx->revokes.clear();
    Status fst = journal_.flush_async(&async_, make_commit_done_(ctx));
    lk.lock();
    if (!fst.ok()) {
      if (fst.error() == Errno::kBusy) return fst;  // retry loop recovers
      epoch_failed_ = std::max(epoch_failed_, ctx->upto);
      commit_error_ = fst;
      return fst;
    }
    epoch_staged_ = std::max(epoch_staged_, ctx->upto);
    return Status::Ok();
  }

  // One descriptor block addresses max_descriptor_entries() tags+revokes;
  // the journal free area must also fit the transaction right now (staged
  // transactions included). Otherwise fall back to the serial bulk path.
  const size_t pipeline_max = std::min<size_t>(
      Journal::max_descriptor_entries(),
      geo_.journal_blocks > 4 ? static_cast<size_t>(geo_.journal_blocks - 3)
                              : 1);
  if (ctx->meta.size() + ctx->revokes.size() > pipeline_max ||
      !journal_.has_space(ctx->meta.size())) {
    return commit_bulk_(lk, ctx);
  }

  auto seq = journal_.commit_async(ctx->meta, &async_, make_commit_done_(ctx),
                                   ctx->data_abort, ctx->revokes);
  if (!seq.ok() && seq.error() == Errno::kNoSpace) return commit_bulk_(lk, ctx);
  lk.lock();
  if (!seq.ok()) {
    // kBusy propagates to commit_cycle_locked's retry loop; the rotation
    // already closed epoch `upto`, and the recovery resnap (base 0) on the
    // next attempt re-covers its blocks. Anything else fails the epoch.
    return_pending_revokes_(ctx->revokes);
    if (seq.error() == Errno::kBusy) return seq.error();
    epoch_failed_ = std::max(epoch_failed_, ctx->upto);
    commit_error_ = seq.error();
    return commit_error_;
  }
  epoch_staged_ = std::max(epoch_staged_, ctx->upto);
  return Status::Ok();
}

Journal::CommitDoneCb BaseFs::make_commit_done_(std::shared_ptr<CommitCtx> ctx) {
  return [this, ctx = std::move(ctx)](Status st, uint64_t) {
    if (st.ok() && ctx->data_abort &&
        ctx->data_abort->load(std::memory_order_acquire)) {
      // Barrier epochs carry no journal transaction to veto; a failed
      // in-place data write must still fail the epoch (and break the
      // pipeline so recovery re-stages the still-dirty blocks).
      st = Errno::kIo;
    }
    const size_t blocks = ctx->meta.size() + ctx->data_blocks.size();
    {
      std::lock_guard<std::mutex> g(commit_mu_);
      if (st.ok()) {
        // Record each block's durable classification in commit order; the
        // checkpointer skips journaled copies superseded by a later
        // in-place data write (freed-then-reallocated blocks).
        for (const auto& r : ctx->meta) durable_class_[r.target] = false;
        if (!ctx->data_blocks.empty()) {
          block_cache_.mark_clean_upto(ctx->data_blocks, ctx->upto);
          for (BlockNo b : ctx->data_blocks) durable_class_[b] = true;
        }
        epoch_durable_ = std::max(epoch_durable_, ctx->upto);
        if (!ctx->meta.empty() || !ctx->data_blocks.empty()) {
          commits_.fetch_add(1);
          commit_latency_hist().record(mono_now(clock_.get()) - ctx->start);
        }
        if (durable_cb_ && ctx->op_seq > 0) durable_cb_(ctx->op_seq);
      } else {
        pipeline_broken_ = true;
        epoch_failed_ = std::max(epoch_failed_, ctx->upto);
        commit_error_ = st;
        // The staged transaction never committed, so neither did its
        // revokes; the retry's transaction must carry them again.
        return_pending_revokes_(ctx->revokes);
      }
      // Drop the committed payload handles before any waiter wakes. The
      // journal keeps this callback alive until its worker finishes the
      // request, so a sync returning first would see the next modify of
      // these blocks copy-on-write clone them.
      ctx->meta.clear();
    }
    commit_cv_.notify_all();
    if (st.ok() && blocks > 0) {
      obs::flight().record(obs::Component::kBaseFs, "commit", "",
                           clock_ ? clock_->now() : 0, blocks);
    }
  };
}

Status BaseFs::commit_bulk_(std::unique_lock<std::mutex>& lk,
                            const std::shared_ptr<CommitCtx>& ctx) {
  // Serial fallback for deltas that cannot ride the pipeline (more records
  // than one descriptor addresses, or the free area is exhausted by staged
  // transactions). Wait the pipeline idle, then commit in capacity-sized
  // chunks with checkpoints in between -- like jbd2 splitting an
  // oversized transaction; each chunk is internally atomic.
  lk.lock();
  while (epoch_durable_ < epoch_staged_ && !pipeline_broken_) {
    commit_cv_.wait(lk);
  }
  if (pipeline_broken_) {
    epoch_failed_ = std::max(epoch_failed_, ctx->upto);
    if (commit_error_.ok()) commit_error_ = Errno::kIo;
    return_pending_revokes_(ctx->revokes);
    return commit_error_;
  }
  lk.unlock();
  async_.drain();

  Status st = Status::Ok();
  if (ctx->data_abort && ctx->data_abort->load(std::memory_order_acquire)) {
    st = Errno::kIo;  // this epoch's in-place data writes failed
  }
  const size_t max_records = std::min<size_t>(
      Journal::max_descriptor_entries(),
      geo_.journal_blocks > 4 ? static_cast<size_t>(geo_.journal_blocks - 3)
                              : 1);
  // Revokes ride the chunks' descriptors, front-loaded but never crowding
  // a chunk's records out entirely; leftovers (failure, or a pathological
  // revoke count) return to the pending set.
  std::vector<BlockNo> revokes_left = ctx->revokes;
  size_t at = 0;
  while (st.ok() && at < ctx->meta.size()) {
    const size_t rev_take =
        std::min(revokes_left.size(), max_records > 1 ? max_records - 1 : 0);
    const size_t take = std::min(ctx->meta.size() - at, max_records - rev_take);
    std::vector<JournalRecord> chunk(
        ctx->meta.begin() + static_cast<ptrdiff_t>(at),
        ctx->meta.begin() + static_cast<ptrdiff_t>(at + take));
    std::vector<BlockNo> rev(
        revokes_left.begin(),
        revokes_left.begin() + static_cast<ptrdiff_t>(rev_take));
    if (!journal_.has_space(chunk.size())) {
      st = checkpoint_core_();
      if (!st.ok()) break;
    }
    auto seq = journal_.commit(chunk, rev);
    if (!seq.ok()) {
      st = seq.error();
      break;
    }
    revokes_left.erase(
        revokes_left.begin(),
        revokes_left.begin() + static_cast<ptrdiff_t>(rev_take));
    {
      std::lock_guard<std::mutex> g(commit_mu_);
      for (const auto& r : chunk) durable_class_[r.target] = false;
    }
    at += take;
  }
  return_pending_revokes_(revokes_left);

  lk.lock();
  if (!st.ok()) {
    // Chunks already committed stay durable in the journal and shadow
    // (each was atomic); the epoch as a whole failed and its delta will
    // be re-staged on retry.
    epoch_failed_ = std::max(epoch_failed_, ctx->upto);
    commit_error_ = st;
    return st;
  }
  // The first journal flush ran after the drained data writes, so the
  // whole epoch is durable.
  if (!ctx->data_blocks.empty()) {
    block_cache_.mark_clean_upto(ctx->data_blocks, ctx->upto);
    for (BlockNo b : ctx->data_blocks) durable_class_[b] = true;
  }
  epoch_staged_ = std::max(epoch_staged_, ctx->upto);
  epoch_durable_ = std::max(epoch_durable_, ctx->upto);
  commits_.fetch_add(1);
  commit_latency_hist().record(mono_now(clock_.get()) - ctx->start);
  if (durable_cb_ && ctx->op_seq > 0) durable_cb_(ctx->op_seq);
  obs::flight().record(obs::Component::kBaseFs, "commit", "",
                       clock_ ? clock_->now() : 0,
                       ctx->meta.size() + ctx->data_blocks.size());
  return Status::Ok();
}

Status BaseFs::checkpoint_now_locked(std::unique_lock<std::mutex>& lk,
                                     bool force) {
  while (committer_busy_) commit_cv_.wait(lk);
  if (!force && journal_.fill_ratio() <= opts_.checkpoint_fill_threshold) {
    return Status::Ok();  // raced: another caller already checkpointed
  }
  committer_busy_ = true;
  while (epoch_durable_ < epoch_staged_ && !pipeline_broken_) {
    commit_cv_.wait(lk);
  }
  Status st = Status::Ok();
  if (pipeline_broken_) {
    // A later epoch failed after this caller's target turned durable.
    // Optional checkpoints skip quietly; forced ones (unmount) must
    // report the failure so a dirty journal never meets a clean
    // superblock.
    if (force) st = commit_error_.ok() ? Status(Errno::kIo) : commit_error_;
  } else {
    lk.unlock();
    async_.drain();
    st = checkpoint_core_();
    lk.lock();
  }
  committer_busy_ = false;
  lk.unlock();
  commit_cv_.notify_all();
  return st;
}

Status BaseFs::checkpoint_core_() {
  obs::TraceSpan span(obs::kSpanBaseCheckpoint, clock_.get());
  // Write the last durably-journaled copy of every journaled block in
  // place, re-read from the journal region itself. Using the journaled
  // copies -- not current cache content -- keeps WAL intact: a block
  // re-dirtied by a later, still-open epoch must not reach its home
  // location before that epoch commits. Reading them back (instead of
  // retaining cache handles across epochs) keeps the steady-state commit
  // path free of copy-on-write clones.
  RAEFS_TRY(auto records, journal_.committed_records());
  uint64_t durable = 0;
  std::vector<std::pair<BlockNo, BlockBufPtr>> blocks;
  std::vector<BlockNo> keys;
  {
    std::lock_guard<std::mutex> g(commit_mu_);
    blocks.reserve(records.size());
    keys.reserve(records.size());
    for (auto& r : records) {
      auto it = durable_class_.find(r.target);
      if (it != durable_class_.end() && it->second) {
        // Freed and reallocated as file data after it was journaled; the
        // durable in-place data write supersedes the journaled copy.
        continue;
      }
      blocks.emplace_back(r.target, std::move(r.data));
      keys.push_back(r.target);
    }
    durable = epoch_durable_;
  }
  RAEFS_TRY_VOID(writeback_coalesced(blocks));
  RAEFS_TRY_VOID(dev_->flush());
  RAEFS_TRY_VOID(journal_.checkpoint());
  {
    std::lock_guard<std::mutex> g(commit_mu_);
    // Only entries not re-dirtied by a later epoch turn clean; the
    // epoch-bounded form makes the concurrent-redirty race harmless.
    block_cache_.mark_clean_upto(keys, durable);
    durable_class_.clear();
  }
  checkpoints_.fetch_add(1);
  obs::flight().record(obs::Component::kBaseFs, "checkpoint", "",
                       clock_ ? clock_->now() : 0, keys.size());
  return Status::Ok();
}

void BaseFs::submit_writeback_runs(
    std::vector<std::pair<BlockNo, BlockBufPtr>> blocks,
    const std::function<void(Status)>& on_each) {
  obs::TraceSpan span(obs::kSpanBlockdevWriteback, clock_.get());
  // Sort by block number, group contiguous runs, and hand each run to the
  // async layer as one submission. Payloads are shared, never copied.
  std::sort(blocks.begin(), blocks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t i = 0;
  while (i < blocks.size()) {
    BlockNo first = blocks[i].first;
    std::vector<BlockBufPtr> run;
    run.push_back(blocks[i].second);
    size_t j = i + 1;
    while (j < blocks.size() && blocks[j].first == first + run.size()) {
      run.push_back(blocks[j].second);
      ++j;
    }
    async_.submit_writev(first, std::move(run), on_each);
    i = j;
  }
}

Status BaseFs::writeback_coalesced(
    const std::vector<std::pair<BlockNo, BlockBufPtr>>& blocks) {
  if (blocks.empty()) return Status::Ok();
  auto failed = std::make_shared<std::atomic<bool>>(false);
  submit_writeback_runs(blocks, [failed](Status st) {
    if (!st.ok()) failed->store(true, std::memory_order_relaxed);
  });
  async_.drain();
  if (failed->load()) return Errno::kIo;
  return Status::Ok();
}

Status BaseFs::validate_dirty_locked(
    const std::vector<std::pair<BlockNo, BlockBufPtr>>& dirty) {
  bool bitmap_touched = false;
  for (const auto& [block, bytes] : dirty) {
    if (block == 0) {
      if (!Superblock::decode(*bytes).ok()) return Errno::kCorrupt;
    } else if (block >= geo_.inode_table_start &&
               block < geo_.inode_table_start + geo_.inode_table_blocks) {
      for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
        auto inode = DiskInode::decode(
            std::span<const uint8_t>(*bytes).subspan(slot * kInodeSize,
                                                     kInodeSize),
            geo_);
        if (!inode.ok()) return Errno::kCorrupt;
      }
    } else if ((block >= geo_.inode_bitmap_start &&
                block < geo_.inode_bitmap_start + geo_.inode_bitmap_blocks) ||
               (block >= geo_.block_bitmap_start &&
                block < geo_.block_bitmap_start + geo_.block_bitmap_blocks)) {
      bitmap_touched = true;
    } else if (geo_.is_data_block(block)) {
      std::lock_guard<std::mutex> lk(meta_blocks_mu_);
      auto it = meta_blocks_.find(block);
      if (it == meta_blocks_.end()) continue;  // file data: not validated
      if (it->second == BlockClass::kDirMeta) {
        if (!dirent_scan_block(*bytes).ok()) return Errno::kCorrupt;
      } else if (it->second == BlockClass::kIndirectMeta) {
        for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
          uint64_t ptr = 0;
          std::memcpy(&ptr, bytes->data() + i * 8, sizeof(ptr));
          if (ptr != 0 && !geo_.is_data_block(ptr)) return Errno::kCorrupt;
        }
      }
    }
  }

  if (bitmap_touched) {
    // Cross-check the in-memory free counters against the cached bitmaps:
    // catches silent single-bit corruption of allocation state. Runs
    // inside the rotation gate, so the counters cannot move under us.
    uint64_t free_b = 0;
    for (uint64_t i = 0; i < geo_.block_bitmap_blocks; ++i) {
      RAEFS_TRY(auto data, block_cache_.read(geo_.block_bitmap_start + i));
      uint64_t bits_here = std::min<uint64_t>(
          kBitsPerBlock, geo_.total_blocks - i * kBitsPerBlock);
      ConstBitmapView view(data, bits_here);
      free_b += bits_here - view.count_set();
    }
    if (free_b != free_blocks_.load()) return Errno::kCorrupt;

    uint64_t free_i = 0;
    for (uint64_t i = 0; i < geo_.inode_bitmap_blocks; ++i) {
      RAEFS_TRY(auto data, block_cache_.read(geo_.inode_bitmap_start + i));
      uint64_t bits_here = std::min<uint64_t>(
          kBitsPerBlock, geo_.inode_count - i * kBitsPerBlock);
      ConstBitmapView view(data, bits_here);
      free_i += bits_here - view.count_set();
    }
    if (free_i != free_inodes_.load()) return Errno::kCorrupt;
  }
  return Status::Ok();
}

Status BaseFs::install_blocks(const std::vector<InstallBlock>& blocks) {
  // Called by the supervisor on a freshly mounted (rebooted) base with no
  // concurrent operations (paper §3.2 hand-off). The bulk path journals
  // the whole set as ONE multi-chunk install transaction, applies it in
  // place through a worker pool, and checkpoints -- a power cut anywhere
  // in between replays to either the pre-install or the fully-installed
  // image, never a mix.
  for (const auto& ib : blocks) {
    if (ib.block >= geo_.total_blocks || ib.data.size() != kBlockSize) {
      return Errno::kInval;
    }
    if (ib.block >= geo_.journal_start &&
        ib.block < geo_.journal_start + geo_.journal_blocks) {
      return Errno::kInval;  // the shadow never produces journal blocks
    }
  }
  if (blocks.empty()) return install_blocks_legacy_(blocks);

  // Quiesce: drain the pipeline and checkpoint whatever the journal
  // already holds, so the checkpoint below cannot raise the floor over
  // some other transaction's committed-but-not-yet-in-place state.
  RAEFS_TRY_VOID(commit_txn(/*force_checkpoint=*/true));

  // Latest copy per target (the shadow's output is normally duplicate-
  // free; the dedup keeps the parallel apply race-free regardless),
  // sorted by block so apply slices are contiguous and never overlap.
  std::unordered_map<BlockNo, const InstallBlock*> latest;
  for (const auto& ib : blocks) latest[ib.block] = &ib;
  std::vector<const InstallBlock*> uniq;
  uniq.reserve(latest.size());
  for (const auto& [b, p] : latest) uniq.push_back(p);
  std::sort(uniq.begin(), uniq.end(),
            [](const InstallBlock* a, const InstallBlock* b) {
              return a->block < b->block;
            });

  if (opts_.validate_on_sync) {
    // Detection before persistence, same contract as the commit path's
    // validate_dirty_locked: a structurally corrupt shadow output must
    // never reach the journal or the device. The bitmap-vs-counter
    // cross-check is deliberately omitted -- installed bitmaps replace
    // the counters (reloaded below), so they legitimately disagree with
    // the pre-install values.
    Status valid = Status::Ok();
    for (const InstallBlock* ib : uniq) {
      valid = validate_install_block_(*ib);
      if (!valid.ok()) break;
    }
    BASE_BUG_ON(!valid.ok(), "basefs.validate_on_sync",
                "install set failed validation before persist");
  }

  std::vector<JournalRecord> records;
  records.reserve(uniq.size());
  for (const InstallBlock* ib : uniq) {
    records.emplace_back(ib->block, std::make_shared<const BlockBuf>(ib->data));
  }

  std::vector<BlockNo> revokes = take_pending_revokes_();
  std::vector<BlockNo> carried = revokes;
  // A revoke sharing the install transaction's sequence number would
  // suppress this very transaction's record for the block at replay:
  // re-journaled blocks are never revoked (same rule as group commit).
  std::erase_if(carried, [&](BlockNo b) { return latest.count(b) > 0; });

  const uint32_t workers = resolve_workers(opts_.install_workers, dev_);
  Result<uint64_t> seq = journal_.commit_multi(records, carried, workers);
  if (!seq.ok()) {
    // The set does not fit the journal region (or the engine refused):
    // fall back to the legacy cache-dirty path, which chunks through the
    // ordinary commit machinery.
    return_pending_revokes_(revokes);
    return install_blocks_legacy_(blocks);
  }

  // In-place apply, fanned across the device's usable queue depth.
  {
    obs::TraceSpan span(obs::kSpanBaseInstallApply, clock_.get());
    const size_t n = uniq.size();
    const size_t slices = std::min<size_t>(workers, n);
    std::atomic<bool> failed{false};
    WorkerPool pool(static_cast<uint32_t>(slices));
    pool.run(slices, [&](uint64_t s) {
      const size_t begin = s * n / slices;
      const size_t end = (s + 1) * n / slices;
      for (size_t i = begin; i < end; ++i) {
        if (!dev_->write_block(uniq[i]->block, uniq[i]->data).ok()) {
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
    // The journal still holds the committed install transaction, so a
    // failed apply is recoverable: the supervisor's retry replays it.
    if (failed.load()) return Errno::kIo;
  }
  RAEFS_TRY_VOID(dev_->flush());
  // Every record is in place and durable: retire the install transaction.
  RAEFS_TRY_VOID(journal_.checkpoint());

  // Warm the cache with the installed bytes (clean -- the device already
  // holds them), then invalidate only the derived state the set touches.
  std::vector<std::pair<BlockNo, BlockBufPtr>> cache_blocks;
  cache_blocks.reserve(records.size());
  for (const JournalRecord& r : records) {
    cache_blocks.emplace_back(r.target, r.data);
  }
  block_cache_.install_clean(cache_blocks);
  note_meta_blocks_batch_(blocks);
  RAEFS_TRY_VOID(invalidate_for_install_(blocks));

  commits_.fetch_add(1);
  checkpoints_.fetch_add(1);
  obs::flight().record(obs::Component::kBaseFs, "install_blocks", "bulk",
                       clock_ ? clock_->now() : 0, blocks.size(), workers);
  return Status::Ok();
}

Status BaseFs::validate_install_block_(const InstallBlock& ib) const {
  // Structural checks mirroring validate_dirty_locked, except the block
  // class comes from the shadow's annotation (ib.cls) instead of the
  // meta_blocks_ map -- the set is not noted until after the apply.
  const BlockNo block = ib.block;
  const BlockBuf& bytes = ib.data;
  if (block == 0) {
    if (!Superblock::decode(bytes).ok()) return Errno::kCorrupt;
  } else if (block >= geo_.inode_table_start &&
             block < geo_.inode_table_start + geo_.inode_table_blocks) {
    for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
      auto inode = DiskInode::decode(
          std::span<const uint8_t>(bytes).subspan(slot * kInodeSize,
                                                  kInodeSize),
          geo_);
      if (!inode.ok()) return Errno::kCorrupt;
    }
  } else if (geo_.is_data_block(block)) {
    if (ib.cls == BlockClass::kDirMeta) {
      if (!dirent_scan_block(bytes).ok()) return Errno::kCorrupt;
    } else if (ib.cls == BlockClass::kIndirectMeta) {
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t ptr = 0;
        std::memcpy(&ptr, bytes.data() + i * 8, sizeof(ptr));
        if (ptr != 0 && !geo_.is_data_block(ptr)) return Errno::kCorrupt;
      }
    }
  }
  return Status::Ok();
}

Status BaseFs::install_blocks_legacy_(const std::vector<InstallBlock>& blocks) {
  // Pre-bulk install path: dirty the blocks through the ordinary cache +
  // commit machinery. The caller has already validated the set.
  for (const auto& ib : blocks) {
    RAEFS_TRY_VOID(block_cache_.write(ib.block, ib.data));
    if (geo_.is_data_block(ib.block)) note_meta_block(ib.block, ib.cls);
  }
  // Installed bitmaps invalidate cached derived state.
  inode_cache_.drop_all();
  dentry_cache_.drop_all();
  RAEFS_TRY_VOID(reload_counters());
  obs::flight().record(obs::Component::kBaseFs, "install_blocks", "legacy",
                       clock_ ? clock_->now() : 0, blocks.size());
  // Make the recovered state durable before any new operation is admitted.
  return commit_txn(/*force_checkpoint=*/true);
}

void BaseFs::note_meta_blocks_batch_(const std::vector<InstallBlock>& blocks) {
  std::lock_guard<std::mutex> lk(meta_blocks_mu_);
  for (const auto& ib : blocks) {
    if (ib.cls == BlockClass::kFileData || !geo_.is_data_block(ib.block)) {
      continue;
    }
    meta_blocks_[ib.block] = ib.cls;
    // Same rule as note_meta_block: the fresh journaled copy must not be
    // suppressed by a stale pending revoke.
    pending_revokes_.erase(ib.block);
  }
}

Status BaseFs::invalidate_for_install_(const std::vector<InstallBlock>& blocks) {
  bool block_bitmap = false;
  bool inode_bitmap = false;
  bool inode_table = false;
  bool dir_meta = false;
  for (const auto& ib : blocks) {
    const BlockNo b = ib.block;
    if (b >= geo_.block_bitmap_start &&
        b < geo_.block_bitmap_start + geo_.block_bitmap_blocks) {
      block_bitmap = true;
    } else if (b >= geo_.inode_bitmap_start &&
               b < geo_.inode_bitmap_start + geo_.inode_bitmap_blocks) {
      inode_bitmap = true;
    } else if (b >= geo_.inode_table_start &&
               b < geo_.inode_table_start + geo_.inode_table_blocks) {
      inode_table = true;
    } else if (geo_.is_data_block(b) && ib.cls == BlockClass::kDirMeta) {
      dir_meta = true;
    }
  }
  if (inode_table) inode_cache_.drop_all();
  if (inode_table || dir_meta) dentry_cache_.drop_all();
  if (block_bitmap) RAEFS_TRY_VOID(reload_free_blocks_());
  if (inode_bitmap) RAEFS_TRY_VOID(reload_free_inodes_());
  return Status::Ok();
}

}  // namespace raefs
