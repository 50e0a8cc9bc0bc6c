#include "blockdev/async_device.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/names.h"

namespace raefs {
namespace {

// Global (cross-instance) block-layer metrics; registered once, then each
// update is one relaxed atomic op.
struct BlockdevMetrics {
  obs::Counter& reads = obs::metrics().counter(obs::kMBlockdevReads);
  obs::Counter& writes = obs::metrics().counter(obs::kMBlockdevWrites);
  obs::Counter& flushes = obs::metrics().counter(obs::kMBlockdevFlushes);
  obs::Gauge& inflight = obs::metrics().gauge(obs::kMBlockdevInflight);
};

BlockdevMetrics& bm() {
  static BlockdevMetrics m;
  return m;
}

}  // namespace

AsyncBlockDevice::AsyncBlockDevice(BlockDevice* inner, int workers)
    : inner_(inner) {
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncBlockDevice::~AsyncBlockDevice() { shutdown(); }

void AsyncBlockDevice::enqueue(Request req) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;  // dropped; callers should not race shutdown
    queue_.push_back(std::move(req));
  }
  bm().inflight.add(1);
  cv_.notify_one();
}

void AsyncBlockDevice::submit_read(BlockNo block, ReadCallback done) {
  bm().reads.inc();
  Request r;
  r.kind = Request::Kind::kRead;
  r.block = block;
  r.read_done = std::move(done);
  enqueue(std::move(r));
}

void AsyncBlockDevice::submit_write(BlockNo block, std::vector<uint8_t> data,
                                    WriteCallback done) {
  submit_write(block, std::make_shared<const std::vector<uint8_t>>(std::move(data)),
               std::move(done));
}

void AsyncBlockDevice::submit_write(BlockNo block, BlockBufPtr data,
                                    WriteCallback done) {
  bm().writes.inc();
  Request r;
  r.kind = Request::Kind::kWrite;
  r.block = block;
  r.data = std::move(data);
  r.write_done = std::move(done);
  enqueue(std::move(r));
}

void AsyncBlockDevice::submit_flush(WriteCallback done) {
  bm().flushes.inc();
  Request r;
  r.kind = Request::Kind::kFlush;
  r.write_done = std::move(done);
  enqueue(std::move(r));
}

void AsyncBlockDevice::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drain_cv_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

size_t AsyncBlockDevice::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size() + in_flight_;
}

void AsyncBlockDevice::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

bool AsyncBlockDevice::queue_ready_locked() const {
  // Flush barrier: a flush at the head waits for in-flight IO; any
  // request waits while a flush is running.
  if (queue_.empty() || flush_in_progress_) return false;
  return queue_.front().kind != Request::Kind::kFlush || in_flight_ == 0;
}

void AsyncBlockDevice::finish_batch_read_locked(const BatchRead& r,
                                                const Status& st) {
  bm().inflight.add(-1);
  if (!st.ok() && r.batch->error.ok()) r.batch->error = st;
  // Notify under mu_: the caller cannot return (and destroy the batch)
  // before this thread lets go of the lock.
  if (--r.batch->left == 0) r.batch->done.notify_one();
}

Result<std::vector<BlockBuf>> AsyncBlockDevice::read_batch(
    std::span<const BlockNo> blocks) {
  std::vector<BlockBuf> out(blocks.size(), BlockBuf(inner_->block_size()));
  if (blocks.empty()) return out;
  bm().reads.inc(blocks.size());
  bm().inflight.add(static_cast<int64_t>(blocks.size()));
  if (workers_.size() <= 1 || blocks.size() == 1) {
    // Nothing to overlap with: read in order on the calling thread.
    Status st = Status::Ok();
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (st.ok()) st = inner_->read_block(blocks[i], out[i]);
      bm().inflight.add(-1);
    }
    if (!st.ok()) return st.error();
    return out;
  }
  ReadBatch batch;
  batch.left = blocks.size();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      bm().inflight.add(-static_cast<int64_t>(blocks.size()));
      return Errno::kIo;
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
      batch_reads_.push_back({blocks[i], &out[i], &batch});
    }
  }
  // The caller takes one read itself; wake workers for the rest.
  if (blocks.size() - 1 >= workers_.size()) {
    cv_.notify_all();
  } else {
    for (size_t i = 1; i < blocks.size(); ++i) cv_.notify_one();
  }
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Help: take this batch's reads no worker has started yet.
    auto it = std::find_if(batch_reads_.begin(), batch_reads_.end(),
                           [&](const BatchRead& r) { return r.batch == &batch; });
    if (it == batch_reads_.end()) break;
    BatchRead r = *it;
    batch_reads_.erase(it);
    lk.unlock();
    Status st = inner_->read_block(r.block, *r.out);
    lk.lock();
    finish_batch_read_locked(r, st);
  }
  batch.done.wait(lk, [&] { return batch.left == 0; });
  if (!batch.error.ok()) return batch.error.error();
  return out;
}

void AsyncBlockDevice::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] {
      return !batch_reads_.empty() || queue_ready_locked() ||
             (stopping_ && queue_.empty());
    });
    if (!batch_reads_.empty()) {
      BatchRead r = batch_reads_.front();
      batch_reads_.pop_front();
      lk.unlock();
      Status st = inner_->read_block(r.block, *r.out);
      lk.lock();
      finish_batch_read_locked(r, st);
      continue;
    }
    if (!queue_ready_locked()) return;  // stopping, queue empty
    Request req = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    const bool is_flush = req.kind == Request::Kind::kFlush;
    if (is_flush) flush_in_progress_ = true;
    lk.unlock();
    serve(std::move(req));
    bm().inflight.add(-1);
    lk.lock();
    --in_flight_;
    if (is_flush) flush_in_progress_ = false;
    if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    // A waiting worker can only have been held back by a barrier: one at
    // the head waiting for in-flight IO to reach zero, or one running.
    // Every other wake-up is the submitter's notify_one.
    if (in_flight_ == 0 || is_flush) cv_.notify_all();
  }
}

void AsyncBlockDevice::serve(Request req) {
  // `req` (payload references, callbacks) dies on return, before the
  // request stops counting as in flight: a drained caller must be able to
  // mutate its buffers without tripping copy-on-write against a request
  // still being torn down.
  switch (req.kind) {
    case Request::Kind::kRead: {
      std::vector<uint8_t> buf(inner_->block_size());
      Status st = inner_->read_block(req.block, buf);
      if (req.read_done) req.read_done(st, std::move(buf));
      break;
    }
    case Request::Kind::kWrite: {
      Status st = inner_->write_block(req.block, *req.data);
      if (req.write_done) req.write_done(st);
      break;
    }
    case Request::Kind::kFlush: {
      Status st = inner_->flush();
      if (req.write_done) req.write_done(st);
      break;
    }
  }
}

}  // namespace raefs
