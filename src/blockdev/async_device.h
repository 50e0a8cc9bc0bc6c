// Asynchronous block layer (the base filesystem's "blk-mq" analogue).
//
// Requests are queued on a submission queue and serviced by worker
// threads; completions run on the worker. The base filesystem's write-back
// path uses this layer (Figure 2, left side: "Block Layer (asynchronous
// IO)"); the shadow never touches it and reads the device synchronously.
//
// Every request is one block (or one flush): the device interface is
// block-at-a-time, so a multi-block write-back is submitted as one request
// per block and the workers keep up to `workers` of them in flight at
// once. Queue depth, not request size, is what hides device latency.
//
// Ordering guarantees the pipelined commit engine is built on:
//   * a flush barrier is serviced only after every request submitted
//     before it has completed on the device — so "data + journal payload,
//     flush, commit record, flush" staged as five submissions is a
//     correct write-ahead sequence with no caller-side waiting;
//   * a request's completion callback runs before the request stops
//     counting as in flight, so a barrier can never overtake the
//     completion work (commit bookkeeping, waiter wakeups) of the
//     requests it fences.
//
// read_batch() is the one way around the queue. Its reads wait behind no
// queued request and no barrier: an idle worker takes them before the next
// queued request, so a reader never pays for a concurrent sync's write-back.
// They are therefore unordered against every queued write and flush, and
// a caller may use read_batch only for blocks with no write queued or in
// flight (the block cache's misses: a block with a write in flight is
// still pinned dirty in the cache).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "blockdev/block_device.h"

namespace raefs {

class AsyncBlockDevice {
 public:
  using ReadCallback = std::function<void(Status, std::vector<uint8_t>)>;
  using WriteCallback = std::function<void(Status)>;

  /// Start `workers` service threads over `inner`. `inner` must outlive
  /// this object.
  explicit AsyncBlockDevice(BlockDevice* inner, int workers = 2);
  ~AsyncBlockDevice();

  AsyncBlockDevice(const AsyncBlockDevice&) = delete;
  AsyncBlockDevice& operator=(const AsyncBlockDevice&) = delete;

  /// Queue a block read; `done` runs on a worker thread.
  void submit_read(BlockNo block, ReadCallback done);

  /// Queue a block write (data moved into the request); `done` runs on a
  /// worker thread.
  void submit_write(BlockNo block, std::vector<uint8_t> data,
                    WriteCallback done);

  /// Zero-copy variant: the request shares ownership of the buffer.
  void submit_write(BlockNo block, BlockBufPtr data, WriteCallback done);

  /// Queue a flush barrier: serviced only after all earlier requests.
  void submit_flush(WriteCallback done);

  /// Read `blocks` concurrently and return their contents in order, or
  /// the first error. The caller reads alongside idle workers; with a
  /// single worker it reads every block itself, in order, so the device
  /// sees a deterministic IO sequence. Unordered against queued requests
  /// (see the header note): only for blocks with no write pending.
  Result<std::vector<BlockBuf>> read_batch(std::span<const BlockNo> blocks);

  /// Block until every queued request has completed.
  void drain();

  /// Requests currently queued or in flight.
  size_t pending() const;

  /// Stop accepting requests, drain, and join workers. Idempotent;
  /// also performed by the destructor.
  void shutdown();

 private:
  struct Request {
    enum class Kind { kRead, kWrite, kFlush } kind;
    BlockNo block = 0;
    BlockBufPtr data;  // kWrite
    ReadCallback read_done;
    WriteCallback write_done;
  };

  // One read_batch call. Lives on the caller's stack; guarded by mu_.
  struct ReadBatch {
    size_t left = 0;
    Status error = Status::Ok();
    std::condition_variable done;  // waits on mu_
  };
  struct BatchRead {
    BlockNo block = 0;
    BlockBuf* out = nullptr;
    ReadBatch* batch = nullptr;
  };

  void worker_loop();
  void serve(Request req);  // runs one request on the calling worker
  void enqueue(Request req);
  // Must hold mu_. The queue's head may be started now.
  bool queue_ready_locked() const;
  // Must hold mu_. Record one finished batch read; wakes its caller last.
  void finish_batch_read_locked(const BatchRead& r, const Status& st);

  BlockDevice* inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes workers
  std::condition_variable drain_cv_;  // wakes drain()
  std::deque<Request> queue_;
  std::deque<BatchRead> batch_reads_;  // served ahead of queue_
  size_t in_flight_ = 0;               // queue_ requests only
  bool stopping_ = false;
  bool flush_in_progress_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace raefs
