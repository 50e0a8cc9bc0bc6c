// The RAE operation log (paper §3.2, "Record Operations").
//
// Records every mutating operation between the last durable point and now.
// When an error is detected, the snapshot of this log is exactly the
// sequence the shadow must re-execute on top of the on-disk state S0.
// When the base reports that a commit made operations durable, the covered
// records are discarded -- the gap they described has closed.
#pragma once

#include <mutex>
#include <vector>

#include "oplog/op.h"

namespace raefs {

struct OpLogStats {
  uint64_t appended = 0;
  uint64_t truncated = 0;
  size_t live_records = 0;
  size_t live_bytes = 0;
};

class OpLog {
 public:
  /// Record an operation as started (in-flight). Returns its sequence
  /// number. In-flight records are what the shadow's autonomous mode
  /// executes; completed ones go through constrained mode.
  Seq append_started(OpRequest req);

  /// Record the outcome the application was shown.
  void complete(Seq seq, OpOutcome out);

  /// Discard all records with seq <= watermark: their effects are durable
  /// on disk and no longer part of the app-view/disk gap.
  void truncate_durable(Seq watermark);

  /// Copy of the live log, in sequence order.
  std::vector<OpRecord> snapshot() const;

  /// Drop everything (after a successful recovery has reconstructed state
  /// and the supervisor re-established a durable point).
  void clear();

  Seq last_seq() const;
  Seq durable_watermark() const;
  OpLogStats stats() const;

 private:
  mutable std::mutex mu_;
  std::vector<OpRecord> records_;
  Seq next_seq_ = 1;
  Seq watermark_ = 0;
  uint64_t appended_ = 0;
  uint64_t truncated_ = 0;
  size_t live_bytes_ = 0;  // running sum of records_' footprints
};

}  // namespace raefs
