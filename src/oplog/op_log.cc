#include "oplog/op_log.h"

namespace raefs {

Seq OpLog::append_started(OpRequest req) {
  std::lock_guard<std::mutex> lk(mu_);
  OpRecord rec;
  rec.seq = next_seq_++;
  rec.req = std::move(req);
  rec.completed = false;
  live_bytes_ += rec.req.footprint();
  records_.push_back(std::move(rec));
  ++appended_;
  return records_.back().seq;
}

void OpLog::complete(Seq seq, OpOutcome out) {
  std::lock_guard<std::mutex> lk(mu_);
  // Records are seq-ordered; the completing op is almost always the tail.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->seq == seq) {
      it->out = out;
      it->completed = true;
      return;
    }
  }
}

void OpLog::truncate_durable(Seq watermark) {
  std::lock_guard<std::mutex> lk(mu_);
  if (watermark <= watermark_) return;
  watermark_ = watermark;
  std::erase_if(records_, [&](const OpRecord& r) {
    if (r.seq > watermark || !r.completed) return false;
    live_bytes_ -= r.req.footprint();
    return true;
  });
  ++truncated_;
}

std::vector<OpRecord> OpLog::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

void OpLog::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  records_.clear();
  live_bytes_ = 0;
}

Seq OpLog::last_seq() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_seq_ - 1;
}

Seq OpLog::durable_watermark() const {
  std::lock_guard<std::mutex> lk(mu_);
  return watermark_;
}

OpLogStats OpLog::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  OpLogStats s;
  s.appended = appended_;
  s.truncated = truncated_;
  s.live_records = records_.size();
  s.live_bytes = live_bytes_;
  return s;
}

}  // namespace raefs
