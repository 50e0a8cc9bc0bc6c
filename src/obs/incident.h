// Incident reports: one self-contained forensic artifact per recovery.
//
// Every time the RAE supervisor runs the recovery pipeline -- whether it
// succeeds (the bug is masked) or fails (the filesystem goes offline) --
// it assembles an Incident: what tripped (bug id, faulting function,
// detail, the in-flight op's sequence and causal op id), how long each
// phase of detect -> contain -> reboot -> replay -> download -> [verify
// ->] resume took, what the shadow did (ops replayed, discrepancies,
// retries), and
// the flight-recorder tail leading up to the trip. The phase durations of
// a successful incident sum exactly to its downtime_ns, which in turn is
// the delta this recovery added to RaeStats::total_downtime.
//
// Incidents land in the process-global IncidentLog ring (dumped by
// `raefs stats <image> incidents`) and, when RaeOptions::incident_path is
// set, are also written as a JSON file alongside the image so the
// artifact survives the process. Schema: docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace raefs {
namespace obs {

struct Incident {
  uint64_t id = 0;        // monotonic per process, assigned on append
  bool ok = false;        // recovery completed (bug masked)
  Nanos t_begin = 0;      // simulated time at detection
  Nanos t_end = 0;        // simulated time at resume (or offline)

  // What tripped.
  int bug_id = -1;             // injected bug id, -1 = organic invariant trap
  std::string trigger_function;  // e.g. "BaseFs::unlink"
  std::string trigger_detail;
  uint64_t failed_op_seq = 0;  // op-log seq of the in-flight op (0 = none)
  uint64_t op_id = 0;          // causal trace op id of the in-flight op
  uint32_t tid = 0;            // thread that hit the bug
  std::string failure;         // why recovery failed ("" when ok)

  // Phase durations (simulated ns); sum to downtime_ns when ok.
  Nanos detect_ns = 0;
  Nanos contain_ns = 0;
  Nanos reboot_ns = 0;
  Nanos replay_ns = 0;
  Nanos download_ns = 0;
  Nanos verify_ns = 0;  // 0 unless RaeOptions::verify_after_recovery
  Nanos resume_ns = 0;
  Nanos downtime_ns = 0;

  // What the shadow did.
  uint64_t ops_replayed = 0;
  uint64_t discrepancies = 0;
  uint64_t shadow_retries = 0;  // transient refusals retried this incident
  uint64_t forced_syncs = 0;    // cumulative at incident time
  uint64_t download_retries = 0;  // install attempts re-run this incident

  // Concurrent IOs every recovery phase ran with (the base's
  // BaseFsOptions::async_workers).
  uint32_t workers = 0;

  // Flight-recorder tail at detection time (formatted lines, oldest
  // first), bounded so a report stays readable.
  std::vector<std::string> flight_tail;
};

/// One incident as a JSON object (names/messages escaped).
std::string incident_to_json(const Incident& inc);

class IncidentLog {
 public:
  /// Stamp `inc.id` and append (bounded ring: oldest dropped).
  /// Returns the assigned id.
  uint64_t append(Incident inc);

  /// Recorded incidents, oldest first.
  std::vector<Incident> snapshot() const;
  uint64_t total_recorded() const;
  void clear();

  /// All retained incidents as a JSON array.
  std::string to_json() const;

  static constexpr size_t kCapacity = 64;

 private:
  mutable std::mutex mu_;
  std::vector<Incident> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
};

/// Process-global incident log (the RAE supervisor appends here).
IncidentLog& incidents();

}  // namespace obs
}  // namespace raefs
