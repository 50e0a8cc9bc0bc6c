#include "obs/incident.h"

#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace raefs {
namespace obs {

std::string incident_to_json(const Incident& inc) {
  std::ostringstream os;
  os << "{\n"
     << "  \"id\": " << inc.id << ",\n"
     << "  \"ok\": " << (inc.ok ? "true" : "false") << ",\n"
     << "  \"t_begin_ns\": " << inc.t_begin << ",\n"
     << "  \"t_end_ns\": " << inc.t_end << ",\n"
     << "  \"trigger\": {\"bug_id\": " << inc.bug_id
     << ", \"function\": " << json_quote(inc.trigger_function)
     << ", \"detail\": " << json_quote(inc.trigger_detail)
     << ", \"failed_op_seq\": " << inc.failed_op_seq
     << ", \"op_id\": " << inc.op_id << ", \"tid\": " << inc.tid << "},\n"
     << "  \"failure\": " << json_quote(inc.failure) << ",\n"
     << "  \"phases_ns\": {\"detect\": " << inc.detect_ns
     << ", \"contain\": " << inc.contain_ns
     << ", \"reboot\": " << inc.reboot_ns
     << ", \"replay\": " << inc.replay_ns
     << ", \"download\": " << inc.download_ns
     << ", \"verify\": " << inc.verify_ns
     << ", \"resume\": " << inc.resume_ns << "},\n"
     << "  \"downtime_ns\": " << inc.downtime_ns << ",\n"
     << "  \"shadow\": {\"ops_replayed\": " << inc.ops_replayed
     << ", \"discrepancies\": " << inc.discrepancies
     << ", \"retries\": " << inc.shadow_retries
     << ", \"forced_syncs\": " << inc.forced_syncs << "},\n"
     << "  \"download\": {\"retries\": " << inc.download_retries << "},\n"
     << "  \"workers\": " << inc.workers << ",\n"
     << "  \"flight_tail\": [";
  for (size_t i = 0; i < inc.flight_tail.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n    " << json_quote(inc.flight_tail[i]);
  }
  os << (inc.flight_tail.empty() ? "]" : "\n  ]") << "\n}";
  return os.str();
}

uint64_t IncidentLog::append(Incident inc) {
  metrics().counter(kMObsIncidents).inc();
  std::lock_guard<std::mutex> lk(mu_);
  inc.id = ++total_;
  const uint64_t id = inc.id;
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(inc));
  } else {
    ring_[next_] = std::move(inc);
    next_ = (next_ + 1) % kCapacity;
  }
  return id;
}

std::vector<Incident> IncidentLog::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Incident> out;
  out.reserve(ring_.size());
  for (size_t i = next_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (size_t i = 0; i < next_; ++i) out.push_back(ring_[i]);
  return out;
}

uint64_t IncidentLog::total_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

void IncidentLog::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

std::string IncidentLog::to_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Incident& inc : snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\n" << incident_to_json(inc);
  }
  os << "\n]\n";
  return os.str();
}

IncidentLog& incidents() {
  static IncidentLog* g = new IncidentLog();  // never destroyed
  return *g;
}

}  // namespace obs
}  // namespace raefs
