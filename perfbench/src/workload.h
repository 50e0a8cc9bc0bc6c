// Workload generators with an exact model of every file's acknowledged
// contents. A client's op stream depends only on its seed and its model,
// never on timing, so the same seed yields the same stream at every depth
// of the stack (targets.h) and on every run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io_trace.h"
#include "targets.h"

namespace perfbench {

enum class OpClass : uint8_t { kRead, kWrite, kMeta, kSync };
inline constexpr int kNumOpClasses = 4;

struct WorkloadSpec {
  std::string name;
  enum class Mix : uint8_t { kFileserver, kVarmail } mix;
  int clients = 1;
  int dirs_per_client = 1;
  int files_per_client = 1;  // steady-state file count per client
  uint64_t file_bytes = 0;   // fileserver: size of every file
  uint64_t read_bytes = 0;   // fileserver: pread size
  uint64_t write_bytes = 0;  // fileserver: pwrite size; varmail: max append
  int sync_every = 0;        // fileserver: sync after this many ops
  int fault_every = 0;       // one injected panic per this many ops (0: none)
  uint64_t device_blocks = 0;
  // Traced runs execute a fixed op budget (so every count repeats exactly
  // for a seed): this many ops per second of --seconds.
  uint64_t traced_ops_per_s = 0;
};

const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

struct OpSample {
  int64_t start = 0;
  int64_t end = 0;
  OpClass cls = OpClass::kMeta;
  bool recovered = false;  // RaeStats::recoveries advanced during the op
};

/// Called around every timed op. Single-client runs use it to read the
/// supervisor's counters between ops and to arm injected faults.
class OpHooks {
 public:
  virtual ~OpHooks() = default;
  virtual void before(uint64_t op_index) = 0;
  /// True if the op just finished ran a recovery.
  virtual bool after() = 0;
};

/// Times each op and tallies failures for one client.
class Recorder {
 public:
  explicit Recorder(OpHooks* hooks = nullptr) : hooks_(hooks) {}

  template <typename F>
  auto time(OpClass cls, F&& op) {
    if (hooks_) hooks_->before(attempted_);
    ++attempted_;
    t_op_id = next_op_id();
    int64_t t0 = now_ns();
    auto result = op();
    int64_t t1 = now_ns();
    t_op_id = 0;
    bool recovered = hooks_ && hooks_->after();
    samples_.push_back(OpSample{t0, t1, cls, recovered});
    return result;
  }

  /// Count a failed op: an error result or a result the model disagrees
  /// with. Keeps the first description for the report.
  void fail(const std::string& what, Errno err);
  void add_bytes_written(uint64_t n) { bytes_written_ += n; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t eio() const { return eio_; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& first_failure() const { return first_failure_; }
  const std::vector<OpSample>& samples() const { return samples_; }

 private:
  static uint64_t next_op_id();

  OpHooks* hooks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t eio_ = 0;
  uint64_t bytes_written_ = 0;
  std::string first_failure_;
  std::vector<OpSample> samples_;
};

/// One closed-loop client: its own directories, files and model.
class Client {
 public:
  Client(const WorkloadSpec& spec, int index, uint64_t seed);

  /// Create the client's directories and files (untimed set-up ops).
  bool populate(Target& fs, std::string* why);
  /// Reacquire the handles the model holds open, after a fresh mount.
  bool reopen(Target& fs, std::string* why);
  /// Run one action of the mix (one or more timed ops).
  void step(Target& fs, Recorder& rec);
  /// Files whose namespace entry, size or bytes differ from the model.
  uint64_t mismatched_files(Target& fs, std::string* why) const;

 private:
  struct File {
    std::string path;
    std::vector<uint8_t> data;
    Handle handle;  // fileserver keeps every file open
  };

  void fileserver_step(Target& fs, Recorder& rec);
  void varmail_step(Target& fs, Recorder& rec);
  bool create_file(Target& fs, Recorder& rec, uint64_t bytes, bool keep_open);
  void unlink_file(Target& fs, Recorder& rec, size_t idx);
  bool read_check(Target& fs, Recorder& rec, const File& f, uint64_t off,
                  uint64_t len);
  std::vector<uint8_t> random_bytes(uint64_t n);
  std::string dir_of(size_t i) const;
  std::string new_name();

  const WorkloadSpec* spec_;
  int index_;
  raefs::Rng rng_;
  std::vector<File> files_;
  uint64_t next_name_ = 0;
  uint64_t ops_since_sync_ = 0;
};

}  // namespace perfbench
