// perfbench: wall-clock benchmark of raefs as an application uses it --
// Vfs over RaeSupervisor over BaseFs, on a MemBlockDevice behind a
// TimedBlockDevice (50/50/200 us read/write/flush, the default
// RealLatency), with default RaeOptions.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>]
//
// --trace 0 measures the end-to-end metrics for --seconds. --trace 1 runs
// a fixed op budget with the region-classifying device decorator and
// per-op spans, then drives one client's stream through Vfs, through
// RaeSupervisor directly and through bare BaseFs to isolate each layer's
// self time, and prints the per-layer metrics. Every run ends with a
// correctness verdict; the last stdout line is one JSON object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "basefs/base_fs.h"
#include "blockdev/mem_device.h"
#include "blockdev/timed_device.h"
#include "faults/bug_library.h"
#include "fsck/fsck.h"
#include "rae/supervisor.h"
#include "io_trace.h"
#include "targets.h"
#include "workload.h"

namespace perfbench {
namespace {

using raefs::BaseFs;
using raefs::MemBlockDevice;
using raefs::RaeSupervisor;

constexpr int kSetups = 5;              // set-ups per run; setup_s is their median
constexpr uint64_t kLayerOps = 2000;    // ops per layer pass in traced runs
constexpr int kTailBeyond = 10;         // samples beyond a reported tail
constexpr int kWindows = 5;             // windows of a run for ops_per_s, sync_p50_us

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir;
};

// ---------------------------------------------------------------------------
// statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile that has at least kTailBeyond samples beyond it.
struct Tail {
  double value = 0;
  double pct = 0;
  size_t n = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.size() <= static_cast<size_t>(kTailBeyond)) return t;
  std::sort(v.begin(), v.end());
  size_t idx = v.size() - kTailBeyond - 1;
  t.value = v[idx];
  t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// the stack under test

enum class Depth { kVfs, kSupervisor, kBare };

/// mkfs options: the defaults (1024 inodes, 128 journal blocks) on the
/// workload's device size.
raefs::MkfsOptions mkfs_options(const WorkloadSpec& spec) {
  raefs::MkfsOptions mk;
  mk.total_blocks = spec.device_blocks;
  return mk;
}

raefs::Geometry geometry_of(const WorkloadSpec& spec) {
  const raefs::MkfsOptions mk = mkfs_options(spec);
  return raefs::compute_geometry(mk.total_blocks, mk.inode_count,
                                 mk.journal_blocks)
      .value();
}

/// One mounted filesystem and the devices beneath it. Members are declared
/// bottom-up so destruction tears the stack down top-down.
struct Stack {
  explicit Stack(uint64_t seed) : bugs(seed ^ 0xB06B06ull) {}

  raefs::BlockDevice* top() const {
    if (region) return region.get();
    if (timed) return timed.get();
    return mem.get();
  }
  /// Drop the filesystem without unmounting (no write-back, like a crash)
  /// and hand back the memory device.
  std::unique_ptr<MemBlockDevice> release() {
    target.reset();
    sup.reset();
    bare.reset();
    region.reset();
    timed.reset();
    return std::move(mem);
  }

  std::unique_ptr<MemBlockDevice> mem;
  std::unique_ptr<raefs::TimedBlockDevice> timed;
  std::unique_ptr<RegionDevice> region;
  raefs::BugRegistry bugs;
  std::unique_ptr<RaeSupervisor> sup;
  std::unique_ptr<BaseFs> bare;
  std::unique_ptr<Target> target;
};

std::unique_ptr<Stack> open_stack(const WorkloadSpec& spec, uint64_t seed,
                                  std::unique_ptr<MemBlockDevice> mem,
                                  bool timed, bool traced, Depth depth,
                                  bool format, std::string* why) {
  auto s = std::make_unique<Stack>(seed);
  s->mem = std::move(mem);
  if (timed) {
    s->timed = std::make_unique<raefs::TimedBlockDevice>(s->mem.get(),
                                                         raefs::RealLatency{});
  }
  if (traced) {
    s->region = std::make_unique<RegionDevice>(s->top(), geometry_of(spec));
  }
  if (format) {
    auto st = BaseFs::mkfs(s->top(), mkfs_options(spec));
    if (!st.ok()) {
      *why = std::string("mkfs: ") + raefs::to_string(st.error());
      return nullptr;
    }
  }
  const raefs::RaeOptions opts;
  if (depth == Depth::kBare) {
    auto fs = BaseFs::mount(s->top(), opts.base);
    if (!fs.ok()) {
      *why = std::string("mount: ") + raefs::to_string(fs.error());
      return nullptr;
    }
    s->bare = std::move(fs).value();
    s->target = std::make_unique<DirectTarget<BaseFs>>(s->bare.get());
    return s;
  }
  auto sup = RaeSupervisor::start(s->top(), opts, nullptr, &s->bugs);
  if (!sup.ok()) {
    *why = std::string("supervised mount: ") + raefs::to_string(sup.error());
    return nullptr;
  }
  s->sup = std::move(sup).value();
  if (depth == Depth::kVfs) {
    s->target = std::make_unique<VfsTarget<RaeSupervisor>>(s->sup.get());
  } else {
    s->target = std::make_unique<DirectTarget<RaeSupervisor>>(s->sup.get());
  }
  return s;
}

/// mkfs + mount + prepopulation of every client: what setup_s measures.
struct Setup {
  std::unique_ptr<Stack> stack;
  std::vector<Client> clients;
};

bool build_setup(const WorkloadSpec& spec, uint64_t seed, bool timed,
                 Setup* out, std::string* why) {
  out->stack = open_stack(spec, seed,
                          std::make_unique<MemBlockDevice>(spec.device_blocks),
                          timed, false, Depth::kVfs, true, why);
  if (!out->stack) return false;
  out->clients.clear();
  for (int i = 0; i < spec.clients; ++i) {
    out->clients.emplace_back(spec, i, seed);
    if (!out->clients.back().populate(*out->stack->target, why)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// driving the clients

void add_stats(raefs::BaseFsStats* a, const raefs::BaseFsStats& b) {
  a->ops += b.ops;
  a->commits += b.commits;
  a->checkpoints += b.checkpoints;
  a->journal_replays_at_mount += b.journal_replays_at_mount;
  a->block_cache_hits += b.block_cache_hits;
  a->block_cache_misses += b.block_cache_misses;
  a->block_cache_cow_clones += b.block_cache_cow_clones;
  a->block_cache_bytes_copied += b.block_cache_bytes_copied;
  a->dentry_hits += b.dentry_hits;
  a->dentry_misses += b.dentry_misses;
  a->inode_cache_hits += b.inode_cache_hits;
  a->inode_cache_misses += b.inode_cache_misses;
  a->extent_walks += b.extent_walks;
  a->extent_hint_hits += b.extent_hint_hits;
}

/// Single-client hooks: spot recovering ops through RaeStats::recoveries,
/// arm the injected faults, and (traced) sample the counters that restart
/// with every base instance just before each op, so they can be summed
/// across recoveries. RaeStats is not safe to read concurrently, which is
/// why multi-client runs use no hooks.
class SupervisorHooks final : public OpHooks {
 public:
  SupervisorHooks(RaeSupervisor* sup, raefs::BugRegistry* bugs,
                  const WorkloadSpec& spec, uint64_t seed, bool sample)
      : sup_(sup),
        bugs_(bugs),
        fault_every_(static_cast<uint64_t>(spec.fault_every)),
        sample_(sample),
        rng_(seed ^ 0xFA017ull) {
    if (fault_every_ > 0) next_fault_ = rng_.below(fault_every_);
  }

  void before(uint64_t op_index) override {
    if (sample_) {
      pre_base_ = sup_->base_stats();
      pre_oplog_ = sup_->oplog_stats();
    }
    recoveries_ = sup_->stats().recoveries;
    // Exactly one panic per fault_every ops, at a seeded position in each
    // window: the rate is fixed, only the positions vary with the seed.
    if (fault_every_ > 0 && op_index == next_fault_) {
      raefs::BugSpec bug =
          raefs::bugs::make(raefs::bugs::kTransientPanic, 1.0);
      bug.max_fires = 1;
      bugs_->install(std::move(bug));
      ++armed_;
      next_fault_ = (op_index / fault_every_ + 1) * fault_every_ +
                    rng_.below(fault_every_);
    }
  }

  bool after() override {
    if (sup_->stats().recoveries == recoveries_) return false;
    if (sample_) {
      add_stats(&dead_instances_, pre_base_);
      oplog_records_.push_back(static_cast<double>(pre_oplog_.live_records));
      oplog_bytes_.push_back(static_cast<double>(pre_oplog_.live_bytes));
    }
    return true;
  }

  uint64_t armed() const { return armed_; }
  /// Base counters summed over every instance this run has seen.
  raefs::BaseFsStats base_total() const {
    raefs::BaseFsStats s = dead_instances_;
    add_stats(&s, sup_->base_stats());
    return s;
  }
  const std::vector<double>& oplog_records() const { return oplog_records_; }
  const std::vector<double>& oplog_bytes() const { return oplog_bytes_; }

 private:
  RaeSupervisor* sup_;
  raefs::BugRegistry* bugs_;
  uint64_t fault_every_;
  bool sample_;
  raefs::Rng rng_;
  uint64_t next_fault_ = 0;
  uint64_t armed_ = 0;
  uint64_t recoveries_ = 0;
  raefs::BaseFsStats pre_base_;
  raefs::OpLogStats pre_oplog_;
  raefs::BaseFsStats dead_instances_;
  std::vector<double> oplog_records_;
  std::vector<double> oplog_bytes_;
};

/// Closed loop: every client issues its next op as soon as the previous
/// one returns, until `deadline` (if nonzero) or until it has attempted
/// `budget` ops (if nonzero). Returns the elapsed wall time.
int64_t drive(std::vector<Client>& clients, Target& target,
              std::vector<Recorder>& recs, int64_t deadline,
              uint64_t budget) {
  auto loop = [&](size_t i) {
    try {
      for (;;) {
        if (deadline != 0 && now_ns() >= deadline) break;
        if (budget != 0 && recs[i].attempted() >= budget) break;
        clients[i].step(target, recs[i]);
      }
    } catch (const std::exception& e) {
      // Nothing may escape the supervisor; if something does, the run
      // fails instead of the process.
      recs[i].fail(std::string("uncaught exception: ") + e.what(),
                   Errno::kInval);
    }
  };
  int64_t start = now_ns();
  if (clients.size() == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients.size(); ++i) threads.emplace_back(loop, i);
    for (auto& t : threads) t.join();
  }
  return now_ns() - start;
}

// ---------------------------------------------------------------------------
// correctness verdict

struct Verdict {
  bool correct = true;
  std::string why;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t eio = 0;
  uint64_t lost_acked = 0;
  raefs::RaeStats rae;

  void reject(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

/// Run after the measured ops: sync (the last acknowledged durability
/// point), check the supervisor's books, cut power (MemBlockDevice::crash
/// drops every unflushed write), remount bare, compare every file with
/// the model, unmount and run a strict fsck.
Verdict judge(std::unique_ptr<Stack> stack, const std::vector<Client>& clients,
              const std::vector<Recorder>& recs) {
  Verdict v;
  for (const Recorder& r : recs) {
    v.attempted += r.attempted();
    v.failed += r.failed();
    v.eio += r.eio();
    if (r.failed() != 0) v.reject(r.first_failure());
  }
  if (v.eio != 0) v.reject(std::to_string(v.eio) + " EIO result(s)");

  auto st = stack->target->sync();
  if (!st.ok()) v.reject(std::string("final sync: ") + raefs::to_string(st.error()));
  v.rae = stack->sup->stats();
  if (v.rae.failed_recoveries != 0) {
    v.reject(std::to_string(v.rae.failed_recoveries) + " failed recoveries: " +
             v.rae.last_failure);
  }
  if (v.rae.recoveries != v.rae.panics_trapped) {
    v.reject("recoveries " + std::to_string(v.rae.recoveries) +
             " != panics trapped " + std::to_string(v.rae.panics_trapped));
  }

  std::unique_ptr<MemBlockDevice> mem = stack->release();
  mem->crash();
  auto fs = BaseFs::mount(mem.get(), raefs::BaseFsOptions{});
  if (!fs.ok()) {
    v.reject(std::string("remount after power cut: ") +
             raefs::to_string(fs.error()));
    return v;
  }
  {
    DirectTarget<BaseFs> bare(fs.value().get());
    for (const Client& c : clients) {
      std::string why;
      v.lost_acked += c.mismatched_files(bare, &why);
      if (!why.empty()) v.reject("after power cut: " + why);
    }
  }
  st = fs.value()->unmount();
  if (!st.ok()) v.reject(std::string("unmount: ") + raefs::to_string(st.error()));
  fs.value().reset();
  auto report = raefs::fsck(mem.get(), raefs::FsckLevel::kStrict);
  if (!report.ok()) {
    v.reject(std::string("fsck: ") + raefs::to_string(report.error()));
  } else if (!report.value().clean()) {
    v.reject("fsck: " + report.value().summary());
  }
  return v;
}

// ---------------------------------------------------------------------------
// output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (v.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(v.attempted) +
                    ", \"failed\": " + std::to_string(v.failed) +
                    ", \"metrics\": {";
  if (v.correct) {
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + metrics[i].name + "\": {\"value\": " +
             fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_verdict(const Verdict& v) {
  std::printf("  attempted %llu ops, failed %llu (EIO %llu), lost_acked_ops %llu\n",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed),
              static_cast<unsigned long long>(v.eio),
              static_cast<unsigned long long>(v.lost_acked));
  std::printf("  recoveries %llu, panics trapped %llu, failed recoveries %llu\n",
              static_cast<unsigned long long>(v.rae.recoveries),
              static_cast<unsigned long long>(v.rae.panics_trapped),
              static_cast<unsigned long long>(v.rae.failed_recoveries));
  std::printf("  verdict: %s%s%s\n", v.correct ? "correct" : "INCORRECT",
              v.correct ? "" : " -- ", v.why.c_str());
}

std::vector<double> class_us(const std::vector<Recorder>& recs, OpClass cls) {
  std::vector<double> out;
  for (const Recorder& r : recs) {
    for (const OpSample& s : r.samples()) {
      if (s.cls == cls) out.push_back(static_cast<double>(s.end - s.start) / 1e3);
    }
  }
  return out;
}

/// Per-window figures over kWindows equal windows of [start, start + wall):
/// ops completed per second, and the median latency of the syncs that
/// completed in the window. The result reports the median over windows,
/// so a stall of the host that covers part of a run does not move it.
struct Windows {
  std::vector<double> ops_per_s;
  std::vector<double> sync_p50_us;
};

Windows windowed(const std::vector<Recorder>& recs, int64_t start,
                 int64_t wall) {
  const int64_t len = wall / kWindows;
  std::vector<uint64_t> ops(kWindows, 0);
  std::vector<std::vector<double>> sync_us(kWindows);
  for (const Recorder& r : recs) {
    for (const OpSample& s : r.samples()) {
      int64_t w = std::clamp<int64_t>((s.end - start) / len, 0, kWindows - 1);
      ++ops[w];
      if (s.cls == OpClass::kSync) {
        sync_us[w].push_back(static_cast<double>(s.end - s.start) / 1e3);
      }
    }
  }
  Windows out;
  for (int w = 0; w < kWindows; ++w) {
    out.ops_per_s.push_back(static_cast<double>(ops[w]) /
                            (static_cast<double>(len) / 1e9));
    if (!sync_us[w].empty()) out.sync_p50_us.push_back(median(sync_us[w]));
  }
  return out;
}

std::vector<double> recovery_ms(const std::vector<Recorder>& recs) {
  std::vector<double> out;
  for (const Recorder& r : recs) {
    for (const OpSample& s : r.samples()) {
      if (s.recovered) out.push_back(static_cast<double>(s.end - s.start) / 1e6);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

int run_untraced(const WorkloadSpec& spec, const Args& args) {
  std::vector<double> setup_s;
  Setup setup;
  std::string why;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // free the previous stack first
    int64_t t0 = now_ns();
    if (!build_setup(spec, args.seed, true, &setup, &why)) {
      std::fprintf(stderr, "setup failed: %s\n", why.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Stack& stack = *setup.stack;
  std::vector<Recorder> recs;
  std::unique_ptr<SupervisorHooks> hooks;
  if (spec.clients == 1) {
    hooks = std::make_unique<SupervisorHooks>(stack.sup.get(), &stack.bugs,
                                              spec, args.seed, false);
  }
  for (int i = 0; i < spec.clients; ++i) recs.emplace_back(hooks.get());
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t wall = drive(setup.clients, *stack.target, recs, deadline, 0);
  uint64_t armed = hooks ? hooks->armed() : 0;
  hooks.reset();

  Verdict v = judge(std::move(setup.stack), setup.clients, recs);
  if (v.correct && v.rae.panics_trapped != armed) {
    v.reject("panics trapped " + std::to_string(v.rae.panics_trapped) +
             " != faults armed " + std::to_string(armed));
  }

  // The result carries the metrics that device time dominates on every
  // workload. The rest are printed for the report only: the read, write
  // and metadata medians are CPU-bound microseconds on two of the three
  // workloads and drift with the host's speed by up to a fifth between
  // sets of runs; the sync tail does not repeat within a tenth on
  // varmail-4c; recoveries happen on one workload; failures and lost
  // acknowledged ops must be 0 for the run to count (perfbench/README.md).
  const Windows win = windowed(recs, start, wall);
  std::vector<Metric> m = {
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", median(win.ops_per_s), "1/s"},
      {"sync_p50_us", median(win.sync_p50_us), "us"},
  };
  std::vector<Metric> reported;
  const std::pair<const char*, OpClass> classes[] = {
      {"read_p50_us", OpClass::kRead},
      {"write_p50_us", OpClass::kWrite},
      {"meta_p50_us", OpClass::kMeta},
      {"sync_p50_us", OpClass::kSync}};
  for (const auto& [name, cls] : classes) {
    std::vector<double> us = class_us(recs, cls);
    if (us.empty()) v.reject(std::string("no samples for ") + name);
    if (cls != OpClass::kSync) reported.push_back({name, median(us), "us"});
  }
  Tail sync_tail = tail_of(class_us(recs, OpClass::kSync));
  std::vector<double> rec_ms = recovery_ms(recs);
  Tail rec_tail = tail_of(rec_ms);
  reported.push_back({"sync_tail_us", sync_tail.value, "us"});
  reported.push_back({"recovery_p50_ms", median(rec_ms), "ms"});
  reported.push_back({"recovery_tail_ms", rec_tail.value, "ms"});
  reported.push_back({"failed_op_share",
                      ratio(static_cast<double>(v.failed),
                            static_cast<double>(v.attempted)),
                      "share"});
  reported.push_back({"lost_acked_ops", static_cast<double>(v.lost_acked),
                      "count"});

  std::printf("workload %s seed %llu seconds %g (untraced)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds);
  for (const Metric& x : m) {
    std::printf("  %-16s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("  reported only:\n");
  for (const Metric& x : reported) {
    std::printf("  %-16s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("  sync_tail_us is p%.2f of %zu syncs; recovery_tail_ms is "
              "p%.2f of %zu recoveries (%d samples beyond each)\n",
              sync_tail.pct, sync_tail.n, rec_tail.pct, rec_tail.n,
              kTailBeyond);
  print_verdict(v);
  print_result(v, m);
  return v.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

/// Build the populated image once, on a latency-free device, and unmount
/// it cleanly; every traced pass mounts its own copy.
bool prepare_image(const WorkloadSpec& spec, uint64_t seed,
                   std::unique_ptr<MemBlockDevice>* image,
                   std::vector<Client>* clients, std::string* why) {
  Setup s;
  if (!build_setup(spec, seed, false, &s, why)) return false;
  auto st = s.stack->sup->shutdown();
  if (!st.ok()) {
    *why = std::string("shutdown: ") + raefs::to_string(st.error());
    return false;
  }
  *image = s.stack->release();
  *clients = s.clients;
  return true;
}

/// Per-op time not covered by device IO, in ns (ops in start order).
std::vector<int64_t> off_device_ns(const std::vector<OpSample>& ops,
                                   const std::vector<IoSpan>& spans) {
  auto busy = busy_intervals(spans);
  size_t cursor = 0;
  std::vector<int64_t> out;
  out.reserve(ops.size());
  for (const OpSample& op : ops) {
    out.push_back(op.end - op.start - covered(busy, &cursor, op.start, op.end));
  }
  return out;
}

/// One lane of the lockstep layer passes: its own copy of the image and
/// stack, and its own copy of client 0 (so its own copy of the stream).
struct Lane {
  std::unique_ptr<Stack> stack;
  Client client;
  Recorder rec;
  std::vector<IoSpan> spans;
  int64_t op_ns = 0;  // summed op latency
};

enum LaneId { kVfsPlain, kVfsTraced, kSupTraced, kBareTraced, kNumLanes };

/// Drive client 0's stream (no faults) for kLayerOps ops through Vfs
/// (untraced and traced), RaeSupervisor and bare BaseFs. The lanes advance
/// in lockstep, one action each in turn, so drift in the host's speed
/// lands on all of them alike.
bool layer_passes(const WorkloadSpec& spec, uint64_t seed,
                  const MemBlockDevice& image, const Client& client0,
                  std::vector<Lane>* lanes, std::string* why) {
  const Depth depth[kNumLanes] = {Depth::kVfs, Depth::kVfs,
                                  Depth::kSupervisor, Depth::kBare};
  for (int i = 0; i < kNumLanes; ++i) {
    auto stack = open_stack(spec, seed, image.clone_full(), true,
                            i != kVfsPlain, depth[i], false, why);
    if (!stack) return false;
    lanes->push_back(Lane{std::move(stack), client0, Recorder{}, {}, 0});
    if (!lanes->back().client.reopen(*lanes->back().stack->target, why)) {
      return false;
    }
  }
  for (Lane& l : *lanes) {
    if (l.stack->region) l.stack->region->set_active(true);
  }
  while ((*lanes)[0].rec.attempted() < kLayerOps) {
    for (Lane& l : *lanes) l.client.step(*l.stack->target, l.rec);
  }
  for (Lane& l : *lanes) {
    if (l.stack->region) {
      l.stack->region->set_active(false);
      l.spans = l.stack->region->spans();
    }
    for (const OpSample& s : l.rec.samples()) l.op_ns += s.end - s.start;
    if (l.rec.failed() != 0) {
      *why = "layer pass: " + l.rec.first_failure();
      return false;
    }
    if (l.rec.attempted() != (*lanes)[0].rec.attempted()) {
      *why = "layer passes diverged: the same stream gave different op counts";
      return false;
    }
  }
  return true;
}

/// Median of the per-op difference a[i] - b[i], in us.
double paired_median_us(const std::vector<int64_t>& a,
                        const std::vector<int64_t>& b) {
  std::vector<double> d;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d.push_back(static_cast<double>(a[i] - b[i]) / 1e3);
  }
  return median(d);
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  std::string why;
  std::unique_ptr<MemBlockDevice> image;
  std::vector<Client> prepared;
  if (!prepare_image(spec, args.seed, &image, &prepared, &why)) {
    std::fprintf(stderr, "setup failed: %s\n", why.c_str());
    return 1;
  }

  // --- main pass: the workload itself, with the device decorator --------
  auto stack = open_stack(spec, args.seed, image->clone_full(), true, true,
                          Depth::kVfs, false, &why);
  if (!stack) {
    std::fprintf(stderr, "mount failed: %s\n", why.c_str());
    return 1;
  }
  std::vector<Client> clients = prepared;
  for (Client& c : clients) {
    if (!c.reopen(*stack->target, &why)) {
      std::fprintf(stderr, "%s\n", why.c_str());
      return 1;
    }
  }
  std::unique_ptr<SupervisorHooks> hooks;
  if (spec.clients == 1) {
    hooks = std::make_unique<SupervisorHooks>(stack->sup.get(), &stack->bugs,
                                              spec, args.seed, true);
  }
  std::vector<Recorder> recs;
  for (int i = 0; i < spec.clients; ++i) recs.emplace_back(hooks.get());
  const uint64_t budget = static_cast<uint64_t>(
      std::ceil(static_cast<double>(spec.traced_ops_per_s) * args.seconds /
                spec.clients));
  RegionDevice& dev = *stack->region;
  dev.set_active(true);
  int64_t wall = drive(clients, *stack->target, recs, 0, budget);
  dev.set_active(false);
  const raefs::BaseFsStats base =
      hooks ? hooks->base_total() : stack->sup->base_stats();
  const uint64_t armed = hooks ? hooks->armed() : 0;
  std::vector<IoSpan> spans = dev.spans();
  std::vector<uint64_t> counts[kNumIoTypes];
  for (int t = 0; t < kNumIoTypes; ++t) {
    for (int r = 0; r <= kNumRegions; ++r) {
      counts[t].push_back(dev.count(static_cast<IoType>(t), static_cast<Region>(r)));
    }
  }
  std::vector<double> oplog_records, oplog_bytes;
  if (hooks) {
    oplog_records = hooks->oplog_records();
    oplog_bytes = hooks->oplog_bytes();
  }
  hooks.reset();
  Verdict v = judge(std::move(stack), clients, recs);
  if (v.correct && v.rae.panics_trapped != armed) {
    v.reject("panics trapped " + std::to_string(v.rae.panics_trapped) +
             " != faults armed " + std::to_string(armed));
  }

  // Ops of all clients in start order, and their IO.
  std::vector<OpSample> ops;
  uint64_t bytes_written = 0;
  for (const Recorder& r : recs) {
    ops.insert(ops.end(), r.samples().begin(), r.samples().end());
    bytes_written += r.bytes_written();
  }
  std::sort(ops.begin(), ops.end(),
            [](const OpSample& a, const OpSample& b) { return a.start < b.start; });
  const double n_ops = static_cast<double>(ops.size());
  double n_sync = 0;
  for (const OpSample& s : ops) n_sync += s.cls == OpClass::kSync;

  // Recovering ops: their stall split into device time and the rest, and
  // the journal-region reads they issued.
  auto busy = busy_intervals(spans);
  size_t cursor = 0;
  std::vector<double> stall_ms, device_ms, other_ms;
  uint64_t recovery_journal_reads = 0, recovery_journal_writes = 0;
  for (const OpSample& s : ops) {
    if (!s.recovered) continue;
    int64_t dev_ns = covered(busy, &cursor, s.start, s.end);
    stall_ms.push_back(static_cast<double>(s.end - s.start) / 1e6);
    device_ms.push_back(static_cast<double>(dev_ns) / 1e6);
    other_ms.push_back(static_cast<double>(s.end - s.start - dev_ns) / 1e6);
    auto it = std::lower_bound(
        spans.begin(), spans.end(), s.start,
        [](const IoSpan& io, int64_t t) { return io.start < t; });
    for (; it != spans.end() && it->start < s.end; ++it) {
      if (it->region != kJournal) continue;
      if (it->type == kIoRead) ++recovery_journal_reads;
      if (it->type == kIoWrite) ++recovery_journal_writes;
    }
  }
  const double recoveries = static_cast<double>(stall_ms.size());

  std::vector<double> io_us[kNumIoTypes];
  double io_total_ns = 0, busy_ns = 0;
  for (const IoSpan& s : spans) {
    io_us[s.type].push_back(static_cast<double>(s.end - s.start) / 1e3);
    io_total_ns += static_cast<double>(s.end - s.start);
  }
  for (const auto& [b, e] : busy) busy_ns += static_cast<double>(e - b);
  uint64_t device_writes = 0;
  for (int r = 0; r < kNumRegions; ++r) device_writes += counts[kIoWrite][r];

  // --- layer passes: one client's stream at three depths ----------------
  std::vector<Lane> lanes;
  if (!layer_passes(spec, args.seed, *image, prepared[0], &lanes, &why)) {
    v.reject(why);
  }
  std::vector<int64_t> off[kNumLanes];
  for (size_t i = 0; i < lanes.size(); ++i) {
    off[i] = off_device_ns(lanes[i].rec.samples(), lanes[i].spans);
  }
  const std::vector<int64_t>& vfs_off = off[kVfsTraced];
  const std::vector<int64_t>& sup_off = off[kSupTraced];
  const std::vector<int64_t>& bare_off = off[kBareTraced];
  const double trace_overhead =
      lanes.size() == kNumLanes
          ? ratio(static_cast<double>(lanes[kVfsTraced].op_ns -
                                      lanes[kVfsPlain].op_ns),
                  static_cast<double>(lanes[kVfsPlain].op_ns))
          : 0;

  std::vector<Metric> m = {
      {"vfs.self_us_p50", paired_median_us(vfs_off, sup_off), "us"},
      {"rae.record_self_us_p50", paired_median_us(sup_off, bare_off), "us"},
      {"rae.recoveries", static_cast<double>(v.rae.recoveries), "count"},
      {"rae.failed_recoveries", static_cast<double>(v.rae.failed_recoveries), "count"},
      {"rae.forced_syncs", static_cast<double>(v.rae.forced_syncs), "count"},
      {"rae.ops_replayed_per_recovery",
       ratio(static_cast<double>(v.rae.ops_replayed_total),
             static_cast<double>(v.rae.recoveries)),
       "ops"},
      {"rae.oplog_records_at_fault_p50", median(oplog_records), "records"},
      {"rae.oplog_bytes_at_fault_p50", median(oplog_bytes), "B"},
      {"rae.recovery_p50_ms", median(stall_ms), "ms"},
      {"rae.recovery_tail_ms", tail_of(stall_ms).value, "ms"},
      {"rae.recovery_device_ms_p50", median(device_ms), "ms"},
      {"rae.recovery_other_ms_p50", median(other_ms), "ms"},
      {"journal.commits_per_1k_ops",
       ratio(1000.0 * static_cast<double>(base.commits), n_ops), "count"},
      {"journal.fsyncs_per_commit",
       ratio(n_sync, static_cast<double>(base.commits)), "ratio"},
      {"journal.checkpoints", static_cast<double>(base.checkpoints), "count"},
      {"journal.reread_ratio",
       ratio(static_cast<double>(counts[kIoRead][kJournal] - recovery_journal_reads),
             static_cast<double>(counts[kIoWrite][kJournal] - recovery_journal_writes)),
       "ratio"},
      {"journal.recovery_reads",
       ratio(static_cast<double>(recovery_journal_reads), recoveries), "count"},
      {"cache.block_hit_ratio",
       ratio(static_cast<double>(base.block_cache_hits),
             static_cast<double>(base.block_cache_hits + base.block_cache_misses)),
       "ratio"},
      {"cache.inode_hit_ratio",
       ratio(static_cast<double>(base.inode_cache_hits),
             static_cast<double>(base.inode_cache_hits + base.inode_cache_misses)),
       "ratio"},
      {"cache.dentry_hit_ratio",
       ratio(static_cast<double>(base.dentry_hits),
             static_cast<double>(base.dentry_hits + base.dentry_misses)),
       "ratio"},
      {"cache.bytes_copied_per_op",
       ratio(static_cast<double>(base.block_cache_bytes_copied), n_ops), "B"},
      {"basefs.self_us_p50", median([&] {
         std::vector<double> d;
         for (int64_t x : bare_off) d.push_back(static_cast<double>(x) / 1e3);
         return d;
       }()),
       "us"},
      {"basefs.extent_hint_ratio",
       ratio(static_cast<double>(base.extent_hint_hits),
             static_cast<double>(base.extent_hint_hits + base.extent_walks)),
       "ratio"},
  };
  for (int r = 0; r < kNumRegions; ++r) {
    std::string prefix = std::string("blockdev.") + kRegionNames[r];
    m.push_back({prefix + ".reads", static_cast<double>(counts[kIoRead][r]), "count"});
    m.push_back({prefix + ".writes", static_cast<double>(counts[kIoWrite][r]), "count"});
  }
  m.push_back({"blockdev.flushes_per_sync",
               ratio(static_cast<double>(counts[kIoFlush][kNumRegions]), n_sync),
               "ratio"});
  m.push_back({"blockdev.write_amp",
               ratio(static_cast<double>(device_writes) * raefs::kBlockSize,
                     static_cast<double>(bytes_written)),
               "ratio"});
  m.push_back({"blockdev.busy_share", ratio(busy_ns, static_cast<double>(wall)),
               "ratio"});
  m.push_back({"blockdev.queue_depth_mean",
               ratio(io_total_ns, static_cast<double>(wall)), "ios"});
  m.push_back({"blockdev.read_us_p50", median(io_us[kIoRead]), "us"});
  m.push_back({"blockdev.write_us_p50", median(io_us[kIoWrite]), "us"});
  m.push_back({"blockdev.flush_us_p50", median(io_us[kIoFlush]), "us"});
  m.push_back({"trace.overhead_share", trace_overhead, "ratio"});

  if (!args.spans_dir.empty()) {
    std::filesystem::create_directories(args.spans_dir);
    std::string stem = args.spans_dir + "/" + spec.name + "-seed" +
                       std::to_string(args.seed);
    std::ofstream opf(stem + ".ops.tsv");
    opf << "start_ns\tend_ns\tclass\trecovered\n";
    for (const OpSample& s : ops) {
      opf << s.start << '\t' << s.end << '\t' << static_cast<int>(s.cls)
          << '\t' << s.recovered << '\n';
    }
    std::ofstream iof(stem + ".io.tsv");
    iof << "start_ns\tend_ns\top_id\tthread\ttype\tregion\n";
    for (const IoSpan& s : spans) {
      iof << s.start << '\t' << s.end << '\t' << s.op_id << '\t' << s.thread
          << '\t' << static_cast<int>(s.type) << '\t'
          << static_cast<int>(s.region) << '\n';
    }
  }

  std::printf("workload %s seed %llu, traced: %llu ops, %zu IOs, %.3f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(ops.size()), spans.size(),
              static_cast<double>(wall) / 1e9);
  for (const Metric& x : m) {
    std::printf("  %-34s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  print_verdict(v);
  print_result(v, m);
  return v.correct ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], val = argv[i + 1];
    if (k == "--workload") a->workload = val;
    else if (k == "--seed") a->seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(val.c_str(), nullptr);
    else if (k == "--trace") a->trace = val == "1";
    else if (k == "--spans-dir") a->spans_dir = val;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::run_traced(*spec, args)
                    : perfbench::run_untraced(*spec, args);
}
