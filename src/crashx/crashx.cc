#include "crashx/crashx.h"

#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include "blockdev/fault_device.h"
#include "blockdev/mem_device.h"
#include "common/panic.h"
#include "common/rng.h"
#include "fsck/fsck.h"
#include "tests/support/fs_compare.h"
#include "tests/support/model_fs.h"

namespace raefs {
namespace crashx {

namespace {

BaseFsOptions base_opts() {
  BaseFsOptions o;
  // One block-layer worker: write-back is submitted in block order and a
  // batched read runs in order on the caller, so a single worker makes the
  // device IO order a pure function of the workload -- the property that
  // lets a write or read index name a crash point. With more workers the
  // per-block requests complete in whatever order the threads run.
  o.async_workers = 1;
  return o;
}

MkfsOptions mkfs_opts(const CrashxOptions& o) {
  MkfsOptions mk;
  mk.total_blocks = o.total_blocks;
  mk.inode_count = o.inode_count;
  mk.journal_blocks = o.journal_blocks;
  return mk;
}

Result<std::unique_ptr<MemBlockDevice>> make_master(const CrashxOptions& o) {
  auto mem = std::make_unique<MemBlockDevice>(o.total_blocks);
  RAEFS_TRY_VOID(BaseFs::mkfs(mem.get(), mkfs_opts(o)));
  RAEFS_TRY_VOID(mem->flush());
  return mem;
}

/// Oracle snapshot at a moment when everything the model holds is durable.
struct DurablePoint {
  uint64_t writes = 0;   // device write count when the sync returned
  size_t op_index = 0;   // ops [0, op_index) were applied by then
  ModelFs model;
};

struct Baseline {
  std::vector<DurablePoint> points;
  uint64_t total_writes = 0;
  uint64_t total_reads = 0;
  uint64_t total_flushes = 0;
};

Result<Baseline> run_baseline(const MemBlockDevice& master,
                              const CrashxOptions& o,
                              const std::vector<Op>& ops) {
  auto mem = master.clone_full();
  FaultBlockDevice fdev(mem.get());
  Baseline bl;
  ModelFs model(o.inode_count);

  RAEFS_TRY(auto fs, BaseFs::mount(&fdev, base_opts()));
  bl.points.push_back(DurablePoint{fdev.writes_seen(), 0, model});

  for (size_t i = 0; i < ops.size(); ++i) {
    Errno e = apply_op(*fs, &model, ops[i], o.seed, i);
    bool is_sync = ops[i].kind == OpKind::kSync || ops[i].kind == OpKind::kFsync;
    if (is_sync && e == Errno::kOk) {
      bl.points.push_back(DurablePoint{fdev.writes_seen(), i + 1, model});
    }
  }
  RAEFS_TRY_VOID(fs->unmount());
  bl.points.push_back(
      DurablePoint{fdev.writes_seen(), ops.size(), model});
  bl.total_writes = fdev.writes_seen();
  bl.total_reads = fdev.reads_seen();
  bl.total_flushes = fdev.flushes_seen();
  return bl;
}

/// Rewrite `p` to the name the same object had at op index `from`: walk the
/// renames and links in ops[from, i) backwards, mapping the destination name
/// (or any path under it) to the source name. A write through a post-crash
/// alias still scribbles on the blocks the candidate model knows under the
/// old name.
std::string trace_back(const std::vector<Op>& ops, size_t from, size_t i,
                       std::string p) {
  for (size_t j = i; j-- > from;) {
    const Op& op = ops[j];
    if (op.kind != OpKind::kRename && op.kind != OpKind::kLink) continue;
    const std::string& to = op.b;
    if (p == to) {
      p = op.a;
    } else if (p.size() > to.size() && p.compare(0, to.size(), to) == 0 &&
               p[to.size()] == '/') {
      p = op.a + p.substr(to.size());
    }
  }
  return p;
}

/// Insert into `out` every path in `m` that resolves to `ino`.
void collect_aliases(ModelFs& m, const std::string& dir, Ino ino,
                     std::set<std::string>* out) {
  auto entries = m.readdir(dir.empty() ? "/" : dir);
  if (!entries.ok()) return;
  for (const auto& de : entries.value()) {
    std::string p = dir + "/" + de.name;
    if (de.type == FileType::kDirectory) {
      collect_aliases(m, p, ino, out);
    } else if (de.ino == ino) {
      out->insert(p);
    }
  }
}

/// Content-comparison exemptions for a candidate durable point: every file
/// with a write or truncate at or after the candidate's op index may carry
/// in-place data newer than the journaled metadata (ordered mode). The
/// file is exempted under *every* name the candidate model has for it --
/// writes reach blocks, not paths, so a hard link or a post-candidate
/// rename must not hide the file from the exemption.
std::set<std::string> content_exempt(const std::vector<Op>& ops,
                                     size_t from_index, ModelFs& model) {
  std::set<std::string> out;
  for (size_t i = from_index; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kWrite && ops[i].kind != OpKind::kTruncate) {
      continue;
    }
    out.insert(ops[i].a);
    std::string then = trace_back(ops, from_index, i, ops[i].a);
    out.insert(then);
    auto st = model.stat(then);
    if (st.ok()) collect_aliases(model, "", st.value().ino, &out);
  }
  return out;
}

std::string fsck_problems(BlockDevice* dev) {
  auto rep = fsck(dev, FsckLevel::kStrict);
  if (!rep.ok()) return "fsck itself failed: " + std::string(to_string(rep.error()));
  std::ostringstream os;
  for (const auto& f : rep.value().findings) {
    if (f.severity == FsckSeverity::kFatal) {
      os << "fsck fatal: " << f.what << "\n";
    } else if (f.severity == FsckSeverity::kLeak) {
      os << "fsck leak: " << f.what << "\n";
    }
  }
  return os.str();
}

/// Post-crash verdict on a power-cycled image: remount (replaying the
/// journal), require the surviving tree to match one durable-point
/// candidate in [cand_lo, cand_hi), then unmount and demand a strict,
/// leak-free fsck. Empty return = no divergence.
std::string judge_image(MemBlockDevice* mem,
                        const std::vector<Op>& ops, const Baseline& bl,
                        size_t cand_lo, size_t cand_hi) {
  auto remounted = BaseFs::mount(mem, base_opts());
  if (!remounted.ok()) {
    return "remount after crash failed: " + std::string(to_string(remounted.error()));
  }
  auto fs = std::move(remounted).value();

  std::string first_diff;
  bool matched = false;
  for (size_t c = cand_lo; c < cand_hi; ++c) {
    ModelFs model = bl.points[c].model;  // compare mutates nothing, but be safe
    auto exempt = content_exempt(ops, bl.points[c].op_index, model);
    testing_support::CompareOptions co;
    co.compare_inos = true;
    co.compare_nlink = true;
    co.skip_content = &exempt;
    std::string diff = testing_support::compare_trees(*fs, model, co);
    if (diff.empty()) {
      matched = true;
      break;
    }
    if (first_diff.empty()) first_diff = std::move(diff);
  }
  if (!matched) {
    return "surviving tree matches no durable candidate; first diff:\n" +
           first_diff;
  }

  Status um = fs->unmount();
  if (!um.ok()) return "post-crash unmount failed: " + std::string(to_string(um.error()));
  std::string bad = fsck_problems(mem);
  if (!bad.empty()) return "post-crash image not clean:\n" + bad;
  return "";
}

/// One crash-point scenario. Empty return = no divergence.
std::string run_crash_point(const MemBlockDevice& master,
                            const CrashxOptions& o,
                            const std::vector<Op>& ops, const Baseline& bl,
                            uint64_t k) {
  auto mem = master.clone_full();
  FaultBlockDevice fdev(mem.get());
  fdev.arm_crash_after_writes(k);

  {
    auto mounted = BaseFs::mount(&fdev, base_opts());
    if (mounted.ok()) {
      auto fs = std::move(mounted).value();
      try {
        for (size_t i = 0; i < ops.size(); ++i) {
          (void)apply_op(*fs, nullptr, ops[i], o.seed, i);
          // Once the device is dead nothing further can become durable;
          // stop driving the corpse.
          if (fdev.crashed()) break;
        }
        if (!fdev.crashed()) (void)fs->unmount();
      } catch (const FsPanicError&) {
        // The device died under the base; panicking while the machine
        // loses power is legal. State is judged after the power cycle.
      }
    }
    // A mount that died mid-replay is equally legal.
  }

  // Power cycle: in-memory fs state is gone, volatile device cache lost.
  fdev.disarm();
  mem->crash();

  // Candidates: the last durable point at or before k, and the next one
  // (the crash may have landed after that point's commit record was
  // durable but before its checkpoint finished; replay completes it).
  size_t last = 0;
  for (size_t i = 0; i < bl.points.size(); ++i) {
    if (bl.points[i].writes <= k) last = i;
  }
  return judge_image(mem.get(), ops, bl, last,
                     std::min(last + 2, bl.points.size()));
}

/// Iteration step honouring a cap: 0 caps nothing.
uint64_t stride_for(uint64_t total, uint64_t cap) {
  if (cap == 0 || total <= cap) return 1;
  return (total + cap - 1) / cap;
}

// ---------------------------------------------------------------------------
// reorder sweep (crashx v2)
// ---------------------------------------------------------------------------

/// The frozen state of one flush-barrier crash: the durable prefix image
/// (everything up to the previous barrier) plus the writes that were
/// still in the drive's volatile cache, in submission order.
struct ReorderEpoch {
  bool crashed = false;  // the workload actually reached flush barrier f
  std::unique_ptr<MemBlockDevice> image;
  std::vector<FaultBlockDevice::PendingWrite> pending;
  /// Submission-index bracket of the epoch: k0 = count of writes durable
  /// before any pending write (the empty subset's crash point), k1 =
  /// count with every pending write applied (the full subset's).
  uint64_t k0 = 0;
  uint64_t k1 = 0;
};

Result<ReorderEpoch> run_reorder_epoch(const MemBlockDevice& master,
                                       const CrashxOptions& o,
                                       const std::vector<Op>& ops,
                                       uint64_t f) {
  auto mem = master.clone_full();
  FaultBlockDevice fdev(mem.get());
  RAEFS_TRY_VOID(fdev.set_reorder_buffering(true));
  fdev.arm_crash_at_flush(f);

  {
    auto mounted = BaseFs::mount(&fdev, base_opts());
    if (mounted.ok()) {
      auto fs = std::move(mounted).value();
      try {
        for (size_t i = 0; i < ops.size(); ++i) {
          (void)apply_op(*fs, nullptr, ops[i], o.seed, i);
          if (fdev.crashed()) break;
        }
        if (!fdev.crashed()) (void)fs->unmount();
      } catch (const FsPanicError&) {
        // Legal under a dying device; state is judged after power cycle.
      }
    }
  }

  ReorderEpoch ep;
  ep.crashed = fdev.crashed();
  if (!ep.crashed) return ep;  // barrier f is beyond this workload
  ep.pending = fdev.pending_epoch();
  // Every successful barrier drained the cache, so writes still pending
  // are exactly those submitted since the last barrier; the inner image
  // holds the durable prefix.
  ep.k1 = ep.pending.empty() ? fdev.writes_at_crash()
                             : ep.pending.back().index + 1;
  ep.k0 = ep.pending.empty() ? ep.k1 : ep.pending.front().index;
  mem->crash();  // power cycle: nothing unflushed survives
  ep.image = std::move(mem);
  return ep;
}

/// Materialize one crash state (the pending writes selected by `keep`,
/// applied in ascending submission order onto a clone of the epoch's
/// durable image) and judge it. The candidate window spans from the last
/// durable point with writes <= k0 through one past the last with writes
/// <= k1: intermediate subsets may or may not complete any durable point
/// inside the epoch's bracket. Empty return = no divergence.
std::string run_reorder_state(const ReorderEpoch& ep,
                              const std::vector<Op>& ops, const Baseline& bl,
                              const std::vector<uint32_t>& keep) {
  auto img = ep.image->clone_full();
  std::vector<uint32_t> order(keep);
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  for (uint32_t pos : order) {
    const auto& pw = ep.pending[pos];
    Status st = img->write_block(
        pw.block, std::span<const uint8_t>(pw.data->data(), pw.data->size()));
    if (!st.ok()) {
      return "materializing crash state failed: " +
             std::string(to_string(st.error()));
    }
  }
  Status fl = img->flush();
  if (!fl.ok()) {
    return "flushing crash state failed: " + std::string(to_string(fl.error()));
  }

  size_t last0 = 0, last1 = 0;
  for (size_t i = 0; i < bl.points.size(); ++i) {
    if (bl.points[i].writes <= ep.k0) last0 = i;
    if (bl.points[i].writes <= ep.k1) last1 = i;
  }
  return judge_image(img.get(), ops, bl, last0,
                     std::min(last1 + 2, bl.points.size()));
}

/// Sweep every flush barrier (subject to the cap), judging the enumerated
/// schedules of each epoch. Divergences land in `report`.
Status sweep_reorder(const MemBlockDevice& master, const CrashxOptions& o,
                     const std::vector<Op>& ops, const Baseline& bl,
                     Report* report) {
  uint64_t step = stride_for(bl.total_flushes, o.max_reorder_flushes);
  for (uint64_t f = 0; f < bl.total_flushes; f += step) {
    RAEFS_TRY(ReorderEpoch ep, run_reorder_epoch(master, o, ops, f));
    if (!ep.crashed) continue;
    ++report->reorder_epochs;
    auto schedules = enumerate_schedules(
        ep.pending.size(), o.seed ^ (f * 0x9E3779B97F4A7C15ull),
        o.reorder_exhaustive_limit, o.reorder_states_per_epoch);
    for (auto& keep : schedules) {
      std::string d = run_reorder_state(ep, ops, bl, keep);
      ++report->reorder_states;
      if (!d.empty()) {
        report->divergences.push_back(
            Divergence{Fault{FaultKind::kReorderAtFlush, f}, std::move(d),
                       std::move(keep)});
      }
    }
  }
  return Status::Ok();
}

/// One single-shot injection scenario. Empty return = no divergence.
std::string run_injection(const MemBlockDevice& master, const CrashxOptions& o,
                          const std::vector<Op>& ops, bool read_side,
                          uint64_t site) {
  auto mem = master.clone_full();
  FaultBlockDevice fdev(mem.get());
  if (read_side) {
    fdev.arm_read_error_at(site);
  } else {
    fdev.arm_write_error_at(site);
  }
  ModelFs model(o.inode_count);

  auto mounted = BaseFs::mount(&fdev, base_opts());
  if (!mounted.ok()) {
    // The injection hit the mount path; it is consumed, so a second
    // attempt must succeed.
    mounted = BaseFs::mount(&fdev, base_opts());
    if (!mounted.ok()) {
      return "mount failed twice under a single-shot injection: " +
             std::string(to_string(mounted.error()));
    }
  }
  auto fs = std::move(mounted).value();

  try {
    for (size_t i = 0; i < ops.size(); ++i) {
      (void)apply_op(*fs, &model, ops[i], o.seed, i);
    }
  } catch (const FsPanicError& e) {
    return std::string("base panicked on a single-shot injected error: ") +
           e.what();
  }

  // The injection is one-shot: a failed sync retried once must succeed.
  Status synced = fs->sync();
  if (!synced.ok()) synced = fs->sync();
  if (!synced.ok()) {
    return "sync still failing after the injection was consumed: " +
           std::string(to_string(synced.error()));
  }

  {
    testing_support::CompareOptions co;
    co.compare_inos = false;  // failed ops legally skew allocation hints
    std::string diff = testing_support::compare_trees(*fs, model, co);
    if (!diff.empty()) return "state diverged from oracle:\n" + diff;
  }

  Status um = fs->unmount();
  if (!um.ok()) {
    // The one-shot error hit unmount's own write-back. The preceding sync
    // already journalled everything, so the next mount's replay must
    // restore full state with zero loss -- and its unmount, with the
    // injection consumed, must succeed.
    fs.reset();
    auto rec = BaseFs::mount(&fdev, base_opts());
    if (!rec.ok()) {
      return "mount after failed unmount did not recover: " +
             std::string(to_string(rec.error()));
    }
    testing_support::CompareOptions co;
    co.compare_inos = false;
    std::string diff = testing_support::compare_trees(*rec.value(), model, co);
    if (!diff.empty()) {
      return "state lost across failed unmount + recovery:\n" + diff;
    }
    um = rec.value()->unmount();
    if (!um.ok()) {
      return "unmount failed twice under a single-shot injection: " +
             std::string(to_string(um.error()));
    }
  }
  std::string bad = fsck_problems(mem.get());
  if (!bad.empty()) return "image not clean after injected error:\n" + bad;

  auto re = BaseFs::mount(mem.get(), base_opts());
  if (!re.ok()) return "remount failed: " + std::string(to_string(re.error()));
  testing_support::CompareOptions co;
  co.compare_inos = false;
  std::string diff = testing_support::compare_trees(*re.value(), model, co);
  if (!diff.empty()) return "durable state diverged from oracle:\n" + diff;
  return "";
}

}  // namespace

std::vector<std::vector<uint32_t>> enumerate_schedules(
    size_t n, uint64_t seed, uint32_t exhaustive_limit, uint32_t max_states) {
  std::vector<std::vector<uint32_t>> out;
  if (n <= exhaustive_limit && n < 20) {
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      std::vector<uint32_t> keep;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (uint64_t{1} << i)) keep.push_back(static_cast<uint32_t>(i));
      }
      out.push_back(std::move(keep));
    }
    return out;
  }

  std::set<std::vector<uint32_t>> seen;
  auto add = [&](std::vector<uint32_t> keep) {
    if (out.size() < max_states && seen.insert(keep).second) {
      out.push_back(std::move(keep));
    }
  };
  add({});
  std::vector<uint32_t> full(n);
  std::iota(full.begin(), full.end(), 0);
  add(full);
  for (size_t i = 0; i < n; ++i) add({static_cast<uint32_t>(i)});
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> keep;
    keep.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) keep.push_back(static_cast<uint32_t>(j));
    }
    add(std::move(keep));
  }
  Rng rng(seed);
  for (size_t attempts = 0;
       out.size() < max_states && attempts < size_t{max_states} * 8;
       ++attempts) {
    std::vector<uint32_t> keep;
    for (size_t i = 0; i < n; ++i) {
      if (rng.chance(0.5)) keep.push_back(static_cast<uint32_t>(i));
    }
    add(std::move(keep));
  }
  return out;
}

std::string Report::summary() const {
  std::ostringstream os;
  os << "crashx: " << crash_points << " crash point(s), " << write_sites
     << " write-injection site(s), " << read_sites
     << " read-injection site(s) explored over " << baseline_writes
     << " writes / " << baseline_reads << " reads";
  if (reorder_epochs > 0 || reorder_states > 0) {
    os << "; " << reorder_states << " reorder crash state(s) across "
       << reorder_epochs << " flush epoch(s)";
  }
  os << "; " << divergences.size() << " divergence(s)";
  return os.str();
}

Result<Report> explore(const CrashxOptions& opts) {
  RAEFS_TRY(auto master, make_master(opts));
  auto ops = generate_ops(opts.seed, opts.num_ops, opts.sync_every);
  RAEFS_TRY(Baseline bl, run_baseline(*master, opts, ops));

  Report report;
  report.baseline_writes = bl.total_writes;
  report.baseline_reads = bl.total_reads;

  uint64_t step = stride_for(bl.total_writes, opts.max_crash_points);
  for (uint64_t k = 0; k < bl.total_writes; k += step) {
    std::string d = run_crash_point(*master, opts, ops, bl, k);
    ++report.crash_points;
    if (!d.empty()) {
      report.divergences.push_back(
          Divergence{Fault{FaultKind::kCrashAtWrite, k}, std::move(d), {}});
    }
  }

  step = stride_for(bl.total_writes, opts.max_write_injections);
  for (uint64_t i = 0; i < bl.total_writes; i += step) {
    std::string d = run_injection(*master, opts, ops, /*read_side=*/false, i);
    ++report.write_sites;
    if (!d.empty()) {
      report.divergences.push_back(
          Divergence{Fault{FaultKind::kWriteErrorAt, i}, std::move(d), {}});
    }
  }

  step = stride_for(bl.total_reads, opts.max_read_injections);
  for (uint64_t i = 0; i < bl.total_reads; i += step) {
    std::string d = run_injection(*master, opts, ops, /*read_side=*/true, i);
    ++report.read_sites;
    if (!d.empty()) {
      report.divergences.push_back(
          Divergence{Fault{FaultKind::kReadErrorAt, i}, std::move(d), {}});
    }
  }
  return report;
}

Result<Report> explore_reorder(const CrashxOptions& opts) {
  RAEFS_TRY(auto master, make_master(opts));
  auto ops = generate_ops(opts.seed, opts.num_ops, opts.sync_every);
  RAEFS_TRY(Baseline bl, run_baseline(*master, opts, ops));

  Report report;
  report.baseline_writes = bl.total_writes;
  report.baseline_reads = bl.total_reads;
  RAEFS_TRY_VOID(sweep_reorder(*master, opts, ops, bl, &report));
  return report;
}

Result<Report> fuzz(const FuzzOptions& fo) {
  Report total;
  std::set<std::string> signatures;
  for (uint64_t round = 0; total.reorder_states < fo.state_budget; ++round) {
    if (fo.max_rounds > 0 && round >= fo.max_rounds) break;

    CrashxOptions o;
    o.seed = fo.seed + round;
    o.num_ops = fo.num_ops;
    o.sync_every = fo.sync_every;
    o.total_blocks = fo.total_blocks;
    o.inode_count = fo.inode_count;
    o.journal_blocks = fo.journal_blocks;
    o.reorder_exhaustive_limit = fo.reorder_exhaustive_limit;
    o.reorder_states_per_epoch = fo.reorder_states_per_epoch;

    // Alternate the bug-study pattern generator with the uniform one:
    // patterns hunt the known mechanisms, uniform keeps the space open.
    std::vector<Op> ops =
        (round % 2 == 0)
            ? generate_pattern_ops(o.seed, o.num_ops, o.sync_every,
                                   o.total_blocks / 2)
            : generate_ops(o.seed, o.num_ops, o.sync_every);

    RAEFS_TRY(auto master, make_master(o));
    RAEFS_TRY(Baseline bl, run_baseline(*master, o, ops));

    Report r;
    RAEFS_TRY_VOID(sweep_reorder(*master, o, ops, bl, &r));
    total.reorder_epochs += r.reorder_epochs;
    total.reorder_states += r.reorder_states;
    total.baseline_writes += bl.total_writes;
    total.baseline_reads += bl.total_reads;

    for (auto& d : r.divergences) {
      // Dedupe by the divergence's first line (the failure class); only
      // the first instance of a signature is persisted to the corpus.
      std::string sig = d.detail.substr(0, d.detail.find('\n'));
      bool fresh = signatures.insert(sig).second;
      if (fresh && !fo.corpus_dir.empty()) {
        Repro rep;
        rep.opts = o;
        rep.fault = d.fault;
        rep.schedule = d.schedule;
        rep.ops = ops;
        std::string path = fo.corpus_dir + "/reorder-s" +
                           std::to_string(o.seed) + "-f" +
                           std::to_string(d.fault.index) + ".repro";
        (void)save_repro(rep, path);
      }
      total.divergences.push_back(std::move(d));
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// repro files
// ---------------------------------------------------------------------------

std::string format_repro(const Repro& repro) {
  std::ostringstream os;
  // Reorder repros need the v2 extensions; everything else keeps emitting
  // v1 byte-for-byte so existing checked-in repros round-trip unchanged.
  bool v2 = repro.fault.kind == FaultKind::kReorderAtFlush;
  os << (v2 ? "crashx-repro v2\n" : "crashx-repro v1\n");
  os << "geometry blocks=" << repro.opts.total_blocks
     << " inodes=" << repro.opts.inode_count
     << " journal=" << repro.opts.journal_blocks << "\n";
  os << "seed " << repro.opts.seed << "\n";
  switch (repro.fault.kind) {
    case FaultKind::kNone:
      os << "fault none\n";
      break;
    case FaultKind::kCrashAtWrite:
      os << "fault crash-write " << repro.fault.index << "\n";
      break;
    case FaultKind::kWriteErrorAt:
      os << "fault inject-write " << repro.fault.index << "\n";
      break;
    case FaultKind::kReadErrorAt:
      os << "fault inject-read " << repro.fault.index << "\n";
      break;
    case FaultKind::kReorderAtFlush: {
      os << "fault reorder " << repro.fault.index << " ";
      if (repro.schedule.empty()) {
        os << "-";
      } else {
        for (size_t i = 0; i < repro.schedule.size(); ++i) {
          if (i > 0) os << ",";
          os << repro.schedule[i];
        }
      }
      os << "\n";
      break;
    }
  }
  for (const Op& op : repro.ops) os << format_op(op) << "\n";
  return os.str();
}

Result<Repro> parse_repro(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  // Leading comments are allowed so checked-in repros can explain the bug
  // they pin; the first substantive line must be the version magic.
  do {
    if (!std::getline(is, line)) return Errno::kInval;
  } while (line.empty() || line[0] == '#');
  if (line != "crashx-repro v1" && line != "crashx-repro v2") {
    return Errno::kInval;
  }
  Repro repro;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "geometry") {
      std::string field;
      while (ls >> field) {
        auto eq = field.find('=');
        if (eq == std::string::npos) return Errno::kInval;
        uint64_t v = std::stoull(field.substr(eq + 1));
        std::string key = field.substr(0, eq);
        if (key == "blocks") {
          repro.opts.total_blocks = v;
        } else if (key == "inodes") {
          repro.opts.inode_count = v;
        } else if (key == "journal") {
          repro.opts.journal_blocks = v;
        } else {
          return Errno::kInval;
        }
      }
    } else if (word == "seed") {
      if (!(ls >> repro.opts.seed)) return Errno::kInval;
    } else if (word == "fault") {
      std::string kind;
      if (!(ls >> kind)) return Errno::kInval;
      if (kind == "none") {
        repro.fault.kind = FaultKind::kNone;
      } else {
        if (!(ls >> repro.fault.index)) return Errno::kInval;
        if (kind == "crash-write") {
          repro.fault.kind = FaultKind::kCrashAtWrite;
        } else if (kind == "inject-write") {
          repro.fault.kind = FaultKind::kWriteErrorAt;
        } else if (kind == "inject-read") {
          repro.fault.kind = FaultKind::kReadErrorAt;
        } else if (kind == "reorder") {
          repro.fault.kind = FaultKind::kReorderAtFlush;
          std::string sched;
          if (!(ls >> sched)) return Errno::kInval;
          if (sched != "-") {
            std::istringstream ss(sched);
            std::string tok;
            while (std::getline(ss, tok, ',')) {
              if (tok.empty() ||
                  tok.find_first_not_of("0123456789") != std::string::npos) {
                return Errno::kInval;
              }
              repro.schedule.push_back(
                  static_cast<uint32_t>(std::stoul(tok)));
            }
          }
        } else {
          return Errno::kInval;
        }
      }
    } else if (word == "op") {
      RAEFS_TRY(Op op, parse_op(line));
      repro.ops.push_back(std::move(op));
    } else {
      return Errno::kInval;
    }
  }
  repro.opts.num_ops = repro.ops.size();
  return repro;
}

Result<Repro> load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Errno::kNoEnt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_repro(buf.str());
}

Status save_repro(const Repro& repro, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Errno::kIo;
  out << format_repro(repro);
  out.flush();
  return out ? Status::Ok() : Errno::kIo;
}

// ---------------------------------------------------------------------------
// replay + shrink
// ---------------------------------------------------------------------------

Result<std::string> replay(const Repro& repro) {
  RAEFS_TRY(auto master, make_master(repro.opts));
  RAEFS_TRY(Baseline bl, run_baseline(*master, repro.opts, repro.ops));
  switch (repro.fault.kind) {
    case FaultKind::kCrashAtWrite:
      return run_crash_point(*master, repro.opts, repro.ops, bl,
                             repro.fault.index);
    case FaultKind::kWriteErrorAt:
      return run_injection(*master, repro.opts, repro.ops,
                           /*read_side=*/false, repro.fault.index);
    case FaultKind::kReadErrorAt:
      return run_injection(*master, repro.opts, repro.ops, /*read_side=*/true,
                           repro.fault.index);
    case FaultKind::kReorderAtFlush: {
      RAEFS_TRY(ReorderEpoch ep, run_reorder_epoch(*master, repro.opts,
                                                   repro.ops,
                                                   repro.fault.index));
      // A schedule that no longer fits the epoch (the op list changed
      // under it, e.g. during shrinking) names no crash state: vacuous.
      if (!ep.crashed) return std::string();
      for (uint32_t pos : repro.schedule) {
        if (pos >= ep.pending.size()) return std::string();
      }
      return run_reorder_state(ep, repro.ops, bl, repro.schedule);
    }
    case FaultKind::kNone:
      return std::string();  // the baseline ran; nothing to diverge
  }
  return Errno::kInval;
}

Result<Repro> shrink(const Repro& repro) {
  RAEFS_TRY(std::string base, replay(repro));
  Repro cur = repro;
  if (base.empty()) return cur;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = cur.ops.size(); i-- > 0;) {
      Repro cand = cur;
      cand.ops.erase(cand.ops.begin() + static_cast<ptrdiff_t>(i));
      auto d = replay(cand);
      if (d.ok() && !d.value().empty()) {
        cur = std::move(cand);
        changed = true;
      }
    }
    // Reorder repros also carry a materialization schedule; minimize it
    // the same way (a dropped position must keep the divergence alive).
    for (size_t i = cur.schedule.size(); i-- > 0;) {
      Repro cand = cur;
      cand.schedule.erase(cand.schedule.begin() + static_cast<ptrdiff_t>(i));
      auto d = replay(cand);
      if (d.ok() && !d.value().empty()) {
        cur = std::move(cand);
        changed = true;
      }
    }
  }
  return cur;
}

}  // namespace crashx
}  // namespace raefs
