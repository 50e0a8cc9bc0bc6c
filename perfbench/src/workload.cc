#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>

namespace perfbench {
namespace {

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kBlock = raefs::kBlockSize;

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> w;

  // Read working set 64 x 256 KiB = 16 MiB, four times the 4 MiB block
  // cache (BaseFsOptions::block_cache_blocks = 1024).
  WorkloadSpec fs;
  fs.name = "fileserver";
  fs.mix = WorkloadSpec::Mix::kFileserver;
  fs.dirs_per_client = 8;
  fs.files_per_client = 64;
  fs.file_bytes = 256 * kKiB;
  fs.read_bytes = 64 * kKiB;
  fs.write_bytes = 16 * kKiB;
  fs.sync_every = 100;
  fs.device_blocks = 16384;  // 64 MiB
  fs.traced_ops_per_s = 1700;
  w.push_back(fs);

  // Four clients, each in its own directory; 16 small files per client
  // (about 0.5 MiB in all) fit the cache.
  WorkloadSpec vm;
  vm.name = "varmail-4c";
  vm.mix = WorkloadSpec::Mix::kVarmail;
  vm.clients = 4;
  vm.dirs_per_client = 1;
  vm.files_per_client = 16;
  vm.write_bytes = 8 * kKiB;
  vm.device_blocks = 8192;  // 32 MiB
  vm.traced_ops_per_s = 3300;
  w.push_back(vm);

  // The fileserver mix on 8 x 64 KiB = 512 KiB, read whole: it fits the
  // cache, so the cache is cold only after each contained reboot. One
  // injected transient panic per 100 ops.
  WorkloadSpec ff = fs;
  ff.name = "fileserver-faults";
  ff.dirs_per_client = 4;
  ff.files_per_client = 8;
  ff.file_bytes = 64 * kKiB;
  ff.read_bytes = 64 * kKiB;
  ff.write_bytes = 16 * kKiB;
  ff.fault_every = 100;
  ff.device_blocks = 8192;
  ff.traced_ops_per_s = 2000;
  w.push_back(ff);
  return w;
}

bool is_dot(const std::string& name) { return name == "." || name == ".."; }

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> w = make_workloads();
  return w;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Recorder

uint64_t Recorder::next_op_id() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::fail(const std::string& what, Errno err) {
  ++failed_;
  if (err == Errno::kIo) ++eio_;
  if (first_failure_.empty()) {
    first_failure_ = what + ": " + raefs::to_string(err);
  }
}

// ---------------------------------------------------------------------------
// Client

Client::Client(const WorkloadSpec& spec, int index, uint64_t seed)
    : spec_(&spec),
      index_(index),
      rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index) + 1) {}

std::string Client::dir_of(size_t i) const {
  return "/c" + std::to_string(index_) + "d" + std::to_string(i);
}

std::string Client::new_name() {
  size_t dir = rng_.below(static_cast<uint64_t>(spec_->dirs_per_client));
  return dir_of(dir) + "/f" + std::to_string(next_name_++);
}

std::vector<uint8_t> Client::random_bytes(uint64_t n) {
  std::vector<uint8_t> out(n);
  for (uint64_t i = 0; i < n; i += 8) {
    uint64_t r = rng_.next();
    std::memcpy(out.data() + i, &r, std::min<uint64_t>(8, n - i));
  }
  return out;
}

bool Client::populate(Target& fs, std::string* why) {
  for (int d = 0; d < spec_->dirs_per_client; ++d) {
    auto st = fs.mkdir(dir_of(static_cast<size_t>(d)));
    if (!st.ok()) {
      *why = "mkdir " + dir_of(static_cast<size_t>(d)) + ": " +
             raefs::to_string(st.error());
      return false;
    }
  }
  Recorder rec;
  const bool fileserver = spec_->mix == WorkloadSpec::Mix::kFileserver;
  for (int i = 0; i < spec_->files_per_client; ++i) {
    uint64_t bytes =
        fileserver ? spec_->file_bytes : rng_.range(1, spec_->write_bytes);
    create_file(fs, rec, bytes, fileserver);
    // Keep the op log (and each sync) small.
    if (i % 8 == 7) {
      auto st = fs.sync();
      if (!st.ok()) rec.fail("sync", st.error());
    }
  }
  auto st = fs.sync();
  if (!st.ok()) rec.fail("sync", st.error());
  if (rec.failed() != 0) {
    *why = rec.first_failure();
    return false;
  }
  return true;
}

bool Client::reopen(Target& fs, std::string* why) {
  if (spec_->mix != WorkloadSpec::Mix::kFileserver) return true;
  for (File& f : files_) {
    auto h = fs.open(f.path, false);
    if (!h.ok()) {
      *why = "reopen " + f.path + ": " + raefs::to_string(h.error());
      return false;
    }
    f.handle = h.value();
  }
  return true;
}

bool Client::create_file(Target& fs, Recorder& rec, uint64_t bytes,
                         bool keep_open) {
  File f;
  f.path = new_name();
  auto h = rec.time(OpClass::kMeta, [&] { return fs.open(f.path, true); });
  if (!h.ok()) {
    rec.fail("create " + f.path, h.error());
    return false;
  }
  f.handle = h.value();
  std::vector<uint8_t> data = random_bytes(bytes);
  auto n = rec.time(OpClass::kWrite,
                    [&] { return fs.pwrite(f.handle, 0, data); });
  if (!n.ok() || n.value() != bytes) {
    rec.fail("write " + f.path, n.ok() ? Errno::kInval : n.error());
    fs.close(f.handle);
    return false;
  }
  rec.add_bytes_written(bytes);
  f.data = std::move(data);
  if (!keep_open) {
    auto st = rec.time(OpClass::kSync, [&] { return fs.fsync(f.handle); });
    if (!st.ok()) rec.fail("fsync " + f.path, st.error());
    fs.close(f.handle);
    f.handle = Handle{};
  }
  files_.push_back(std::move(f));
  return true;
}

void Client::unlink_file(Target& fs, Recorder& rec, size_t idx) {
  File& f = files_[idx];
  auto st = rec.time(OpClass::kMeta, [&] { return fs.unlink(f.path); });
  if (!st.ok()) {
    rec.fail("unlink " + f.path, st.error());
    return;
  }
  if (f.handle.fd != raefs::kInvalidFd) fs.close(f.handle);
  files_[idx] = std::move(files_.back());
  files_.pop_back();
}

bool Client::read_check(Target& fs, Recorder& rec, const File& f,
                        uint64_t off, uint64_t len) {
  auto r = rec.time(OpClass::kRead,
                    [&] { return fs.pread(f.handle, off, len); });
  if (!r.ok()) {
    rec.fail("read " + f.path, r.error());
    return false;
  }
  uint64_t want = off >= f.data.size()
                      ? 0
                      : std::min<uint64_t>(len, f.data.size() - off);
  if (r.value().size() != want ||
      !std::equal(r.value().begin(), r.value().end(),
                  f.data.begin() + static_cast<ptrdiff_t>(off))) {
    rec.fail("read " + f.path + " returned bytes the model disagrees with",
             Errno::kInval);
    return false;
  }
  return true;
}

void Client::step(Target& fs, Recorder& rec) {
  uint64_t before = rec.attempted();
  if (spec_->mix == WorkloadSpec::Mix::kFileserver) {
    fileserver_step(fs, rec);
  } else {
    varmail_step(fs, rec);
  }
  ops_since_sync_ += rec.attempted() - before;
  if (spec_->sync_every > 0 &&
      ops_since_sync_ >= static_cast<uint64_t>(spec_->sync_every)) {
    ops_since_sync_ = 0;
    auto st = rec.time(OpClass::kSync, [&] { return fs.sync(); });
    if (!st.ok()) rec.fail("sync", st.error());
  }
}

// Fileserver mix: 30% overwrite, 30% read, 22% create/unlink, 16%
// readdir/stat, 2% rename. Every file stays open and fully populated.
void Client::fileserver_step(Target& fs, Recorder& rec) {
  const uint64_t choice = rng_.below(100);
  const uint64_t n = files_.size();
  const uint64_t target = static_cast<uint64_t>(spec_->files_per_client);
  auto aligned_offset = [&](uint64_t len) {
    return rng_.below((spec_->file_bytes - len) / kBlock + 1) * kBlock;
  };
  if (choice < 30) {
    File& f = files_[rng_.below(n)];
    uint64_t off = aligned_offset(spec_->write_bytes);
    std::vector<uint8_t> data = random_bytes(spec_->write_bytes);
    auto w = rec.time(OpClass::kWrite,
                      [&] { return fs.pwrite(f.handle, off, data); });
    if (!w.ok() || w.value() != data.size()) {
      rec.fail("write " + f.path, w.ok() ? Errno::kInval : w.error());
      return;
    }
    rec.add_bytes_written(data.size());
    std::copy(data.begin(), data.end(),
              f.data.begin() + static_cast<ptrdiff_t>(off));
  } else if (choice < 60) {
    const File& f = files_[rng_.below(n)];
    read_check(fs, rec, f, aligned_offset(spec_->read_bytes),
               spec_->read_bytes);
  } else if (choice < 82) {
    // Keep the file count within a quarter of its steady-state value.
    bool create = 4 * n <= 3 * target   ? true
                  : 4 * n >= 5 * target ? false
                                        : rng_.chance(0.5);
    if (create) {
      create_file(fs, rec, spec_->file_bytes, true);
    } else {
      unlink_file(fs, rec, rng_.below(n));
    }
  } else if (choice < 98) {
    if (rng_.chance(0.5)) {
      size_t d = rng_.below(static_cast<uint64_t>(spec_->dirs_per_client));
      std::string dir = dir_of(d);
      auto r = rec.time(OpClass::kMeta, [&] { return fs.readdir(dir); });
      if (!r.ok()) {
        rec.fail("readdir " + dir, r.error());
        return;
      }
      uint64_t want = 0;
      for (const File& f : files_) {
        if (f.path.compare(0, dir.size() + 1, dir + "/") == 0) ++want;
      }
      uint64_t got = 0;
      for (const auto& e : r.value()) got += is_dot(e.name) ? 0 : 1;
      if (got != want) rec.fail("readdir " + dir + " count", Errno::kInval);
    } else {
      const File& f = files_[rng_.below(n)];
      auto r = rec.time(OpClass::kMeta, [&] { return fs.stat(f.path); });
      if (!r.ok()) {
        rec.fail("stat " + f.path, r.error());
      } else if (r.value().size != f.data.size()) {
        rec.fail("stat " + f.path + " size", Errno::kInval);
      }
    }
  } else {
    File& f = files_[rng_.below(n)];
    std::string dst = new_name();
    auto st = rec.time(OpClass::kMeta, [&] { return fs.rename(f.path, dst); });
    if (!st.ok()) {
      rec.fail("rename " + f.path, st.error());
      return;
    }
    f.path = dst;
  }
}

// Varmail cycle (filebench's varmail flowops): delete a file; create,
// write and fsync a new one; open, read, append and fsync an existing
// one; open and read another. Descriptors are opened per access.
void Client::varmail_step(Target& fs, Recorder& rec) {
  constexpr uint64_t kMaxFile = 64 * kKiB;
  if (!files_.empty()) unlink_file(fs, rec, rng_.below(files_.size()));
  create_file(fs, rec, rng_.range(1, spec_->write_bytes), false);

  auto open_existing = [&](File& f) {
    auto h = rec.time(OpClass::kMeta, [&] { return fs.open(f.path, false); });
    if (!h.ok()) {
      rec.fail("open " + f.path, h.error());
      return false;
    }
    f.handle = h.value();
    return true;
  };

  File& a = files_[rng_.below(files_.size())];
  if (open_existing(a)) {
    if (read_check(fs, rec, a, 0, a.data.size())) {
      std::vector<uint8_t> data =
          random_bytes(rng_.range(1, spec_->write_bytes));
      // Append, or start over at 0 once a file reaches kMaxFile.
      uint64_t off =
          a.data.size() + data.size() <= kMaxFile ? a.data.size() : 0;
      auto w = rec.time(OpClass::kWrite,
                        [&] { return fs.pwrite(a.handle, off, data); });
      if (!w.ok() || w.value() != data.size()) {
        rec.fail("append " + a.path, w.ok() ? Errno::kInval : w.error());
      } else {
        rec.add_bytes_written(data.size());
        if (off + data.size() > a.data.size()) {
          a.data.resize(off + data.size());
        }
        std::copy(data.begin(), data.end(),
                  a.data.begin() + static_cast<ptrdiff_t>(off));
        auto st = rec.time(OpClass::kSync, [&] { return fs.fsync(a.handle); });
        if (!st.ok()) rec.fail("fsync " + a.path, st.error());
      }
    }
    fs.close(a.handle);
    a.handle = Handle{};
  }

  File& b = files_[rng_.below(files_.size())];
  if (open_existing(b)) {
    read_check(fs, rec, b, 0, b.data.size());
    fs.close(b.handle);
    b.handle = Handle{};
  }
}

uint64_t Client::mismatched_files(Target& fs, std::string* why) const {
  uint64_t bad = 0;
  auto note = [&](const std::string& what) {
    ++bad;
    if (why->empty()) *why = what;
  };
  std::set<std::string> want;
  for (const File& f : files_) want.insert(f.path);
  for (int d = 0; d < spec_->dirs_per_client; ++d) {
    std::string dir = dir_of(static_cast<size_t>(d));
    auto r = fs.readdir(dir);
    if (!r.ok()) {
      note("readdir " + dir + ": " + raefs::to_string(r.error()));
      continue;
    }
    for (const auto& e : r.value()) {
      if (is_dot(e.name)) continue;
      if (!want.count(dir + "/" + e.name)) {
        note("unexpected " + dir + "/" + e.name);
      }
    }
  }
  for (const File& f : files_) {
    auto h = fs.open(f.path, false);
    if (!h.ok()) {
      note("missing " + f.path + ": " + raefs::to_string(h.error()));
      continue;
    }
    auto st = fs.stat(f.path);
    auto data = fs.pread(h.value(), 0, f.data.size() + kBlock);
    fs.close(h.value());
    if (!st.ok() || st.value().size != f.data.size() || !data.ok() ||
        data.value() != f.data) {
      note("content of " + f.path + " differs from the acknowledged state");
    }
  }
  return bad;
}

}  // namespace perfbench
