// Base hosts: where RaeSupervisor's base filesystem runs (paper §4.2,
// docs/RECOVERY.md "Base hosts").
//
// The recovery pipeline is one pipeline for every host. Only two of its
// steps depend on where the base lives, and they are this interface:
//   - contain:  discard the failed base and every byte of its memory;
//   - download: boot a fresh base that holds the shadow's output.
// Everything else -- recording, detection, journal replay, shadow replay,
// verification, the in-flight answer, spans and the incident report -- is
// the supervisor's and identical on both hosts.
//
// InProcessBaseHost is the kernel path: the base is a BaseFs object in the
// supervisor's address space, "rebooted" by destroying it, and it absorbs
// the shadow's output through BaseFs::install_blocks. ForkedBaseHost is the
// microkernel path: the base is a server process (ufs/ufs_server.h) over
// a ShmBlockDevice; a bug kills that process for real, and the supervisor,
// which shares the store, writes the shadow's output straight into it
// before forking a fresh server.
#pragma once

#include <functional>
#include <memory>
#include <sys/types.h>

#include "basefs/base_fs.h"
#include "oplog/op.h"

namespace raefs {

class ShmBlockDevice;

class BaseHost {
 public:
  virtual ~BaseHost() = default;

  /// Start the base over the device's current state.
  virtual Status boot() = 0;

  /// Execute `req` on the base; `seq` is its op-log sequence number (0 for
  /// unrecorded ops). A base failure surfaces as FsPanicError.
  virtual OpOutcome apply(const OpRequest& req, Seq seq) = 0;

  /// Contain: discard the failed base. Idempotent.
  virtual void contain() = 0;

  /// Download: boot a fresh base that holds `blocks`. The device already
  /// carries the journal-replayed state S0.
  virtual Status download(const std::vector<InstallBlock>& blocks) = 0;

  /// Simulated fixed cost of one contained reboot on this host.
  virtual Nanos reboot_cost() const = 0;

  /// Clean unmount: commit, checkpoint, mark clean.
  virtual Status unmount() = 0;

  virtual BaseFsStats stats() const = 0;

  /// The base's BaseFs when it lives in this process, else null (deep
  /// scrub compares against it directly).
  virtual BaseFs* local() { return nullptr; }
};

class InProcessBaseHost final : public BaseHost {
 public:
  /// `on_durable` receives the base's durable op-log watermark.
  InProcessBaseHost(BlockDevice* dev, const BaseFsOptions& opts,
                    SimClockPtr clock, BugRegistry* bugs, WarnSink* warns,
                    Nanos reboot_cost, std::function<void(Seq)> on_durable);

  /// Mount the base.
  Status boot() override;

  OpOutcome apply(const OpRequest& req, Seq seq) override;
  void contain() override { base_.reset(); }
  Status download(const std::vector<InstallBlock>& blocks) override;
  Nanos reboot_cost() const override { return reboot_cost_; }
  Status unmount() override;
  BaseFsStats stats() const override;
  BaseFs* local() override { return base_.get(); }

 private:
  BlockDevice* dev_;
  BaseFsOptions opts_;
  SimClockPtr clock_;
  BugRegistry* bugs_;
  WarnSink* warns_;
  Nanos reboot_cost_;
  std::function<void(Seq)> on_durable_;
  std::unique_ptr<BaseFs> base_;
};

class ForkedBaseHost final : public BaseHost {
 public:
  /// Simulated cost of forking a fresh server (well below an in-process
  /// contained reboot: no state to tear down, no transaction to install).
  static constexpr Nanos kRespawnCost = 500 * kMicro;

  /// The server inherits `bugs` as it is at each fork.
  ForkedBaseHost(ShmBlockDevice* dev, const BaseFsOptions& opts,
                 BugRegistry* bugs);
  ~ForkedBaseHost() override;

  /// Fork a server and wait for its mount to report.
  Status boot() override;

  OpOutcome apply(const OpRequest& req, Seq seq) override;
  void contain() override { (void)reap(); }
  Status download(const std::vector<InstallBlock>& blocks) override;
  Nanos reboot_cost() const override { return kRespawnCost; }
  Status unmount() override;
  BaseFsStats stats() const override { return {}; }

 private:
  /// Close the pipes, kill the server if it still runs, and wait for it.
  /// Returns its waitpid status (0 when there was no server).
  int reap();

  ShmBlockDevice* dev_;
  BaseFsOptions opts_;
  BugRegistry* bugs_;
  int to_server_ = -1;
  int from_server_ = -1;
  pid_t server_ = -1;
};

}  // namespace raefs
