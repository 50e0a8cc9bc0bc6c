#include "rae/executor.h"

#include <sys/wait.h>
#include <unistd.h>

#include "rae/wire.h"
#include "ufs/ufs_proto.h"

namespace raefs {

ShadowOutcome InProcessShadowExecutor::execute(
    BlockDevice* dev, const std::vector<OpRecord>& log,
    const ShadowConfig& config, SimClockPtr clock) {
  // Round-trip the op sequence through the wire format even in-process:
  // the interface the shadow sees is identical in both executors.
  auto encoded = wire::encode_op_records(log);
  auto decoded = wire::decode_op_records(encoded);
  ShadowOutcome outcome;
  if (!decoded.ok()) {
    outcome.ok = false;
    outcome.failure = "op-record wire corruption";
    return outcome;
  }
  return shadow_execute(dev, decoded.value(), config, std::move(clock));
}

namespace {

ShadowOutcome fail(const char* why) {
  ShadowOutcome outcome;
  outcome.ok = false;
  outcome.failure = why;
  return outcome;
}

}  // namespace

ShadowOutcome ForkShadowExecutor::execute(BlockDevice* dev,
                                          const std::vector<OpRecord>& log,
                                          const ShadowConfig& config,
                                          SimClockPtr clock) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) return fail("pipe() failed");

  auto encoded = wire::encode_op_records(log);

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return fail("fork() failed");
  }

  if (pid == 0) {
    // Child: its copy-on-write address space is the isolation boundary.
    // The device snapshot is whatever the parent's memory held at fork();
    // the shadow reads it through a read-only view and writes nothing.
    // Simulated-time note: the device object charges ITS clock, which in
    // the child is a COW copy -- those charges stay in the child. The
    // fresh child clock below captures the shadow's own costs, which is
    // what sim_time_used reports back; fork-mode recovery time therefore
    // undercounts pure device-read latency slightly (a few percent).
    ::close(pipefd[0]);
    auto decoded = wire::decode_op_records(encoded);
    ShadowOutcome outcome;
    if (!decoded.ok()) {
      outcome.ok = false;
      outcome.failure = "op-record wire corruption (child)";
    } else {
      auto child_clock = make_clock();  // fresh clock; delta reported back
      outcome = shadow_execute(dev, decoded.value(), config, child_clock);
    }
    bool sent = ufs::send_message(pipefd[1], wire::encode_outcome(outcome));
    ::close(pipefd[1]);
    ::_exit(sent ? 0 : 1);
  }

  // Parent.
  ::close(pipefd[1]);
  std::vector<uint8_t> bytes;
  ShadowOutcome outcome;
  if (!ufs::recv_message(pipefd[0], &bytes)) {
    outcome = fail("shadow child produced no, truncated or oversized output");
  } else {
    auto decoded = wire::decode_outcome(bytes);
    outcome = decoded.ok() ? std::move(decoded).value()
                           : fail("outcome wire corruption");
  }
  ::close(pipefd[0]);

  int status = 0;
  (void)::waitpid(pid, &status, 0);
  if (outcome.ok && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
    outcome = fail("shadow child crashed");
  }
  if (clock && outcome.sim_time_used > 0) clock->advance(outcome.sim_time_used);
  return outcome;
}

std::unique_ptr<ShadowExecutor> make_executor(bool use_fork) {
  if (use_fork) return std::make_unique<ForkShadowExecutor>();
  return std::make_unique<InProcessShadowExecutor>();
}

}  // namespace raefs
