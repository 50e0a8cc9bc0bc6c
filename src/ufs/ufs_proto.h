// RPC protocol between the forked base server and its supervisor:
// length-framed messages over a pipe pair. Requests reuse OpRequest (every
// operation, reads included, has an OpKind); responses reuse OpOutcome
// (payload carries read results). One control frame asks the server to
// unmount and exit cleanly. The fork shadow executor ships its outcome
// back over the same send_message/recv_message framing.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "oplog/op.h"

namespace raefs {
namespace ufs {

enum class FrameKind : uint8_t {
  kOp = 1,        // body: encoded OpRequest
  kShutdown = 2,  // body: empty; server unmounts and exits 0
};

struct Frame {
  FrameKind kind = FrameKind::kOp;
  OpRequest req;
};

std::vector<uint8_t> encode_frame(const Frame& frame);
Result<Frame> decode_frame(std::span<const uint8_t> bytes);

std::vector<uint8_t> encode_response(const OpOutcome& outcome);
Result<OpOutcome> decode_response(std::span<const uint8_t> bytes);

/// Length-prefixed IO over fds (u32 little-endian length, then the bytes);
/// false on EOF/error (peer death) or a length over 2 GiB.
bool send_message(int fd, std::span<const uint8_t> bytes);
bool recv_message(int fd, std::vector<uint8_t>* out);

}  // namespace ufs
}  // namespace raefs
