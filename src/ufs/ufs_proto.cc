#include "ufs/ufs_proto.h"

#include <unistd.h>

#include <cerrno>

#include "common/serial.h"

namespace raefs {
namespace ufs {

namespace {
constexpr uint32_t kFrameMagic = 0x55465251;  // "UFRQ"
constexpr uint32_t kRespMagic = 0x55465250;   // "UFRP"

void encode_request_fields(Encoder& enc, const OpRequest& req) {
  enc.put_u8(static_cast<uint8_t>(req.kind));
  enc.put_string(req.path);
  enc.put_string(req.path2);
  enc.put_u64(req.ino);
  enc.put_u64(req.gen);
  enc.put_u64(req.offset);
  enc.put_u64(req.len);
  enc.put_u32(static_cast<uint32_t>(req.data.size()));
  enc.put_bytes(req.data);
  enc.put_u16(req.mode);
  enc.put_u64(req.stamp);
}

OpRequest decode_request_fields(Decoder& dec) {
  OpRequest req;
  req.kind = static_cast<OpKind>(dec.get_u8());
  req.path = dec.get_string();
  req.path2 = dec.get_string();
  req.ino = dec.get_u64();
  req.gen = dec.get_u64();
  req.offset = dec.get_u64();
  req.len = dec.get_u64();
  uint32_t n = dec.get_u32();
  req.data = dec.get_bytes(n);
  req.mode = dec.get_u16();
  req.stamp = dec.get_u64();
  return req;
}
}  // namespace

std::vector<uint8_t> encode_frame(const Frame& frame) {
  std::vector<uint8_t> bytes;
  Encoder enc(&bytes);
  enc.put_u32(kFrameMagic);
  enc.put_u8(static_cast<uint8_t>(frame.kind));
  if (frame.kind == FrameKind::kOp) encode_request_fields(enc, frame.req);
  return bytes;
}

Result<Frame> decode_frame(std::span<const uint8_t> bytes) {
  Decoder dec(bytes);
  if (dec.get_u32() != kFrameMagic) return Errno::kCorrupt;
  Frame frame;
  frame.kind = static_cast<FrameKind>(dec.get_u8());
  if (frame.kind == FrameKind::kOp) {
    frame.req = decode_request_fields(dec);
  } else if (frame.kind != FrameKind::kShutdown) {
    return Errno::kCorrupt;
  }
  if (!dec.ok() || dec.remaining() != 0) return Errno::kCorrupt;
  return frame;
}

std::vector<uint8_t> encode_response(const OpOutcome& outcome) {
  std::vector<uint8_t> bytes;
  Encoder enc(&bytes);
  enc.put_u32(kRespMagic);
  enc.put_u32(static_cast<uint32_t>(outcome.err));
  enc.put_u64(outcome.assigned_ino);
  enc.put_u64(outcome.result_len);
  enc.put_u32(static_cast<uint32_t>(outcome.payload.size()));
  enc.put_bytes(outcome.payload);
  return bytes;
}

Result<OpOutcome> decode_response(std::span<const uint8_t> bytes) {
  Decoder dec(bytes);
  if (dec.get_u32() != kRespMagic) return Errno::kCorrupt;
  OpOutcome out;
  out.err = static_cast<Errno>(dec.get_u32());
  out.assigned_ino = dec.get_u64();
  out.result_len = dec.get_u64();
  uint32_t n = dec.get_u32();
  out.payload = dec.get_bytes(n);
  if (!dec.ok() || dec.remaining() != 0) return Errno::kCorrupt;
  return out;
}

bool send_message(int fd, std::span<const uint8_t> bytes) {
  uint32_t len = static_cast<uint32_t>(bytes.size());
  uint8_t header[4] = {static_cast<uint8_t>(len),
                       static_cast<uint8_t>(len >> 8),
                       static_cast<uint8_t>(len >> 16),
                       static_cast<uint8_t>(len >> 24)};
  auto write_all = [&](const uint8_t* data, size_t n) {
    while (n > 0) {
      ssize_t w = ::write(fd, data, n);
      if (w <= 0) {
        if (w < 0 && errno == EINTR) continue;
        return false;
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  };
  return write_all(header, 4) && write_all(bytes.data(), bytes.size());
}

bool recv_message(int fd, std::vector<uint8_t>* out) {
  auto read_all = [&](uint8_t* data, size_t n) {
    while (n > 0) {
      ssize_t r = ::read(fd, data, n);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        return false;  // EOF: the peer died
      }
      data += r;
      n -= static_cast<size_t>(r);
    }
    return true;
  };
  uint8_t header[4];
  if (!read_all(header, 4)) return false;
  uint32_t len = static_cast<uint32_t>(header[0]) |
                 (static_cast<uint32_t>(header[1]) << 8) |
                 (static_cast<uint32_t>(header[2]) << 16) |
                 (static_cast<uint32_t>(header[3]) << 24);
  if (len > (1u << 31)) return false;  // sanity cap
  out->resize(len);
  return read_all(out->data(), len);
}

}  // namespace ufs
}  // namespace raefs
