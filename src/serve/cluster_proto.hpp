// Binary wire protocol of the sharded cluster (router -> shard node,
// shard node -> hot standby).
//
// The framing deliberately reuses the WAL's idiom (src/store/wal.*): a
// fixed magic + version header, then length-prefixed CRC-32-framed
// records, all integers little-endian fixed-width:
//
//   stream := "SQRTGCLU" u32(version = 2) frame*
//   frame  := u32(payload_len) u32(crc32(payload)) payload
//   payload:= u8(type) body
//
// Frame types:
//   kHello    u8(role) string(node_id)      — sent once by the initiator
//   kRecord   string(service) string(message)
//   kWalGroup u64(seq) string(ops)          — one committed WAL group,
//                                             ops exactly as appended
//   kAck      u64(count)                    — reserved (tests)
//
// The decoder is a pure incremental function over received bytes: it
// never blocks, never reads past its own buffer, caps the declared
// payload length BEFORE buffering (an oversized length poisons the
// stream immediately instead of waiting for gigabytes that will never
// arrive), and latches its first error — a poisoned stream decodes
// nothing further, so a malformed connection is counted exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/ingest.hpp"

namespace seqrtg::serve {

inline constexpr std::string_view kClusterMagic = "SQRTGCLU";
/// Version 2: kWalGroup ops carry rows in the store's binary row codec
/// (store format version 2), so a version 1 peer is refused at the header.
inline constexpr std::uint32_t kClusterProtoVersion = 2;
/// Hard cap on one frame's payload; a declared length above this is a
/// protocol violation, not a large message.
inline constexpr std::size_t kMaxClusterFramePayload = 16u << 20;

/// Peer roles carried in the kHello frame.
inline constexpr std::uint8_t kPeerRouter = 1;
inline constexpr std::uint8_t kPeerShipper = 2;

enum class ClusterFrameType : std::uint8_t {
  kHello = 1,
  kRecord = 2,
  kWalGroup = 3,
  kAck = 4,
};

/// One decoded frame; only the fields of its type are meaningful.
struct ClusterFrame {
  ClusterFrameType type = ClusterFrameType::kHello;
  // kHello
  std::uint8_t role = 0;
  std::string node_id;
  // kRecord
  core::LogRecord record;
  // kWalGroup
  std::uint64_t seq = 0;
  std::string ops;
  // kAck
  std::uint64_t count = 0;
};

/// The 12-byte stream header every connection starts with.
std::string cluster_stream_header();

/// Wraps `payload` into a length+CRC frame (tests use this to craft
/// deliberately corrupt payloads; the encode_* helpers below call it).
std::string encode_cluster_frame(std::string_view payload);

std::string encode_hello(std::uint8_t role, std::string_view node_id);
std::string encode_record(const core::LogRecord& record);
std::string encode_wal_group(std::uint64_t seq, std::string_view ops);
std::string encode_ack(std::uint64_t count);

/// Incremental frame decoder with a latched error state.
class ClusterFrameDecoder {
 public:
  explicit ClusterFrameDecoder(
      std::size_t max_payload = kMaxClusterFramePayload)
      : max_payload_(max_payload) {}

  /// Consumes `bytes`, appending every completely received frame to
  /// `out`. Returns false once the stream is poisoned (bad header,
  /// oversized length, CRC mismatch, malformed body); all further input
  /// is discarded.
  bool feed(std::string_view bytes, std::vector<ClusterFrame>* out);

  bool poisoned() const { return poisoned_; }
  const std::string& error() const { return error_; }
  /// Frames decoded over the stream's lifetime.
  std::uint64_t frames() const { return frames_; }
  /// Bytes received but not yet decodable (a partial frame). Non-zero at
  /// EOF means the peer truncated a frame mid-write.
  std::size_t pending_bytes() const { return buffer_.size() - pos_; }

 private:
  bool poison(std::string message);

  std::size_t max_payload_;
  std::string buffer_;
  std::size_t pos_ = 0;
  bool header_seen_ = false;
  bool poisoned_ = false;
  std::string error_;
  std::uint64_t frames_ = 0;
};

}  // namespace seqrtg::serve
