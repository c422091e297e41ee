// Write-ahead log for the pattern store (durability substrate).
//
// The paper's production workflow (§V) promotes and saves the mined pattern
// database daily; losing the store to a mid-save crash would throw away
// every pattern mined since the last good snapshot. The WAL makes each
// acknowledged mutation durable independently of the snapshot cycle:
//
//   file   := header record*
//   header := "SQRTGWAL" u32(version = 2)
//   record := u32(payload_len) u32(crc32(payload)) payload
//   payload:= u64(seq) op-bytes...
//
// All integers are little-endian fixed-width. One record carries one
// *commit group* — every operation of one repository batch — so a torn
// write never persists half a batch: the CRC covers the whole payload and
// replay drops the first record that fails to verify, along with
// everything after it (a corrupt middle implies an untrustworthy tail).
//
// Sequence numbers are monotonic across snapshot rotations and never
// reset. The header version is the store format version (see
// kStoreFormatVersion in pattern_store.hpp): op payloads carry rows in the
// store's row codec, so a log of another version is refused, not replayed.
// A snapshot file is named after the last sequence it contains
// (`snapshot-<seq>.db`), so recovery replays only records with
// seq > snapshot watermark — a crash between the snapshot rename and the
// WAL truncation merely leaves stale records that replay skips.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace seqrtg::store {

/// CRC-32 (ISO 3309, reflected 0xEDB88320) of `data`.
std::uint32_t crc32(std::string_view data);

/// Binary encoding helpers shared by the WAL framing and the op payloads
/// (also used by the fault-injection tests to craft corrupt records).
void wal_put_u32(std::string& out, std::uint32_t v);
void wal_put_u64(std::string& out, std::uint64_t v);
void wal_put_i64(std::string& out, std::int64_t v);
void wal_put_string(std::string& out, std::string_view s);

/// Bounds-checked reader over a record payload. `ok` latches false on the
/// first short read and stays false.
struct WalReader {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  std::string_view string();
  bool at_end() const { return pos == data.size(); }
};

class Wal {
 public:
  struct Record {
    std::uint64_t seq = 0;
    std::string payload;  // op bytes, seq already stripped
  };

  struct ReplayResult {
    /// False only when the file exists but its header is unreadable,
    /// foreign or of another format version (a missing file replays as
    /// zero records, ok == true).
    bool ok = true;
    /// Set when ok is false because the header names another version.
    std::string error;
    /// True when a partial or corrupt record ended the scan early.
    bool truncated = false;
    /// Byte offset of the end of the last valid record (>= header size).
    std::uint64_t valid_bytes = 0;
    std::vector<Record> records;
  };

  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Reads the committed prefix of the log at `path` without opening it
  /// for writing. Safe on a missing file (empty result).
  static ReplayResult replay(const std::string& path);

  /// Opens (creating if absent) the log for appending. Scans the existing
  /// tail, truncates any torn final record, and positions the sequence
  /// counter after the last committed record. When `recovered` is non-null
  /// the committed records are returned for the caller to re-apply.
  bool open(const std::string& path, ReplayResult* recovered = nullptr);

  bool is_open() const { return fd_ >= 0; }

  /// Appends one commit group; returns its sequence number (0 on error).
  /// The record is durable only once sync() has returned.
  std::uint64_t append(std::string_view ops);

  /// Installs a scripted torn-tail fault (testkit simulation layer). The
  /// hook is consulted with the sequence number the next append would
  /// commit; returning a non-negative byte count writes only that prefix
  /// of the framed record and wedges the log — the append reports failure
  /// and every later append fails too, exactly the on-disk state a process
  /// crash mid-write leaves behind. Return -1 for no fault. nullptr clears.
  void set_fault_hook(std::function<std::int64_t(std::uint64_t)> hook) {
    fault_ = std::move(hook);
  }

  /// True once a scripted fault has wedged the log.
  bool wedged() const { return wedged_; }

  /// fsyncs the log file. Returns false on I/O error.
  bool sync();

  /// Truncates the log back to its header after a snapshot rotation. The
  /// sequence counter is NOT reset — it stays monotonic for the lifetime
  /// of the store directory.
  bool reset();

  /// Raises the sequence counter so the next append is at least
  /// `min_next`. A checkpoint-truncated log carries no sequence history,
  /// so after recovery the counter must be pushed past the snapshot
  /// watermark or fresh appends would replay as stale.
  void ensure_next_seq(std::uint64_t min_next) {
    if (next_seq_ < min_next) next_seq_ = min_next;
  }

  std::uint64_t last_seq() const { return next_seq_ - 1; }
  /// Records appended or recovered since open() (i.e. since the last
  /// checkpoint truncated the file).
  std::uint64_t record_count() const { return record_count_; }
  std::uint64_t size_bytes() const { return size_bytes_; }
  const std::string& path() const { return path_; }

  void close();

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t record_count_ = 0;
  std::uint64_t size_bytes_ = 0;
  std::function<std::int64_t(std::uint64_t)> fault_;
  bool wedged_ = false;
};

}  // namespace seqrtg::store
