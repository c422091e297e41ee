#include "store/pattern_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "obs/trace.hpp"

namespace seqrtg::store {

namespace {

namespace fs = std::filesystem;

/// WAL op codes (one byte each inside a commit group).
constexpr std::uint8_t kOpUpsert = 1;
constexpr std::uint8_t kOpRecordMatch = 2;
/// Pattern deletion (evolution/compaction rewrites).
constexpr std::uint8_t kOpDelete = 3;
/// Partition residency transitions (resource governance). Both embed the
/// partition's full row set — see the spill contract in pattern_store.hpp.
constexpr std::uint8_t kOpSpill = 4;
constexpr std::uint8_t kOpReload = 5;

constexpr std::string_view kWalFile = "wal.log";
constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".db";
constexpr std::string_view kSpillPrefix = "spill-";
constexpr std::string_view kSpillSuffix = ".sp";

/// File magics (see the store file framing in pattern_store.hpp), plus the
/// leading bytes of the version 1 files they replace.
constexpr std::string_view kSnapshotMagic = "SQRTGSNP";
constexpr std::string_view kSpillMagic = "SQRTGSPL";
constexpr std::string_view kOldSnapshotMagic = "seqrtgdb";
constexpr std::string_view kOldSpillMagic = "SQRTGSP1";
/// magic + u32(version) + u32(len) + u32(crc).
constexpr std::size_t kFileHeaderSize = 8 + 12;

/// Token flag bits of the row codec.
constexpr std::uint8_t kTokenVariable = 1;
constexpr std::uint8_t kTokenSpaceBefore = 2;
/// Highest valid core::TokenType tag.
constexpr std::uint8_t kMaxTokenType =
    static_cast<std::uint8_t>(core::TokenType::Rest);

/// Per-row overheads charged by the partition-bytes estimate on top of the
/// string payloads (map nodes, vectors, the pid index entry). The estimate
/// only has to be consistent between the running totals and the audit
/// recount — both use row_bytes — and monotone in real usage.
constexpr std::size_t kPatternRowOverheadBytes = 160;
constexpr std::size_t kTokenOverheadBytes = 16;
constexpr std::size_t kExampleRowOverheadBytes = 48;

/// Store operation counters; same family as the in-memory repository,
/// distinguished by the backend label.
obs::Counter& store_op(const char* op) {
  return obs::default_registry().counter(
      "seqrtg_repo_ops_total", "Pattern repository operations",
      {{"backend", "store"}, {"op", op}});
}

obs::Counter& wal_counter(const char* name, const char* help) {
  return obs::default_registry().counter(name, help);
}

struct StoreMetrics {
  obs::Counter& load_service;
  obs::Counter& upsert;
  obs::Counter& record_match;
  obs::Counter& del;
  obs::Counter& save;
  obs::Counter& load;
  obs::Histogram& persist_seconds;
  obs::Counter& corrupt_rows;
  obs::Counter& wal_appends;
  obs::Counter& wal_bytes;
  obs::Counter& wal_replayed;
  obs::Counter& wal_truncations;
  obs::Counter& wal_snapshots;
};

StoreMetrics& store_metrics() {
  static StoreMetrics m{
      store_op("load_service"),
      store_op("upsert"),
      store_op("record_match"),
      store_op("delete"),
      store_op("save"),
      store_op("load"),
      obs::default_registry().histogram(
          "seqrtg_store_persist_seconds",
          "Latency of PatternStore::save / load / checkpoint / open"),
      wal_counter("seqrtg_store_corrupt_rows_total",
                  "Pattern rows dropped because their encoding did not "
                  "decode"),
      wal_counter("seqrtg_store_wal_appends_total",
                  "Commit groups appended to the write-ahead log"),
      wal_counter("seqrtg_store_wal_bytes_total",
                  "Bytes appended to the write-ahead log"),
      wal_counter("seqrtg_store_wal_replayed_total",
                  "Commit groups replayed from the WAL tail during open()"),
      wal_counter("seqrtg_store_wal_truncations_total",
                  "Recoveries that dropped a torn or corrupt WAL tail"),
      wal_counter("seqrtg_store_wal_snapshots_total",
                  "Snapshot rotations completed by checkpoint()")};
  return m;
}

/// Resident-bytes estimate of one row (see the overhead constants).
std::size_t row_bytes(std::string_view pid, const core::Pattern& p) {
  std::size_t total = kPatternRowOverheadBytes + pid.size() + p.service.size();
  for (const core::PatternToken& t : p.tokens) {
    total += kTokenOverheadBytes + t.text.size() + t.name.size();
  }
  for (const std::string& e : p.examples) {
    total += kExampleRowOverheadBytes + e.size();
  }
  return total;
}

/// Appends string(row): the row body with its u32 length prefix.
void put_framed_row(std::string& out, const core::Pattern& p) {
  const std::size_t at = out.size();
  out.append(4, '\0');
  encode_row(out, p);
  std::string len;
  wal_put_u32(len, static_cast<std::uint32_t>(out.size() - at - 4));
  out.replace(at, 4, len);
}

/// rows := u32(n) string(row)* over a partition's rows, in pid order.
template <typename Rows>
std::string encode_rows(const Rows& rows) {
  std::string out;
  wal_put_u32(out, static_cast<std::uint32_t>(rows.size()));
  for (const auto& [pid, p] : rows) put_framed_row(out, p);
  return out;
}

/// Decodes a rows section into `out` (declared, rows, bad_rows). A
/// partition's rows (`service` set) must all name that service; a row that
/// does not is malformed. False when the framing itself is broken (a short
/// read or trailing bytes).
bool decode_rows(std::string_view bytes, DecodedRows* out,
                 std::optional<std::string_view> service = std::nullopt) {
  WalReader r{bytes};
  out->declared = r.u32();
  if (!r.ok) return false;
  for (std::uint32_t i = 0; i < out->declared; ++i) {
    const std::string_view body = r.string();
    if (!r.ok) return false;
    core::Pattern p;
    if (decode_row(body, &p) && (!service || p.service == *service)) {
      out->rows.push_back(std::move(p));
    } else {
      ++out->bad_rows;
    }
  }
  return r.at_end();
}

/// Verifies a store file's framing and yields its payload.
FileError unframe_file(std::string_view bytes, std::string_view magic,
                       std::string_view old_magic, std::string_view* payload) {
  if (bytes.substr(0, old_magic.size()) == old_magic) {
    return FileError::kOldFormat;
  }
  if (bytes.substr(0, magic.size()) != magic.substr(0, bytes.size())) {
    return FileError::kBadMagic;
  }
  if (bytes.size() < kFileHeaderSize) return FileError::kTruncated;
  WalReader header{bytes.substr(magic.size())};
  const std::uint32_t version = header.u32();
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  if (version != kStoreFormatVersion) return FileError::kBadVersion;
  const std::string_view body = bytes.substr(kFileHeaderSize);
  if (body.size() < len) return FileError::kTruncated;
  if (body.size() > len) return FileError::kBadPayload;
  if (crc32(body) != crc) return FileError::kBadChecksum;
  *payload = body;
  return FileError::kNone;
}

/// Splits a spill file into its service name and raw rows section.
FileError parse_spill_file(std::string_view bytes, std::string_view* service,
                           std::string_view* rows) {
  std::string_view payload;
  const FileError e =
      unframe_file(bytes, kSpillMagic, kOldSpillMagic, &payload);
  if (e != FileError::kNone) return e;
  WalReader r{payload};
  *service = r.string();
  if (!r.ok) return FileError::kBadPayload;
  *rows = payload.substr(r.pos);
  return FileError::kNone;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// fsyncs a directory so a completed rename survives a crash.
bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Writes the store file `magic` + header + `payload` to `path` through
/// `path.tmp` + rename. With `durable` the temp file is fsynced before the
/// rename and its directory after it.
bool write_store_file(const std::string& path, std::string_view magic,
                      std::string_view payload, bool durable) {
  std::string header(magic);
  wal_put_u32(header, kStoreFormatVersion);
  wal_put_u32(header, static_cast<std::uint32_t>(payload.size()));
  wal_put_u32(header, crc32(payload));
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  if (ok && durable) {
    ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (durable) {
    const fs::path parent = fs::path(path).parent_path();
    return fsync_dir(parent.empty() ? "." : parent.string());
  }
  return true;
}

std::string snapshot_name(std::uint64_t seq) {
  return std::string(kSnapshotPrefix) + std::to_string(seq) +
         std::string(kSnapshotSuffix);
}

/// Parses "snapshot-<seq>.db"; false for anything else (including the
/// ".tmp" leftovers of an interrupted checkpoint).
bool parse_snapshot_name(std::string_view name, std::uint64_t* seq) {
  if (name.size() <= kSnapshotPrefix.size() + kSnapshotSuffix.size() ||
      name.substr(0, kSnapshotPrefix.size()) != kSnapshotPrefix ||
      name.substr(name.size() - kSnapshotSuffix.size()) != kSnapshotSuffix) {
    return false;
  }
  const std::string_view digits = name.substr(
      kSnapshotPrefix.size(),
      name.size() - kSnapshotPrefix.size() - kSnapshotSuffix.size());
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

std::int64_t file_mtime_unix(const fs::path& p) {
  struct stat st;
  if (::stat(p.c_str(), &st) != 0) return 0;
  return static_cast<std::int64_t>(st.st_mtime);
}

/// kOpSpill / kOpReload: the service and its full rows section.
std::string encode_residency(std::uint8_t op, std::string_view service,
                             std::string_view rows) {
  std::string ops(1, static_cast<char>(op));
  wal_put_string(ops, service);
  wal_put_string(ops, rows);
  return ops;
}

/// FNV-1a 64 over the service name; two independent seeds give the
/// 128-bit spill file name (stable across processes, unlike std::hash).
std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string spill_file_name(std::string_view service) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "spill-%016llx%016llx.sp",
                static_cast<unsigned long long>(
                    fnv1a64(service, 14695981039346656037ull)),
                static_cast<unsigned long long>(
                    fnv1a64(service, 0x9e3779b97f4a7c15ull)));
  return buf;
}

bool is_spill_file_name(std::string_view name) {
  return name.size() ==
             kSpillPrefix.size() + 32 + kSpillSuffix.size() &&
         name.substr(0, kSpillPrefix.size()) == kSpillPrefix &&
         name.substr(name.size() - kSpillSuffix.size()) == kSpillSuffix;
}

}  // namespace

void encode_row(std::string& out, const core::Pattern& p) {
  wal_put_string(out, p.service);
  wal_put_u32(out, static_cast<std::uint32_t>(p.tokens.size()));
  for (const core::PatternToken& t : p.tokens) {
    out.push_back(static_cast<char>((t.is_variable ? kTokenVariable : 0) |
                                    (t.is_space_before ? kTokenSpaceBefore
                                                       : 0)));
    out.push_back(static_cast<char>(t.var_type));
    wal_put_string(out, t.text);
    wal_put_string(out, t.name);
  }
  wal_put_u64(out, p.stats.match_count);
  wal_put_i64(out, p.stats.first_seen);
  wal_put_i64(out, p.stats.last_matched);
  wal_put_u32(out, static_cast<std::uint32_t>(p.examples.size()));
  for (const std::string& e : p.examples) wal_put_string(out, e);
}

bool decode_row(std::string_view bytes, core::Pattern* out) {
  WalReader r{bytes};
  core::Pattern p;
  p.service = std::string(r.string());
  const std::uint32_t n_tokens = r.u32();
  // Exact capacity (rows live long), bounded by the bytes a forged count
  // could actually describe.
  p.tokens.reserve(std::min<std::size_t>(n_tokens, bytes.size() / 10));
  for (std::uint32_t i = 0; r.ok && i < n_tokens; ++i) {
    const std::uint8_t flags = r.u8();
    const std::uint8_t type = r.u8();
    if (flags > (kTokenVariable | kTokenSpaceBefore) || type > kMaxTokenType) {
      return false;
    }
    core::PatternToken t;
    t.is_variable = (flags & kTokenVariable) != 0;
    t.is_space_before = (flags & kTokenSpaceBefore) != 0;
    t.var_type = static_cast<core::TokenType>(type);
    t.text = std::string(r.string());
    t.name = std::string(r.string());
    p.tokens.push_back(std::move(t));
  }
  p.stats.match_count = r.u64();
  p.stats.first_seen = r.i64();
  p.stats.last_matched = r.i64();
  const std::uint32_t n_examples = r.u32();
  p.examples.reserve(std::min<std::size_t>(n_examples, bytes.size() / 4));
  for (std::uint32_t i = 0; r.ok && i < n_examples; ++i) {
    p.examples.emplace_back(r.string());
  }
  if (!r.ok || !r.at_end()) return false;
  *out = std::move(p);
  return true;
}

const char* file_error_name(FileError e) {
  static_assert(kStoreFormatVersion == 2, "update the kOldFormat message");
  switch (e) {
    case FileError::kNone: return "ok";
    case FileError::kTruncated: return "truncated";
    case FileError::kBadMagic: return "not a store file";
    case FileError::kOldFormat:
      return "written in store format version 1 (seqrtgdb text snapshot, "
             "JSON token rows), which this build does not read; it reads "
             "format version 2 only";
    case FileError::kBadVersion: return "unsupported format version";
    case FileError::kBadChecksum: return "checksum mismatch";
    case FileError::kBadPayload: return "malformed payload";
  }
  return "?";
}

DecodedRows decode_snapshot(std::string_view bytes) {
  DecodedRows out;
  std::string_view payload;
  out.error = unframe_file(bytes, kSnapshotMagic, kOldSnapshotMagic, &payload);
  if (out.error == FileError::kNone && !decode_rows(payload, &out)) {
    out = DecodedRows{};
    out.error = FileError::kBadPayload;
  }
  return out;
}

DecodedRows decode_spill_file(std::string_view bytes) {
  DecodedRows out;
  std::string_view service, rows;
  out.error = parse_spill_file(bytes, &service, &rows);
  if (out.error != FileError::kNone) return out;
  if (!decode_rows(rows, &out, service)) {
    out = DecodedRows{};
    out.error = FileError::kBadPayload;
    return out;
  }
  out.service = std::string(service);
  return out;
}

void PatternStore::apply_upsert(core::Pattern p) {
  std::string pid = p.id();
  const auto idx = pid_index_.find(pid);
  if (idx == pid_index_.end()) {
    const auto part = partitions_.try_emplace(p.service).first;
    const auto row =
        part->second.rows.emplace(std::move(pid), std::move(p)).first;
    part->second.bytes += row_bytes(row->first, row->second);
    pid_index_.emplace(row->first, part);
    return;
  }
  Partition& part = idx->second->second;
  core::Pattern& row = part.rows.find(pid)->second;
  part.bytes -= row_bytes(pid, row);
  core::merge_pattern_into(row, p, example_cap());
  part.bytes += row_bytes(pid, row);
}

const std::string* PatternStore::apply_record_match(const std::string& id,
                                                    std::uint64_t count,
                                                    std::int64_t when) {
  const auto idx = pid_index_.find(id);
  if (idx == pid_index_.end()) return nullptr;
  core::Pattern& row = idx->second->second.rows.find(id)->second;
  row.stats.match_count += count;
  row.stats.last_matched = std::max(row.stats.last_matched, when);
  return &idx->second->first;
}

std::optional<std::string> PatternStore::apply_delete(const std::string& id) {
  const auto idx = pid_index_.find(id);
  if (idx == pid_index_.end()) return std::nullopt;
  const PartitionMap::iterator part = idx->second;
  std::string service = part->first;
  const auto row = part->second.rows.find(id);
  part->second.bytes -= row_bytes(id, row->second);
  pid_index_.erase(idx);
  part->second.rows.erase(row);
  if (part->second.rows.empty()) partitions_.erase(part);
  return service;
}

void PatternStore::insert_rows(std::vector<core::Pattern> rows) {
  for (core::Pattern& p : rows) apply_upsert(std::move(p));
}

void PatternStore::clear_locked() {
  pid_index_.clear();  // first: its keys view the rows' keys
  partitions_.clear();
  spilled_.clear();
}

std::vector<core::Pattern> PatternStore::load_service(
    std::string_view service) {
  if (obs::telemetry_enabled()) store_metrics().load_service.inc();
  std::lock_guard lock(mutex_);
  // Transparent reload: a spilled partition comes back through its spill
  // file + a kOpReload group before the caller sees any rows.
  ensure_resident_locked(service);
  std::vector<core::Pattern> out;
  const auto part = partitions_.find(service);
  if (part != partitions_.end()) {
    out.reserve(part->second.rows.size());
    for (const auto& [pid, p] : part->second.rows) out.push_back(p);
  }
  refresh_partition_locked(service);
  return out;
}

std::vector<std::string> PatternStore::services() {
  std::lock_guard lock(mutex_);
  return services_locked();
}

std::vector<std::string> PatternStore::services_locked() const {
  // Spilled partitions are still part of the logical store (the two maps
  // are disjoint).
  std::vector<std::string> out;
  for (const auto& [svc, part] : partitions_) out.push_back(svc);
  for (const auto& [svc, patterns] : spilled_) out.push_back(svc);
  std::sort(out.begin(), out.end());
  return out;
}

void PatternStore::log_ops(std::string ops) {
  if (!wal_.is_open() || ops.empty()) return;
  const auto scope = batch_ops_.find(std::this_thread::get_id());
  if (scope != batch_ops_.end()) {
    scope->second.append(ops);
    return;
  }
  append_group(std::move(ops));
}

void PatternStore::append_group(std::string ops) {
  if (!wal_.is_open() || ops.empty()) return;
  obs::TraceSpan span(obs::TraceCat::kStore, "wal_append");
  span.set_args(static_cast<std::int64_t>(ops.size()));
  const std::uint64_t before = wal_.size_bytes();
  const std::uint64_t seq = wal_.append(ops);
  if (seq != 0) wal_.sync();
  if (obs::telemetry_enabled()) {
    store_metrics().wal_appends.inc();
    store_metrics().wal_bytes.inc(wal_.size_bytes() - before);
  }
  // Ship only after the local sync: the standby must never hold a group
  // the primary could lose.
  if (seq != 0 && commit_sink_) commit_sink_(seq, ops);
}

void PatternStore::note_batch_service_locked(std::string_view service) {
  const auto scope = batch_ops_.find(std::this_thread::get_id());
  if (scope == batch_ops_.end()) return;
  batch_services_[std::this_thread::get_id()].emplace(std::string(service));
}

void PatternStore::upsert_pattern(const core::Pattern& p) {
  if (obs::telemetry_enabled()) store_metrics().upsert.inc();
  std::lock_guard lock(mutex_);
  // A write to a spilled partition reloads it first, so the upsert merges
  // against the full row set instead of resurrecting a partial one.
  ensure_resident_locked(p.service);
  apply_upsert(p);
  if (wal_.is_open()) {
    std::string ops(1, static_cast<char>(kOpUpsert));
    put_framed_row(ops, p);
    log_ops(std::move(ops));
    note_batch_service_locked(p.service);
  }
  refresh_partition_locked(p.service);
}

void PatternStore::record_match(const std::string& id, std::uint64_t count,
                                std::int64_t when) {
  if (obs::telemetry_enabled()) store_metrics().record_match.inc();
  std::lock_guard lock(mutex_);
  // Resident rows only: the engine pins the service around load + stats
  // update, so the row is here by contract. A spilled row is a caller bug
  // and drops the count, exactly like the "unknown id" case.
  const std::string* service = apply_record_match(id, count, when);
  if (service == nullptr) return;
  if (wal_.is_open()) {
    std::string ops(1, static_cast<char>(kOpRecordMatch));
    wal_put_string(ops, id);
    wal_put_u64(ops, count);
    wal_put_i64(ops, when);
    log_ops(std::move(ops));
    note_batch_service_locked(*service);
  }
  // The bytes estimate is count-independent, so no ledger refresh here.
}

bool PatternStore::delete_pattern(const std::string& id) {
  if (obs::telemetry_enabled()) store_metrics().del.inc();
  std::lock_guard lock(mutex_);
  const std::optional<std::string> service = apply_delete(id);
  if (!service.has_value()) return false;
  if (wal_.is_open()) {
    std::string ops(1, static_cast<char>(kOpDelete));
    wal_put_string(ops, id);
    log_ops(std::move(ops));
    note_batch_service_locked(*service);
  }
  refresh_partition_locked(*service);
  return true;
}

void PatternStore::begin_batch() {
  std::lock_guard lock(mutex_);
  batch_ops_[std::this_thread::get_id()].clear();
  batch_services_[std::this_thread::get_id()].clear();
}

void PatternStore::commit_batch() {
  std::lock_guard lock(mutex_);
  const auto scope = batch_ops_.find(std::this_thread::get_id());
  if (scope == batch_ops_.end()) return;
  std::string ops = std::move(scope->second);
  batch_ops_.erase(scope);
  batch_services_.erase(std::this_thread::get_id());
  append_group(std::move(ops));
}

void PatternStore::abort_batch() {
  std::lock_guard lock(mutex_);
  batch_ops_.erase(std::this_thread::get_id());
  batch_services_.erase(std::this_thread::get_id());
}

std::optional<core::Pattern> PatternStore::find(const std::string& id) {
  std::lock_guard lock(mutex_);
  const auto idx = pid_index_.find(id);
  if (idx == pid_index_.end()) return std::nullopt;
  return idx->second->second.rows.find(id)->second;
}

std::size_t PatternStore::pattern_count() {
  std::lock_guard lock(mutex_);
  std::size_t count = pid_index_.size();
  for (const auto& [svc, patterns] : spilled_) count += patterns;
  return count;
}

std::vector<core::Pattern> PatternStore::export_patterns(
    const ExportFilter& filter) {
  std::lock_guard lock(mutex_);
  std::vector<core::Pattern> out;
  auto keep = [&](const core::Pattern& p) {
    return p.stats.match_count >= filter.min_match_count &&
           p.complexity() < filter.max_complexity;
  };
  // Services in name order, each partition in pid order; a spilled
  // partition is read through its spill file (no reload — export must not
  // change residency).
  for (const std::string& svc : services_locked()) {
    if (!filter.service.empty() && svc != filter.service) continue;
    const auto part = partitions_.find(svc);
    if (part != partitions_.end()) {
      for (const auto& [pid, p] : part->second.rows) {
        if (keep(p)) out.push_back(p);
      }
      continue;
    }
    std::string bytes;
    if (!read_file(spill_file_path(svc), &bytes)) continue;
    DecodedRows file = decode_spill_file(bytes);
    if (file.error != FileError::kNone) continue;
    for (core::Pattern& p : file.rows) {
      if (keep(p)) out.push_back(std::move(p));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const core::Pattern& a, const core::Pattern& b) {
                     return a.stats.match_count > b.stats.match_count;
                   });
  return out;
}

std::string PatternStore::last_error() {
  std::lock_guard lock(mutex_);
  return last_error_;
}

bool PatternStore::save(const std::string& path) {
  if (obs::telemetry_enabled()) store_metrics().save.inc();
  obs::StageTimer timer(store_metrics().persist_seconds);
  std::lock_guard lock(mutex_);
  return write_store_file(path, kSnapshotMagic, snapshot_rows_locked(),
                          /*durable=*/false);
}

bool PatternStore::load(const std::string& path) {
  if (obs::telemetry_enabled()) store_metrics().load.inc();
  obs::StageTimer timer(store_metrics().persist_seconds);
  std::lock_guard lock(mutex_);
  clear_locked();
  last_error_.clear();
  return load_snapshot_locked(path) == FileError::kNone;
}

std::string PatternStore::snapshot_rows_locked() const {
  std::string rows;
  wal_put_u32(rows, static_cast<std::uint32_t>(pid_index_.size()));
  for (const auto& [svc, part] : partitions_) {
    for (const auto& [pid, p] : part.rows) put_framed_row(rows, p);
  }
  return rows;
}

FileError PatternStore::load_snapshot_locked(const std::string& path) {
  std::string bytes;
  if (!read_file(path, &bytes)) {
    last_error_ = path + ": cannot read";
    return FileError::kTruncated;
  }
  DecodedRows file = decode_snapshot(bytes);
  if (file.error != FileError::kNone) {
    last_error_ = path + ": " + file_error_name(file.error);
    return file.error;
  }
  std::string().swap(bytes);  // the rows own their data; free the image
  if (file.bad_rows != 0) store_metrics().corrupt_rows.inc(file.bad_rows);
  insert_rows(std::move(file.rows));
  return FileError::kNone;
}

void PatternStore::replay_ops(std::string_view ops) {
  WalReader r{ops};
  while (r.ok && !r.at_end()) {
    const std::uint8_t op = r.u8();
    if (op == kOpUpsert) {
      const std::string_view body = r.string();
      if (!r.ok) break;
      core::Pattern p;
      if (!decode_row(body, &p)) {
        // CRC passed but the row is logically malformed (should never
        // happen): skip it, count it, keep replaying the group.
        store_metrics().corrupt_rows.inc();
        continue;
      }
      apply_upsert(std::move(p));
    } else if (op == kOpRecordMatch) {
      const std::string id(r.string());
      const std::uint64_t count = r.u64();
      const std::int64_t when = r.i64();
      if (!r.ok) break;
      apply_record_match(id, count, when);
    } else if (op == kOpDelete) {
      const std::string id(r.string());
      if (!r.ok) break;
      apply_delete(id);
    } else if (op == kOpSpill || op == kOpReload) {
      const std::string_view service = r.string();
      const std::string_view rows = r.string();
      if (!r.ok) break;
      if (op == kOpSpill) {
        apply_spill(service, rows);
      } else {
        apply_reload(service, rows);
      }
    } else {
      break;  // unknown op: drop the rest of the group
    }
  }
}

bool PatternStore::apply_replicated_group(std::uint64_t seq,
                                          std::string_view ops) {
  std::lock_guard lock(mutex_);
  if (!wal_.is_open() || seq == 0 || ops.empty()) return false;
  // Idempotent re-delivery: a group the standby already holds (or that a
  // checkpoint folded into the snapshot) is acknowledged, not re-applied.
  if (seq <= wal_.last_seq() || seq <= snapshot_seq_) return true;
  replay_ops(ops);
  // Mirror the primary's sequence exactly — gaps included — so takeover
  // resumes numbering where the primary stopped.
  wal_.ensure_next_seq(seq);
  const std::uint64_t assigned = wal_.append(ops);
  if (assigned != 0) wal_.sync();
  return assigned == seq;
}

bool PatternStore::open(const std::string& dir) {
  if (obs::telemetry_enabled()) store_metrics().load.inc();
  obs::StageTimer timer(store_metrics().persist_seconds);
  std::lock_guard lock(mutex_);
  auto reset = [&] {
    wal_.close();
    dir_.clear();
    clear_locked();
    snapshot_seq_ = 0;
  };
  reset();
  last_error_.clear();
  batch_ops_.clear();
  batch_services_.clear();
  // Every failure below leaves the store empty and non-durable.
  auto fail = [&](std::string error) {
    obs::logev(obs::LogLevel::kError, "store", "open_failed",
               {{"dir", dir}, {"error", error}});
    last_error_ = std::move(error);
    reset();
    return false;
  };

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return fail(dir + ": " + ec.message());

  // Newest valid snapshot wins; older generations are the fallback when
  // the newest fails to decode (disk rot). ".tmp" leftovers of a
  // checkpoint that died before its rename are ignored entirely. An
  // old-format snapshot is never skipped over: the directory predates
  // this format and refusing it is the only safe answer.
  std::vector<std::uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (const std::uint64_t seq : seqs) {
    const FileError error =
        load_snapshot_locked((fs::path(dir) / snapshot_name(seq)).string());
    if (error == FileError::kNone) {
      snapshot_seq_ = seq;
      break;
    }
    if (error == FileError::kOldFormat) return fail(last_error_);
    obs::logev(obs::LogLevel::kError, "store", "snapshot_corrupt",
               {{"error", last_error_}});
  }
  last_error_.clear();  // a rotted generation an older one covers is fine

  // Replay the WAL tail past the snapshot watermark, then keep the log
  // open for appending (open() truncates any torn final record).
  Wal::ReplayResult recovered;
  const std::string wal_path = (fs::path(dir) / kWalFile).string();
  if (!wal_.open(wal_path, &recovered)) {
    return fail(recovered.error.empty() ? wal_path + ": cannot open"
                                        : recovered.error);
  }
  wal_.ensure_next_seq(snapshot_seq_ + 1);
  // Residency ops replayed below rewrite spill files, so the directory
  // must be bound before the replay loop runs.
  dir_ = dir;
  std::uint64_t replayed = 0;
  for (const Wal::Record& rec : recovered.records) {
    if (rec.seq <= snapshot_seq_) continue;  // stale pre-checkpoint record
    replay_ops(rec.payload);
    ++replayed;
  }
  if (obs::telemetry_enabled()) {
    store_metrics().wal_replayed.inc(replayed);
    if (recovered.truncated) store_metrics().wal_truncations.inc();
  }
  if (!reconcile_spill_files_locked()) return fail(last_error_);
  return true;
}

bool PatternStore::checkpoint() {
  if (obs::telemetry_enabled()) store_metrics().save.inc();
  obs::StageTimer timer(store_metrics().persist_seconds);
  obs::TraceSpan span(obs::TraceCat::kStore, "checkpoint");
  std::lock_guard lock(mutex_);
  if (!wal_.is_open()) return false;

  const std::uint64_t seq = wal_.last_seq();
  const fs::path dir(dir_);
  if (!write_store_file((dir / snapshot_name(seq)).string(), kSnapshotMagic,
                        snapshot_rows_locked(), /*durable=*/true)) {
    return false;
  }
  // The snapshot is durable; the log can drop everything at or below its
  // watermark. A crash right here leaves stale records whose seq <= the
  // watermark — recovery skips them.
  if (!wal_.reset()) return false;

  // Retain the previous snapshot as a fallback; delete older generations.
  std::error_code ec;
  std::vector<std::uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t s = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &s) &&
        s < seq) {
      seqs.push_back(s);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    fs::remove(dir / snapshot_name(seqs[i]), ec);
  }

  snapshot_seq_ = seq;
  if (obs::telemetry_enabled()) store_metrics().wal_snapshots.inc();
  return true;
}

std::string PatternStore::spill_file_path(std::string_view service) const {
  return (fs::path(dir_) / spill_file_name(service)).string();
}

bool PatternStore::write_spill_file_locked(std::string_view service,
                                           std::string_view rows,
                                           bool fsync) {
  std::string payload;
  wal_put_string(payload, service);
  payload.append(rows);

  const std::string path = spill_file_path(service);
  // 128-bit name-collision guard: never overwrite another service's file.
  std::string existing;
  std::string_view existing_service, existing_rows;
  if (read_file(path, &existing) &&
      parse_spill_file(existing, &existing_service, &existing_rows) ==
          FileError::kNone &&
      existing_service != service) {
    return false;
  }
  return write_store_file(path, kSpillMagic, payload, fsync);
}

void PatternStore::refresh_partition_locked(std::string_view service) {
  if (governor_ == nullptr) return;
  core::MemoryAccountant* acct = governor_->accountant();
  const auto part = partitions_.find(service);
  if (part == partitions_.end()) {
    if (acct != nullptr) acct->drop_partition(service);
    governor_->on_deleted(service);
    return;
  }
  if (acct != nullptr) acct->set_partition_bytes(service, part->second.bytes);
  governor_->touch(service);
}

void PatternStore::erase_partition_locked(std::string_view service) {
  const auto part = partitions_.find(service);
  if (part == partitions_.end()) return;
  for (const auto& [pid, p] : part->second.rows) pid_index_.erase(pid);
  partitions_.erase(part);
}

bool PatternStore::mark_spilled_locked(std::string_view service,
                                       std::size_t patterns) {
  erase_partition_locked(service);
  spilled_[std::string(service)] = patterns;
  if (governor_ == nullptr) return true;
  if (auto* acct = governor_->accountant()) acct->drop_partition(service);
  return governor_->on_spilled(service);
}

void PatternStore::mark_resident_locked(std::string_view service,
                                        DecodedRows rows) {
  if (rows.bad_rows != 0) store_metrics().corrupt_rows.inc(rows.bad_rows);
  insert_rows(std::move(rows.rows));
  std::error_code ec;
  fs::remove(spill_file_path(service), ec);
  const auto it = spilled_.find(service);
  if (it != spilled_.end()) spilled_.erase(it);
  if (governor_ != nullptr) governor_->on_resident(service);
}

void PatternStore::apply_spill(std::string_view service,
                               std::string_view rows) {
  // (Re)write the spill file from the embedded rows: a standby applying a
  // shipped group needs its own copy, and open-replay restores the
  // file ⟺ spilled invariant even if the live file write was torn. During
  // a live spill this rewrite is redundant but byte-identical.
  write_spill_file_locked(service, rows, /*fsync=*/false);
  // Replay/standby apply mirrors a spill the primary already committed; a
  // local pin cannot veto it. A refused (pinned) entry just stays in the
  // LRU until the partition is reloaded through on_resident.
  (void)mark_spilled_locked(service, WalReader{rows}.u32());
}

void PatternStore::apply_reload(std::string_view service,
                                std::string_view rows) {
  // Residency ops are self-contained: clear anything present, then insert
  // the embedded rows verbatim.
  erase_partition_locked(service);
  DecodedRows decoded;
  if (!decode_rows(rows, &decoded, service)) {
    store_metrics().corrupt_rows.inc();
    decoded = DecodedRows{};
  }
  mark_resident_locked(service, std::move(decoded));
}

bool PatternStore::ensure_resident_locked(std::string_view service) {
  const auto it = spilled_.find(service);
  if (it == spilled_.end()) return true;
  obs::TraceSpan span(obs::TraceCat::kStore, "partition_reload");
  const std::string path = spill_file_path(service);
  std::string bytes;
  std::string_view file_service, rows;
  DecodedRows decoded;
  if (!read_file(path, &bytes) ||
      parse_spill_file(bytes, &file_service, &rows) != FileError::kNone ||
      file_service != service || !decode_rows(rows, &decoded, service)) {
    // Corrupt or missing spill file: the partition's rows are gone. Stop
    // claiming they exist, surface it loudly, and let the caller proceed
    // with an empty partition (mining will rebuild patterns from traffic).
    obs::logev(obs::LogLevel::kError, "store", "spill_file_corrupt",
               {{"service", std::string(service)}, {"path", path}});
    spilled_.erase(it);
    if (governor_ != nullptr) governor_->on_deleted(service);
    std::error_code ec;
    fs::remove(path, ec);
    return false;
  }
  // Commit point: the kOpReload group (rows embedded) reaches the WAL
  // before the file is deleted, so replay and the standby rebuild the
  // partition from the log alone.
  append_group(encode_residency(kOpReload, service, rows));
  mark_resident_locked(service, std::move(decoded));
  fsync_dir(dir_);
  refresh_partition_locked(service);
  if (obs::telemetry_enabled()) store_op("reload").inc();
  return true;
}

bool PatternStore::spill_partition(const std::string& service) {
  std::lock_guard lock(mutex_);
  if (!wal_.is_open() || wal_.wedged()) return false;
  if (spilled_.find(service) != spilled_.end()) return false;
  // Ordering contract: a service with ops buffered in any open batch scope
  // must not spill, or the WAL would record the spill ahead of mutations
  // that already happened in memory.
  for (const auto& [tid, touched] : batch_services_) {
    if (touched.find(service) != touched.end()) return false;
  }
  // Final pin re-check under our lock — closes the race where a lane pins
  // the victim between enforce()'s selection and this call.
  if (governor_ != nullptr && !governor_->try_claim_spill(service)) {
    return false;
  }
  const auto part = partitions_.find(service);
  if (part == partitions_.end()) {
    // Nothing to spill. Refresh so a zero-row LRU entry (left by pin/touch
    // on a service with no stored patterns) is dropped once unpinned
    // instead of lingering as a permanent enforce() refusal.
    refresh_partition_locked(service);
    return false;
  }
  obs::TraceSpan span(obs::TraceCat::kStore, "partition_spill");
  span.set_args(static_cast<std::int64_t>(part->second.rows.size()));
  const std::string rows = encode_rows(part->second.rows);
  // Durable order: file first (tmp + fsync + rename + dir fsync), then the
  // kOpSpill group, then free the rows. Every crash window reconciles at
  // open() — see the class comment.
  if (!write_spill_file_locked(service, rows, /*fsync=*/true)) {
    return false;
  }
  append_group(encode_residency(kOpSpill, service, rows));
  if (!mark_spilled_locked(service, part->second.rows.size())) {
    // A lane pinned the service between try_claim_spill above and the
    // commit: the claim failed late. Undo while still holding our lock —
    // the spill file just written reloads the rows (the WAL records spill
    // then reload, a consistent history), so the pinning lane finds the
    // partition resident exactly as its pin guarantees and no stats
    // update it applies against the loaded rows is lost.
    ensure_resident_locked(service);
    return false;
  }
  if (obs::telemetry_enabled()) store_op("spill").inc();
  return true;
}

bool PatternStore::reconcile_spill_files_locked() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    // ".sp.tmp" leftovers of an interrupted spill-file write.
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0 &&
        is_spill_file_name(
            std::string_view(name).substr(0, name.size() - 4))) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (!is_spill_file_name(name)) continue;
    const std::string path = entry.path().string();
    std::string bytes;
    std::string_view service, rows;
    const FileError error = read_file(path, &bytes)
                                ? parse_spill_file(bytes, &service, &rows)
                                : FileError::kTruncated;
    if (error == FileError::kOldFormat) {
      last_error_ = path + ": " + file_error_name(error);
      return false;
    }
    if (error != FileError::kNone) {
      obs::logev(obs::LogLevel::kError, "store", "spill_file_corrupt",
                 {{"path", path}, {"error", file_error_name(error)}});
      fs::remove(entry.path(), ec);
      continue;
    }
    if (partitions_.find(service) != partitions_.end()) {
      // Stale leftover of an interrupted spill: the kOpSpill group never
      // committed, so the rows are still resident and authoritative.
      fs::remove(entry.path(), ec);
      continue;
    }
    spilled_[std::string(service)] = WalReader{rows}.u32();
  }
  return true;
}

void PatternStore::attach_governor(core::Governor* governor) {
  std::lock_guard lock(mutex_);
  governor_ = governor;
  if (governor_ == nullptr) return;
  governor_->attach_target(this);
  // Seed the ledger and LRU with the current resident partitions, and the
  // spilled set with what reconcile/replay found.
  for (const auto& [svc, part] : partitions_) refresh_partition_locked(svc);
  for (const auto& [svc, patterns] : spilled_) governor_->seed_spilled(svc);
}

bool PatternStore::is_spilled(std::string_view service) {
  std::lock_guard lock(mutex_);
  return spilled_.find(service) != spilled_.end();
}

std::vector<std::string> PatternStore::spilled_services() {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(spilled_.size());
  for (const auto& [svc, patterns] : spilled_) out.push_back(svc);
  return out;
}

std::map<std::string, std::size_t> PatternStore::recount_partition_bytes() {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::size_t> out;
  for (const auto& [svc, part] : partitions_) {
    std::size_t total = 0;
    for (const auto& [pid, p] : part.rows) total += row_bytes(pid, p);
    out[svc] = total;
  }
  return out;
}

PatternStore::DurabilityStats PatternStore::durability_stats() {
  std::lock_guard lock(mutex_);
  DurabilityStats s;
  s.durable = wal_.is_open();
  if (!s.durable) return s;
  s.dir = dir_;
  s.last_seq = wal_.last_seq();
  s.snapshot_seq = snapshot_seq_;
  s.wal_records = wal_.record_count();
  s.wal_bytes = wal_.size_bytes();
  const fs::path dir(dir_);
  s.snapshot_unix = file_mtime_unix(dir / snapshot_name(snapshot_seq_));
  s.wal_unix = file_mtime_unix(dir / kWalFile);
  return s;
}

}  // namespace seqrtg::store
