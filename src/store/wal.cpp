#include "store/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace seqrtg::store {

namespace {

constexpr char kMagic[8] = {'S', 'Q', 'R', 'T', 'G', 'W', 'A', 'L'};
/// Version 1 logs carried JSON token lists in their upsert ops.
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = sizeof(kMagic) + 4;
/// Framing per record: payload length + CRC.
constexpr std::size_t kFrameSize = 8;
/// Sanity cap: a single commit group never approaches this (guards the
/// replay loop against reading a garbage length as a huge allocation).
constexpr std::uint32_t kMaxPayload = 1u << 30;

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t read_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

std::uint64_t read_u64(const char* p) {
  return static_cast<std::uint64_t>(read_u32(p)) |
         static_cast<std::uint64_t>(read_u32(p + 4)) << 32;
}

std::string header_bytes() {
  std::string h(kMagic, sizeof(kMagic));
  wal_put_u32(h, kVersion);
  return h;
}

/// write(2) until done; short writes retry.
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads the whole file into `out`; false on open/read error.
bool read_file(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  while (true) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    out->append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  const auto& table = crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void wal_put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void wal_put_u64(std::string& out, std::uint64_t v) {
  wal_put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  wal_put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void wal_put_i64(std::string& out, std::int64_t v) {
  wal_put_u64(out, static_cast<std::uint64_t>(v));
}

void wal_put_string(std::string& out, std::string_view s) {
  wal_put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

std::uint8_t WalReader::u8() {
  if (!ok || pos + 1 > data.size()) {
    ok = false;
    return 0;
  }
  return static_cast<std::uint8_t>(static_cast<unsigned char>(data[pos++]));
}

std::uint32_t WalReader::u32() {
  if (!ok || pos + 4 > data.size()) {
    ok = false;
    return 0;
  }
  const std::uint32_t v = read_u32(data.data() + pos);
  pos += 4;
  return v;
}

std::uint64_t WalReader::u64() {
  if (!ok || pos + 8 > data.size()) {
    ok = false;
    return 0;
  }
  const std::uint64_t v = read_u64(data.data() + pos);
  pos += 8;
  return v;
}

std::int64_t WalReader::i64() { return static_cast<std::int64_t>(u64()); }

std::string_view WalReader::string() {
  const std::uint32_t n = u32();
  if (!ok || pos + n > data.size()) {
    ok = false;
    return {};
  }
  const std::string_view s = data.substr(pos, n);
  pos += n;
  return s;
}

Wal::~Wal() { close(); }

void Wal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Wal::ReplayResult Wal::replay(const std::string& path) {
  ReplayResult result;
  result.valid_bytes = kHeaderSize;
  std::string bytes;
  if (!read_file(path, &bytes)) {
    // Missing log: first open of a fresh directory. Not an error.
    result.valid_bytes = 0;
    return result;
  }
  const std::string header = header_bytes();
  if (bytes.size() < header.size() ||
      std::memcmp(bytes.data(), header.data(), header.size()) != 0) {
    if (bytes.size() >= header.size() &&
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0) {
      const std::uint32_t version = read_u32(bytes.data() + sizeof(kMagic));
      result.error = path + ": write-ahead log format version " +
                     std::to_string(version) + "; this build reads version " +
                     std::to_string(kVersion) + " only";
    }
    result.ok = bytes.empty();  // zero-byte file: crash before the header
    result.truncated = !bytes.empty();
    result.valid_bytes = 0;
    return result;
  }
  std::size_t pos = header.size();
  while (pos < bytes.size()) {
    if (pos + kFrameSize > bytes.size()) {
      result.truncated = true;
      break;
    }
    const std::uint32_t len = read_u32(bytes.data() + pos);
    const std::uint32_t crc = read_u32(bytes.data() + pos + 4);
    if (len < 8 || len > kMaxPayload ||
        pos + kFrameSize + len > bytes.size()) {
      result.truncated = true;
      break;
    }
    const std::string_view payload(bytes.data() + pos + kFrameSize, len);
    if (crc32(payload) != crc) {
      result.truncated = true;
      break;
    }
    Record rec;
    rec.seq = read_u64(payload.data());
    rec.payload.assign(payload.substr(8));
    result.records.push_back(std::move(rec));
    pos += kFrameSize + len;
    result.valid_bytes = pos;
  }
  return result;
}

bool Wal::open(const std::string& path, ReplayResult* recovered) {
  close();
  ReplayResult scan = replay(path);
  if (!scan.ok) {
    // Unreadable header on an existing file: refuse to append to it rather
    // than silently interleave two formats.
    if (recovered != nullptr) *recovered = std::move(scan);
    return false;
  }
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return false;
  path_ = path;
  if (scan.valid_bytes == 0) {
    // Fresh (or headerless zero-byte) file: write the header.
    const std::string header = header_bytes();
    if (::ftruncate(fd_, 0) != 0 ||
        !write_all(fd_, header.data(), header.size()) || ::fsync(fd_) != 0) {
      close();
      return false;
    }
    size_bytes_ = header.size();
  } else {
    // Drop any torn tail so new records append onto a clean prefix.
    if (::ftruncate(fd_, static_cast<off_t>(scan.valid_bytes)) != 0 ||
        ::lseek(fd_, 0, SEEK_END) < 0) {
      close();
      return false;
    }
    size_bytes_ = scan.valid_bytes;
  }
  next_seq_ = scan.records.empty() ? 1 : scan.records.back().seq + 1;
  record_count_ = scan.records.size();
  if (recovered != nullptr) *recovered = std::move(scan);
  return true;
}

std::uint64_t Wal::append(std::string_view ops) {
  if (fd_ < 0 || wedged_) return 0;
  std::string payload;
  payload.reserve(8 + ops.size());
  wal_put_u64(payload, next_seq_);
  payload.append(ops);
  std::string record;
  record.reserve(kFrameSize + payload.size());
  wal_put_u32(record, static_cast<std::uint32_t>(payload.size()));
  wal_put_u32(record, crc32(payload));
  record.append(payload);
  if (fault_) {
    const std::int64_t cut = fault_(next_seq_);
    if (cut >= 0) {
      // Scripted crash: persist only a prefix of the frame (possibly zero
      // bytes) and refuse all further writes, like a process that died
      // mid-write. Replay will verify the CRC and truncate this tail.
      const std::size_t n =
          std::min(record.size(), static_cast<std::size_t>(cut));
      if (n > 0) write_all(fd_, record.data(), n);
      ::fsync(fd_);
      size_bytes_ += n;
      wedged_ = true;
      return 0;
    }
  }
  if (!write_all(fd_, record.data(), record.size())) return 0;
  size_bytes_ += record.size();
  ++record_count_;
  return next_seq_++;
}

bool Wal::sync() { return fd_ >= 0 && ::fsync(fd_) == 0; }

bool Wal::reset() {
  if (fd_ < 0) return false;
  if (::ftruncate(fd_, static_cast<off_t>(kHeaderSize)) != 0) return false;
  if (::lseek(fd_, 0, SEEK_END) < 0) return false;
  if (::fsync(fd_) != 0) return false;
  size_bytes_ = kHeaderSize;
  record_count_ = 0;
  return true;
}

}  // namespace seqrtg::store
