// Seeded byte-mutation fuzz of the store's row codec and the files built
// on it: snapshot files, spill files and the rows inside WAL upsert ops.
// These are the store's parsers of bytes from disk (or, for WAL groups, a
// primary's wire), so every input must end in exactly one of:
//
//   - a decode, with exact accounting (rows + skipped rows == declared),
//   - a structured error (FileError, or false from decode_row),
//   - an empty partition (a spill file that no longer decodes),
//
// with no crash and no undefined behaviour (run under ASan/UBSan through
// scripts/sanitize.sh). Mutations flip, cut, insert and overwrite bytes;
// the "reframed" variants fix the length and CRC after mutating, so the
// damage reaches the row decoder instead of stopping at the checksum.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "store/pattern_store.hpp"
#include "store/wal.hpp"
#include "store_test_files.hpp"
#include "util/rng.hpp"

namespace seqrtg::store {
namespace {

namespace fs = std::filesystem;
using test::read_file;
using test::TempDir;
using test::write_file;

/// magic + u32(version) + u32(len) + u32(crc).
constexpr std::size_t kHeader = 20;

/// Seed rows: every token flag combination, several types, binary and
/// empty examples, two services.
std::vector<core::Pattern> seed_patterns() {
  std::vector<core::Pattern> out;
  const core::TokenType types[] = {core::TokenType::Integer,
                                   core::TokenType::IPv4,
                                   core::TokenType::String,
                                   core::TokenType::Rest};
  for (int i = 0; i < 6; ++i) {
    core::Pattern p;
    p.service = i % 2 == 0 ? "svc" : "other";
    p.tokens = {{false, core::TokenType::String, "event-" + std::to_string(i),
                 "", i % 3 == 0},
                {true, types[i % 4], "", "v" + std::to_string(i), true}};
    p.stats.match_count = static_cast<std::uint64_t>(i * 11 + 1);
    p.stats.first_seen = 1000 + i;
    p.stats.last_matched = 2000 + i;
    p.examples = {"event " + std::to_string(i), std::string("b\0n", 3), ""};
    p.examples.resize(static_cast<std::size_t>(i % 4));
    out.push_back(p);
  }
  return out;
}

/// One random mutation of `bytes`, at or after `from` (never empty input).
std::string mutate(util::Rng& rng, std::string bytes, std::size_t from = 0) {
  if (bytes.size() <= from) return bytes;
  auto at = [&] { return from + rng.next_below(bytes.size() - from); };
  switch (rng.next_below(5)) {
    case 0: {  // flip 1-4 bytes
      const std::uint64_t n = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        bytes[at()] ^= static_cast<char>(1 + rng.next_below(255));
      }
      break;
    }
    case 1:  // truncate
      bytes.resize(at());
      break;
    case 2: {  // insert random bytes
      std::string junk;
      for (std::uint64_t i = 1 + rng.next_below(8); i > 0; --i) {
        junk += static_cast<char>(rng.next_below(256));
      }
      bytes.insert(at(), junk);
      break;
    }
    case 3: {  // overwrite a u32 (a length, count or tag) with junk
      const std::size_t pos = at();
      std::string word;
      wal_put_u32(word, static_cast<std::uint32_t>(rng.next_u64()));
      bytes.replace(pos, std::min<std::size_t>(4, bytes.size() - pos), word);
      break;
    }
    default: {  // duplicate a slice
      const std::size_t a = at();
      const std::size_t len = rng.next_below(bytes.size() - a + 1);
      bytes.insert(at(), bytes.substr(a, len));
      break;
    }
  }
  return bytes;
}

/// Mutates a store file's payload, then rewrites its length and CRC so the
/// file passes framing checks and the damage reaches the row decoder.
std::string mutate_reframed(util::Rng& rng, const std::string& file) {
  const std::string payload = mutate(rng, file.substr(kHeader));
  std::string out = file.substr(0, 12);
  wal_put_u32(out, static_cast<std::uint32_t>(payload.size()));
  wal_put_u32(out, crc32(payload));
  return out + payload;
}

/// Checks one decode's accounting and tallies its outcome (by error kind,
/// plus skipped rows under kNone).
void account(const DecodedRows& d, std::map<FileError, std::size_t>* tally,
             std::size_t* bad_rows) {
  ++(*tally)[d.error];
  if (d.error == FileError::kNone) {
    EXPECT_EQ(d.rows.size() + d.bad_rows, d.declared);
    *bad_rows += d.bad_rows;
  } else {
    EXPECT_TRUE(d.rows.empty());
    EXPECT_EQ(d.bad_rows + d.declared, 0u);
  }
}

/// Number of distinct pids among decoded rows (rows sharing a pid merge).
std::size_t distinct_ids(const std::vector<core::Pattern>& rows) {
  std::set<std::string> ids;
  for (const core::Pattern& p : rows) ids.insert(p.id());
  return ids.size();
}

/// A snapshot and a spill file holding the seed patterns, as the store
/// writes them.
struct Seeds {
  std::string snapshot;
  std::string spill;
  fs::path spill_name;
};

Seeds make_seeds(const TempDir& dir) {
  Seeds s;
  PatternStore store;
  EXPECT_TRUE(store.open((dir.path / "seed").string()));
  for (const core::Pattern& p : seed_patterns()) store.upsert_pattern(p);
  EXPECT_TRUE(store.save((dir.path / "seed.db").string()));
  s.snapshot = read_file(dir.path / "seed.db");
  EXPECT_TRUE(store.spill_partition("svc"));
  for (const auto& e : fs::directory_iterator(dir.path / "seed")) {
    if (e.path().extension() == ".sp") s.spill_name = e.path().filename();
  }
  s.spill = read_file(dir.path / "seed" / s.spill_name);
  return s;
}

TEST(RowCodecFuzz, MutatedRowsDecodeCanonicallyOrFail) {
  util::Rng rng(0xC0DEC);
  const std::vector<core::Pattern> seeds = seed_patterns();
  std::size_t decoded = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string row;
    encode_row(row, seeds[rng.next_below(seeds.size())]);
    const std::string bytes = mutate(rng, row);
    core::Pattern p;
    if (decode_row(bytes, &p)) {
      // The codec is a bijection: whatever decodes re-encodes to the very
      // same bytes.
      std::string again;
      encode_row(again, p);
      ASSERT_EQ(again, bytes) << "iteration " << i;
      ++decoded;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(decoded + rejected, 20000u);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(RowCodecFuzz, MutatedFilesAccountExactly) {
  TempDir dir("codec_fuzz_files");
  const Seeds s = make_seeds(dir);
  // The seeds decode whole, and each file kind refuses the other's magic.
  ASSERT_EQ(decode_snapshot(s.snapshot).rows.size(), seed_patterns().size());
  ASSERT_EQ(decode_spill_file(s.spill).rows.size(), 3u);
  EXPECT_EQ(decode_snapshot(s.spill).error, FileError::kBadMagic);
  EXPECT_EQ(decode_spill_file(s.snapshot).error, FileError::kBadMagic);
  util::Rng rng(0x5A95);
  for (const bool spill : {false, true}) {
    const std::string& seed = spill ? s.spill : s.snapshot;
    auto decode = spill ? decode_spill_file : decode_snapshot;
    std::map<FileError, std::size_t> raw, reframed;
    std::size_t bad_rows = 0;
    for (int i = 0; i < 10000; ++i) {
      account(decode(mutate(rng, seed)), &raw, &bad_rows);
      account(decode(mutate_reframed(rng, seed)), &reframed, &bad_rows);
    }
    // The raw mutations mostly stop at framing; the reframed ones reach
    // the rows: some still decode, some skip rows, some break the row
    // framing.
    EXPECT_GT(raw[FileError::kBadChecksum], 0u) << "spill " << spill;
    EXPECT_GT(reframed[FileError::kNone], 0u) << "spill " << spill;
    EXPECT_GT(reframed[FileError::kBadPayload], 0u) << "spill " << spill;
    EXPECT_GT(bad_rows, 0u) << "spill " << spill;
  }
}

TEST(RowCodecFuzz, StoreLoadOfMutatedSnapshotDecodesOrFailsClearly) {
  TempDir dir("codec_fuzz_load");
  const Seeds s = make_seeds(dir);
  util::Rng rng(0x10AD);
  const fs::path path = dir.path / "mutated.db";
  for (int i = 0; i < 1000; ++i) {
    const std::string bytes = i % 2 == 0 ? mutate(rng, s.snapshot)
                                         : mutate_reframed(rng, s.snapshot);
    write_file(path, bytes);
    const DecodedRows expected = decode_snapshot(bytes);
    PatternStore store;
    const bool ok = store.load(path.string());
    ASSERT_EQ(ok, expected.error == FileError::kNone) << "iteration " << i;
    if (ok) {
      EXPECT_EQ(store.pattern_count(), distinct_ids(expected.rows));
    } else {
      EXPECT_FALSE(store.last_error().empty());
      EXPECT_EQ(store.pattern_count(), 0u);
    }
  }
}

TEST(RowCodecFuzz, ReloadOfMutatedSpillFileYieldsRowsOrEmptyPartition) {
  TempDir dir("codec_fuzz_reload");
  const Seeds s = make_seeds(dir);
  // The spill file is the partition's only durable copy once a checkpoint
  // has truncated the kOpSpill group out of the log.
  const fs::path seed_dir = dir.path / "seed";
  {
    PatternStore store;
    ASSERT_TRUE(store.open(seed_dir.string()));
    ASSERT_TRUE(store.is_spilled("svc"));
    ASSERT_TRUE(store.checkpoint());
  }
  util::Rng rng(0x5EAD);
  const fs::path work = dir.path / "work";
  std::size_t empty = 0, loaded = 0;
  for (int i = 0; i < 400; ++i) {
    fs::remove_all(work);
    fs::copy(seed_dir, work, fs::copy_options::recursive);
    const std::string bytes = i % 2 == 0 ? mutate(rng, s.spill)
                                         : mutate_reframed(rng, s.spill);
    write_file(work / s.spill_name, bytes);
    const DecodedRows expected = decode_spill_file(bytes);
    const bool intact =
        expected.error == FileError::kNone && expected.service == "svc";

    PatternStore store;
    if (expected.error == FileError::kOldFormat) {
      EXPECT_FALSE(store.open(work.string()));
      continue;
    }
    ASSERT_TRUE(store.open(work.string())) << store.last_error();
    const std::vector<core::Pattern> rows = store.load_service("svc");
    if (intact) {
      EXPECT_EQ(rows.size(), distinct_ids(expected.rows)) << "iteration " << i;
      ++loaded;
    } else {
      EXPECT_TRUE(rows.empty()) << "iteration " << i;
      ++empty;
    }
    EXPECT_FALSE(store.is_spilled("svc"));
    EXPECT_EQ(store.load_service("other").size(), 3u)
        << "other partitions are untouched";
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(empty, 0u);
  fs::remove_all(work);
}

TEST(RowCodecFuzz, WalReplayOfMutatedUpsertRowsSkipsAndCounts) {
  TempDir dir("codec_fuzz_wal");
  const std::vector<core::Pattern> seeds = seed_patterns();
  util::Rng rng(0x3A1);
  auto& corrupt =
      obs::default_registry().counter("seqrtg_store_corrupt_rows_total", "");
  std::size_t applied = 0, skipped = 0;
  for (int i = 0; i < 1000; ++i) {
    const fs::path work = dir.path / std::to_string(i);
    std::string row;
    encode_row(row, seeds[rng.next_below(seeds.size())]);
    const std::string bytes = mutate(rng, row);
    core::Pattern expected;
    const bool valid = decode_row(bytes, &expected);
    // A CRC-valid commit group holding one upsert op with the mutated row
    // (and, on odd iterations, a mutated op stream around it).
    std::string ops(1, '\x01');
    wal_put_string(ops, bytes);
    if (i % 2 == 1) ops = mutate(rng, ops, 1);
    {
      fs::create_directories(work);
      Wal wal;
      ASSERT_TRUE(wal.open((work / "wal.log").string()));
      ASSERT_NE(wal.append(ops), 0u);
    }
    const std::uint64_t before = corrupt.value();
    PatternStore store;
    ASSERT_TRUE(store.open(work.string())) << store.last_error();
    if (i % 2 == 0) {
      EXPECT_EQ(store.pattern_count(), valid ? 1u : 0u) << "iteration " << i;
      EXPECT_EQ(corrupt.value() - before, valid ? 0u : 1u);
      valid ? ++applied : ++skipped;
    }
    fs::remove_all(work);
  }
  EXPECT_GT(applied, 0u);
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace seqrtg::store
