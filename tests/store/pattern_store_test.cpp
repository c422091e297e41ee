#include "store/pattern_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "obs/metrics.hpp"
#include "store_test_files.hpp"

namespace seqrtg::store {
namespace {

using test::TempDir;
using test::write_file;

core::Pattern make_pattern(std::string service, std::string text_word,
                           std::uint64_t count = 1) {
  core::Pattern p;
  p.service = std::move(service);
  core::PatternToken c;
  c.is_variable = false;
  c.text = std::move(text_word);
  p.tokens.push_back(c);
  core::PatternToken v;
  v.is_variable = true;
  v.var_type = core::TokenType::Integer;
  v.name = "n";
  v.is_space_before = true;
  p.tokens.push_back(v);
  p.stats.match_count = count;
  p.stats.first_seen = 100;
  p.stats.last_matched = 100;
  return p;
}

TEST(RowCodec, RoundTrip) {
  core::Pattern p = make_pattern("svc", "event", 7);
  p.tokens[1].var_type = core::TokenType::IPv6;
  p.stats.first_seen = -5;
  p.examples = {"event 1", std::string("bin\0ary", 7)};
  std::string bytes;
  encode_row(bytes, p);
  core::Pattern back;
  ASSERT_TRUE(decode_row(bytes, &back));
  EXPECT_EQ(back.service, p.service);
  EXPECT_EQ(back.tokens, p.tokens) << "typed tokens must round-trip";
  EXPECT_EQ(back.stats.match_count, 7u);
  EXPECT_EQ(back.stats.first_seen, -5);
  EXPECT_EQ(back.stats.last_matched, p.stats.last_matched);
  EXPECT_EQ(back.examples, p.examples);
}

TEST(RowCodec, RejectsMalformed) {
  std::string bytes;
  encode_row(bytes, make_pattern("svc", "event"));
  core::Pattern out;
  EXPECT_FALSE(decode_row("", &out));
  EXPECT_FALSE(decode_row(bytes.substr(0, bytes.size() - 1), &out))
      << "truncated";
  EXPECT_FALSE(decode_row(bytes + "x", &out)) << "trailing bytes";
  // First token: string(service) u32(n_tokens), then flags and type.
  const std::size_t flags_at = 4 + 3 + 4;
  std::string bad_flags = bytes;
  bad_flags[flags_at] = 4;
  EXPECT_FALSE(decode_row(bad_flags, &out));
  std::string bad_type = bytes;
  bad_type[flags_at + 1] = 14;
  EXPECT_FALSE(decode_row(bad_type, &out)) << "unknown token-type tag";
}

TEST(PatternStore, UpsertFindRoundTrip) {
  PatternStore store;
  const core::Pattern p = make_pattern("sshd", "login", 3);
  store.upsert_pattern(p);
  EXPECT_EQ(store.pattern_count(), 1u);
  const auto found = store.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->text(), "login %n%");
  EXPECT_EQ(found->service, "sshd");
  EXPECT_EQ(found->stats.match_count, 3u);
  EXPECT_EQ(found->tokens, p.tokens) << "typed tokens must round-trip";
}

TEST(PatternStore, UpsertMergesExisting) {
  PatternStore store;
  core::Pattern p = make_pattern("sshd", "login", 3);
  p.examples = {"login 1"};
  store.upsert_pattern(p);
  core::Pattern q = make_pattern("sshd", "login", 4);
  q.examples = {"login 1", "login 2"};
  q.stats.last_matched = 500;
  store.upsert_pattern(q);
  EXPECT_EQ(store.pattern_count(), 1u);
  const auto found = store.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->stats.match_count, 7u);
  EXPECT_EQ(found->stats.last_matched, 500);
  ASSERT_EQ(found->examples.size(), 2u);
  EXPECT_EQ(found->examples[1], "login 2");
}

TEST(PatternStore, ExamplesCappedAtThree) {
  PatternStore store;
  core::Pattern p = make_pattern("s", "e");
  p.examples = {"a", "b"};
  store.upsert_pattern(p);
  core::Pattern q = make_pattern("s", "e");
  q.examples = {"c", "d", "e"};
  store.upsert_pattern(q);
  const auto found = store.find(p.id());
  EXPECT_EQ(found->examples.size(), 3u);
}

// Regression: apply_upsert hard-coded the cap at 3, so an Engine configured
// with a different AnalyzerOptions::example_cap silently diverged between
// the in-memory and durable backends. The cap now threads through the
// PatternRepository interface.
TEST(PatternStore, ExampleCapIsConfigurable) {
  PatternStore store;
  core::InMemoryRepository memory;
  store.set_example_cap(5);
  memory.set_example_cap(5);
  for (int i = 0; i < 8; ++i) {
    core::Pattern p = make_pattern("s", "e");
    p.examples = {"example " + std::to_string(i)};
    store.upsert_pattern(p);
    memory.upsert_pattern(p);
  }
  const auto durable = store.find(make_pattern("s", "e").id());
  const auto in_memory = memory.find(make_pattern("s", "e").id());
  ASSERT_TRUE(durable.has_value());
  ASSERT_TRUE(in_memory.has_value());
  EXPECT_EQ(durable->examples.size(), 5u);
  EXPECT_EQ(durable->examples, in_memory->examples)
      << "memory and durable backends diverged on the example cap";
}

TEST(PatternStore, DeletePattern) {
  PatternStore store;
  const core::Pattern a = make_pattern("sshd", "login");
  const core::Pattern b = make_pattern("sshd", "logout");
  store.upsert_pattern(a);
  store.upsert_pattern(b);
  EXPECT_TRUE(store.delete_pattern(a.id()));
  EXPECT_FALSE(store.delete_pattern(a.id())) << "second delete is a no-op";
  EXPECT_EQ(store.pattern_count(), 1u);
  EXPECT_FALSE(store.find(a.id()).has_value());
  ASSERT_EQ(store.load_service("sshd").size(), 1u);
  EXPECT_EQ(store.load_service("sshd")[0].id(), b.id());
}

TEST(PatternStore, DeleteIsReplayedFromWal) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "seqrtg_store_delete_test";
  std::filesystem::remove_all(dir);
  const core::Pattern doomed = make_pattern("s", "doomed");
  const core::Pattern kept = make_pattern("s", "kept");
  {
    PatternStore store;
    ASSERT_TRUE(store.open(dir.string()));
    store.upsert_pattern(doomed);
    store.upsert_pattern(kept);
    EXPECT_TRUE(store.delete_pattern(doomed.id()));
    // No checkpoint: the delete lives only in the WAL.
  }
  PatternStore reopened;
  ASSERT_TRUE(reopened.open(dir.string()));
  EXPECT_FALSE(reopened.find(doomed.id()).has_value())
      << "WAL replay resurrected a deleted pattern";
  EXPECT_TRUE(reopened.find(kept.id()).has_value());
  std::filesystem::remove_all(dir);
}

TEST(PatternStore, ServiceQueries) {
  PatternStore store;
  store.upsert_pattern(make_pattern("sshd", "a"));
  store.upsert_pattern(make_pattern("sshd", "b"));
  store.upsert_pattern(make_pattern("cron", "c"));
  EXPECT_EQ(store.load_service("sshd").size(), 2u);
  EXPECT_EQ(store.load_service("cron").size(), 1u);
  EXPECT_TRUE(store.load_service("x").empty());
  const auto services = store.services();
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0], "cron");
}

TEST(PatternStore, RecordMatch) {
  PatternStore store;
  const core::Pattern p = make_pattern("s", "e", 1);
  store.upsert_pattern(p);
  store.record_match(p.id(), 9, 777);
  const auto found = store.find(p.id());
  EXPECT_EQ(found->stats.match_count, 10u);
  EXPECT_EQ(found->stats.last_matched, 777);
}

TEST(PatternStore, ExportFiltersByCountAndComplexity) {
  PatternStore store;
  store.upsert_pattern(make_pattern("s", "frequent", 100));
  store.upsert_pattern(make_pattern("s", "rare", 1));
  // A pattern of only variables has complexity 1.0.
  core::Pattern vars;
  vars.service = "s";
  core::PatternToken v;
  v.is_variable = true;
  v.var_type = core::TokenType::String;
  v.name = "x";
  vars.tokens = {v, v};
  vars.stats.match_count = 50;
  store.upsert_pattern(vars);

  PatternStore::ExportFilter filter;
  filter.min_match_count = 10;
  filter.max_complexity = 0.9;
  const auto exported = store.export_patterns(filter);
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].text(), "frequent %n%");
}

TEST(PatternStore, ExportOrdersByMatchCountDesc) {
  PatternStore store;
  store.upsert_pattern(make_pattern("s", "mid", 10));
  store.upsert_pattern(make_pattern("s", "top", 100));
  store.upsert_pattern(make_pattern("s", "low", 1));
  const auto exported = store.export_patterns({});
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_EQ(exported[0].stats.match_count, 100u);
  EXPECT_EQ(exported[2].stats.match_count, 1u);
}

TEST(PatternStore, ExportFiltersByService) {
  PatternStore store;
  store.upsert_pattern(make_pattern("a", "x"));
  store.upsert_pattern(make_pattern("b", "y"));
  PatternStore::ExportFilter filter;
  filter.service = "a";
  EXPECT_EQ(store.export_patterns(filter).size(), 1u);
}

TEST(PatternStore, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "seqrtg_store_test.db")
          .string();
  core::Pattern p = make_pattern("sshd", "login", 42);
  p.examples = {"login 7"};
  {
    PatternStore store;
    store.upsert_pattern(p);
    ASSERT_TRUE(store.save(path));
  }
  PatternStore loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.pattern_count(), 1u);
  const auto found = loaded.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->stats.match_count, 42u);
  EXPECT_EQ(found->examples.size(), 1u);
  EXPECT_EQ(found->tokens, p.tokens);
  std::remove(path.c_str());
}

TEST(PatternStore, LoadFailureLeavesUsableEmptyStore) {
  PatternStore store;
  EXPECT_FALSE(store.load("/nonexistent/file.db"));
  // The store must still work after a failed load.
  store.upsert_pattern(make_pattern("s", "e"));
  EXPECT_EQ(store.pattern_count(), 1u);
}

/// A CRC-valid snapshot file image holding `good` and one row whose first
/// token carries an unknown token-type tag.
std::string snapshot_with_bad_row(const core::Pattern& good) {
  std::string bad_row;
  encode_row(bad_row, make_pattern(good.service, "bad", 9));
  bad_row[4 + good.service.size() + 4 + 1] = 0x7f;
  std::string good_row;
  encode_row(good_row, good);
  std::string payload;
  wal_put_u32(payload, 2);
  wal_put_string(payload, good_row);
  wal_put_string(payload, bad_row);
  std::string file = "SQRTGSNP";
  wal_put_u32(file, kStoreFormatVersion);
  wal_put_u32(file, static_cast<std::uint32_t>(payload.size()));
  wal_put_u32(file, crc32(payload));
  return file + payload;
}

TEST(PatternStore, CorruptRowIsSkippedAndCounted) {
  TempDir dir("store_test_corrupt_row");
  const core::Pattern good = make_pattern("svc", "good", 5);
  write_file(dir.path / "snapshot-1.db", snapshot_with_bad_row(good));
  auto& corrupt =
      obs::default_registry().counter("seqrtg_store_corrupt_rows_total", "");

  // Through open(): the snapshot decodes, the bad row is skipped and
  // counted, the directory stays usable.
  std::uint64_t before = corrupt.value();
  PatternStore store;
  ASSERT_TRUE(store.open(dir.path.string())) << store.last_error();
  EXPECT_EQ(corrupt.value(), before + 1);
  const auto patterns = store.load_service("svc");
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].stats.match_count, 5u);
  EXPECT_EQ(store.pattern_count(), 1u);
  EXPECT_EQ(store.export_patterns({}).size(), 1u);

  // Through the legacy load() of the same bytes.
  before = corrupt.value();
  PatternStore loaded;
  ASSERT_TRUE(loaded.load((dir.path / "snapshot-1.db").string()));
  EXPECT_EQ(corrupt.value(), before + 1);
  EXPECT_TRUE(loaded.find(good.id()).has_value());
  EXPECT_EQ(loaded.pattern_count(), 1u);
}

// Store format version 1 (the `seqrtgdb 1` text snapshot and a WAL whose
// ops held JSON token lists) is refused with an error naming it. There is
// no converter and no silent fallback to an empty store.
TEST(PatternStore, OldFormatDirectoryFailsLoudly) {
  TempDir dir("store_test_old_format");
  const std::string old_snapshot =
      "seqrtgdb 1\ntable patterns 9 0\ncol pid text\n";
  std::string old_wal = "SQRTGWAL";
  wal_put_u32(old_wal, 1);
  write_file(dir.path / "snapshot-4.db", old_snapshot);
  write_file(dir.path / "wal.log", old_wal);

  PatternStore store;
  EXPECT_FALSE(store.open(dir.path.string()));
  EXPECT_NE(store.last_error().find("version 1"), std::string::npos)
      << store.last_error();
  EXPECT_NE(store.last_error().find("seqrtgdb"), std::string::npos)
      << store.last_error();
  EXPECT_FALSE(store.durable());
  EXPECT_EQ(store.pattern_count(), 0u);
  // The old files are left exactly as they were.
  EXPECT_TRUE(std::filesystem::exists(dir.path / "snapshot-4.db"));

  // A v1 WAL on its own fails the same way.
  std::filesystem::remove(dir.path / "snapshot-4.db");
  EXPECT_FALSE(store.open(dir.path.string()));
  EXPECT_NE(store.last_error().find("version 1"), std::string::npos)
      << store.last_error();
  EXPECT_FALSE(store.durable());

  // So does load() of an old --db file.
  const std::string db = (dir.path / "legacy.db").string();
  write_file(db, old_snapshot);
  PatternStore legacy;
  EXPECT_FALSE(legacy.load(db));
  EXPECT_NE(legacy.last_error().find("version 1"), std::string::npos)
      << legacy.last_error();
  EXPECT_EQ(legacy.pattern_count(), 0u);
}

TEST(PatternStore, WorksThroughRepositoryInterface) {
  PatternStore store;
  core::PatternRepository& repo = store;
  repo.upsert_pattern(make_pattern("s", "via-interface"));
  EXPECT_EQ(repo.pattern_count(), 1u);
  EXPECT_EQ(repo.services().size(), 1u);
}

}  // namespace
}  // namespace seqrtg::store
