// PatternStore ≡ InMemoryRepository, two ways:
//
//  - Model-based: seeded random sequences of upsert, batched upsert,
//    record_match, delete, spill, reload, checkpoint and crash-and-reopen
//    (drop the store, open() its directory again). After every step the
//    durable store must hold exactly what an InMemoryRepository fed the
//    same logical ops holds — services, counts, timestamps, typed tokens
//    and examples — and the governor's ledger must audit clean against
//    recount_partition_bytes(). A failing sequence is shrunk (ddmin, as
//    the testkit shrinks corpora) and printed with its seed.
//  - Engine differential across batches: the same fleet mined in two
//    batches through an Engine over each repository gives byte-equal
//    canonical sets, match counts included. The matcher credits a message
//    that fits several patterns to the first one loaded, so this holds
//    only while both repositories load a service in the same (pid) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyze_by_service.hpp"
#include "core/governor.hpp"
#include "core/repository.hpp"
#include "loggen/fleet.hpp"
#include "store/pattern_store.hpp"
#include "store_test_files.hpp"
#include "testkit/canonical.hpp"
#include "util/rng.hpp"

namespace seqrtg::store {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kServices = {"alpha", "beta", "gamma"};
constexpr std::size_t kWords = 5;
constexpr std::size_t kExamples = 5;
const core::TokenType kTypes[] = {core::TokenType::Integer,
                                  core::TokenType::Hex,
                                  core::TokenType::String};

enum class OpKind {
  kUpsert, kBatchUpsert, kRecordMatch, kDelete, kSpill, kReload,
  kCheckpoint, kReopen,
};
/// Draw weights per OpKind, in percent.
constexpr int kOpWeights[] = {35, 10, 17, 8, 10, 7, 6, 7};

/// One logical op; its fields are interpreted per kind (service index,
/// word index, variable type, example mask, count, timestamp).
struct Op {
  OpKind kind;
  std::size_t service = 0;
  std::size_t word = 0;
  std::size_t type = 0;
  std::uint32_t examples = 0;
  std::uint64_t count = 0;
  std::int64_t when = 0;
};

std::string describe(const Op& op) {
  static const char* kNames[] = {"upsert",  "batch_upsert", "record_match",
                                 "delete",  "spill",        "reload",
                                 "checkpoint", "reopen"};
  std::ostringstream out;
  out << kNames[static_cast<int>(op.kind)] << "(" << kServices[op.service]
      << ", w" << op.word << ", type " << op.type << ", ex " << op.examples
      << ", n " << op.count << ", t " << op.when << ")";
  return out.str();
}

/// The pattern an op names: same (service, word) means same pid, whatever
/// the variable type — so upserts of one pid with different types widen.
core::Pattern pattern_of(const Op& op) {
  core::Pattern p;
  p.service = kServices[op.service];
  p.tokens = {{false, core::TokenType::String, "w" + std::to_string(op.word),
               "", false},
              {true, kTypes[op.type], "", "v", true}};
  p.stats.match_count = op.count;
  p.stats.first_seen = op.when;
  p.stats.last_matched = op.when + 7;
  for (std::size_t e = 0; e < kExamples; ++e) {
    if ((op.examples >> e) & 1u) p.examples.push_back("m" + std::to_string(e));
  }
  return p;
}

std::vector<Op> random_ops(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n; ++i) {
    Op op{OpKind::kUpsert};
    for (int roll = static_cast<int>(rng.next_below(100));
         roll >= kOpWeights[static_cast<int>(op.kind)];) {
      roll -= kOpWeights[static_cast<int>(op.kind)];
      op.kind = static_cast<OpKind>(static_cast<int>(op.kind) + 1);
    }
    op.service = rng.next_below(kServices.size());
    op.word = rng.next_below(kWords);
    op.type = rng.next_below(std::size(kTypes));
    op.examples = static_cast<std::uint32_t>(rng.next_below(1u << kExamples));
    op.count = 1 + rng.next_below(9);
    op.when = static_cast<std::int64_t>(rng.next_below(100));
    ops.push_back(op);
  }
  return ops;
}

/// Every fact the equivalence covers, one line per pattern; sorted unless
/// the order itself is under test.
std::string render(std::vector<core::Pattern> patterns, bool sorted = true) {
  std::vector<std::string> lines;
  for (const core::Pattern& p : patterns) {
    std::ostringstream line;
    line << p.service << '\t' << p.text() << '\t';
    for (const core::PatternToken& t : p.tokens) {
      line << static_cast<int>(t.var_type) << (t.is_space_before ? "s" : "")
           << ',';
    }
    line << '\t' << p.stats.match_count << '\t' << p.stats.first_seen << '\t'
         << p.stats.last_matched << '\t';
    for (const std::string& e : p.examples) line << e << ';';
    lines.push_back(line.str());
  }
  if (sorted) std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

/// A durable store with its governor wiring; reopen() is the crash.
struct Subject {
  fs::path dir;
  std::unique_ptr<core::MemoryAccountant> accountant;
  std::unique_ptr<core::Governor> governor;
  std::unique_ptr<PatternStore> store;

  std::string reopen() {
    store.reset();
    accountant = std::make_unique<core::MemoryAccountant>();
    governor = std::make_unique<core::Governor>(core::GovernorPolicy{},
                                                accountant.get());
    store = std::make_unique<PatternStore>();
    if (!store->open(dir.string())) return "open failed: " + store->last_error();
    store->attach_governor(governor.get());
    return "";
  }
};

/// First divergence between the subject and the model, or "".
std::string compare(Subject& s, core::InMemoryRepository& model) {
  if (s.store->services() != model.services()) return "services differ";
  if (s.store->pattern_count() != model.pattern_count()) {
    return "pattern_count " + std::to_string(s.store->pattern_count()) +
           " vs " + std::to_string(model.pattern_count());
  }
  std::vector<core::Pattern> expected;
  for (const std::string& svc : model.services()) {
    for (core::Pattern& p : model.load_service(svc)) {
      expected.push_back(std::move(p));
    }
  }
  const std::string got = render(s.store->export_patterns({}));
  const std::string want = render(expected);
  if (got != want) return "rows differ:\nstore:\n" + got + "model:\n" + want;
  if (auto audit =
          s.accountant->audit(s.store->recount_partition_bytes())) {
    return "ledger audit: " + *audit;
  }
  return "";
}

/// Runs `ops` against a fresh store directory and model; "" when every
/// step agrees, else the failing step and its divergence.
std::string run_ops(const std::vector<Op>& ops, const fs::path& dir) {
  fs::remove_all(dir);
  Subject s{dir, nullptr, nullptr, nullptr};
  if (std::string e = s.reopen(); !e.empty()) return e;
  core::InMemoryRepository model;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::string& service = kServices[op.service];
    std::string error;
    switch (op.kind) {
      case OpKind::kUpsert:
        s.store->upsert_pattern(pattern_of(op));
        model.upsert_pattern(pattern_of(op));
        break;
      case OpKind::kBatchUpsert: {
        Op second = op;
        second.word = (op.word + 1) % kWords;
        s.store->begin_batch();
        s.store->upsert_pattern(pattern_of(op));
        s.store->upsert_pattern(pattern_of(second));
        s.store->commit_batch();
        model.upsert_pattern(pattern_of(op));
        model.upsert_pattern(pattern_of(second));
        break;
      }
      case OpKind::kRecordMatch:
      case OpKind::kDelete: {
        // The engine's contract: load (and so reload) a service before
        // touching its rows by id.
        s.store->load_service(service);
        const std::string id = pattern_of(op).id();
        if (op.kind == OpKind::kRecordMatch) {
          s.store->record_match(id, op.count, op.when);
          model.record_match(id, op.count, op.when);
        } else if (s.store->delete_pattern(id) != model.delete_pattern(id)) {
          error = "delete_pattern results differ";
        }
        break;
      }
      case OpKind::kSpill:
        s.store->spill_partition(service);
        break;
      case OpKind::kReload:
        // Load order matters: the matcher credits the first-loaded fit.
        if (render(s.store->load_service(service), false) !=
            render(model.load_service(service), false)) {
          error = "load_service rows or order differ";
        }
        break;
      case OpKind::kCheckpoint:
        if (!s.store->checkpoint()) error = "checkpoint failed";
        break;
      case OpKind::kReopen:
        error = s.reopen();
        break;
    }
    if (error.empty()) error = compare(s, model);
    if (!error.empty()) {
      return "step " + std::to_string(i) + " " + describe(op) + ": " + error;
    }
  }
  return "";
}

/// ddmin-lite over the op sequence (the testkit's corpus shrinker, for
/// ops): drops chunks while the sequence still fails.
std::vector<Op> shrink(std::vector<Op> ops,
                       const std::function<bool(const std::vector<Op>&)>& fails,
                       std::size_t max_probes) {
  std::size_t probes = 0;
  for (std::size_t chunk = (ops.size() + 1) / 2; chunk >= 1 &&
                                                 probes < max_probes;) {
    bool removed = false;
    for (std::size_t start = 0; start < ops.size() && probes < max_probes;) {
      const std::size_t stop = std::min(ops.size(), start + chunk);
      std::vector<Op> candidate(ops.begin(), ops.begin() + start);
      candidate.insert(candidate.end(), ops.begin() + stop, ops.end());
      ++probes;
      if (!candidate.empty() && fails(candidate)) {
        ops = std::move(candidate);
        removed = true;
      } else {
        start = stop;
      }
    }
    if (chunk == 1 && !removed) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return ops;
}

TEST(StoreModel, RandomOpSequencesMatchInMemoryModel) {
  const test::TempDir scratch("store_model");
  const fs::path dir = scratch.path / "store";
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const std::vector<Op> ops = random_ops(seed, 80);
    const std::string failure = run_ops(ops, dir);
    if (failure.empty()) continue;
    const std::vector<Op> shrunk = shrink(
        ops, [&](const std::vector<Op>& c) { return !run_ops(c, dir).empty(); },
        200);
    std::string listing;
    for (const Op& op : shrunk) listing += "  " + describe(op) + "\n";
    ADD_FAILURE() << "seed " << seed << ": " << failure << "\nshrunk to "
                  << shrunk.size() << " op(s):\n"
                  << listing << "shrunk failure: " << run_ops(shrunk, dir);
    break;
  }
}

TEST(StoreModel, ShrinkerReducesToTheFailingCore) {
  // A predicate that fails while the sequence holds a spill followed (at
  // any distance) by a checkpoint shrinks to exactly those two ops.
  std::vector<Op> ops = random_ops(7, 40);
  ops.push_back(Op{OpKind::kSpill});
  ops.push_back(Op{OpKind::kCheckpoint});
  auto is = [](OpKind k) { return [k](const Op& op) { return op.kind == k; }; };
  auto fails = [&](const std::vector<Op>& c) {
    const auto spill = std::find_if(c.begin(), c.end(), is(OpKind::kSpill));
    return std::find_if(spill, c.end(), is(OpKind::kCheckpoint)) != c.end();
  };
  const std::vector<Op> shrunk = shrink(ops, fails, 500);
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_EQ(shrunk[0].kind, OpKind::kSpill);
  EXPECT_EQ(shrunk[1].kind, OpKind::kCheckpoint);
}

void mine(core::PatternRepository& repo,
          const std::vector<core::LogRecord>& records, std::size_t batch) {
  core::EngineOptions opts;
  opts.threads = 1;
  core::Engine engine(&repo, opts);
  for (std::size_t i = 0; i < records.size(); i += batch) {
    const std::size_t stop = std::min(records.size(), i + batch);
    engine.analyze_by_service(std::vector<core::LogRecord>(
        records.begin() + static_cast<std::ptrdiff_t>(i),
        records.begin() + static_cast<std::ptrdiff_t>(stop)));
  }
}

TEST(RepositoryEquivalence, MultiBatchFleetMinesSameCountsInMemoryAndStore) {
  loggen::FleetOptions fo;
  fo.services = 40;
  fo.noise_fraction = 0.05;
  fo.seed = 3;
  const std::vector<core::LogRecord> records =
      loggen::FleetGenerator(fo).take(20000);

  core::InMemoryRepository memory;
  PatternStore store;
  mine(memory, records, 10000);
  mine(store, records, 10000);
  const std::string a = testkit::canonical_patterns(memory);
  const std::string b = testkit::canonical_patterns(store);
  EXPECT_EQ(a, b) << testkit::first_diff(a, b);
}

}  // namespace
}  // namespace seqrtg::store
