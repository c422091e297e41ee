// bench_serve — end-to-end benchmark of the `seqrtg serve` daemon.
//
// Drives serve::Server in-process through its stdin path (Server::feed)
// from one feeder thread, on a loggen fleet stream made from --seed, and
// checks every run against a reference mining run. See README.md in this
// directory for the workloads, the metrics and how to run it.
//
//   bench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--workdir <dir>] [--trace-out <file>] [--cache <dir>]
//
// --trace 0 measures the daemon untraced and prints the end-to-end
// metrics. --trace 1 additionally rebuilds the daemon's lane pipeline from
// the layers' public entry points (JsonStreamIngester, Engine, and a
// timing PatternRepository decorator over the same PatternStore), records
// a span around every call into a layer, and prints the per-layer budget.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyze_by_service.hpp"
#include "core/evolution.hpp"
#include "core/governor.hpp"
#include "core/ingest.hpp"
#include "core/repository.hpp"
#include "loggen/fleet.hpp"
#include "obs/build_info.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "store/pattern_store.hpp"
#include "testkit/canonical.hpp"
#include "util/bounded_queue.hpp"
#include "util/clock.hpp"
#include "util/cpuid.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace seqrtg;

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  bool durable;
  std::size_t lanes;
  std::size_t batch;
  double noise_fraction;
  /// Records mined into the warm store before the run (0 = cold store).
  std::size_t warm_records;
  std::size_t warm_batch;
  /// Records drawn for the stream; trimmed per lane to whole batches.
  std::size_t stream_records;
};

// Why these three: README.md. Every flush is size-triggered (the stream is
// trimmed so each lane receives whole batches and the flush interval is
// far longer than a run), so the mined output is a pure function of the
// seed and never of timing.
constexpr std::size_t kServices = 200;
constexpr Workload kWorkloads[] = {
    {"mine_durable_b4096", true, 1, 4096, 0.0, 0, 0, 12 * 4096},
    {"mine_mem_b100k", false, 1, 100000, 0.05, 0, 0, 200000},
    {"match_warm_1lane", true, 1, 4096, 0.0, 200000, 100000, 12 * 4096},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::EngineOptions engine_options() {
  // The daemon's defaults: `seqrtg serve` without engine flags.
  core::EngineOptions opts;
  opts.threads = 1;
  return opts;
}

std::size_t lane_of(const std::string& service, std::size_t lanes) {
  // Server's shard rule (Server::ingest_record).
  return std::hash<std::string>{}(service) % lanes;
}

struct Inputs {
  std::vector<core::LogRecord> warm;
  std::vector<core::LogRecord> stream;
  std::uint64_t expected_flushes = 0;
};

/// The fleet (its services, their templates and traffic shares) is fixed:
/// loggen's default fleet seed. --seed draws the traffic: each record of
/// the fleet's stream is kept with probability 1/2, so two seeds see
/// different records and different batch compositions of the same fleet.
/// A seed-dependent fleet would make the cost of a run depend mostly on
/// how many templates the few Zipf-heaviest services drew, which spreads
/// records/s by ~20% from seed to seed and hides changes in the program.
Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  loggen::FleetOptions fo;
  fo.services = kServices;
  fo.noise_fraction = w.noise_fraction;
  loggen::FleetGenerator gen(fo);
  util::Rng pick(seed);
  auto take = [&](std::size_t count) {
    std::vector<core::LogRecord> out;
    out.reserve(count);
    while (out.size() < count) {
      loggen::FleetRecord r = gen.next();
      if (pick.chance(0.5)) out.push_back(std::move(r.record));
    }
    return out;
  };
  Inputs in;
  in.warm = take(w.warm_records);
  std::vector<core::LogRecord> drawn = take(w.stream_records);

  // Keep the longest prefix of each lane's sub-stream that is a whole
  // number of batches, so every flush is size-triggered.
  std::vector<std::size_t> per_lane(w.lanes, 0);
  for (const core::LogRecord& r : drawn) ++per_lane[lane_of(r.service, w.lanes)];
  std::vector<std::size_t> keep(w.lanes, 0);
  for (std::size_t l = 0; l < w.lanes; ++l) {
    keep[l] = per_lane[l] / w.batch * w.batch;
    in.expected_flushes += keep[l] / w.batch;
  }
  for (core::LogRecord& r : drawn) {
    std::size_t& left = keep[lane_of(r.service, w.lanes)];
    if (left == 0) continue;
    --left;
    in.stream.push_back(std::move(r));
  }
  return in;
}

/// Mines `records` in consecutive batches of `batch` through `engine`.
void mine_batches(core::Engine& engine,
                  const std::vector<const core::LogRecord*>& records,
                  std::size_t batch) {
  std::vector<core::LogRecord> chunk;
  for (std::size_t i = 0; i < records.size(); i += batch) {
    chunk.clear();
    for (std::size_t j = i; j < std::min(records.size(), i + batch); ++j) {
      chunk.push_back(*records[j]);
    }
    engine.analyze_by_service(chunk);
  }
}

/// The daemon's stdin for one run: every stream record as a JSON line.
std::string encode_stream(const Inputs& in) {
  std::string text;
  for (const core::LogRecord& r : in.stream) {
    text += core::record_to_json(r);
    text += '\n';
  }
  return text;
}

std::vector<const core::LogRecord*> pointers(
    const std::vector<core::LogRecord>& v) {
  std::vector<const core::LogRecord*> out;
  out.reserve(v.size());
  for (const core::LogRecord& r : v) out.push_back(&r);
  return out;
}

/// The reference pattern set: one Engine over a non-durable PatternStore,
/// with no server, fed the warm batches and then each lane's sub-stream in
/// the daemon's batch schedule. Lanes own disjoint services, so lane order
/// does not change the result. The reference store is a PatternStore, not
/// an InMemoryRepository, because the two load a service's patterns in
/// different orders (pid order vs insertion order) and the matcher credits
/// a message that fits two patterns to the first one loaded: from the
/// second batch on, their match counts differ.
std::string reference_canonical(const Workload& w, const Inputs& in) {
  store::PatternStore repo;
  core::Engine engine(&repo, engine_options());
  mine_batches(engine, pointers(in.warm), w.warm_batch);
  for (std::size_t l = 0; l < w.lanes; ++l) {
    std::vector<const core::LogRecord*> lane;
    for (const core::LogRecord& r : in.stream) {
      if (lane_of(r.service, w.lanes) == l) lane.push_back(&r);
    }
    mine_batches(engine, lane, w.batch);
  }
  return testkit::canonical_patterns(repo);
}

// ------------------------------------------------------------ host + files

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_json() {
  std::string compiler;
#if defined(__clang__)
  compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  compiler = std::string("gcc ") + __VERSION__;
#else
  compiler = "unknown";
#endif
  const obs::BuildInfo& bi = obs::build_info();
  std::string out = "{\"cpu_model\":\"" + util::json_escape(cpu_model());
  out += "\",\"simd_active\":\"";
  out += util::simd_level_name(util::simd_level());
  out += "\",\"compiler\":\"" + util::json_escape(compiler);
  out += "\",\"build_type\":\"";
  out += bi.build_type;
  out += "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"git_describe\":\"";
  out += bi.git_describe;
  out += "\"}";
  return out;
}

/// Gives free heap pages back to the kernel, so every run starts from the
/// same resident state whether or not this process computed the reference
/// (which leaves a grown heap behind).
void trim_heap() { malloc_trim(0); }

/// Resets the kernel's peak-RSS mark so each run reports its own peak.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// Size of the newest snapshot in a store directory (snapshot-<seq>.db;
/// the checkpoint keeps the previous one as a fallback).
std::uint64_t newest_snapshot_bytes(const fs::path& dir) {
  std::uint64_t best_seq = 0, bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snapshot-", 0) != 0 || e.path().extension() != ".db") {
      continue;
    }
    const std::uint64_t seq = std::strtoull(name.c_str() + 9, nullptr, 10);
    if (seq >= best_seq) {
      best_seq = seq;
      bytes = e.file_size(ec);
    }
  }
  return bytes;
}

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Per workload and seed, built once and kept under `cache`: the reference
/// pattern set and, for a warm workload, its starting store. The warm
/// store holds the warm records mined at the warm batch size through one
/// engine, with a checkpoint after the first batch and the rest left as a
/// WAL tail, so opening it replays both a snapshot and the log.
bool prepare_cache(const Workload& w, const Inputs& in, const fs::path& cache,
                   std::string* reference) {
  const fs::path store_dir = cache / "store";
  const fs::path ref_file = cache / "reference.txt";
  const fs::path done = cache / "complete";
  if (fs::exists(done)) {
    std::ifstream f(ref_file, std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    *reference = buf.str();
    return static_cast<bool>(f);
  }
  fresh_dir(cache);
  if (w.warm_records > 0) {
    store::PatternStore store;
    if (!store.open(store_dir.string())) return false;
    core::Engine engine(&store, engine_options());
    const std::vector<const core::LogRecord*> warm = pointers(in.warm);
    const std::size_t first = std::min(warm.size(), w.warm_batch);
    mine_batches(engine, std::vector(warm.begin(), warm.begin() + first),
                 w.warm_batch);
    if (!store.checkpoint()) return false;
    mine_batches(engine, std::vector(warm.begin() + first, warm.end()),
                 w.warm_batch);
  }
  *reference = reference_canonical(w, in);
  {
    std::ofstream f(ref_file, std::ios::binary);
    f << *reference;
    if (!f) return false;
  }
  std::ofstream(done) << "ok\n";
  return true;
}

/// Puts the store a run starts from into `dir`: nothing for cold workloads
/// (PatternStore::open creates the directory), a copy of the cached warm
/// store otherwise.
void restore_store(const Workload& w, const fs::path& cache,
                   const fs::path& dir) {
  fs::remove_all(dir);
  if (w.warm_records > 0) {
    fs::copy(cache / "store", dir, fs::copy_options::recursive);
  }
}

// ------------------------------------------------------------- gate + run

struct Gate {
  bool ok = true;
  std::string why;
  void check(bool cond, const std::string& what) {
    if (!cond && ok) {
      ok = false;
      why = what;
    }
  }
};

serve::ServeOptions serve_options(const Workload& w) {
  serve::ServeOptions opts;
  opts.engine = engine_options();
  opts.port = -1;
  opts.http_port = -1;
  opts.lanes = w.lanes;
  opts.batch_size = w.batch;
  opts.overflow = util::OverflowPolicy::kBlock;
  // Far longer than any run: every flush is size-triggered.
  opts.flush_interval_s = 3600.0;
  opts.checkpoint_interval_s = 0.0;
  opts.evolution_interval_s = 0.0;
  return opts;
}

/// Opens the store as serve would. Non-durable workloads use a fresh
/// in-memory store.
bool open_store(const Workload& w, store::PatternStore& store,
                const fs::path& dir) {
  return !w.durable || store.open(dir.string());
}

/// Post-drain correctness checks shared by both run kinds. The drained
/// store's pattern set must equal the reference...
void check_patterns(store::PatternStore& store, const std::string& reference,
                    Gate& gate) {
  const std::string got = testkit::canonical_patterns(store);
  gate.check(got == reference,
             "pattern set differs from the reference: " +
                 testkit::first_diff(reference, got));
}

/// ...and on durable workloads, once that store is closed, a cold reopen of
/// its directory must give the same set back.
void check_reopen(const Workload& w, const fs::path& dir,
                  const std::string& reference, Gate& gate) {
  if (!w.durable || !gate.ok) return;
  store::PatternStore reopened;
  gate.check(reopened.open(dir.string()), "cold reopen failed");
  const std::string again = testkit::canonical_patterns(reopened);
  gate.check(again == reference, "cold reopen differs from the reference: " +
                                     testkit::first_diff(reference, again));
}

struct ServeRun {
  double setup_s = 0;
  double feed_window_s = 0;  // first feed -> processed() == N
  double drain_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double disk_mb = 0;
  std::uint64_t processed = 0;
  Gate gate;
};

/// One untraced daemon run: open + start, feed every line, wait until every
/// flush is acknowledged, drain, then check the output.
ServeRun run_server(const Workload& w, const Inputs& in,
                    const fs::path& cache, const fs::path& dir,
                    const std::string& reference) {
  ServeRun run;
  const std::uint64_t n = in.stream.size();
  restore_store(w, cache, dir);
  trim_heap();
  {
    const auto t0 = SteadyClock::now();
    std::istringstream stream(encode_stream(in));
    // The peak counts from here: the encoder's transient buffers (string
    // growth) are not the daemon's memory.
    reset_peak_rss();
    store::PatternStore store;
    const bool opened = open_store(w, store, dir);
    serve::Server server(&store, serve_options(w));
    std::string error;
    const bool started = opened && server.start(&error);
    run.setup_s = seconds_between(t0, SteadyClock::now());
    if (!started) {
      run.gate.check(false, opened ? "start failed: " + error : "open failed");
      return run;
    }

    const double cpu0 = cpu_seconds();
    const auto f0 = SteadyClock::now();
    server.feed(stream);
    server.wait_until([&] { return server.processed() >= n; },
                      std::chrono::milliseconds(150000));
    const auto f1 = SteadyClock::now();
    run.cpu_s = cpu_seconds() - cpu0;
    run.feed_window_s = seconds_between(f0, f1);

    const auto d0 = SteadyClock::now();
    const serve::ServeReport report = server.stop();
    run.drain_s = seconds_between(d0, SteadyClock::now());
    run.peak_rss_mb = peak_rss_mb();
    run.processed = report.processed;

    run.gate.check(report.accepted == n && report.processed == n,
                   "accepted/processed != records fed");
    run.gate.check(report.malformed == 0 && report.dropped == 0 &&
                       report.shed == 0,
                   "malformed, dropped or shed records");
    run.gate.check(report.batches == in.expected_flushes,
                   "flush count != size-triggered count");
    if (w.durable) {
      run.disk_mb = static_cast<double>(dir_bytes(dir)) / (1024.0 * 1024.0);
    }
    if (run.gate.ok) check_patterns(store, reference, run.gate);
  }
  check_reopen(w, dir, reference, run.gate);
  return run;
}

/// Set-up only (stdin stream + open + start, then a drain of an idle
/// daemon): extra set-up samples so setup_s is a median of several.
std::optional<double> setup_only(const Workload& w, const Inputs& in,
                                 const fs::path& cache, const fs::path& dir) {
  restore_store(w, cache, dir);
  const auto t0 = SteadyClock::now();
  std::istringstream stream(encode_stream(in));
  store::PatternStore store;
  if (!open_store(w, store, dir)) return std::nullopt;
  serve::ServeOptions opts = serve_options(w);
  opts.checkpoint_on_stop = false;
  serve::Server server(&store, opts);
  if (!server.start()) return std::nullopt;
  const double s = seconds_between(t0, SteadyClock::now());
  server.stop();
  return s;
}

// ------------------------------------------------------------------ tracing

// Spans recorded around every call into a layer, kept in memory per thread
// and written at exit. A span's layer is its name up to the first '.';
// "pipeline" spans are the per-thread roots whose self time is the
// unattributed remainder. Spans flagged `wait` are queue waits (a blocked
// producer, an idle lane, the feeder waiting for the last flush).
enum SpanName : std::uint16_t {
  kPipelineMain,
  kPipelineLane,
  kServeStart,
  kServeReadLine,
  kServePush,
  kServePop,
  kServeWaitProcessed,
  kServeFlush,
  kServeStop,
  kServeJoin,
  kIngestParse,
  kGovernorAdmit,
  kEngineAnalyze,
  kStoreOpen,
  kStoreAttachGovernor,
  kStoreLoadService,
  kStoreServices,
  kStoreUpsert,
  kStoreRecordMatch,
  kStoreDelete,
  kStoreFind,
  kStorePatternCount,
  kStoreBeginBatch,
  kStoreCommitBatch,
  kStoreAbortBatch,
  kStoreCheckpoint,
  kSpanNameCount
};

struct SpanInfo {
  const char* name;
  bool wait;
};

constexpr SpanInfo kSpanInfo[kSpanNameCount] = {
    {"pipeline.main", false},       {"pipeline.lane", false},
    {"serve.start", false},         {"serve.read_line", false},
    {"serve.push", true},           {"serve.pop", true},
    {"serve.wait_processed", true}, {"serve.flush", false},
    {"serve.stop", false},          {"serve.join", true},
    {"ingest.parse_line", false},   {"governor.overloaded", false},
    {"engine.analyze_by_service", false},
    {"store.open", false},          {"store.attach_governor", false},
    {"store.load_service", false},  {"store.services", false},
    {"store.upsert", false},        {"store.record_match", false},
    {"store.delete", false},        {"store.find", false},
    {"store.pattern_count", false}, {"store.begin_batch", false},
    {"store.commit_batch", false},  {"store.abort_batch", false},
    {"store.checkpoint", false},
};

std::string layer_of(SpanName name) {
  const std::string full = kSpanInfo[name].name;
  return full.substr(0, full.find('.'));
}

struct Span {
  std::uint32_t id;
  std::uint32_t parent;  // 0 = root
  std::uint32_t thread;
  SpanName name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanRecorder {
 public:
  struct ThreadLog {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;
  };

  /// The calling thread's log, created on first use.
  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    thread_local std::uint64_t owner = 0;
    if (log == nullptr || owner != generation_) {
      std::lock_guard lock(mutex_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->thread = static_cast<std::uint32_t>(logs_.size());
      log->spans.reserve(1 << 16);
      owner = generation_;
    }
    return *log;
  }

  std::uint32_t next_id() { return next_id_.fetch_add(1) + 1; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
  }

  /// Every span; call after the recording threads have joined.
  std::vector<Span> all() const {
    std::lock_guard lock(mutex_);
    std::vector<Span> out;
    for (const auto& log : logs_) {
      out.insert(out.end(), log->spans.begin(), log->spans.end());
    }
    return out;
  }

 private:
  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1) + 1;
  }

  // Distinguishes recorders that reuse one address, so a thread never
  // writes into the log of a recorder that has gone.
  const std::uint64_t generation_ = next_generation();
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<std::uint32_t> next_id_{0};
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, SpanName name)
      : log_(rec.local()), id_(rec.next_id()), name_(name) {
    parent_ = log_.open.empty() ? 0 : log_.open.back();
    log_.open.push_back(id_);
    start_ns_ = SpanRecorder::now_ns();
  }
  ~ScopedSpan() {
    const std::int64_t end = SpanRecorder::now_ns();
    log_.open.pop_back();
    log_.spans.push_back({id_, parent_, log_.thread, name_, start_ns_, end});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadLog& log_;
  std::uint32_t id_;
  std::uint32_t parent_ = 0;
  SpanName name_;
  std::int64_t start_ns_ = 0;
};

/// Timing decorator: forwards every repository call to the daemon's
/// PatternStore, recording a span and a count per call. Needed because
/// PatternStore is final and the engine reaches it only through this
/// interface.
class TimedRepository final : public core::PatternRepository {
 public:
  TimedRepository(store::PatternStore* store, SpanRecorder* rec)
      : store_(store), rec_(rec) {}

  std::vector<core::Pattern> load_service(std::string_view service) override {
    ScopedSpan span(*rec_, kStoreLoadService);
    std::vector<core::Pattern> out = store_->load_service(service);
    load_rows_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }
  std::vector<std::string> services() override {
    ScopedSpan span(*rec_, kStoreServices);
    return store_->services();
  }
  void upsert_pattern(const core::Pattern& p) override {
    ScopedSpan span(*rec_, kStoreUpsert);
    store_->upsert_pattern(p);
  }
  void record_match(const std::string& id, std::uint64_t count,
                    std::int64_t when) override {
    ScopedSpan span(*rec_, kStoreRecordMatch);
    store_->record_match(id, count, when);
  }
  bool delete_pattern(const std::string& id) override {
    ScopedSpan span(*rec_, kStoreDelete);
    return store_->delete_pattern(id);
  }
  std::optional<core::Pattern> find(const std::string& id) override {
    ScopedSpan span(*rec_, kStoreFind);
    return store_->find(id);
  }
  std::size_t pattern_count() override {
    ScopedSpan span(*rec_, kStorePatternCount);
    return store_->pattern_count();
  }
  void begin_batch() override {
    ScopedSpan span(*rec_, kStoreBeginBatch);
    store_->begin_batch();
  }
  void commit_batch() override {
    ScopedSpan span(*rec_, kStoreCommitBatch);
    store_->commit_batch();
  }
  void abort_batch() override {
    ScopedSpan span(*rec_, kStoreAbortBatch);
    store_->abort_batch();
  }

  std::uint64_t load_rows() const { return load_rows_.load(); }

 private:
  store::PatternStore* store_;
  SpanRecorder* rec_;
  std::atomic<std::uint64_t> load_rows_{0};
};

double phase_seconds(const char* phase) {
  for (const auto& family : obs::default_registry().snapshot()) {
    if (family.name != "seqrtg_engine_phase_seconds") continue;
    for (const auto& inst : family.instances) {
      for (const auto& [key, value] : inst.labels) {
        if (key == "phase" && value == phase) return inst.histogram.sum;
      }
    }
  }
  return 0.0;
}

using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct TracedRun {
  double feed_window_s = 0;
  Metrics metrics;
  std::vector<Span> spans;
  Gate gate;
};

/// The daemon's lane pipeline rebuilt from the layers' public entry points,
/// with the same shard rule, queue, batch policy, engine options, shared
/// sketch registry and governor wiring as serve::Server.
TracedRun run_traced(const Workload& w, const Inputs& in,
                     const fs::path& cache, const fs::path& dir,
                     const std::string& reference) {
  TracedRun run;
  const std::uint64_t n = in.stream.size();
  restore_store(w, cache, dir);
  std::istringstream stream(encode_stream(in));
  trim_heap();
  obs::default_registry().reset();

  SpanRecorder rec;
  const serve::ServeOptions sopts = serve_options(w);
  core::SketchRegistry sketches;
  core::MemoryAccountant accountant;
  core::GovernorPolicy policy = sopts.governor;
  policy.clock = &util::Clock::system();
  core::Governor governor(policy, &accountant);
  // Owned through a pointer so it can be closed before the cold reopen.
  auto owned_store = std::make_unique<store::PatternStore>();
  store::PatternStore& store = *owned_store;
  TimedRepository repo(&store, &rec);

  struct Lane {
    explicit Lane(std::size_t capacity)
        : queue(capacity, util::OverflowPolicy::kBlock) {}
    util::BoundedQueue<core::LogRecord> queue;
    std::thread worker;
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  std::atomic<std::uint64_t> processed{0}, flushes{0};
  std::atomic<std::uint64_t> matched{0}, new_patterns{0};
  std::mutex progress_mutex;
  std::condition_variable progress_cv;
  core::IngestStats stats;
  std::size_t ingested = 0;
  std::uint64_t open_rows = 0;
  double feed_s = 0;
  store::PatternStore::DurabilityStats after_open, before_checkpoint;

  auto lane_loop = [&](std::size_t index) {
    ScopedSpan root(rec, kPipelineLane);
    core::EngineOptions eopts = sopts.engine;
    eopts.threads = 1;
    eopts.sketches = &sketches;
    eopts.governor = &governor;
    core::Engine engine(&repo, eopts);
    auto& queue = lanes[index]->queue;
    std::vector<core::LogRecord> batch;
    batch.reserve(w.batch);
    auto flush = [&] {
      if (batch.empty()) return;
      ScopedSpan span(rec, kServeFlush);
      engine.set_now_unix(util::Clock::system().now_unix());
      core::BatchReport report;
      {
        ScopedSpan analyze(rec, kEngineAnalyze);
        report = engine.analyze_by_service(batch);
      }
      matched.fetch_add(report.matched_existing);
      new_patterns.fetch_add(report.new_patterns);
      flushes.fetch_add(1);
      processed.fetch_add(batch.size());
      batch.clear();
      { std::lock_guard lock(progress_mutex); }
      progress_cv.notify_all();
    };
    for (;;) {
      core::LogRecord record;
      util::PopStatus status;
      {
        ScopedSpan span(rec, kServePop);
        status = queue.pop_wait(record, std::chrono::milliseconds(200));
      }
      if (status == util::PopStatus::kItem) {
        batch.push_back(std::move(record));
        if (batch.size() >= w.batch) flush();
      } else if (status == util::PopStatus::kClosed) {
        flush();
        return;
      }
    }
  };

  {
    ScopedSpan root(rec, kPipelineMain);
    bool opened = false;
    {
      ScopedSpan span(rec, kStoreOpen);
      opened = open_store(w, store, dir);
    }
    if (!opened) {
      run.gate.check(false, "open failed");
      return run;
    }
    open_rows = store.pattern_count();
    after_open = store.durability_stats();
    // The engine configures the example cap through the decorator; the
    // store behind it must carry the same cap, as it does under serve.
    store.set_example_cap(sopts.engine.analyzer.example_cap);
    {
      ScopedSpan span(rec, kServeStart);
      if (!obs::tracer().enabled()) obs::tracer().start(obs::TracerConfig{});
      for (std::size_t i = 0; i < w.lanes; ++i) {
        lanes.push_back(std::make_unique<Lane>(sopts.queue_capacity));
      }
      {
        ScopedSpan attach(rec, kStoreAttachGovernor);
        store.attach_governor(&governor);
      }
      for (std::size_t i = 0; i < w.lanes; ++i) {
        lanes[i]->worker = std::thread(lane_loop, i);
      }
    }

    const auto f0 = SteadyClock::now();
    std::string line;
    for (;;) {
      {
        ScopedSpan span(rec, kServeReadLine);
        if (!std::getline(stream, line)) break;
      }
      std::optional<core::LogRecord> record;
      {
        ScopedSpan span(rec, kIngestParse);
        record = core::JsonStreamIngester::parse_and_count_line(line, stats);
      }
      if (!record.has_value()) continue;
      ++ingested;
      {
        // Server::ingest_record's admission check (never overloaded here:
        // no ceiling is set).
        ScopedSpan span(rec, kGovernorAdmit);
        if (governor.overloaded()) continue;
      }
      const std::size_t lane = lane_of(record->service, w.lanes);
      ScopedSpan span(rec, kServePush);
      lanes[lane]->queue.push(std::move(*record));
      // Server signals its progress waiters after every accepted record.
      { std::lock_guard lock(progress_mutex); }
      progress_cv.notify_all();
    }
    feed_s = seconds_between(f0, SteadyClock::now());
    {
      ScopedSpan span(rec, kServeWaitProcessed);
      std::unique_lock lock(progress_mutex);
      progress_cv.wait_for(lock, std::chrono::seconds(150),
                           [&] { return processed.load() >= n; });
    }
    run.feed_window_s = seconds_between(f0, SteadyClock::now());

    {
      ScopedSpan span(rec, kServeStop);
      {
        ScopedSpan join(rec, kServeJoin);
        for (auto& lane : lanes) lane->queue.close();
        for (auto& lane : lanes) lane->worker.join();
      }
      before_checkpoint = store.durability_stats();
      if (w.durable) {
        ScopedSpan ck(rec, kStoreCheckpoint);
        run.gate.check(store.checkpoint(), "final checkpoint failed");
      }
      {
        ScopedSpan attach(rec, kStoreAttachGovernor);
        store.attach_governor(nullptr);
      }
      obs::tracer().stop();
    }
  }

  std::uint64_t accepted = 0;
  for (const auto& lane : lanes) accepted += lane->queue.pushed();
  run.gate.check(ingested == n && accepted == n && processed.load() == n &&
                     stats.malformed == 0,
                 "traced pipeline lost records");
  run.gate.check(flushes.load() == in.expected_flushes,
                 "traced flush count != size-triggered count");
  if (run.gate.ok) check_patterns(store, reference, run.gate);
  owned_store.reset();  // neither `store` nor `repo`'s target is used below
  check_reopen(w, dir, reference, run.gate);

  // ---- the budget: self time per layer over every pipeline thread.
  run.spans = rec.all();
  std::map<std::uint32_t, std::int64_t> child_ns;
  for (const Span& s : run.spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_s;  // layer -> seconds
  std::vector<double> name_s(kSpanNameCount, 0.0);
  std::vector<std::uint64_t> name_calls(kSpanNameCount, 0);
  std::vector<double> batch_ms;
  double wait_s = 0, thread_s = 0, wall_s = 0;
  for (const Span& s : run.spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    const double self =
        dur - static_cast<double>(child_ns[s.id]) / 1e9;
    name_s[s.name] += dur;
    ++name_calls[s.name];
    if (s.name == kEngineAnalyze) batch_ms.push_back(dur * 1e3);
    if (s.parent == 0) thread_s += dur;
    if (s.name == kPipelineMain) wall_s = dur;
    if (kSpanInfo[s.name].wait) {
      wait_s += self;
    } else {
      self_s[layer_of(s.name)] += self;
    }
  }
  const double unattributed = self_s["pipeline"];

  Metrics& m = run.metrics;
  auto put = [&m](const std::string& name, double value, const char* unit) {
    m[name] = {value, unit};
  };
  const double records = static_cast<double>(n);
  put("serve.self_s", self_s["serve"], "s");
  put("serve.wait_s", wait_s, "s");
  put("serve.start_s", name_s[kServeStart], "s");
  put("serve.feed_s", feed_s, "s");
  put("serve.push_s", name_s[kServePush], "s");
  put("serve.stop_s", name_s[kServeStop], "s");
  put("serve.flushes", static_cast<double>(flushes.load()), "count");
  put("ingest.decode_s", self_s["ingest"], "s");
  put("ingest.records", static_cast<double>(ingested), "count");
  put("ingest.ns_per_rec", name_s[kIngestParse] * 1e9 / records, "ns");
  const double engine_self = self_s["engine"];
  const double parse_first = phase_seconds("parse_first");
  const double trie = phase_seconds("trie_analysis");
  put("engine.calls", static_cast<double>(name_calls[kEngineAnalyze]),
      "count");
  put("engine.self_s", engine_self, "s");
  put("engine.batch_p50_ms", median(batch_ms), "ms");
  put("engine.batch_max_ms",
      batch_ms.empty() ? 0.0 : *std::max_element(batch_ms.begin(),
                                                 batch_ms.end()),
      "ms");
  put("engine.parse_first_s", parse_first, "s");
  put("engine.trie_analysis_s", trie, "s");
  put("engine.unphased_s", engine_self - parse_first - trie, "s");
  put("engine.matched_ratio", static_cast<double>(matched.load()) / records,
      "ratio");
  put("engine.new_patterns", static_cast<double>(new_patterns.load()),
      "count");
  put("engine.patterns_per_krec",
      static_cast<double>(new_patterns.load()) * 1000.0 / records, "1/krec");
  put("store.self_s", self_s["store"], "s");
  put("store.open_s", name_s[kStoreOpen], "s");
  put("store.open.rows", static_cast<double>(open_rows), "count");
  put("store.load_service.calls",
      static_cast<double>(name_calls[kStoreLoadService]), "count");
  put("store.load_service_s", name_s[kStoreLoadService], "s");
  put("store.load_service.rows", static_cast<double>(repo.load_rows()),
      "count");
  put("store.upsert.calls", static_cast<double>(name_calls[kStoreUpsert]),
      "count");
  put("store.upsert_s", name_s[kStoreUpsert], "s");
  put("store.record_match.calls",
      static_cast<double>(name_calls[kStoreRecordMatch]), "count");
  put("store.record_match_s", name_s[kStoreRecordMatch], "s");
  put("store.commit.calls",
      static_cast<double>(name_calls[kStoreCommitBatch]), "count");
  put("store.commit_s",
      name_s[kStoreBeginBatch] + name_s[kStoreCommitBatch], "s");
  put("store.checkpoint_s", name_s[kStoreCheckpoint], "s");
  put("store.snapshot_bytes",
      w.durable ? static_cast<double>(newest_snapshot_bytes(dir)) : 0.0,
      "bytes");
  put("store.wal_bytes_per_rec",
      static_cast<double>(before_checkpoint.wal_bytes - after_open.wal_bytes) /
          records,
      "bytes");
  put("governor.self_s", self_s["governor"], "s");
  put("governor.peak_resident_mb",
      static_cast<double>(accountant.peak_resident_bytes()) /
          (1024.0 * 1024.0),
      "MiB");
  put("governor.partitions", static_cast<double>(accountant.partition_count()),
      "count");
  put("trace.wall_s", wall_s, "s");
  put("trace.thread_s", thread_s, "s");
  put("trace.unattributed_s", unattributed, "s");
  put("trace.unattributed_frac", thread_s > 0 ? unattributed / thread_s : 0,
      "ratio");
  put("trace.spans", static_cast<double>(run.spans.size()), "count");
  return run;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\tthread\tname\tstart_ns\tend_ns\n";
  std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) base = std::min(base, s.start_ns);
  for (const Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.thread << '\t'
        << kSpanInfo[s.name].name << '\t' << (s.start_ns - base) << '\t'
        << (s.end_ns - base) << '\n';
  }
}

// ------------------------------------------------------------------- output

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":{\"value\":" + format_number(vu.first) +
           ",\"unit\":\"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/servebench/work";
  std::string cache = ".bench_build/servebench/cache";
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a->workload = value;
    else if (key == "--seed") a->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a->seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") a->trace = std::atoi(value.c_str());
    else if (key == "--workdir") a->workdir = value;
    else if (key == "--cache") a->cache = value;
    else if (key == "--trace-out") a->trace_out = value;
    else return false;
  }
  return argc % 2 == 1 && find_workload(a->workload) != nullptr &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_serve --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir d] [--cache d] "
                 "[--trace-out f]\nworkloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *find_workload(args.workload);
  // `seqrtg serve --log-level warn`: the self-log's info lines (start,
  // drain) are rate-limited stderr writes, so at the default level the
  // first few set-ups and drains of a run pay for a write and later ones
  // do not, which makes both times bimodal.
  obs::event_log().set_min_level(obs::LogLevel::kWarn);

  const Inputs in = make_inputs(w, args.seed);
  const std::uint64_t n = in.stream.size();
  const fs::path work = fs::path(args.workdir) / w.name;
  const fs::path cache = fs::path(args.cache) /
                         (std::string(w.name) + "-" +
                          std::to_string(args.seed));
  const fs::path dir = work / "store";
  fs::create_directories(work);

  std::string reference;
  if (!prepare_cache(w, in, cache, &reference)) {
    std::fprintf(stderr, "cannot prepare the reference in %s\n",
                 cache.string().c_str());
    return 1;
  }
  std::printf("{\"host\":%s,\"workload\":\"%s\",\"seed\":%llu,"
              "\"records\":%llu,\"flushes\":%llu}\n",
              host_json().c_str(), w.name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(in.expected_flushes));
  std::fflush(stdout);

  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  auto account = [&](std::uint64_t processed, const Gate& gate) {
    attempted += n;
    failed += gate.ok ? n - std::min(n, processed) : n;
    if (!gate.ok) {
      correct = false;
      std::fprintf(stderr, "correctness gate failed: %s\n", gate.why.c_str());
    }
  };
  const auto measure_start = SteadyClock::now();
  auto measuring = [&] {
    return seconds_between(measure_start, SteadyClock::now()) < args.seconds;
  };
  auto report_iteration = [&](const char* kind, double window_s) {
    std::printf("{\"run\":\"%s\",\"records_per_s\":%s}\n", kind,
                format_number(static_cast<double>(n) / window_s).c_str());
    std::fflush(stdout);
  };

  Metrics metrics;
  if (args.trace == 0) {
    std::vector<double> rate, setup, drain, cpu, rss;
    do {
      ServeRun r = run_server(w, in, cache, dir, reference);
      account(r.processed, r.gate);
      report_iteration("untraced", r.feed_window_s);
      rate.push_back(static_cast<double>(n) / r.feed_window_s);
      setup.push_back(r.setup_s);
      drain.push_back(r.drain_s);
      cpu.push_back(r.cpu_s * 1000.0 / (static_cast<double>(n) / 1000.0));
      rss.push_back(r.peak_rss_mb);
    } while (measuring());
    // Set-up is short next to a run: sample it more (a few seconds at
    // most) so its median is steady.
    const auto setup_start = SteadyClock::now();
    while (setup.size() < 25 &&
           (setup.size() < 5 ||
            seconds_between(setup_start, SteadyClock::now()) < 3.0)) {
      const std::optional<double> s = setup_only(w, in, cache, dir);
      if (!s.has_value()) {
        correct = false;
        std::fprintf(stderr, "set-up failed\n");
        break;
      }
      setup.push_back(*s);
    }
    metrics["records_per_s"] = {median(rate), "rec/s"};
    metrics["setup_s"] = {median(setup), "s"};
    metrics["drain_s"] = {median(drain), "s"};
    metrics["cpu_ms_per_krec"] = {median(cpu), "ms"};
    metrics["peak_rss_mb"] = {median(rss), "MiB"};
  } else {
    // Untraced and traced runs alternate, swapping which goes first each
    // round. The traced run whose feed window is the median is reported
    // whole, so its budget stays internally consistent.
    std::vector<double> untraced_window;
    std::vector<TracedRun> traced;
    std::vector<double> disk;
    bool traced_first = false;
    do {
      for (int leg = 0; leg < 2; ++leg) {
        if ((leg == 0) == traced_first) {
          TracedRun t = run_traced(w, in, cache, dir, reference);
          account(t.gate.ok ? n : 0, t.gate);
          report_iteration("traced", t.feed_window_s);
          traced.push_back(std::move(t));
        } else {
          ServeRun r = run_server(w, in, cache, dir, reference);
          account(r.processed, r.gate);
          report_iteration("untraced", r.feed_window_s);
          untraced_window.push_back(r.feed_window_s);
          disk.push_back(r.disk_mb);
        }
      }
      traced_first = !traced_first;
    } while (measuring());
    std::sort(traced.begin(), traced.end(),
              [](const TracedRun& a, const TracedRun& b) {
                return a.feed_window_s < b.feed_window_s;
              });
    TracedRun& mid = traced[traced.size() / 2];
    metrics = mid.metrics;
    metrics["trace.overhead_frac"] = {
        mid.feed_window_s / median(untraced_window) - 1.0, "ratio"};
    metrics["store.disk_mb"] = {median(disk), "MiB"};
    write_spans(args.trace_out, mid.spans);
  }
  fs::remove_all(dir);
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return 0;
}
