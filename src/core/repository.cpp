#include "core/repository.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace seqrtg::core {

namespace {

/// Repository operation counters, labelled by backend so the in-memory and
/// durable stores share one metric family.
obs::Counter& repo_op(const char* op) {
  return obs::default_registry().counter(
      "seqrtg_repo_ops_total", "Pattern repository operations",
      {{"backend", "memory"}, {"op", op}});
}

struct RepoMetrics {
  obs::Counter& load_service;
  obs::Counter& upsert;
  obs::Counter& record_match;
  obs::Counter& del;
};

RepoMetrics& repo_metrics() {
  static RepoMetrics m{repo_op("load_service"), repo_op("upsert"),
                       repo_op("record_match"), repo_op("delete")};
  return m;
}

}  // namespace

bool widen_pattern_tokens(std::vector<PatternToken>& existing,
                          const std::vector<PatternToken>& incoming) {
  if (existing.size() != incoming.size()) return false;
  bool changed = false;
  for (std::size_t i = 0; i < existing.size(); ++i) {
    if (existing[i].is_variable && incoming[i].is_variable &&
        existing[i].var_type != incoming[i].var_type) {
      existing[i].var_type = TokenType::String;
      changed = true;
    }
  }
  return changed;
}

void merge_pattern_into(Pattern& existing, const Pattern& incoming,
                        std::size_t example_cap) {
  widen_pattern_tokens(existing.tokens, incoming.tokens);
  existing.stats.match_count += incoming.stats.match_count;
  existing.stats.last_matched =
      std::max(existing.stats.last_matched, incoming.stats.last_matched);
  if (existing.stats.first_seen == 0 ||
      (incoming.stats.first_seen != 0 &&
       incoming.stats.first_seen < existing.stats.first_seen)) {
    existing.stats.first_seen = incoming.stats.first_seen;
  }
  for (const std::string& e : incoming.examples) {
    if (existing.examples.size() >= example_cap) break;
    if (std::find(existing.examples.begin(), existing.examples.end(), e) ==
        existing.examples.end()) {
      existing.examples.push_back(e);
    }
  }
}

std::vector<Pattern> InMemoryRepository::load_service(
    std::string_view service) {
  if (obs::telemetry_enabled()) repo_metrics().load_service.inc();
  std::lock_guard lock(mutex_);
  std::vector<Pattern> out;
  const auto it = by_service_.find(service);
  if (it == by_service_.end()) return out;
  out.reserve(it->second.size());
  for (const std::string& id : it->second) {
    out.push_back(by_id_.at(id));
  }
  return out;
}

std::vector<std::string> InMemoryRepository::services() {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(by_service_.size());
  for (const auto& [svc, ids] : by_service_) out.push_back(svc);
  return out;
}

void InMemoryRepository::upsert_pattern(const Pattern& p) {
  if (obs::telemetry_enabled()) repo_metrics().upsert.inc();
  std::lock_guard lock(mutex_);
  const std::string id = p.id();
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    by_id_.emplace(id, p);
    by_service_[p.service].insert(id);
  } else {
    merge_pattern_into(it->second, p, example_cap());
  }
}

bool InMemoryRepository::delete_pattern(const std::string& id) {
  if (obs::telemetry_enabled()) repo_metrics().del.inc();
  std::lock_guard lock(mutex_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  const auto svc = by_service_.find(it->second.service);
  if (svc != by_service_.end()) {
    svc->second.erase(id);
    if (svc->second.empty()) by_service_.erase(svc);
  }
  by_id_.erase(it);
  return true;
}

void InMemoryRepository::record_match(const std::string& id,
                                      std::uint64_t count, std::int64_t when) {
  if (obs::telemetry_enabled()) repo_metrics().record_match.inc();
  std::lock_guard lock(mutex_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  it->second.stats.match_count += count;
  it->second.stats.last_matched =
      std::max(it->second.stats.last_matched, when);
}

std::optional<Pattern> InMemoryRepository::find(const std::string& id) {
  std::lock_guard lock(mutex_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second;
}

std::size_t InMemoryRepository::pattern_count() {
  std::lock_guard lock(mutex_);
  return by_id_.size();
}

}  // namespace seqrtg::core
