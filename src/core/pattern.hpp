// Pattern model: the unit Sequence-RTG discovers, stores, matches and
// exports.
//
// A pattern is a sequence of constant text parts and typed variable
// placeholders. Its canonical text form delimits variables with '%', e.g.
//
//     %action% from %srcip% port %srcport%
//
// Sequence-RTG labels each pattern with a unique, reproducible id: the SHA-1
// hash of the concatenated pattern text and service (paper §III, "Making
// Patterns and Statistics Persistent"). Each pattern carries statistics —
// match count, last-matched date, and a complexity score that guides review
// prioritisation — plus up to three example messages used as patterndb test
// cases.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/token.hpp"

namespace seqrtg::core {

/// One element of a pattern: either constant text or a typed variable.
struct PatternToken {
  bool is_variable = false;
  /// Variable type (String for merged literal positions); unused when
  /// constant.
  TokenType var_type = TokenType::String;
  /// Constant text (when !is_variable).
  std::string text;
  /// Variable name as rendered between the '%' delimiters; defaults to the
  /// type tag, optionally disambiguated ("integer", "integer1") or derived
  /// from a key=value key.
  std::string name;
  /// RTG extension #3: whether the original messages had whitespace before
  /// this position, so exported patterns reconstruct exactly.
  bool is_space_before = false;

  bool operator==(const PatternToken& other) const = default;
};

/// Per-pattern statistics (paper §III): priority signals for the review and
/// manual promotion step.
struct PatternStats {
  std::uint64_t match_count = 0;
  /// Unix seconds of the most recent match; 0 when never parsed.
  std::int64_t last_matched = 0;
  /// Unix seconds of discovery.
  std::int64_t first_seen = 0;
};

struct Pattern {
  std::string service;
  std::vector<PatternToken> tokens;
  PatternStats stats;
  /// Up to three unique example messages (patterndb test cases).
  std::vector<std::string> examples;

  /// Canonical %-delimited text form, reconstructed with exact whitespace.
  std::string text() const;

  /// SHA-1 of text() + service — the reproducible pattern id.
  std::string id() const;

  /// Fraction of variable tokens in [0,1]. "Patterns that consist entirely
  /// of variables with no constant part are often overly patternised" —
  /// high scores flag impractical patterns; the exporter can filter on it.
  double complexity() const;

  std::size_t token_count() const { return tokens.size(); }

  /// Records one example message (deduplicated, capped at `cap`).
  void add_example(std::string_view message, std::size_t cap = 3);

  bool operator==(const Pattern& other) const {
    return service == other.service && tokens == other.tokens;
  }
};

/// Renders a single pattern token ("%srcip%" or constant text).
std::string pattern_token_text(const PatternToken& t);

/// Parses the canonical %-delimited text form back into pattern tokens
/// (the inverse of text() up to variable types). Returns std::nullopt on
/// malformed input (e.g. unbalanced '%' — the paper notes raw '%' in
/// messages causes unknown-tag errors).
std::optional<std::vector<PatternToken>> parse_pattern_text(
    std::string_view text);

/// Assigns final variable names: key-derived names when available, else the
/// type tag with a numeric suffix for repeats ("integer", "integer1", ...).
void assign_variable_names(std::vector<PatternToken>& tokens);

}  // namespace seqrtg::core
