// Strict-parsing helpers shared by the declarative spec files (campaign
// ScenarioSpec / SearchSpec in exp/scenario.*, gathering GatherScenarioSpec
// in gatherx/scenario.*): unknown-key rejection, exact-rational fields that
// accept "a/b" strings or JSON numbers, the engine block, and the FNV-1a
// fingerprint over a spec's canonical serialization that checkpoints pin.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "numeric/rational.hpp"
#include "sim/engine.hpp"
#include "support/json.hpp"

namespace aurv::exp {

/// Strictness: every key of `json` must be in `allowed`; throws
/// std::invalid_argument naming the offender and its context otherwise.
inline void check_keys(const support::Json& json,
                       std::initializer_list<std::string_view> allowed, const char* context) {
  for (const auto& [key, value] : json.as_object()) {
    bool known = false;
    for (const std::string_view candidate : allowed) known = known || key == candidate;
    if (!known)
      throw std::invalid_argument(std::string("scenario: unknown key \"") + key + "\" in " +
                                  context);
  }
}

inline numeric::Rational rational_from(const support::Json& json, const char* what) {
  if (json.is_string()) return numeric::Rational::from_string(json.as_string());
  if (json.is_number()) return numeric::Rational::from_double(json.as_number());
  throw std::invalid_argument(std::string("scenario: ") + what +
                              " must be a number or a rational string");
}

inline support::Json rational_to(const numeric::Rational& value) {
  // Small integers render as JSON numbers (friendlier to read and edit);
  // everything else as an exact "num/den" string.
  const std::string text = value.to_string();
  if (text.find('/') == std::string::npos && text.size() <= 15) {
    return support::Json(static_cast<double>(std::stoll(text)));
  }
  return support::Json(text);
}

inline sim::EngineConfig engine_from(const support::Json& json) {
  check_keys(json, {"max_events", "contact_slack", "horizon", "r_a", "r_b"}, "engine");
  sim::EngineConfig config;
  config.max_events = json.uint_or("max_events", config.max_events);
  config.contact_slack = json.number_or("contact_slack", config.contact_slack);
  // A negative slack would shrink the contact radius below r, or below 0.
  if (config.contact_slack < 0.0)
    throw std::invalid_argument("scenario: engine.contact_slack must be >= 0");
  if (const support::Json* horizon = json.find("horizon");
      horizon != nullptr && !horizon->is_null()) {
    config.horizon = rational_from(*horizon, "horizon");
    // A negative horizon would stop every run before t = 0.
    if (config.horizon->is_negative())
      throw std::invalid_argument("scenario: engine.horizon must be >= 0");
  }
  const auto radius_from = [&json](const char* key, std::optional<double>& radius) {
    if (const support::Json* value = json.find(key); value != nullptr && !value->is_null()) {
      radius = value->as_number();
      if (!(*radius > 0.0))
        throw std::invalid_argument(std::string("scenario: engine.") + key + " must be positive");
    }
  };
  radius_from("r_a", config.r_a);
  radius_from("r_b", config.r_b);
  // trace_capacity deliberately not exposed: a campaign recording traces
  // would not be constant-memory.
  return config;
}

inline support::Json engine_to(const sim::EngineConfig& config) {
  support::Json json = support::Json::object();
  json.set("max_events", support::Json(config.max_events));
  json.set("contact_slack", support::Json(config.contact_slack));
  if (config.horizon) json.set("horizon", rational_to(*config.horizon));
  if (config.r_a) json.set("r_a", support::Json(*config.r_a));
  if (config.r_b) json.set("r_b", support::Json(*config.r_b));
  return json;
}

/// FNV-1a 64 over the canonical serialization — what spec fingerprints are
/// made of; checkpoints store it so a resume against an edited spec is
/// refused instead of merging apples into oranges.
inline std::uint64_t fnv1a_fingerprint(const support::Json& json) {
  const std::string canonical = json.dump();
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace aurv::exp
