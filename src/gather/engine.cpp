#include "gather/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "geom/closest_approach.hpp"
#include "numeric/rational.hpp"
#include "support/check.hpp"

namespace aurv::gather {

namespace {

using numeric::Rational;

/// Execution state of one agent. The restricted model (shifted frames,
/// unit clock and speed) makes this simpler than the two-agent engine's
/// state: local time is absolute time minus the wake-up, headings are
/// absolute, one length unit is one absolute unit.
struct AgentState {
  AgentState(GatherAgent parameters, program::Program stream_in)
      : stream(std::move(stream_in)), seg_start_pos(parameters.start) {
    seg_end_pos = seg_start_pos;
    if (parameters.wake.sign() > 0) {
      seg_end = parameters.wake;  // pre-wake sleep segment
    } else {
      next_instruction();
    }
  }

  [[nodiscard]] geom::Vec2 position_at(const Rational& time) const {
    if (velocity.x == 0.0 && velocity.y == 0.0) return seg_start_pos;
    const double dt = (time - seg_start).to_double();
    return seg_start_pos + dt * velocity;
  }

  void next_instruction() {
    if (frozen || exhausted) return;
    if (!stream.next()) {
      exhausted = true;
      seg_end.reset();
      velocity = {};
      seg_end_pos = seg_start_pos;
      return;
    }
    const program::Instruction& instruction = stream.value();
    ++instructions;
    seg_end = seg_start + program::duration_of(instruction);
    if (const auto* move = std::get_if<program::Go>(&instruction)) {
      if (move->distance.is_zero()) {
        velocity = {};
        seg_end_pos = seg_start_pos;
      } else {
        const geom::Vec2 direction = geom::unit_vector(move->heading);
        velocity = direction;  // unit speed
        seg_end_pos = seg_start_pos + move->distance.to_double() * direction;
      }
    } else {
      velocity = {};
      seg_end_pos = seg_start_pos;
    }
  }

  void advance_segment() {
    AURV_CHECK(seg_end.has_value());
    seg_start = *seg_end;
    seg_start_pos = seg_end_pos;
    velocity = {};
    seg_end.reset();
    next_instruction();
  }

  void freeze_at(const Rational& time) {
    seg_start_pos = position_at(time);
    seg_start = time;
    seg_end.reset();
    seg_end_pos = seg_start_pos;
    velocity = {};
    frozen = true;
  }

  [[nodiscard]] bool stopped() const noexcept { return frozen || (exhausted && !seg_end); }

  program::Program stream;
  Rational seg_start = 0;
  std::optional<Rational> seg_end;
  geom::Vec2 seg_start_pos;
  geom::Vec2 seg_end_pos;
  geom::Vec2 velocity;
  std::uint64_t instructions = 0;
  bool frozen = false;
  bool exhausted = false;
};

double diameter_at(const std::vector<AgentState>& states, const Rational& time) {
  double widest = 0.0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const geom::Vec2 pi = states[i].position_at(time);
    for (std::size_t j = i + 1; j < states.size(); ++j) {
      widest = std::max(widest, geom::dist(pi, states[j].position_at(time)));
    }
  }
  return widest;
}

}  // namespace

std::string to_string(StopPolicy policy) {
  return policy == StopPolicy::FirstSight ? "first-sight" : "all-visible";
}

StopPolicy policy_from_string(const std::string& name) {
  if (name == "first-sight") return StopPolicy::FirstSight;
  if (name == "all-visible") return StopPolicy::AllVisible;
  throw std::invalid_argument("gather: unknown stop policy \"" + name +
                              "\"; known: first-sight, all-visible");
}

std::string to_string(GatherStop reason) {
  switch (reason) {
    case GatherStop::Gathered: return "gathered";
    case GatherStop::AllIdleApart: return "all-idle-apart";
    case GatherStop::FuelExhausted: return "fuel-exhausted";
    case GatherStop::HorizonReached: return "horizon-reached";
  }
  return "unknown";
}

double default_success_diameter(StopPolicy policy, std::size_t n, double r) {
  if (policy == StopPolicy::AllVisible || n <= 1) return r;
  return static_cast<double>(n - 1) * r + 1e-6;
}

bool is_funnel_configuration(const std::vector<GatherAgent>& agents, double r) {
  AURV_CHECK_MSG(agents.size() >= 2, "is_funnel_configuration: need >= 2 agents");
  std::size_t earliest = 0;
  for (std::size_t k = 1; k < agents.size(); ++k) {
    if (agents[k].wake < agents[earliest].wake) earliest = k;
  }
  for (std::size_t k = 0; k < agents.size(); ++k) {
    if (k == earliest) continue;
    const double delay = (agents[k].wake - agents[earliest].wake).to_double();
    if (delay <= geom::dist(agents[k].start, agents[earliest].start) - r) return false;
  }
  return true;
}

GatherEngine::GatherEngine(std::vector<GatherAgent> agents, GatherConfig config)
    : agents_(std::move(agents)), config_(std::move(config)) {
  AURV_CHECK_MSG(!agents_.empty(), "GatherEngine: need at least one agent");
  AURV_CHECK_MSG(config_.r > 0.0, "GatherEngine: r must be positive");
  for (const GatherAgent& agent : agents_) {
    AURV_CHECK_MSG(agent.wake.sign() >= 0, "GatherEngine: wake times must be nonnegative");
  }
}

GatherResult GatherEngine::run(const sim::AlgorithmFactory& factory) const {
  std::vector<AgentState> states;
  states.reserve(agents_.size());
  for (const GatherAgent& agent : agents_) states.emplace_back(agent, factory());
  const std::size_t n = states.size();

  const double r_sight = config_.r + config_.contact_slack;
  const double target =
      config_.success_diameter.value_or(config_.r) + config_.contact_slack;

  GatherResult result;
  result.min_diameter_seen = std::numeric_limits<double>::infinity();
  Rational now = 0;

  // n = 1 is trivially gathered: the configuration's diameter is 0 from the
  // start, under either stop policy. (The simulation loop below would agree,
  // but only after running the lone agent's program to exhaustion.)
  if (n == 1) {
    states.front().freeze_at(now);
    result.min_diameter_seen = 0.0;
    result.reason = GatherStop::Gathered;
    result.gathered = true;
    result.positions.push_back(states.front().position_at(now));
    result.frozen.push_back(true);
    return result;
  }

  const auto finish = [&](GatherStop reason, const Rational& time) {
    result.reason = reason;
    result.gathered = reason == GatherStop::Gathered;
    result.gather_time = time.to_double();
    result.positions.clear();
    result.frozen.clear();
    for (const AgentState& state : states) {
      result.positions.push_back(state.position_at(time));
      result.frozen.push_back(state.frozen);
    }
    result.final_diameter = diameter_at(states, time);
    result.min_diameter_seen = std::min(result.min_diameter_seen, result.final_diameter);
    // Drain the contact fallback count at the run's deterministic end so
    // its total stays thread-count-invariant like every other series.
    geom::flush_contact_stats();
    return result;
  };

  while (true) {
    if (result.events >= config_.max_events) return finish(GatherStop::FuelExhausted, now);
    result.min_diameter_seen = std::min(result.min_diameter_seen, diameter_at(states, now));

    // FirstSight: freeze every unfrozen agent that currently sees someone.
    // The extra 1e-9 absorbs the round-off of landing exactly on a contact
    // root computed in double (otherwise the loop could creep toward it).
    if (config_.policy == StopPolicy::FirstSight) {
      const double r_freeze = r_sight + 1e-9;
      bool froze_any = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (states[i].frozen) continue;
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          if (geom::dist(states[i].position_at(now), states[j].position_at(now)) <= r_freeze) {
            states[i].freeze_at(now);
            froze_any = true;
            ++result.events;
            break;
          }
        }
      }
      if (froze_any) continue;  // velocities changed; recompute the window
    }

    // Termination: everyone stopped (frozen or program over).
    const bool all_stopped = std::all_of(states.begin(), states.end(),
                                         [](const AgentState& s) { return s.stopped(); });
    if (all_stopped) {
      return finish(diameter_at(states, now) <= target ? GatherStop::Gathered
                                                       : GatherStop::AllIdleApart,
                    now);
    }

    // Window end: earliest segment boundary, possibly clipped by horizon.
    std::optional<Rational> window_end;
    for (const AgentState& state : states) {
      if (state.seg_end && (!window_end || *state.seg_end < *window_end))
        window_end = state.seg_end;
    }
    AURV_CHECK(window_end.has_value());  // not all stopped, so someone has a segment
    bool at_horizon = false;
    if (config_.horizon && *window_end >= *config_.horizon) {
      window_end = config_.horizon;
      at_horizon = true;
    }
    const double window = (*window_end - now).to_double();

    if (config_.policy == StopPolicy::FirstSight) {
      // Earliest strictly-future pairwise contact involving a moving pair.
      double earliest = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (states[i].frozen && states[j].frozen) continue;
          const geom::Vec2 offset =
              states[i].position_at(now) - states[j].position_at(now);
          const geom::Vec2 relative = states[i].velocity - states[j].velocity;
          const std::optional<double> hit =
              geom::first_contact(offset, relative, r_sight, window);
          if (hit && *hit > 0.0) earliest = std::min(earliest, *hit);
        }
      }
      if (earliest < window) {
        now += Rational::from_double(earliest);
        continue;  // the freeze pass at the loop head handles it
      }
    } else {
      // AllVisible: earliest instant in the window when *every* pair is
      // simultaneously within r — the intersection of the pairs' contact
      // intervals.
      double lo = 0.0;
      double hi = window;
      bool possible = true;
      for (std::size_t i = 0; i < n && possible; ++i) {
        for (std::size_t j = i + 1; j < n && possible; ++j) {
          const geom::Vec2 offset =
              states[i].position_at(now) - states[j].position_at(now);
          const geom::Vec2 relative = states[i].velocity - states[j].velocity;
          const std::optional<geom::ContactInterval> interval =
              geom::contact_interval(offset, relative, r_sight, window);
          if (!interval) {
            possible = false;
          } else {
            lo = std::max(lo, interval->enter);
            hi = std::min(hi, interval->exit);
          }
        }
      }
      if (possible && lo <= hi) {
        Rational gather_time = now + Rational::from_double(lo);
        if (gather_time > *window_end) gather_time = *window_end;
        for (AgentState& state : states) state.freeze_at(gather_time);
        return finish(GatherStop::Gathered, gather_time);
      }
    }

    if (at_horizon) return finish(GatherStop::HorizonReached, *window_end);

    now = *window_end;
    for (AgentState& state : states) {
      if (state.seg_end && *state.seg_end == now) {
        state.advance_segment();
        ++result.events;
      }
    }
  }
}

}  // namespace aurv::gather
