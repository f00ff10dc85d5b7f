#include "gather/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "geom/closest_approach.hpp"
#include "numeric/rational.hpp"
#include "sim/track.hpp"
#include "support/check.hpp"

namespace aurv::gather {

namespace {

using numeric::Rational;

/// Widest pairwise distance of a configuration.
double diameter(const std::vector<geom::Vec2>& positions) {
  double widest = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      widest = std::max(widest, geom::dist(positions[i], positions[j]));
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
  AURV_CHECK_MSG(config_.contact_slack >= 0.0, "GatherEngine: contact_slack must be nonnegative");
  if (config_.horizon)
    AURV_CHECK_MSG(!config_.horizon->is_negative(), "GatherEngine: horizon must be nonnegative");
  for (const GatherAgent& agent : agents_) {
    AURV_CHECK_MSG(agent.wake.sign() >= 0, "GatherEngine: wake times must be nonnegative");
  }
}

GatherResult GatherEngine::run(const sim::AlgorithmFactory& factory) const {
  std::vector<sim::Track> tracks;
  tracks.reserve(agents_.size());
  for (const GatherAgent& agent : agents_) tracks.emplace_back(agent.start, agent.wake, factory());
  const std::size_t n = tracks.size();

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
    tracks.front().freeze_at(now);
    result.min_diameter_seen = 0.0;
    result.reason = GatherStop::Gathered;
    result.gathered = true;
    result.positions.push_back(tracks.front().position_at(now));
    result.frozen.push_back(true);
    return result;
  }

  // Every agent's position at `now`, computed once per iteration. Freezing
  // an agent at `now` leaves its position where it is.
  std::vector<geom::Vec2> positions(n);
  const auto locate = [&](const Rational& time) {
    for (std::size_t i = 0; i < n; ++i) positions[i] = tracks[i].position_at(time);
  };

  const auto finish = [&](GatherStop reason, const Rational& time) {
    locate(time);
    result.reason = reason;
    result.gathered = reason == GatherStop::Gathered;
    result.gather_time = time.to_double();
    result.positions = positions;
    result.frozen.clear();
    for (const sim::Track& track : tracks) result.frozen.push_back(track.frozen());
    result.final_diameter = diameter(positions);
    result.min_diameter_seen = std::min(result.min_diameter_seen, result.final_diameter);
    // Drain the contact fallback count at the run's deterministic end so
    // its total stays thread-count-invariant like every other series.
    geom::flush_contact_stats();
    return result;
  };

  while (true) {
    if (result.events >= config_.max_events) return finish(GatherStop::FuelExhausted, now);
    locate(now);
    const double spread = diameter(positions);
    result.min_diameter_seen = std::min(result.min_diameter_seen, spread);

    // FirstSight: freeze every unfrozen agent that currently sees someone.
    // The extra 1e-9 absorbs the round-off of landing exactly on a contact
    // root computed in double (otherwise the loop could creep toward it).
    if (config_.policy == StopPolicy::FirstSight) {
      const double r_freeze = r_sight + 1e-9;
      bool froze_any = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (tracks[i].frozen()) continue;
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i && geom::dist(positions[i], positions[j]) <= r_freeze) {
            tracks[i].freeze_at(now);
            froze_any = true;
            ++result.events;
            break;
          }
        }
      }
      if (froze_any) continue;  // velocities changed; recompute the window
    }

    // Termination: everyone stopped (frozen or program over).
    if (std::all_of(tracks.begin(), tracks.end(),
                    [](const sim::Track& track) { return track.stopped(); })) {
      return finish(spread <= target ? GatherStop::Gathered : GatherStop::AllIdleApart, now);
    }

    // Window end: earliest segment boundary, possibly clipped by horizon.
    // Tracked by pointer, as in the rendezvous engine: no Rational copy.
    const Rational* window_end = nullptr;
    for (const sim::Track& track : tracks) {
      const std::optional<Rational>& seg_end = track.segment_end();
      if (seg_end && (window_end == nullptr || *seg_end < *window_end)) window_end = &*seg_end;
    }
    AURV_CHECK(window_end != nullptr);  // not all stopped, so someone has a segment
    bool at_horizon = false;
    if (config_.horizon && *window_end >= *config_.horizon) {
      window_end = &*config_.horizon;
      at_horizon = true;
    }
    const double window = (*window_end - now).to_double();

    if (config_.policy == StopPolicy::FirstSight) {
      // Earliest strictly-future pairwise contact involving a moving pair.
      double earliest = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (tracks[i].frozen() && tracks[j].frozen()) continue;
          const std::optional<double> hit =
              geom::first_contact(positions[i] - positions[j],
                                  tracks[i].velocity() - tracks[j].velocity(), r_sight, window);
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
          const std::optional<geom::ContactInterval> interval =
              geom::contact_interval(positions[i] - positions[j],
                                     tracks[i].velocity() - tracks[j].velocity(), r_sight,
                                     window);
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
        for (sim::Track& track : tracks) track.freeze_at(gather_time);
        return finish(GatherStop::Gathered, gather_time);
      }
    }

    if (at_horizon) return finish(GatherStop::HorizonReached, *window_end);

    now = *window_end;
    for (sim::Track& track : tracks) {
      if (track.segment_end() && *track.segment_end() == now) {
        track.advance_segment();
        ++result.events;
      }
    }
  }
}

}  // namespace aurv::gather
