// Track: the execution state of one agent — the current constant-velocity
// segment of its program plus the pending instruction stream — on the exact
// rational timeline. Both event engines run their agents on it: sim::Engine
// in each agent's full frame, gather::GatherEngine in shifted frames.
//
// Positions are derived lazily from the segment anchor, so long waits cost
// nothing and positions accumulate round-off only once per instruction. An
// agent that sees another stops forever (Alg. 1 line 1): freeze_at.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <variant>

#include "agents/frame.hpp"
#include "geom/angle.hpp"
#include "geom/similarity.hpp"
#include "geom/vec2.hpp"
#include "numeric/rational.hpp"
#include "program/instruction.hpp"
#include "support/check.hpp"

namespace aurv::sim {

namespace detail {

inline constexpr int kUnitVectorMemoBits = 10;  // 1024 slots

/// The memo slot of a heading's bit pattern: its Fibonacci hash.
[[nodiscard]] constexpr std::size_t unit_vector_memo_slot(std::uint64_t bits) noexcept {
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> (64 - kUnitVectorMemoBits));
}

}  // namespace detail

/// geom::unit_vector(heading), memoized per thread in a direct-mapped table
/// keyed by the heading's bit pattern. A hit returns the doubles unit_vector
/// returned for those very bits, so no result can differ. Latecomers
/// headings repeat across every run and agent, Algorithm 1's turned
/// headings within a run. The table is constant-initialized (all zero), so
/// a fresh worker thread runs no constructor: key 0 marks an empty slot,
/// and the heading +0.0, whose bits are 0, is computed directly.
[[nodiscard]] inline geom::Vec2 memoized_unit_vector(double heading) noexcept {
  struct Slot {
    std::uint64_t bits;
    geom::Vec2 direction;
  };
  constinit thread_local std::array<Slot, std::size_t{1} << detail::kUnitVectorMemoBits> memo{};
  const auto bits = std::bit_cast<std::uint64_t>(heading);
  if (bits == 0) return geom::unit_vector(heading);
  Slot& slot = memo[detail::unit_vector_memo_slot(bits)];
  if (slot.bits != bits) slot = {bits, geom::unit_vector(heading)};
  return slot.direction;
}

class Track {
 public:
  /// An agent in its own frame: local headings go through the frame's
  /// rotation and chirality, local times and lengths scale by its units.
  Track(agents::AgentFrame frame, program::Program stream)
      : Track(std::move(frame), std::move(stream), true) {}

  /// An agent whose frame is a shift of the absolute one (unit clock and
  /// speed, common compass): headings reach unit_vector unchanged. Routing
  /// them through the identity pose would normalize headings >= 2pi and
  /// move their cosine and sine by an ulp.
  Track(geom::Vec2 start, numeric::Rational wake, program::Program stream)
      : Track(agents::AgentFrame(geom::Similarity(start, 0.0, 1, 1.0), 1, std::move(wake), 1.0),
              std::move(stream), false) {}

  [[nodiscard]] geom::Vec2 position_at(const numeric::Rational& time) const {
    if (velocity_.x == 0.0 && velocity_.y == 0.0) return seg_start_pos_;
    numeric::Rational elapsed = time;
    elapsed -= seg_start_;
    return seg_start_pos_ + elapsed.to_double() * velocity_;
  }

  /// Timeline reached the end of the current segment: anchor there and pull
  /// the next instruction.
  void advance_segment() {
    AURV_CHECK(seg_end_.has_value());
    seg_start_ = std::move(*seg_end_);  // the segment end is consumed, not copied
    seg_start_pos_ = seg_end_pos_;
    velocity_ = {};
    seg_end_.reset();
    next_instruction();
  }

  /// Moves the time origin to `origin`: the segment bounds become offsets
  /// from it (sim::Engine's run-relative clock).
  void rebase(const numeric::Rational& origin) {
    seg_start_ -= origin;
    if (seg_end_) *seg_end_ -= origin;
  }

  /// The agent saw another one: it stops forever at `time`.
  void freeze_at(const numeric::Rational& time) {
    seg_start_pos_ = position_at(time);
    seg_start_ = time;
    seg_end_.reset();
    seg_end_pos_ = seg_start_pos_;
    velocity_ = {};
    frozen_ = true;
  }

  /// Time the current segment ends; empty = idle forever.
  [[nodiscard]] const std::optional<numeric::Rational>& segment_end() const noexcept {
    return seg_end_;
  }
  /// Absolute units per absolute time.
  [[nodiscard]] geom::Vec2 velocity() const noexcept { return velocity_; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  /// Frozen, or the program is over and the last segment has ended.
  [[nodiscard]] bool stopped() const noexcept { return frozen_ || (exhausted_ && !seg_end_); }
  [[nodiscard]] std::uint64_t instructions() const noexcept { return instructions_; }

 private:
  Track(agents::AgentFrame frame, program::Program stream, bool rotated)
      : frame_(std::move(frame)), stream_(std::move(stream)), rotated_(rotated) {
    seg_start_pos_ = frame_.start_position();
    seg_end_pos_ = seg_start_pos_;
    if (frame_.wake_time().sign() > 0) {
      // Pre-wake-up sleep is a segment, not an instruction.
      seg_end_ = frame_.wake_time();
    } else {
      next_instruction();
    }
  }

  void next_instruction() {
    if (frozen_ || exhausted_) return;
    if (!stream_.next()) {
      exhausted_ = true;
      seg_end_.reset();
      velocity_ = {};
      seg_end_pos_ = seg_start_pos_;
      return;
    }
    const program::Instruction& instruction = stream_.value();
    ++instructions_;
    // Built in place (scale, then accumulate) so the huge event times do
    // not pass through a chain of temporaries. A unit clock skips the scale.
    numeric::Rational end_time = program::duration_of(instruction);
    if (!unit_clock_) end_time *= frame_.time_unit();
    end_time += seg_start_;
    seg_end_ = std::move(end_time);
    const auto* move = std::get_if<program::Go>(&instruction);
    if (move == nullptr || move->distance.is_zero()) {
      velocity_ = {};
      seg_end_pos_ = seg_start_pos_;
      return;
    }
    const geom::Vec2 direction = memoized_unit_vector(
        rotated_ ? frame_.absolute_heading(move->heading) : move->heading);
    velocity_ = frame_.speed() * direction;
    seg_end_pos_ =
        seg_start_pos_ + (move->distance.to_double() * frame_.length_unit()) * direction;
  }

  agents::AgentFrame frame_;
  program::Program stream_;
  bool rotated_;
  bool unit_clock_ = frame_.time_unit() == 1;  // every synchronous and every gather agent
  numeric::Rational seg_start_;               // time of the segment anchor
  std::optional<numeric::Rational> seg_end_;  // empty = idle forever
  geom::Vec2 seg_start_pos_;
  geom::Vec2 seg_end_pos_;
  geom::Vec2 velocity_;
  std::uint64_t instructions_ = 0;
  bool frozen_ = false;
  bool exhausted_ = false;
};

}  // namespace aurv::sim
