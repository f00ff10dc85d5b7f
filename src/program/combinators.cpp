#include "program/combinators.hpp"

#include <limits>
#include <utility>

#include "geom/angle.hpp"
#include "support/check.hpp"

namespace aurv::program {

std::vector<Instruction> rotated(std::vector<Instruction> instructions, double alpha) {
  for (Instruction& instruction : instructions) {
    if (auto* move = std::get_if<Go>(&instruction)) move->heading += alpha;
  }
  return instructions;
}

std::vector<Instruction> take_duration(Program source, const numeric::Rational& duration) {
  return take_duration_capped(std::move(source), duration,
                              std::numeric_limits<std::size_t>::max());
}

std::vector<Instruction> take_duration_capped(Program source, const numeric::Rational& duration,
                                              std::size_t max_instructions) {
  AURV_CHECK_MSG(duration.sign() >= 0, "take_duration: negative budget");
  std::vector<Instruction> result;
  numeric::Rational remaining = duration;
  if (remaining.is_zero()) return result;
  for (const Instruction& instruction : source) {
    AURV_CHECK_MSG(result.size() < max_instructions,
                   "take_duration: instruction cap exceeded (prefix too long)");
    const numeric::Rational& step = duration_of(instruction);
    if (step < remaining) {
      result.push_back(instruction);
      remaining -= step;
      continue;
    }
    if (step == remaining) {
      result.push_back(instruction);
    } else if (const auto* move = std::get_if<Go>(&instruction)) {
      // Split proportionally: a go covers one length unit per time unit, so
      // the truncated distance equals the remaining time budget.
      result.push_back(Instruction{Go{move->heading, remaining}});
    } else {
      result.push_back(Instruction{Wait{remaining}});
    }
    return result;
  }
  return result;  // program ended before the budget
}

std::vector<Instruction> backtrack_moves(const std::vector<Instruction>& path) {
  std::vector<Instruction> result;
  result.reserve(path.size());
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    if (const auto* move = std::get_if<Go>(&*it)) {
      if (move->distance.is_zero()) continue;
      result.push_back(Instruction{Go{move->heading + geom::kPi, move->distance}});
    }
  }
  return result;
}

std::vector<Instruction> segmented_with_waits(const std::vector<Instruction>& solo,
                                              const numeric::Rational& segment,
                                              const numeric::Rational& pause) {
  AURV_CHECK_MSG(segment.sign() > 0, "segmented_with_waits: segment must be positive");
  std::vector<Instruction> result;
  numeric::Rational room = segment;  // local time left in the current segment
  auto close_segment = [&] {
    result.push_back(wait(pause));
    room = segment;
  };
  for (const Instruction& instruction : solo) {
    numeric::Rational step = duration_of(instruction);
    if (step.is_zero()) {
      result.push_back(instruction);
      continue;
    }
    // Emit the instruction in pieces, closing segments at exact boundaries.
    const bool moving = is_move(instruction);
    const double heading = moving ? std::get<Go>(instruction).heading : 0.0;
    while (step > room) {
      if (moving) {
        result.push_back(Instruction{Go{heading, room}});
      } else {
        result.push_back(Instruction{Wait{room}});
      }
      step -= room;
      room = 0;
      close_segment();
    }
    if (moving) {
      result.push_back(Instruction{Go{heading, step}});
    } else {
      result.push_back(Instruction{Wait{step}});
    }
    room -= step;
    if (room.is_zero()) close_segment();
  }
  // The paper's line 18 ends with a wait after the final segment S_{2^{2i}};
  // close a partially filled trailing segment the same way.
  if (room != segment) close_segment();
  return result;
}

Program replay(std::vector<Instruction> instructions) {
  for (const Instruction& instruction : instructions) {
    co_yield instruction;
  }
}

geom::Vec2 net_displacement(const std::vector<Instruction>& instructions) {
  geom::Vec2 total{};
  for (const Instruction& instruction : instructions) {
    if (const auto* move = std::get_if<Go>(&instruction)) {
      total += move->distance.to_double() * geom::unit_vector(move->heading);
    }
  }
  return total;
}

}  // namespace aurv::program
