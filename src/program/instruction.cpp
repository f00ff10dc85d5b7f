#include "program/instruction.hpp"

#include <sstream>

#include "support/check.hpp"

namespace aurv::program {

const numeric::Rational& duration_of(const Instruction& instruction) {
  if (const auto* move = std::get_if<Go>(&instruction)) return move->distance;
  return std::get<Wait>(instruction).duration;
}

bool is_move(const Instruction& instruction) noexcept {
  return std::holds_alternative<Go>(instruction);
}

std::string to_string(const Instruction& instruction) {
  std::ostringstream os;
  if (const auto* move = std::get_if<Go>(&instruction)) {
    os << "go(heading=" << move->heading << ", d=" << move->distance.to_string() << ")";
  } else {
    os << "wait(" << std::get<Wait>(instruction).duration.to_string() << ")";
  }
  return os.str();
}

Instruction go(double heading, numeric::Rational distance) {
  AURV_CHECK_MSG(distance.sign() >= 0, "go distance must be nonnegative");
  return Go{heading, std::move(distance)};
}

Instruction go_east(numeric::Rational distance) { return go(kEast, std::move(distance)); }
Instruction go_west(numeric::Rational distance) { return go(kWest, std::move(distance)); }
Instruction go_north(numeric::Rational distance) { return go(kNorth, std::move(distance)); }
Instruction go_south(numeric::Rational distance) { return go(kSouth, std::move(distance)); }

Instruction wait(numeric::Rational duration) {
  AURV_CHECK_MSG(duration.sign() >= 0, "wait duration must be nonnegative");
  return Wait{std::move(duration)};
}

numeric::Rational total_duration(const std::vector<Instruction>& instructions) {
  numeric::Rational total = 0;
  for (const Instruction& instruction : instructions) total += duration_of(instruction);
  return total;
}

}  // namespace aurv::program
