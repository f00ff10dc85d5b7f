// The paper's move language (Section 1.2): an algorithm is a deterministic
// sequence of
//
//   go(dir, d)  — move d of *my* length units in direction dir of *my*
//                 system of coordinates (we allow any heading angle; the
//                 paper's N/S/E/W are the four axis-aligned shorthands,
//                 possibly inside a rotated local system Rot(alpha)), and
//   wait(z)     — stay idle for z of *my* time units.
//
// Distances and durations are exact rationals (the algorithms only ever use
// dyadic values k/2^i); headings are doubles (k*pi/2^i is irrational).
// Because one local length unit is covered in exactly one local time unit,
// go(dir, d) lasts d local time units — duration_of() below is the single
// source of truth for that accounting.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "numeric/rational.hpp"
#include "support/generator.hpp"

namespace aurv::program {

struct Go {
  double heading = 0.0;            ///< local heading, radians ccw from local +x
  numeric::Rational distance = 0;  ///< local length units, must be >= 0
  friend bool operator==(const Go&, const Go&) = default;
};

struct Wait {
  numeric::Rational duration = 0;  ///< local time units, must be >= 0
  friend bool operator==(const Wait&, const Wait&) = default;
};

using Instruction = std::variant<Go, Wait>;

/// Duration of an instruction in local time units: a reference to the Go's
/// distance or the Wait's duration, valid as long as the instruction is.
[[nodiscard]] const numeric::Rational& duration_of(const Instruction& instruction);

/// True for a Go, false for a Wait.
[[nodiscard]] bool is_move(const Instruction& instruction) noexcept;

[[nodiscard]] std::string to_string(const Instruction& instruction);

// The four compass shorthands used throughout the paper's pseudocode.
inline constexpr double kEast = 0.0;
inline constexpr double kNorth = 1.57079632679489661923132169163975144;       // pi/2
inline constexpr double kWest = 3.14159265358979323846264338327950288;        // pi
inline constexpr double kSouth = 4.71238898038468985769396507491925432;       // 3*pi/2

[[nodiscard]] Instruction go(double heading, numeric::Rational distance);
[[nodiscard]] Instruction go_east(numeric::Rational distance);
[[nodiscard]] Instruction go_west(numeric::Rational distance);
[[nodiscard]] Instruction go_north(numeric::Rational distance);
[[nodiscard]] Instruction go_south(numeric::Rational distance);
[[nodiscard]] Instruction wait(numeric::Rational duration);

/// A mobility program: a lazily produced (possibly infinite) instruction
/// stream. Programs must be deterministic — both agents run the same one.
using Program = support::generator<Instruction>;

/// Total local duration of a finite instruction sequence.
[[nodiscard]] numeric::Rational total_duration(const std::vector<Instruction>& instructions);

}  // namespace aurv::program
