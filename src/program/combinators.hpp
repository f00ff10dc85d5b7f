// Combinators over mobility programs and materialized instruction
// sequences. These are the direct transcriptions of the structural
// operations Algorithm 1 performs on its sub-procedures:
//
//   rotated      — execute a walk "in the coordinate system Rot(alpha)"
//                  (Alg. 1 line 6): every heading is offset by alpha.
//   take_duration— "execute P during time D" (lines 10, 17): the exact
//                  prefix of local duration D, splitting the instruction
//                  that straddles the boundary.
//   backtrack_moves — "backtrack on P" (lines 12, 20): retrace the moves in
//                  reverse with opposite headings; waits contribute no path
//                  and are skipped.
//   segmented_with_waits — line 18's S_1 wait S_2 wait ... : re-cut a solo
//                  trajectory into segments of exact local duration,
//                  inserting a wait after each segment.
//   replay       — a program that yields a materialized sequence.
#pragma once

#include <vector>

#include "geom/vec2.hpp"
#include "program/instruction.hpp"

namespace aurv::program {

/// Rotates headings of a materialized instruction sequence (local system
/// Rot(alpha)).
[[nodiscard]] std::vector<Instruction> rotated(std::vector<Instruction> instructions,
                                               double alpha);

/// Consumes `source` and returns its prefix of exactly `duration` local time
/// units, splitting the final instruction proportionally if needed. If the
/// program ends before the budget, the result is shorter (no padding) —
/// callers that need exact duration can append a wait for the remainder.
[[nodiscard]] std::vector<Instruction> take_duration(Program source,
                                                     const numeric::Rational& duration);

/// Like take_duration but bounded additionally by an instruction-count cap;
/// guards against accidentally materializing astronomically long prefixes.
[[nodiscard]] std::vector<Instruction> take_duration_capped(Program source,
                                                            const numeric::Rational& duration,
                                                            std::size_t max_instructions);

/// The reverse walk of the path traced by `instructions`: go moves in
/// reverse order with headings flipped by pi, waits dropped.
[[nodiscard]] std::vector<Instruction> backtrack_moves(const std::vector<Instruction>& path);

/// Cuts `solo` (a finite trajectory) into consecutive chunks of exactly
/// `segment` local duration (the last chunk may be shorter) and emits each
/// chunk followed by wait(pause). This is Algorithm 1 line 18.
[[nodiscard]] std::vector<Instruction> segmented_with_waits(const std::vector<Instruction>& solo,
                                                            const numeric::Rational& segment,
                                                            const numeric::Rational& pause);

/// A program that yields a materialized sequence.
[[nodiscard]] Program replay(std::vector<Instruction> instructions);

/// Net local displacement (double precision) of a finite instruction
/// sequence — used by tests for the paper's Lemma 3.1 "every block returns
/// to its start" invariant.
[[nodiscard]] geom::Vec2 net_displacement(const std::vector<Instruction>& instructions);

}  // namespace aurv::program
