// Tests for the mobility-program substrate: instructions and the structural
// combinators Algorithm 1 is assembled from (rotation, slicing, backtrack,
// segmentation-with-waits).
#include <gtest/gtest.h>

#include <vector>

#include "geom/angle.hpp"
#include "program/combinators.hpp"
#include "program/instruction.hpp"

namespace aurv::program {
namespace {

using numeric::Rational;

std::vector<Instruction> collect(Program p) {
  std::vector<Instruction> result;
  for (const Instruction& instruction : p) result.push_back(instruction);
  return result;
}

TEST(Instruction, DurationAccounting) {
  // go(d) lasts d local time units (one length unit per time unit).
  EXPECT_EQ(duration_of(go_east(Rational(5))), Rational(5));
  EXPECT_EQ(duration_of(wait(Rational::dyadic(3, 2))), Rational::dyadic(3, 2));
  EXPECT_TRUE(is_move(go_north(1)));
  EXPECT_FALSE(is_move(wait(1)));
  EXPECT_THROW((void)go_east(Rational(-1)), std::logic_error);
  EXPECT_THROW((void)wait(Rational(-1)), std::logic_error);
}

TEST(Instruction, CompassHeadings) {
  EXPECT_DOUBLE_EQ(std::get<Go>(go_east(1)).heading, 0.0);
  EXPECT_DOUBLE_EQ(std::get<Go>(go_north(1)).heading, geom::kPi / 2);
  EXPECT_DOUBLE_EQ(std::get<Go>(go_west(1)).heading, geom::kPi);
  EXPECT_DOUBLE_EQ(std::get<Go>(go_south(1)).heading, 3 * geom::kPi / 2);
}

TEST(Instruction, TotalDuration) {
  const std::vector<Instruction> seq = {go_east(2), wait(3), go_north(Rational::dyadic(1, 1))};
  EXPECT_EQ(total_duration(seq), Rational(5) + Rational::dyadic(1, 1));
}

TEST(Combinators, RotatedOffsetsHeadingsOnly) {
  const std::vector<Instruction> base = {go_east(1), wait(2), go_north(3)};
  const std::vector<Instruction> rot = rotated(base, geom::kPi / 4);
  EXPECT_DOUBLE_EQ(std::get<Go>(rot[0]).heading, geom::kPi / 4);
  EXPECT_EQ(rot[1], wait(2));
  EXPECT_DOUBLE_EQ(std::get<Go>(rot[2]).heading, geom::kPi / 2 + geom::kPi / 4);
}

TEST(Combinators, TakeDurationExactBoundary) {
  const auto make = [] { return replay({go_east(2), wait(3), go_north(5)}); };
  // Budget hits an instruction boundary exactly.
  const auto exact = take_duration(make(), Rational(5));
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_EQ(total_duration(exact), Rational(5));
  // Budget splits the wait.
  const auto split_wait = take_duration(make(), Rational(3));
  ASSERT_EQ(split_wait.size(), 2u);
  EXPECT_EQ(split_wait[1], wait(1));
  // Budget splits a go proportionally (distance == remaining time).
  const auto split_go = take_duration(make(), Rational(6));
  ASSERT_EQ(split_go.size(), 3u);
  EXPECT_EQ(std::get<Go>(split_go[2]).distance, Rational(1));
  EXPECT_DOUBLE_EQ(std::get<Go>(split_go[2]).heading, geom::kPi / 2);
  // Budget beyond the program: returns what exists.
  const auto all = take_duration(make(), Rational(100));
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(total_duration(all), Rational(10));
  // Zero budget.
  EXPECT_TRUE(take_duration(make(), Rational(0)).empty());
  EXPECT_THROW((void)take_duration(make(), Rational(-1)), std::logic_error);
}

TEST(Combinators, TakeDurationCapThrows) {
  const auto make = [] { return replay({go_east(1), go_east(1), go_east(1)}); };
  EXPECT_THROW((void)take_duration_capped(make(), Rational(3), 2), std::logic_error);
}

TEST(Combinators, BacktrackReversesPath) {
  const std::vector<Instruction> path = {go_east(2), wait(7), go_north(1),
                                         go(geom::kPi / 3, Rational::dyadic(1, 1))};
  const std::vector<Instruction> back = backtrack_moves(path);
  ASSERT_EQ(back.size(), 3u);  // waits dropped
  EXPECT_DOUBLE_EQ(std::get<Go>(back[0]).heading, geom::kPi / 3 + geom::kPi);
  EXPECT_EQ(std::get<Go>(back[0]).distance, Rational::dyadic(1, 1));
  EXPECT_DOUBLE_EQ(std::get<Go>(back[1]).heading, kNorth + geom::kPi);
  EXPECT_DOUBLE_EQ(std::get<Go>(back[2]).heading, kEast + geom::kPi);
  // Forward + backtrack nets zero displacement.
  std::vector<Instruction> round_trip = path;
  round_trip.insert(round_trip.end(), back.begin(), back.end());
  EXPECT_NEAR(net_displacement(round_trip).norm(), 0.0, 1e-12);
}

TEST(Combinators, SegmentedWithWaitsExactCut) {
  // 4 time units of motion cut into segments of 1 with pauses of 10:
  // go(2.5)E, go(1.5)N -> E1|w|E1|w|[E.5 N.5]|w|N1|w
  const std::vector<Instruction> solo = {go_east(Rational::dyadic(5, 1)),
                                         go_north(Rational::dyadic(3, 1))};
  const std::vector<Instruction> cut = segmented_with_waits(solo, Rational(1), Rational(10));
  // Total move duration preserved; one wait per started segment.
  Rational moves = 0;
  int waits = 0;
  for (const Instruction& instruction : cut) {
    if (is_move(instruction)) {
      moves += duration_of(instruction);
    } else {
      EXPECT_EQ(duration_of(instruction), Rational(10));
      ++waits;
    }
  }
  EXPECT_EQ(moves, Rational(4));
  EXPECT_EQ(waits, 4);
  // Segment boundaries are exact: between consecutive waits exactly 1 time
  // unit of motion.
  Rational acc = 0;
  for (const Instruction& instruction : cut) {
    if (is_move(instruction)) {
      acc += duration_of(instruction);
    } else {
      EXPECT_TRUE(acc.is_zero() || acc == Rational(1)) << acc.to_string();
      acc = 0;
    }
  }
  // Net displacement preserved by cutting.
  const geom::Vec2 before = net_displacement(solo);
  const geom::Vec2 after = net_displacement(cut);
  EXPECT_NEAR(geom::dist(before, after), 0.0, 1e-12);
}

TEST(Combinators, SegmentedWithWaitsShortTail) {
  // 2.5 units cut into segments of 1: the trailing 0.5 also gets its wait.
  const std::vector<Instruction> solo = {go_east(Rational::dyadic(5, 1))};
  const std::vector<Instruction> cut = segmented_with_waits(solo, Rational(1), Rational(2));
  int waits = 0;
  for (const Instruction& instruction : cut) {
    if (!is_move(instruction)) ++waits;
  }
  EXPECT_EQ(waits, 3);
  EXPECT_THROW((void)segmented_with_waits(solo, Rational(0), Rational(1)), std::logic_error);
}

TEST(Combinators, ReplayYieldsSequence) {
  const std::vector<Instruction> sequence = {go_east(1), wait(2), go_west(3)};
  EXPECT_EQ(collect(replay(sequence)), sequence);
}

TEST(Combinators, NetDisplacement) {
  const std::vector<Instruction> square = {go_east(1), go_north(1), go_west(1), go_south(1)};
  EXPECT_NEAR(net_displacement(square).norm(), 0.0, 1e-12);
  const std::vector<Instruction> northeast = {go(geom::kPi / 4, Rational(2))};
  const geom::Vec2 d = net_displacement(northeast);
  EXPECT_NEAR(d.x, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(d.y, std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace aurv::program
