// Structural tests of Algorithm 1 (AlmostUniversalRV): block composition,
// the Lemma 3.1 return-to-start invariant, and the closed-form phase
// durations used by the phase-index reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "algo/cow_walk.hpp"
#include "algo/wait_and_search.hpp"
#include "core/almost_universal.hpp"
#include "core/feasibility.hpp"
#include "program/combinators.hpp"
#include "support/telemetry.hpp"

namespace aurv::core {
namespace {

using numeric::Rational;
using program::Instruction;
namespace telemetry = support::telemetry;

/// Freshly built blocks of phases 1..`phases`, in stream order, restricted
/// to the blocks selected by `mask` (bit 0 = block 1).
std::vector<Instruction> fresh_blocks(std::uint32_t phases, unsigned mask = 0b1111u) {
  std::vector<Instruction> result;
  for (std::uint32_t phase = 1; phase <= phases; ++phase) {
    for (int block = 1; block <= 4; ++block) {
      if ((mask & (1u << (block - 1))) == 0) continue;
      const std::vector<Instruction> blk = aurv_phase_block(phase, block);
      result.insert(result.end(), blk.begin(), blk.end());
    }
  }
  return result;
}

/// Index of the first instruction where `stream` differs from `expected`,
/// or expected.size() when the stream yields all of it.
std::size_t first_mismatch(program::Program& stream, const std::vector<Instruction>& expected) {
  for (std::size_t k = 0; k < expected.size(); ++k) {
    if (!stream.next() || stream.value() != expected[k]) return k;
  }
  return expected.size();
}

TEST(AurvStructure, Lemma31EveryBlockReturnsToStart) {
  // Lemma 3.1: each time an agent starts a line other than the backtrack
  // bookkeeping it does so from its initial position — equivalently, every
  // block's net displacement is zero.
  for (std::uint32_t phase = 1; phase <= 3; ++phase) {
    for (int block = 1; block <= 4; ++block) {
      const std::vector<Instruction> instructions = aurv_phase_block(phase, block);
      EXPECT_NEAR(program::net_displacement(instructions).norm(), 0.0, 1e-9)
          << "phase " << phase << " block " << block;
    }
  }
}

TEST(AurvStructure, PhaseDurationClosedFormMatchesMaterialized) {
  for (std::uint32_t phase = 1; phase <= 3; ++phase) {
    Rational materialized = 0;
    for (int block = 1; block <= 4; ++block) {
      materialized += program::total_duration(aurv_phase_block(phase, block));
    }
    EXPECT_EQ(materialized, aurv_phase_duration(phase)) << phase;
  }
}

TEST(AurvStructure, Block1Has2ToIPlus1Epochs) {
  // Block 1 of phase i: 2^(i+1) PlanarCowWalk(i) executions, rotated.
  for (std::uint32_t phase = 1; phase <= 2; ++phase) {
    const std::vector<Instruction> block = aurv_phase_block(phase, 1);
    const Rational expected =
        Rational::pow2(phase + 1) * algo::planar_cow_walk_duration(phase);
    EXPECT_EQ(program::total_duration(block), expected);
    // All instructions are moves (PlanarCowWalk is wait-free).
    for (const Instruction& instruction : block) {
      ASSERT_TRUE(program::is_move(instruction));
    }
  }
}

TEST(AurvStructure, Block2IsWaitLatecomersBacktrack) {
  const std::uint32_t phase = 3;
  const std::vector<Instruction> block = aurv_phase_block(phase, 2);
  ASSERT_FALSE(block.empty());
  // Line 9: leading wait of 2^i.
  ASSERT_FALSE(program::is_move(block.front()));
  EXPECT_EQ(program::duration_of(block.front()), Rational::pow2(phase));
  // Total: wait 2^i + prefix 2^i + backtrack 2^i.
  EXPECT_EQ(program::total_duration(block), Rational(3) * Rational::pow2(phase));
  // The move part nets to zero (prefix + backtrack).
  EXPECT_NEAR(program::net_displacement(block).norm(), 0.0, 1e-9);
}

TEST(AurvStructure, Block3IsHugeWaitThenWalk) {
  const std::uint32_t phase = 2;
  const std::vector<Instruction> block = aurv_phase_block(phase, 3);
  ASSERT_FALSE(block.empty());
  EXPECT_FALSE(program::is_move(block.front()));
  EXPECT_EQ(program::duration_of(block.front()), algo::wait_and_search_pause(phase));
  for (std::size_t k = 1; k < block.size(); ++k) {
    EXPECT_TRUE(program::is_move(block[k]));
  }
}

TEST(AurvStructure, Block4SegmentsOfExactDuration) {
  // Line 18: the CGKK prefix of local length 2^i is cut into 2^(2i)
  // segments of 1/2^i, each followed by wait(2^i).
  const std::uint32_t phase = 2;
  const std::vector<Instruction> block = aurv_phase_block(phase, 4);
  const Rational segment = Rational::dyadic(1, phase);
  const Rational pause = Rational::pow2(phase);
  Rational move_acc = 0;
  std::uint64_t waits = 0;
  bool in_backtrack = false;
  Rational backtrack_moves = 0;
  for (const Instruction& instruction : block) {
    if (program::is_move(instruction)) {
      if (in_backtrack) {
        backtrack_moves += program::duration_of(instruction);
      } else {
        move_acc += program::duration_of(instruction);
      }
    } else {
      EXPECT_EQ(program::duration_of(instruction), pause);
      EXPECT_FALSE(in_backtrack);
      EXPECT_EQ(move_acc, segment);  // each segment is exactly 1/2^i of motion
      move_acc = 0;
      ++waits;
      if (waits == (std::uint64_t{1} << (2 * phase))) in_backtrack = true;
    }
  }
  EXPECT_EQ(waits, std::uint64_t{1} << (2 * phase));  // 2^(2i) interruptions
  EXPECT_EQ(backtrack_moves, Rational::pow2(phase));  // full path retraced
  EXPECT_NEAR(program::net_displacement(block).norm(), 0.0, 1e-9);
}

TEST(AurvStructure, PhaseStartsAccumulate) {
  EXPECT_EQ(aurv_phase_start(1), Rational(0));
  EXPECT_EQ(aurv_phase_start(2), aurv_phase_duration(1));
  EXPECT_EQ(aurv_phase_start(3), aurv_phase_duration(1) + aurv_phase_duration(2));
}

TEST(AurvStructure, PhaseAtInvertsPhaseStart) {
  EXPECT_EQ(aurv_phase_at(Rational(0)), 1u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_duration(1) - Rational(1)), 1u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_duration(1)), 2u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_start(3)), 3u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_start(4)), 4u);
  EXPECT_THROW((void)aurv_phase_at(Rational(-1)), std::logic_error);
}

TEST(AurvStructure, ConcurrentFirstUseMatchesSerialReference) {
  // Defined before every other stream test, so that a run of the whole
  // binary (as under ThreadSanitizer) races the table's first use. Eight
  // threads start fresh programs at the same moment, racing to fill the
  // table; each must still see the serial reference prefix. The
  // block-3 stream then reaches phase 4 after a few thousand instructions,
  // so the threads also race into that phase's first use.
  const std::vector<Instruction> expected = fresh_blocks(3);
  const std::vector<Instruction> expected_block3 = fresh_blocks(4, 0b0100u);
  constexpr int kThreads = 8;
  std::vector<std::size_t> matched(kThreads, 0);
  std::vector<std::size_t> matched_block3(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      program::Program stream = almost_universal_rv();
      matched[static_cast<std::size_t>(t)] = first_mismatch(stream, expected);
      program::Program block3 = almost_universal_rv_blocks(0b0100u);
      matched_block3[static_cast<std::size_t>(t)] = first_mismatch(block3, expected_block3);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(matched[static_cast<std::size_t>(t)], expected.size()) << "thread " << t;
    EXPECT_EQ(matched_block3[static_cast<std::size_t>(t)], expected_block3.size())
        << "thread " << t;
  }
}

TEST(AurvStructure, StreamMatchesMaterializedBlocks) {
  // The infinite program yields exactly phase-1 blocks 1..4, then phase 2's
  // and phase 3's (12 block boundaries), then continues into phase 4.
  const std::vector<Instruction> expected = fresh_blocks(3);
  program::Program stream = almost_universal_rv();
  ASSERT_EQ(first_mismatch(stream, expected), expected.size());
  ASSERT_TRUE(stream.next());
  EXPECT_EQ(stream.value(), aurv_phase_block(4, 1).front());
}

TEST(AurvStructure, StreamBlocksEqualFreshBuildsPhases1To5) {
  // A single-block stream yields that block of phase 1, 2, 3, ... so four
  // streams cover every block of phases 1-5. Blocks 1 and 3 are views over
  // the shared walk (block 1 of phase 5 is 64 rotated copies of it, 2.1M
  // instructions); blocks 2 and 4 are read as built.
  for (int block = 1; block <= 4; ++block) {
    program::Program stream = almost_universal_rv_blocks(1u << (block - 1));
    for (std::uint32_t phase = 1; phase <= 5; ++phase) {
      const std::vector<Instruction> expected = aurv_phase_block(phase, block);
      EXPECT_EQ(first_mismatch(stream, expected), expected.size())
          << "phase " << phase << " block " << block;
    }
  }
}

TEST(AurvStructure, SharedBlocksAreBuiltOnce) {
  const std::vector<Instruction> expected = fresh_blocks(3);
  program::Program first = almost_universal_rv();
  ASSERT_EQ(first_mismatch(first, expected), expected.size());
  const std::int64_t bytes = telemetry::registry().gauge("program.shared_bytes").value();
  EXPECT_GT(bytes, 0);
  // A second stream over the same phases reads the table: nothing is
  // built again.
  program::Program second = almost_universal_rv();
  ASSERT_EQ(first_mismatch(second, expected), expected.size());
  EXPECT_EQ(telemetry::registry().gauge("program.shared_bytes").value(), bytes);
}

TEST(AurvStructure, PhaseBlockValidation) {
  EXPECT_THROW((void)aurv_phase_block(0, 1), std::logic_error);
  EXPECT_THROW((void)aurv_phase_block(1, 0), std::logic_error);
  EXPECT_THROW((void)aurv_phase_block(1, 5), std::logic_error);
}

TEST(AurvStructure, RecommendedAlgorithmDispatch) {
  using agents::Instance;
  using geom::Vec2;
  // S1 boundary -> dedicated S1 program (finite, one move).
  const Instance s1 = Instance::synchronous(1.0, Vec2{3.0, 4.0}, 0.0, 4, 1);
  ASSERT_EQ(classify(s1).kind, InstanceKind::BoundaryS1);
  auto p1 = recommended_algorithm(s1)();
  std::size_t count1 = 0;
  while (p1.next()) ++count1;
  EXPECT_EQ(count1, 1u);
  // Covered instance -> the infinite universal program.
  const Instance covered = Instance::synchronous(1.0, Vec2{3.0, 4.0}, 0.0, 5, 1);
  auto p2 = recommended_algorithm(covered)();
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(p2.next());
}

}  // namespace
}  // namespace aurv::core
