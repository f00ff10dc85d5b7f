#include "core/almost_universal.hpp"

#include <array>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "algo/boundary.hpp"
#include "algo/cgkk.hpp"
#include "algo/cow_walk.hpp"
#include "algo/latecomers.hpp"
#include "algo/wait_and_search.hpp"
#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "program/combinators.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace aurv::core {

using numeric::Rational;
using program::Instruction;
using program::Program;
namespace telemetry = support::telemetry;

namespace {

// Instruction-count guard for the materialized pieces of blocks 2 and 4.
// The prefix of Latecomers/CGKK of local duration 2^i has O(4^i) short
// instructions; phases reachable within any simulator fuel budget stay far
// below this cap.
constexpr std::size_t kMaterializeCap = 200'000'000;

std::vector<Instruction> block1(std::uint32_t i) {
  std::vector<Instruction> result;
  const std::uint64_t epochs = std::uint64_t{1} << (i + 1);  // 2^(i+1)
  for (std::uint64_t j = 1; j <= epochs; ++j) {
    // PlanarCowWalk(i) "in the coordinate system Rot(j*pi/2^i)".
    const double alpha = geom::dyadic_angle(static_cast<std::int64_t>(j), i);
    for (const Instruction& instruction : algo::planar_cow_walk(i)) {
      if (const auto* move = std::get_if<program::Go>(&instruction)) {
        result.push_back(Instruction{program::Go{move->heading + alpha, move->distance}});
      } else {
        result.push_back(instruction);
      }
    }
  }
  return result;
}

std::vector<Instruction> block2(std::uint32_t i) {
  std::vector<Instruction> result;
  result.push_back(program::wait(Rational::pow2(i)));                       // line 9
  std::vector<Instruction> prefix =
      program::take_duration_capped(algo::latecomers(), Rational::pow2(i),  // line 10
                                    kMaterializeCap);
  std::vector<Instruction> back = program::backtrack_moves(prefix);         // lines 11-12
  result.insert(result.end(), std::make_move_iterator(prefix.begin()),
                std::make_move_iterator(prefix.end()));
  result.insert(result.end(), std::make_move_iterator(back.begin()),
                std::make_move_iterator(back.end()));
  return result;
}

std::vector<Instruction> block3(std::uint32_t i) {
  std::vector<Instruction> result;
  result.push_back(program::wait(algo::wait_and_search_pause(i)));  // line 14: 2^(15 i^2)
  for (const Instruction& instruction : algo::planar_cow_walk(i)) { // line 15
    result.push_back(instruction);
  }
  return result;
}

std::vector<Instruction> block4(std::uint32_t i) {
  // Line 17: the solo execution of CGKK during time 2^i, S_1 ... S_{2^(2i)},
  // each segment taking time 1/2^i. Line 18: S_1 wait(2^i) ... S_{2^(2i)}
  // wait(2^i). Lines 19-20: backtrack on the path followed.
  const std::vector<Instruction> solo =
      program::take_duration_capped(algo::cgkk(), Rational::pow2(i), kMaterializeCap);
  std::vector<Instruction> result = program::segmented_with_waits(
      solo, Rational::dyadic(1, i), Rational::pow2(i));
  std::vector<Instruction> back = program::backtrack_moves(result);
  result.insert(result.end(), std::make_move_iterator(back.begin()),
                std::make_move_iterator(back.end()));
  return result;
}

}  // namespace

namespace {

// Blocks are pure functions of (phase, block) and every agent of every run
// executes the same ones, so blocks of at most kSharedBlockCap instructions
// are built once per process, on first use, and shared read-only by every
// stream. Longer blocks (block 1 from phase 4 on) are still built per
// stream by aurv_phase_block and freed when the stream moves on. The cap
// admits every block of phases 1-3 (0.93 MiB of Instruction storage) and
// the short blocks of phases 4-6 (3.06 MiB in all); any later phase sits
// behind a per-stream block 1 of about 20M instructions.
constexpr std::size_t kSharedBlockCap = std::size_t{1} << 16;

using Block = std::shared_ptr<const std::vector<Instruction>>;

struct SharedSlot {
  std::once_flag built;
  Block shared;  ///< null once built: the block is over the cap
};

// Constant-initialized: nothing is built before a program asks for it.
std::array<std::array<SharedSlot, 4>, algo::kMaxCowWalkIndex> shared_blocks;

Block phase_block(std::uint32_t phase, int block) {
  SharedSlot& slot = shared_blocks[phase - 1][static_cast<std::size_t>(block - 1)];
  Block own;  // the over-cap block this call built, if any
  std::call_once(slot.built, [&] {
    auto instructions =
        std::make_shared<const std::vector<Instruction>>(aurv_phase_block(phase, block));
    if (instructions->size() > kSharedBlockCap) {
      own = std::move(instructions);
      return;
    }
    // Gauges of the table's contents: admissions happen once per process,
    // so they are not counters (a counter would differ between two runs in
    // one process).
    static telemetry::Gauge& blocks = telemetry::registry().gauge("program.shared_blocks");
    static telemetry::Gauge& bytes = telemetry::registry().gauge("program.shared_bytes");
    blocks.add(1);
    bytes.add(static_cast<std::int64_t>(instructions->size() * sizeof(Instruction)));
    slot.shared = std::move(instructions);
  });
  if (slot.shared) return slot.shared;
  // Per-stream builds depend only on what the streams pull, so their count
  // is the same at any worker count.
  static telemetry::Counter& unshared = telemetry::registry().counter("program.unshared_builds");
  unshared.add();
  if (!own) own = std::make_shared<const std::vector<Instruction>>(aurv_phase_block(phase, block));
  return own;
}

Program almost_universal_rv_impl(unsigned block_mask) {
  for (std::uint32_t i = 1;; ++i) {
    AURV_CHECK_MSG(i <= algo::kMaxCowWalkIndex, "almost_universal_rv: phase index overflow");
    for (int block = 1; block <= 4; ++block) {
      if ((block_mask & (1u << (block - 1))) == 0) continue;
      const Block instructions = phase_block(i, block);
      for (const Instruction& instruction : *instructions) co_yield instruction;
    }
  }
}

}  // namespace

Program almost_universal_rv() { return almost_universal_rv_impl(0b1111u); }

Program almost_universal_rv_blocks(unsigned block_mask) {
  AURV_CHECK_MSG(block_mask != 0 && block_mask <= 0b1111u,
                 "almost_universal_rv_blocks: mask must select at least one of blocks 1..4");
  return almost_universal_rv_impl(block_mask);
}

std::vector<Instruction> aurv_phase_block(std::uint32_t phase, int block) {
  AURV_CHECK_MSG(phase >= 1 && phase <= algo::kMaxCowWalkIndex,
                 "aurv_phase_block: phase out of range");
  switch (block) {
    case 1: return block1(phase);
    case 2: return block2(phase);
    case 3: return block3(phase);
    case 4: return block4(phase);
    default: AURV_CHECK_MSG(false, "aurv_phase_block: block must be 1..4");
  }
  return {};
}

Rational aurv_block_duration(std::uint32_t phase, int block) {
  // Closed forms (validated against the materialized blocks by the tests;
  // materializing high phases just to sum their durations would be O(4^i)):
  //   block 1: 2^(i+1) PlanarCowWalks
  //   block 2: wait 2^i + Latecomers prefix 2^i + its backtrack 2^i
  //            (Latecomers is wait-free, so the backtrack replays the full
  //            prefix duration)
  //   block 3: wait 2^(15 i^2) + one PlanarCowWalk
  //   block 4: CGKK prefix 2^i cut into 2^(2i) segments + 2^(2i) waits of
  //            2^i + backtrack 2^i  =  2^(3i) + 2^(i+1)
  AURV_CHECK_MSG(phase >= 1 && phase <= algo::kMaxCowWalkIndex,
                 "aurv_block_duration: phase out of range");
  switch (block) {
    case 1: return Rational::pow2(phase + 1) * algo::planar_cow_walk_duration(phase);
    case 2: return Rational(3) * Rational::pow2(phase);
    case 3: return algo::wait_and_search_pause(phase) + algo::planar_cow_walk_duration(phase);
    case 4: return Rational::pow2(3ULL * phase) + Rational::pow2(phase + 1);
    default: AURV_CHECK_MSG(false, "aurv_block_duration: block must be 1..4");
  }
  return 0;
}

Rational aurv_phase_duration(std::uint32_t phase) {
  Rational total = 0;
  for (int block = 1; block <= 4; ++block) total += aurv_block_duration(phase, block);
  return total;
}

Rational aurv_phase_start(std::uint32_t phase) {
  Rational total = 0;
  for (std::uint32_t i = 1; i < phase; ++i) total += aurv_phase_duration(i);
  return total;
}

std::uint32_t aurv_phase_at(const Rational& elapsed) {
  AURV_CHECK_MSG(elapsed.sign() >= 0, "aurv_phase_at: negative time");
  Rational total = 0;
  for (std::uint32_t i = 1; i <= algo::kMaxCowWalkIndex; ++i) {
    total += aurv_phase_duration(i);
    if (elapsed < total) return i;
  }
  return algo::kMaxCowWalkIndex;
}

sim::AlgorithmFactory recommended_algorithm(const agents::Instance& instance) {
  const Classification classification = classify(instance);
  switch (classification.kind) {
    case InstanceKind::BoundaryS1:
      return [instance] { return algo::boundary_s1_algorithm(instance); };
    case InstanceKind::BoundaryS2:
      return [instance] { return algo::boundary_s2_algorithm(instance); };
    default:
      return [] { return almost_universal_rv(); };
  }
}

}  // namespace aurv::core
