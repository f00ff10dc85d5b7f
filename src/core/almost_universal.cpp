#include "core/almost_universal.hpp"

#include <array>
#include <atomic>
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

// PlanarCowWalk(i), materialized.
std::vector<Instruction> cow_walk(std::uint32_t i) {
  std::vector<Instruction> walk;
  for (const Instruction& instruction : algo::planar_cow_walk(i)) walk.push_back(instruction);
  return walk;
}

std::vector<Instruction> block1(std::uint32_t i) {
  const std::vector<Instruction> walk = cow_walk(i);
  std::vector<Instruction> result;
  const std::uint64_t epochs = std::uint64_t{1} << (i + 1);  // 2^(i+1)
  for (std::uint64_t j = 1; j <= epochs; ++j) {
    // PlanarCowWalk(i) "in the coordinate system Rot(j*pi/2^i)".
    const std::vector<Instruction> turned =
        program::rotated(walk, geom::dyadic_angle(static_cast<std::int64_t>(j), i));
    result.insert(result.end(), turned.begin(), turned.end());
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
  std::vector<Instruction> result{program::wait(algo::wait_and_search_pause(i))};  // line 14
  const std::vector<Instruction> walk = cow_walk(i);                                // line 15
  result.insert(result.end(), walk.begin(), walk.end());
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

// The parts every agent of every run executes in phase i: blocks 1 and 3
// are views over the walk, blocks 2 and 4 are read as built. They are pure
// functions of the phase, so each phase's parts are built once per process,
// on first use, and shared read-only by every stream.
struct SharedSlot {
  std::once_flag built;
  std::vector<Instruction> walk;  ///< PlanarCowWalk(i)
  std::vector<Instruction> block2;
  std::vector<Instruction> block4;
};

// Constant-initialized: nothing is built before a program asks for it.
std::array<SharedSlot, algo::kMaxCowWalkIndex> shared_phases;

// Bytes held by the built phases. The process total lives here, not only
// in the gauge: Registry::reset() zeroes the gauge while the phases stay
// built, so every program start restores it.
std::atomic<std::int64_t> shared_bytes_total{0};

telemetry::Gauge& shared_bytes_gauge() {
  static telemetry::Gauge& bytes = telemetry::registry().gauge("program.shared_bytes");
  return bytes;
}

const SharedSlot& shared_phase(std::uint32_t phase) {
  SharedSlot& slot = shared_phases[phase - 1];
  std::call_once(slot.built, [&] {
    slot.walk = cow_walk(phase);
    slot.block2 = block2(phase);
    slot.block4 = block4(phase);
    // A gauge, not a counter: a phase is built once per process, so a
    // counter would differ between two runs in one process.
    const auto built = static_cast<std::int64_t>(
        (slot.walk.size() + slot.block2.size() + slot.block4.size()) * sizeof(Instruction));
    shared_bytes_gauge().set_max(shared_bytes_total.fetch_add(built) + built);
  });
  return slot;
}

Program almost_universal_rv_impl(unsigned block_mask) {
  const auto runs = [block_mask](int block) { return (block_mask & (1u << (block - 1))) != 0; };
  shared_bytes_gauge().set_max(shared_bytes_total.load());
  for (std::uint32_t i = 1;; ++i) {
    AURV_CHECK_MSG(i <= algo::kMaxCowWalkIndex, "almost_universal_rv: phase index overflow");
    const SharedSlot& phase = shared_phase(i);
    if (runs(1)) {
      // The walk in Rot(j*pi/2^i), turned per Go as program::rotated does,
      // into one reused instruction.
      Instruction turned{program::Go{}};
      auto& turned_go = std::get<program::Go>(turned);
      const std::uint64_t epochs = std::uint64_t{1} << (i + 1);
      for (std::uint64_t j = 1; j <= epochs; ++j) {
        const double alpha = geom::dyadic_angle(static_cast<std::int64_t>(j), i);
        for (const Instruction& instruction : phase.walk) {
          if (const auto* move = std::get_if<program::Go>(&instruction)) {
            turned_go.heading = move->heading + alpha;
            turned_go.distance = move->distance;
            co_yield turned;
          } else {
            co_yield instruction;
          }
        }
      }
    }
    if (runs(2)) {
      for (const Instruction& instruction : phase.block2) co_yield instruction;
    }
    if (runs(3)) {
      const Instruction pause = program::wait(algo::wait_and_search_pause(i));
      co_yield pause;
      for (const Instruction& instruction : phase.walk) co_yield instruction;
    }
    if (runs(4)) {
      for (const Instruction& instruction : phase.block4) co_yield instruction;
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
