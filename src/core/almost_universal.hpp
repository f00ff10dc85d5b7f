// AlmostUniversalRV — Algorithm 1 of the paper, transcribed block by block.
//
// The program is an infinite sequence of phases i = 1, 2, ...; phase i runs
// four blocks, one per instance type (Section 3.1.1):
//
//   block 1 (type 1): for j = 1..2^(i+1), PlanarCowWalk(i) in Rot(j*pi/2^i)
//   block 2 (type 2): wait(2^i); Latecomers for time 2^i; backtrack
//   block 3 (type 3): wait(2^(15 i^2)); PlanarCowWalk(i)
//   block 4 (type 4): the solo CGKK prefix of duration 2^i cut into 2^(2i)
//                     segments of 1/2^i, each followed by wait(2^i);
//                     backtrack
//
// Every block starts and ends at the agent's initial position (Lemma 3.1),
// which the property tests verify. The "interrupt as soon as the other
// agent is seen" rule of line 1 is the simulator's freeze-on-sight
// semantics, not part of the program itself.
//
// AlmostUniversalRV takes no input: it is the single universal algorithm of
// Theorem 3.2. Helpers below expose per-phase/per-block sub-programs for
// the figure experiments and tests.
#pragma once

#include <cstdint>

#include "agents/instance.hpp"
#include "program/instruction.hpp"
#include "sim/engine.hpp"

namespace aurv::core {

/// The full infinite program (Algorithm 1).
[[nodiscard]] program::Program almost_universal_rv();

/// Ablation variant of Algorithm 1: runs only the blocks whose bit is set
/// in `block_mask` (bit 0 = block 1 ... bit 3 = block 4) in every phase.
/// Requires a nonzero mask (checked). Used by the ablation experiments to
/// show which block rescues which instance type — and how much incidental
/// redundancy the blocks have. almost_universal_rv() == mask 0b1111.
[[nodiscard]] program::Program almost_universal_rv_blocks(unsigned block_mask);

/// Blocks of one phase, materialized — the exact instructions an agent
/// executes during phase i's block (1-based block index, 1..4). Always a
/// fresh build; the program streams above yield every block as a view over
/// one shared build per process of each phase's PlanarCowWalk, block 2 and
/// block 4 (see almost_universal.cpp).
[[nodiscard]] std::vector<program::Instruction> aurv_phase_block(std::uint32_t phase,
                                                                 int block);

/// Local duration of one block of phase i (closed form; block in 1..4).
[[nodiscard]] numeric::Rational aurv_block_duration(std::uint32_t phase, int block);

/// Local duration of phase i (all four blocks).
[[nodiscard]] numeric::Rational aurv_phase_duration(std::uint32_t phase);

/// Local time from program start until the beginning of phase i.
[[nodiscard]] numeric::Rational aurv_phase_start(std::uint32_t phase);

/// Phase index in progress at local time `elapsed` (1-based). Used by the
/// experiments to report in which phase rendezvous landed.
[[nodiscard]] std::uint32_t aurv_phase_at(const numeric::Rational& elapsed);

/// Picks the right algorithm for an instance: AlmostUniversalRV whenever
/// Theorem 3.2 covers it, the dedicated boundary algorithm on S1/S2, and
/// AlmostUniversalRV (which cannot succeed) on infeasible input. This is
/// the convenience entry point a downstream user wants.
[[nodiscard]] sim::AlgorithmFactory recommended_algorithm(const agents::Instance& instance);

}  // namespace aurv::core
