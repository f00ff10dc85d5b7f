// Latecomers — our reimplementation of GATHER(2) from [38] (Pelc & Yadav,
// "Latecomers Help to Meet", ICDCN 2020), which the paper imports as a black
// box (Section 2). Contract it must satisfy (and the paper relies on):
// rendezvous for every synchronous instance with phi = 0, chi = 1 and
// t > dist((0,0),(x,y)) - r.
//
// Construction (see docs/ARCHITECTURE.md, "Substituted components", for
// the argument): for phase i = 1, 2, ... and every direction theta = k*pi/2^i,
// k = 0..2^(i+1)-1, walk straight out to distance 2^i and straight back.
// With identical shifted frames the later agent replays the earlier one's
// trajectory delayed by t, so over a single out-and-back trip the
// displacement-over-window-t sweeps continuously through every magnitude in
// [-t, t] along the trip direction; a direction within pi/2^i of the offset
// (x,y) then brings the agents within |dist - t| + dist*pi/2^i <= r once i
// is large enough — exactly when t > dist - r.
#pragma once

#include "program/instruction.hpp"

namespace aurv::algo {

/// The infinite Latecomers program.
[[nodiscard]] program::Program latecomers();

/// Local duration of phase i of latecomers: 2^(i+1) trips of length 2^(i+1).
[[nodiscard]] numeric::Rational latecomers_phase_duration(std::uint32_t i);

}  // namespace aurv::algo
