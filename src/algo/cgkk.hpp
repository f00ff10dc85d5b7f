// CGKK — our reimplementation of the procedure from [18] (Czyzowicz,
// Gąsieniec, Killick, Kranakis, "Symmetry breaking in the plane", PODC
// 2019), which the paper imports as a black box with circles replaced by
// inscribed squares (Section 2). Contract the paper relies on: rendezvous
// for every instance with simultaneous wake-up (t = 0) that is either
// non-synchronous, or has different orientations and equal chirality
// (phi != 0, chi = 1).
//
// Our build (see docs/ARCHITECTURE.md, "Substituted components"): iterated
// PlanarCowWalk(i), i = 1, 2, .... For the instances Algorithm 1 actually
// feeds to CGKK — all of which have tau = 1 and t = 0 — the two agents stay
// in lock-step, so B(s) = (x,y) + M*A(s) with M = v*R(phi)*diag(1,chi) at
// every instant, and the inter-agent gap vanishes at the fixed point
// p* = (I-M)^{-1}(x,y); I-M is invertible precisely on the contract's
// domain restricted to tau = 1. The expanding grid search passes within
// r/(1+v*tau) of p* at some phase, forcing rendezvous.
//
// Standalone coverage of the remaining contract cases (tau != 1, t = 0) is
// provided by cgkk_extended(), which interleaves the pure search with the
// type-3 wait-and-search mechanism (long waits desynchronize agents whose
// clock rates differ).
#pragma once

#include "program/instruction.hpp"

namespace aurv::algo {

/// The infinite pure-search CGKK program (iterated PlanarCowWalk).
[[nodiscard]] program::Program cgkk();

/// CGKK with interleaved doubling waits; additionally covers tau != 1,
/// t = 0 instances standalone. Not used by Algorithm 1 (which handles
/// tau != 1 in its own type-3 block).
[[nodiscard]] program::Program cgkk_extended();

}  // namespace aurv::algo
