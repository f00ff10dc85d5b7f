// Exact-rational parameter boxes — the unit of work of the worst-case
// search subsystem (Section 4 of the paper, made executable).
//
// A box is an axis-aligned product of closed intervals with exact
// numeric::Rational endpoints over the searched dimensions of the
// adversary's instance-parameter space. Exactness matters twice: interval
// endpoints never drift under repeated bisection (the midpoint of a dyadic
// interval is dyadic), and a box serializes losslessly into a checkpoint,
// so a resumed search re-opens *identical* boxes and continues the same
// refinement tree.
//
// The refinement tree is canonical: every box splits at the exact midpoint
// of its widest dimension (ties broken by lowest dimension index), and a
// box's identity is its path of '0'/'1' bisection choices from the root.
// The branch-and-bound driver derives its deterministic ordering — and
// therefore the reproducibility of the whole search — from this tree, not
// from execution order (the Bobpp-style static search-tree partitioning of
// Menouer & Le Cun, arXiv:1406.2844).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "numeric/rational.hpp"
#include "support/json.hpp"

namespace aurv::search {

/// Closed interval [lo, hi] with exact rational endpoints, lo <= hi.
struct Interval {
  numeric::Rational lo;
  numeric::Rational hi;

  [[nodiscard]] numeric::Rational width() const { return hi - lo; }
  [[nodiscard]] numeric::Rational midpoint() const {
    return (lo + hi) * numeric::Rational::dyadic(1, 1);
  }
  [[nodiscard]] bool is_point() const { return lo == hi; }

  friend bool operator==(const Interval& a, const Interval& b) = default;
};

class ParamBox {
 public:
  /// `id` is the bisection path from the root ("" for the root itself);
  /// throws std::logic_error (via AURV_CHECK) if any interval has lo > hi
  /// or the id contains characters other than '0'/'1'.
  explicit ParamBox(std::vector<Interval> dims, std::string id = "");

  [[nodiscard]] const std::vector<Interval>& dims() const noexcept { return dims_; }
  [[nodiscard]] const Interval& dim(std::size_t index) const { return dims_.at(index); }
  [[nodiscard]] std::size_t dim_count() const noexcept { return dims_.size(); }

  /// The bisection path from the root; also the box's identity in logs,
  /// checkpoints and the certificate. Depth == id().size().
  [[nodiscard]] const std::string& id() const noexcept { return id_; }

  /// The dimension the canonical refinement bisects: the widest one, ties
  /// broken by lowest index.
  [[nodiscard]] std::size_t split_dimension() const;

  /// Width of the widest dimension (the box's refinement diameter).
  [[nodiscard]] numeric::Rational width() const;

  /// Canonical children: split_dimension() halved at its exact midpoint;
  /// ids are id()+"0" (lower half) and id()+"1" (upper half).
  [[nodiscard]] std::pair<ParamBox, ParamBox> bisect() const;

  /// The canonical representative point (the exact midpoint of every
  /// dimension) — what the objective oracle evaluates.
  [[nodiscard]] std::vector<numeric::Rational> midpoint() const;

  /// Lossless serialization: {"id": "...", "dims": [["lo","hi"], ...]} with
  /// exact rational strings, so checkpointed boxes reload bit-identically.
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static ParamBox from_json(const support::Json& json);

  friend bool operator==(const ParamBox& a, const ParamBox& b) = default;

 private:
  std::vector<Interval> dims_;
  std::string id_;
};

/// Bounds can be +/-infinity, which JSON numbers cannot hold; the
/// infinities serialize as the strings "inf"/"-inf" and finite doubles
/// round-trip exactly (shortest to_chars form). Shared by checkpoints,
/// the wave journal and spill segments so every artifact agrees.
[[nodiscard]] support::Json bound_to_json(double bound);
/// Throws support::JsonError on anything else — silently mapping garbage
/// to -inf would prune the box and still emit a "complete" certificate.
[[nodiscard]] double bound_from_json(const support::Json& json);

/// One frontier entry: a box and its (cached) objective bound — the unit
/// the branch-and-bound keeps in memory, spills to disk segments, and
/// records in checkpoints. Serialization is the box's lossless JSON plus
/// a "bound" field.
struct OpenBox {
  ParamBox box;
  double bound;

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static OpenBox from_json(const support::Json& json);
  /// to_json().dump(), written straight into one string: the record the
  /// wave journal and spill segments store.
  [[nodiscard]] std::string encode() const;

  friend bool operator==(const OpenBox& a, const OpenBox& b) = default;
};

/// Best-first, deterministic total order: bound descending, then the
/// refinement-tree path ascending (paths are unique, so this never ties).
struct FrontierOrder {
  bool operator()(const OpenBox& a, const OpenBox& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.box.id() < b.box.id();
  }
};

/// The OpenBox codec in the shape support::SpillDeque expects — one
/// definition shared by the branch-and-bound frontier and its tests.
struct OpenBoxCodec {
  static support::Json to_json(const OpenBox& open) { return open.to_json(); }
  static std::string encode(const OpenBox& open) { return open.encode(); }
  static OpenBox from_json(const support::Json& json) { return OpenBox::from_json(json); }
};

}  // namespace aurv::search
