// Orientation-aware similarity transform of the plane:
//
//   p  |->  translation + scale * R(rotation) * diag(1, chirality) * p
//
// This is exactly the map from agent B's private coordinate system to the
// absolute system (agent A's): translation = B's start (x, y), rotation =
// phi, chirality = chi, scale = B's length unit tau*v. The fixed point of
// this map, when it exists, is the meeting point the lock-step analysis of
// our CGKK substitute converges to (see docs/ARCHITECTURE.md,
// "Substituted components").
#pragma once

#include <optional>

#include "geom/vec2.hpp"

namespace aurv::geom {

class Similarity {
 public:
  /// Identity transform.
  Similarity() = default;

  /// `scale` must be positive; `chirality` must be +1 or -1 (checked).
  Similarity(Vec2 translation, double rotation, int chirality, double scale);

  [[nodiscard]] Vec2 translation() const noexcept { return translation_; }
  [[nodiscard]] double rotation() const noexcept { return rotation_; }
  [[nodiscard]] int chirality() const noexcept { return chirality_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }

  /// Applies the full affine map.
  [[nodiscard]] Vec2 apply(Vec2 p) const noexcept;

  /// Applies only the linear part (no translation) — maps local
  /// displacement vectors to absolute displacement vectors.
  [[nodiscard]] Vec2 apply_linear(Vec2 v) const noexcept;

  /// Maps a local heading angle to the absolute heading of the image ray.
  [[nodiscard]] double apply_heading(double local_radians) const noexcept;

  [[nodiscard]] Similarity inverse() const;

  /// Composition: (*this) after `inner`, i.e. apply(inner.apply(p)).
  [[nodiscard]] Similarity compose(const Similarity& inner) const;

  /// Determinant of (I - L) where L is the linear part. Zero iff the map
  /// p -> L p + T has no unique fixed point; for L = s * R(phi) * diag(1,chi)
  /// this vanishes exactly when s = 1 and (phi = 0 (chi=+1) or any phi
  /// (chi=-1, eigenvalue +1 along the mirror axis)).
  [[nodiscard]] double fixed_point_determinant() const noexcept;

  /// Unique fixed point of p -> apply(p), if (I - L) is invertible with
  /// determinant magnitude above `eps`.
  [[nodiscard]] std::optional<Vec2> fixed_point(double eps = 1e-12) const noexcept;

 private:
  // Column-major linear part: [a c; b d] applied as (a x + c y, b x + d y).
  [[nodiscard]] double a() const noexcept;
  [[nodiscard]] double b() const noexcept;
  [[nodiscard]] double c() const noexcept;
  [[nodiscard]] double d() const noexcept;

  Vec2 translation_{};
  double rotation_ = 0.0;
  int chirality_ = 1;
  double scale_ = 1.0;
};

}  // namespace aurv::geom
