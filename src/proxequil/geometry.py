"""Constraint sets: membership, nearest-point projection, sampling, and
prox-regularity certificates.

Convex kinds (Box, Ball, Halfspace) carry prox_constant = +inf. Each
nonconvex kind carries the largest constant r such that every unit proximal
normal w at a point u of the set satisfies

    <w, v - u>  <=  ||v - u||^2 / (2 r)   for every v in the set.

The constants are asserted analytically per kind and re-verified empirically
by ``proximal_normal_check``:

* Sphere of radius rho: r = rho (the inequality is an identity on the sphere).
* Annulus rho1 <= ||x - c|| <= rho2: r = rho1 (inner boundary binds).
* BoxMinusBall (box with an open ball removed, ball inside the box): r equals
  the ball radius (spherical part of the boundary binds; box faces are convex).
* TwoBallUnion of disjoint balls with center gap D: r = (D - rho_a - rho_b)/2
  (binding case: normals on the segment between the facing boundary points).

Projections onto nonconvex kinds can be set-valued on a measure-zero locus
(sphere/annulus/cavity center, the equidistant locus of a two-ball union).
There ``project`` returns one nearest point by a deterministic tie-break:
centers resolve along the first canonical axis, two-ball ties resolve to the
ball with the lexicographically smaller center.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, PointNotInSet, SamplingExhausted

Array = np.ndarray

MEMBERSHIP_TOL = 1e-9


def as_vector(x, dim: int | None = None, name: str = "x") -> Array:
    """Validate and convert to a finite 1-d float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue(f"{name} contains NaN or infinity")
    return v


@dataclass(frozen=True)
class NormalCheckReport:
    passed: bool
    max_violation: float
    worst_point: Array
    n_samples: int
    prox_constant: float


class ConstraintSet:
    """Shared behavior for all set kinds.

    Subclasses provide ``prox_constant``, ``bounding_box``,
    ``_distance_batch`` and ``_nearest``; everything else, ``dim`` included,
    is derived.
    """

    kind: ClassVar[str] = "abstract"

    @functools.cached_property
    def dim(self) -> int:
        return self.bounding_box[0].shape[0]

    @property
    def prox_constant(self) -> float:
        raise NotImplementedError

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        """Finite axis-aligned (lower, upper) pair used for sampling and grids."""
        raise NotImplementedError

    def _distance_batch(self, X: Array) -> Array:
        raise NotImplementedError

    def _nearest(self, x: Array) -> Array:
        """A nearest point of the set to the validated x."""
        raise NotImplementedError

    # ---- derived operations -------------------------------------------------

    def project(self, x) -> Array:
        """Nearest point of the set to x (a deterministic one on a tie)."""
        return self._nearest(as_vector(x, self.dim))

    def distance(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(self._distance_batch(x[None, :])[0])

    def contains(self, x, tol: float | None = None) -> bool:
        x = as_vector(x, self.dim)
        if tol is None:
            tol = MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(x)))
        return bool(self._distance_batch(x[None, :])[0] <= tol)

    def contains_batch(self, X: Array) -> Array:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (n, {self.dim}) array, got {X.shape}")
        return self._distance_batch(X) <= MEMBERSHIP_TOL * (1.0 + np.linalg.norm(X, axis=1))

    def sample(self, n: int, seed: int) -> Array:
        """n points of the set, uniform over the bounding box conditioned on
        membership; deterministic for a fixed seed."""
        if n <= 0:
            raise ValueError("n must be positive")
        rng = np.random.default_rng(seed)
        lo, hi = self.bounding_box
        kept = []
        total = 0
        drawn = 0
        max_draws = 1000 * n + 10000
        while total < n and drawn < max_draws:
            m = min(max(4 * n, 256), max_draws - drawn)
            X = rng.uniform(lo, hi, size=(m, self.dim))
            drawn += m
            good = X[self.contains_batch(X)]
            if good.size:
                kept.append(good)
                total += good.shape[0]
        if total < n:
            raise SamplingExhausted(
                f"{self.kind}: {total} of {n} points after {drawn} draws"
            )
        return np.vstack(kept)[:n]

    def proximal_normal_check(
        self,
        u,
        w,
        n_samples: int = 10000,
        seed: int = 0,
        prox_constant: float | None = None,
    ) -> NormalCheckReport:
        """Empirical certificate that w is a unit proximal normal at u
        compatible with the claimed prox-regularity constant.

        Samples n_samples points v of the set and reports the worst violation
        of <w, v-u> <= ||v-u||^2 / (2 r); the check passes when the maximal
        violation is at most 1e-9. Pass ``prox_constant`` to test a claimed
        constant other than the set's own.
        """
        u = as_vector(u, self.dim, "u")
        w = as_vector(w, self.dim, "w")
        if not self.contains(u):
            raise PointNotInSet(f"u is not in the {self.kind} (distance {self.distance(u):.3e})")
        if np.linalg.norm(w) > 1.0 + 1e-12:
            raise ValueError("w must be unit-scaled: ||w|| <= 1")
        r = self.prox_constant if prox_constant is None else float(prox_constant)
        if r <= 0:
            raise ValueError("prox constant must be positive")
        V = self.sample(n_samples, seed)
        D = V - u
        curvature = 0.0 if math.isinf(r) else 0.5 / r
        violation = D @ w - curvature * np.einsum("ij,ij->i", D, D)
        i = int(np.argmax(violation))
        worst = float(violation[i])
        return NormalCheckReport(worst <= 1e-9, worst, V[i], n_samples, r)


@functools.lru_cache(maxsize=2)
def _cached_sample(s: ConstraintSet, n: int, seed: int) -> Array:
    """s.sample(n, seed), drawn once and read-only. Sets hash by identity, so
    the repeated draws of one run share it; two entries keep a --verify run's
    8-point and 10^4-point draws from evicting each other."""
    X = s.sample(n, seed)
    X.setflags(write=False)
    return X


@dataclass(frozen=True, eq=False)
class Box(ConstraintSet):
    lower: Array
    upper: Array

    kind: ClassVar[str] = "box"

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower, name="lower"))
        object.__setattr__(self, "upper", as_vector(self.upper, self.lower.shape[0], "upper"))
        if np.any(self.lower > self.upper):
            raise ValueError("box needs lower <= upper componentwise")

    @property
    def prox_constant(self) -> float:
        return math.inf

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.lower, self.upper

    def _distance_batch(self, X: Array) -> Array:
        return np.linalg.norm(X - np.clip(X, self.lower, self.upper), axis=1)

    def _nearest(self, x: Array) -> Array:
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class Ball(ConstraintSet):
    center: Array
    radius: float

    kind: ClassVar[str] = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def prox_constant(self) -> float:
        return math.inf

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.center - self.radius, self.center + self.radius

    def _distance_batch(self, X: Array) -> Array:
        d = np.linalg.norm(X - self.center, axis=1) - self.radius
        return np.maximum(d, 0.0)

    def _nearest(self, x: Array) -> Array:
        d = float(np.linalg.norm(x - self.center))
        if d <= self.radius:
            return x
        return self.center + self.radius * (x - self.center) / d


@dataclass(frozen=True, eq=False)
class Halfspace(ConstraintSet):
    """Points with <normal, x> <= offset.

    The set itself is unbounded; ``window_lower``/``window_upper`` declare the
    finite region used for sampling and grid oracles. Membership is the
    halfspace inequality alone, so the window is a sampling viewport, not part
    of the set.
    """

    normal: Array
    offset: float
    window_lower: Array
    window_upper: Array

    kind: ClassVar[str] = "halfspace"

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal, name="normal"))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "window_lower", as_vector(self.window_lower, self.normal.shape[0], "window_lower"))
        object.__setattr__(self, "window_upper", as_vector(self.window_upper, self.normal.shape[0], "window_upper"))
        if np.linalg.norm(self.normal) <= 0:
            raise ValueError("normal must be nonzero")
        if np.any(self.window_lower > self.window_upper):
            raise ValueError("window needs lower <= upper componentwise")

    @property
    def prox_constant(self) -> float:
        return math.inf

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.window_lower, self.window_upper

    def _distance_batch(self, X: Array) -> Array:
        excess = (X @ self.normal - self.offset) / np.linalg.norm(self.normal)
        return np.maximum(excess, 0.0)

    def _nearest(self, x: Array) -> Array:
        excess = float(x @ self.normal - self.offset)
        if excess <= 0:
            return x
        return x - excess / float(self.normal @ self.normal) * self.normal


def _radial(center: Array, radius: float, x: Array, d: float) -> Array:
    """The point at the given radius from center in the direction of x, whose
    distance from center is d; a center (d <= 1e-13) resolves along the first
    axis."""
    if d <= 1e-13:
        p = center.copy()
        p[0] += radius
        return p
    return center + radius * (x - center) / d


@dataclass(frozen=True, eq=False)
class Sphere(ConstraintSet):
    center: Array
    radius: float

    kind: ClassVar[str] = "sphere"

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def prox_constant(self) -> float:
        return self.radius

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.center - self.radius, self.center + self.radius

    def _distance_batch(self, X: Array) -> Array:
        return np.abs(np.linalg.norm(X - self.center, axis=1) - self.radius)

    def _nearest(self, x: Array) -> Array:
        return _radial(self.center, self.radius, x, float(np.linalg.norm(x - self.center)))

    def sample(self, n: int, seed: int) -> Array:
        # Surface kind: direct sampling, rejection would never terminate.
        if n <= 0:
            raise ValueError("n must be positive")
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, self.dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return self.center + self.radius * g / norms


@dataclass(frozen=True, eq=False)
class Annulus(ConstraintSet):
    """Points with inner_radius <= ||x - center|| <= outer_radius."""

    center: Array
    inner_radius: float
    outer_radius: float

    kind: ClassVar[str] = "annulus"

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        object.__setattr__(self, "inner_radius", float(self.inner_radius))
        object.__setattr__(self, "outer_radius", float(self.outer_radius))
        if not 0 < self.inner_radius <= self.outer_radius:
            raise ValueError("need 0 < inner_radius <= outer_radius")

    @property
    def prox_constant(self) -> float:
        return self.inner_radius

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.center - self.outer_radius, self.center + self.outer_radius

    def _distance_batch(self, X: Array) -> Array:
        d = np.linalg.norm(X - self.center, axis=1)
        return np.maximum(0.0, np.maximum(self.inner_radius - d, d - self.outer_radius))

    def _nearest(self, x: Array) -> Array:
        d = float(np.linalg.norm(x - self.center))
        if d <= 1e-13 or d < self.inner_radius:
            return _radial(self.center, self.inner_radius, x, d)
        if d > self.outer_radius:
            return _radial(self.center, self.outer_radius, x, d)
        return x


@dataclass(frozen=True, eq=False)
class BoxMinusBall(ConstraintSet):
    """A box with an open ball removed; the closed ball must sit inside the box.

    With the ball inside the box, the nearest point has a closed form: points
    outside the box clip onto its boundary (which clears the ball), and box
    points inside the ball push radially onto the ball surface.
    """

    lower: Array
    upper: Array
    center: Array
    radius: float

    kind: ClassVar[str] = "box_minus_ball"

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower, name="lower"))
        object.__setattr__(self, "upper", as_vector(self.upper, self.lower.shape[0], "upper"))
        object.__setattr__(self, "center", as_vector(self.center, self.lower.shape[0], "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if np.any(self.lower > self.upper):
            raise ValueError("box needs lower <= upper componentwise")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if np.any(self.center - self.radius < self.lower) or np.any(self.center + self.radius > self.upper):
            raise ValueError("the removed ball must lie inside the box")

    @property
    def prox_constant(self) -> float:
        return self.radius

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.lower, self.upper

    def _distance_batch(self, X: Array) -> Array:
        to_box = np.linalg.norm(X - np.clip(X, self.lower, self.upper), axis=1)
        radial = np.linalg.norm(X - self.center, axis=1)
        in_box = to_box == 0.0
        return np.where(in_box, np.maximum(self.radius - radial, 0.0), to_box)

    def _nearest(self, x: Array) -> Array:
        clipped = np.clip(x, self.lower, self.upper)
        if np.any(clipped != x):
            return clipped
        d = float(np.linalg.norm(x - self.center))
        if d >= self.radius:
            return x
        return _radial(self.center, self.radius, x, d)


@dataclass(frozen=True, eq=False)
class TwoBallUnion(ConstraintSet):
    """Union of two disjoint closed balls with a positive gap between them."""

    center_a: Array
    radius_a: float
    center_b: Array
    radius_b: float

    kind: ClassVar[str] = "two_ball_union"

    def __post_init__(self):
        object.__setattr__(self, "center_a", as_vector(self.center_a, name="center_a"))
        object.__setattr__(self, "radius_a", float(self.radius_a))
        object.__setattr__(self, "center_b", as_vector(self.center_b, self.center_a.shape[0], "center_b"))
        object.__setattr__(self, "radius_b", float(self.radius_b))
        if self.radius_a <= 0 or self.radius_b <= 0:
            raise ValueError("radii must be positive")
        gap = float(np.linalg.norm(self.center_a - self.center_b)) - self.radius_a - self.radius_b
        if gap <= 0:
            raise ValueError("balls must be disjoint with a positive gap")

    @property
    def prox_constant(self) -> float:
        sep = float(np.linalg.norm(self.center_a - self.center_b))
        return 0.5 * (sep - self.radius_a - self.radius_b)

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        lo = np.minimum(self.center_a - self.radius_a, self.center_b - self.radius_b)
        hi = np.maximum(self.center_a + self.radius_a, self.center_b + self.radius_b)
        return lo, hi

    def _distance_batch(self, X: Array) -> Array:
        da = np.maximum(np.linalg.norm(X - self.center_a, axis=1) - self.radius_a, 0.0)
        db = np.maximum(np.linalg.norm(X - self.center_b, axis=1) - self.radius_b, 0.0)
        return np.minimum(da, db)

    def _nearest(self, x: Array) -> Array:
        da = float(np.linalg.norm(x - self.center_a)) - self.radius_a
        db = float(np.linalg.norm(x - self.center_b)) - self.radius_b
        if da <= 0 or db <= 0:
            return x
        pa = self.center_a + self.radius_a * (x - self.center_a) / (da + self.radius_a)
        pb = self.center_b + self.radius_b * (x - self.center_b) / (db + self.radius_b)
        tie = 1e-12 * (1.0 + float(np.linalg.norm(x)))
        if abs(da - db) <= tie:
            # Equidistant locus: deterministic tie-break on the centers.
            first_a = tuple(self.center_a) <= tuple(self.center_b)
            return pa if first_a else pb
        return pa if da < db else pb


SET_KINDS = {
    cls.kind: cls
    for cls in (Box, Ball, Halfspace, Sphere, Annulus, BoxMinusBall, TwoBallUnion)
}
