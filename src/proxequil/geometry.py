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

Validation lives here too: ``ConstraintSet.__post_init__`` coerces a kind's
fields from their annotations, and ``ConstraintSet.member`` is the one check,
with one message, that a point handed to the package lies in its set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, PointNotInSet, SamplingExhausted

Array = np.ndarray

MEMBERSHIP_TOL = 1e-9


def as_vector(x, dim: int | None = None, name: str = "x") -> Array:
    """Validate and convert to a finite 1-d float64 array.

    Every public ``project`` runs it, so each check is the cheapest numpy
    call that makes it: ``np.isfinite(v).all()`` is ``np.all(np.isfinite(v))``
    without the dispatch of ``np.all``.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.isfinite(v).all():
        raise NonFiniteValue(f"{name} contains NaN or infinity")
    return v


def _norm(x: Array) -> float:
    """The Euclidean norm of a 1-d float64 vector, with the bits of
    ``float(np.linalg.norm(x))``.

    For such input ``np.linalg.norm`` computes ``sqrt(x.dot(x))``; on a
    contiguous x, ``x @ x`` is the same BLAS dot without norm's dispatch. A
    strided view goes to ``np.linalg.norm``, which sums it in another order.
    """
    if x.flags.c_contiguous:
        return math.sqrt(x @ x)
    return float(np.linalg.norm(x))


def _row_norms(X: Array) -> Array:
    """The Euclidean norm of each row of a 2-d float64 array, with the bits of
    ``np.linalg.norm(X, axis=1)``: for such input that computes
    ``sqrt(add.reduce(X * X, axis=1))``, and this skips its dispatch."""
    return np.sqrt(np.add.reduce(X * X, axis=1))


@dataclass(frozen=True)
class NormalCheckReport:
    passed: bool
    max_violation: float
    worst_point: Array
    n_samples: int
    prox_constant: float


class ConstraintSet:
    """Shared behavior for all set kinds.

    A kind is a frozen dataclass of ``Array`` and ``float`` fields, coerced
    here from their annotations: each vector through ``as_vector``, the first
    one fixing the dimension of the rest, each scalar through ``float`` and a
    finiteness check. A kind provides ``bounding_box``, ``_distance_batch``,
    ``_nearest`` and ``_check`` (its own invariants), and a nonconvex kind its
    ``prox_constant``; everything else, ``dim`` included, is derived.
    ``member`` is the one check that a point lies in the set.
    """

    kind: ClassVar[str] = "abstract"
    prox_constant: ClassVar[float] = math.inf  # +inf for the convex kinds; nonconvex kinds override it

    def __post_init__(self):
        dim = None
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "Array":
                value = as_vector(value, dim, f.name)
                dim = value.shape[0]
            else:
                value = float(value)
                if not math.isfinite(value):
                    raise NonFiniteValue(f"{f.name} is NaN or infinite")
            object.__setattr__(self, f.name, value)
        self._check()

    def _check(self) -> None:
        """Raise ValueError when the coerced fields break the kind's invariants."""

    @functools.cached_property
    def dim(self) -> int:
        return self.bounding_box[0].shape[0]

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

    def _contains(self, x: Array) -> bool:
        """Membership of the validated x: distance within MEMBERSHIP_TOL (1 + ||x||)."""
        return bool(self._distance_batch(x[None, :])[0] <= MEMBERSHIP_TOL * (1.0 + _norm(x)))

    def contains(self, x) -> bool:
        """Whether x lies in the set, to MEMBERSHIP_TOL (1 + ||x||)."""
        return self._contains(as_vector(x, self.dim))

    def member(self, x, name: str = "x") -> Array:
        """The validated x; PointNotInSet naming it when x is not in the set.

        x is validated once, then tested by the same ``_contains`` as
        ``contains``; neither goes through ``contains_batch``, whose points
        the benchmark counts.
        """
        x = as_vector(x, self.dim, name)
        if not self._contains(x):
            raise PointNotInSet(f"{name} is not in the feasible set")
        return x

    def contains_batch(self, X: Array) -> Array:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (n, {self.dim}) array, got {X.shape}")
        return self._distance_batch(X) <= MEMBERSHIP_TOL * (1.0 + _row_norms(X))

    def sample(self, n: int, seed: int) -> Array:
        """n points of the set from _draw, deterministic for a fixed seed."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self._draw(n, np.random.default_rng(seed))

    def _draw(self, n: int, rng: np.random.Generator) -> Array:
        """n points uniform over the bounding box conditioned on membership."""
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
        u = self.member(u, "u")
        w = as_vector(w, self.dim, "w")
        if _norm(w) > 1.0 + 1e-12:
            raise ValueError("w must be unit-scaled: ||w|| <= 1")
        r = self.prox_constant if prox_constant is None else float(prox_constant)
        if not r > 0:
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

    def _check(self):
        if np.any(self.lower > self.upper):
            raise ValueError("box needs lower <= upper componentwise")

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.lower, self.upper

    def _distance_batch(self, X: Array) -> Array:
        return _row_norms(X - np.minimum(np.maximum(X, self.lower), self.upper))

    def _nearest(self, x: Array) -> Array:
        return np.minimum(np.maximum(x, self.lower), self.upper)


@dataclass(frozen=True, eq=False)
class Ball(ConstraintSet):
    center: Array
    radius: float

    kind: ClassVar[str] = "ball"

    def _check(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.center - self.radius, self.center + self.radius

    def _distance_batch(self, X: Array) -> Array:
        d = _row_norms(X - self.center) - self.radius
        return np.maximum(d, 0.0)

    def _nearest(self, x: Array) -> Array:
        offset = x - self.center
        d = _norm(offset)
        if d <= self.radius:
            return x
        return self.center + self.radius * offset / d


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

    def _check(self):
        if _norm(self.normal) <= 0:
            raise ValueError("normal must be nonzero")
        if np.any(self.window_lower > self.window_upper):
            raise ValueError("window needs lower <= upper componentwise")

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.window_lower, self.window_upper

    def _distance_batch(self, X: Array) -> Array:
        excess = (X @ self.normal - self.offset) / _norm(self.normal)
        return np.maximum(excess, 0.0)

    def _nearest(self, x: Array) -> Array:
        excess = float(x @ self.normal - self.offset)
        if excess <= 0:
            return x
        return x - excess / float(self.normal @ self.normal) * self.normal


def _radial(center: Array, radius: float, offset: Array, d: float) -> Array:
    """The point at the given radius from center in the direction of the
    offset x - center, whose norm is d; a center (d <= 1e-13) resolves along
    the first axis."""
    if d <= 1e-13:
        p = center.copy()
        p[0] += radius
        return p
    return center + radius * offset / d


@dataclass(frozen=True, eq=False)
class Sphere(ConstraintSet):
    center: Array
    radius: float

    kind: ClassVar[str] = "sphere"

    def _check(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def prox_constant(self) -> float:
        return self.radius

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.center - self.radius, self.center + self.radius

    def _distance_batch(self, X: Array) -> Array:
        return np.abs(_row_norms(X - self.center) - self.radius)

    def _nearest(self, x: Array) -> Array:
        offset = x - self.center
        return _radial(self.center, self.radius, offset, _norm(offset))

    def _draw(self, n: int, rng: np.random.Generator) -> Array:
        # Surface kind: direct sampling, rejection would never terminate.
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

    def _check(self):
        if not 0 < self.inner_radius <= self.outer_radius:
            raise ValueError("need 0 < inner_radius <= outer_radius")

    @property
    def prox_constant(self) -> float:
        return self.inner_radius

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        return self.center - self.outer_radius, self.center + self.outer_radius

    def _distance_batch(self, X: Array) -> Array:
        d = _row_norms(X - self.center)
        return np.maximum(0.0, np.maximum(self.inner_radius - d, d - self.outer_radius))

    def _nearest(self, x: Array) -> Array:
        offset = x - self.center
        d = _norm(offset)
        if d <= 1e-13 or d < self.inner_radius:
            return _radial(self.center, self.inner_radius, offset, d)
        if d > self.outer_radius:
            return _radial(self.center, self.outer_radius, offset, d)
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

    def _check(self):
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
        to_box = _row_norms(X - np.minimum(np.maximum(X, self.lower), self.upper))
        radial = _row_norms(X - self.center)
        in_box = to_box == 0.0
        return np.where(in_box, np.maximum(self.radius - radial, 0.0), to_box)

    def _nearest(self, x: Array) -> Array:
        clipped = np.minimum(np.maximum(x, self.lower), self.upper)
        if (clipped != x).any():
            return clipped
        offset = x - self.center
        d = _norm(offset)
        if d >= self.radius:
            return x
        return _radial(self.center, self.radius, offset, d)


@dataclass(frozen=True, eq=False)
class TwoBallUnion(ConstraintSet):
    """Union of two disjoint closed balls with a positive gap between them."""

    center_a: Array
    radius_a: float
    center_b: Array
    radius_b: float

    kind: ClassVar[str] = "two_ball_union"

    def _check(self):
        if self.radius_a <= 0 or self.radius_b <= 0:
            raise ValueError("radii must be positive")
        gap = _norm(self.center_a - self.center_b) - self.radius_a - self.radius_b
        if gap <= 0:
            raise ValueError("balls must be disjoint with a positive gap")

    @property
    def prox_constant(self) -> float:
        sep = _norm(self.center_a - self.center_b)
        return 0.5 * (sep - self.radius_a - self.radius_b)

    @property
    def bounding_box(self) -> tuple[Array, Array]:
        lo = np.minimum(self.center_a - self.radius_a, self.center_b - self.radius_b)
        hi = np.maximum(self.center_a + self.radius_a, self.center_b + self.radius_b)
        return lo, hi

    def _distance_batch(self, X: Array) -> Array:
        da = np.maximum(_row_norms(X - self.center_a) - self.radius_a, 0.0)
        db = np.maximum(_row_norms(X - self.center_b) - self.radius_b, 0.0)
        return np.minimum(da, db)

    def _nearest(self, x: Array) -> Array:
        offset_a, offset_b = x - self.center_a, x - self.center_b
        da = _norm(offset_a) - self.radius_a
        db = _norm(offset_b) - self.radius_b
        if da <= 0 or db <= 0:
            return x
        if abs(da - db) <= 1e-12 * (1.0 + _norm(x)):
            # Equidistant locus: deterministic tie-break on the centers.
            to_a = tuple(self.center_a) <= tuple(self.center_b)
        else:
            to_a = da < db
        if to_a:
            return self.center_a + self.radius_a * offset_a / (da + self.radius_a)
        return self.center_b + self.radius_b * offset_b / (db + self.radius_b)


SET_KINDS = {
    cls.kind: cls
    for cls in (Box, Ball, Halfspace, Sphere, Annulus, BoxMinusBall, TwoBallUnion)
}
