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

``sample`` draws uniform points of a set. Ball, Sphere, Annulus and
TwoBallUnion draw them directly, at O(d) per point in any dimension: a
Gaussian direction and a radius from the inverse law of r^d. Box, Halfspace
(over its window) and BoxMinusBall reject from the bounding box, and raise
SamplingExhausted when too few draws land in the set.

Validation lives here too: ``ConstraintSet.__post_init__`` coerces a kind's
fields from their annotations, and ``ConstraintSet.member`` is the one check,
with one message, that a point handed to the package lies in its set.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, PointNotInSet, SamplingExhausted

Array = np.ndarray

MEMBERSHIP_TOL = 1e-9
MEMBERSHIP_SLAB = 2**14  # rows per contains_batch pass: 128 KiB per temporary column


def as_vector(x, dim: int | None = None, name: str = "x") -> Array:
    """Validate and convert to a finite 1-d float64 array.

    Every ``project`` runs it, the solver loops' included, so each check is
    the cheapest numpy call that makes it. The sum of squares
    ``np.vdot(v, v)`` is finite when every entry is, and one BLAS dot costs
    less than ``np.isfinite(v).all()`` at any length; only when that sum is
    not finite, which large finite entries can also cause by overflow, does
    the entrywise test decide.
    ``np.vdot`` overflows silently, where ``v @ v`` and ``v.dot(v)`` emit a
    RuntimeWarning.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not math.isfinite(np.vdot(v, v)) and not np.isfinite(v).all():
        raise NonFiniteValue(f"{name} contains NaN or infinity")
    return v


def _norm(x: Array) -> float:
    """The Euclidean norm of a 1-d float64 vector, with the bits of
    ``float(np.linalg.norm(x))``.

    For such input ``np.linalg.norm`` computes ``sqrt(x.dot(x))`` on
    ``x.ravel(order="K")``, which is x itself when x is contiguous; there
    this makes the same dot call without norm's dispatch, and ``x.dot``
    costs about half of ``x @ x`` at d = 2 (0.9 against 1.7 us, numpy 2.4).
    A strided view goes to ``np.linalg.norm``, because ravel copies it and
    BLAS may sum the view in another order than the copy.
    """
    if x.flags.c_contiguous:
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(x))


def _is_integer(v) -> bool:  # a bool is an Integral, but not a count
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _row_norms(X: Array, center: Array | None = None) -> Array:
    """The Euclidean norm of each row of a 2-d float64 array X, or of
    X - center for a row center, with the bits of
    ``np.linalg.norm(X - center, axis=1)``: for such input that computes
    ``sqrt(add.reduce(D * D, axis=1))`` with D = X - center, and this skips
    its dispatch.

    Below 8 terms ``add.reduce`` sums a row left to right, so for 2 <= d < 8
    adding the squared columns one after another gives the same bits, and on
    a grid of 10^5 rows it is 3 to 6 times faster than reducing each short
    row. Each column is shifted and squared into one scratch column and the
    root is taken in place, so the sum makes no (n, d) temporary, D
    included. Under 128 rows the one reduce call costs less.
    """
    if X.shape[0] < 128 or not 2 <= X.shape[1] < 8:
        D = X if center is None else X - center
        return np.sqrt(np.add.reduce(D * D, axis=1))
    total = np.empty(X.shape[0])
    term = np.empty(X.shape[0])
    for j in range(X.shape[1]):
        col = X[:, j] if center is None else np.subtract(X[:, j], center[j], out=term)
        if j == 0:
            np.multiply(col, col, out=total)
        else:
            total += np.multiply(col, col, out=term)
    return np.sqrt(total, out=total)


def _row_dots(A: Array, B: Array) -> Array:
    """A[i] . B[i] for each row, with the bits of np.einsum("ij,ij->i", A, B).

    einsum adds the products to zeroed accumulators, which for two columns
    gives p0 + p1 with a -0.0 sum turned into +0.0; here each column is
    multiplied on its own and the sum plus 0.0 makes the same turn. On
    rows of 2 einsum runs numpy's short-row path, 3 to 4 times slower than
    the columns at 10^5 rows (numpy 2.4). It sums three columns as
    (p0 + p2) + p1 when they are contiguous, so other widths call it.
    """
    if A.shape[1] != 2:
        return np.einsum("ij,ij->i", A, B)
    out = np.multiply(A[:, 0], B[:, 0])
    out += np.multiply(A[:, 1], B[:, 1])
    out += 0.0
    return out


def _by_rows(ufunc, X: Array, row: Array, out: Array | None = None) -> Array:
    """``ufunc(X, row, out=out)`` for a 2-d float64 X and a row of X's
    width, with the bits of that broadcast; out=X works in place.

    numpy runs the broadcast with an inner loop as long as a row, so on short
    rows it is several times slower than one call per column, each along the
    long axis: 1.9 against 0.55 ms on 160,801 x 2, and 105 against 24 us on
    10^4 x 2 (numpy 2.4, one core). The columns are taken on _row_norms's
    rule, for 2 <= d < 8 on 128 rows or more; from d = 8 on the loop over
    columns is the slower. Their result is in C order, as the broadcast's is
    for a C-order X, so a BLAS product that follows it sums in the same
    order.
    """
    if X.shape[0] < 128 or not 2 <= X.shape[1] < 8:
        return ufunc(X, row, out=out)
    if out is None:
        out = np.empty(X.shape)
    for j in range(X.shape[1]):
        ufunc(X[:, j], row[j], out=out[:, j])
    return out


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
    ``member`` is the one check that a point lies in the set; the solver
    loops make none on the points they project themselves.
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
        """Membership of the validated x: a finite distance within
        MEMBERSHIP_TOL (1 + ||x||)."""
        d = float(self._distance_batch(x[None, :])[0])
        return math.isfinite(d) and d <= MEMBERSHIP_TOL * (1.0 + _norm(x))

    def contains(self, x) -> bool:
        """Whether x lies in the set, to MEMBERSHIP_TOL (1 + ||x||). A point
        whose distance overflows is not in it, though its tolerance may
        overflow too."""
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
        """Whether each row of X lies in the set, on ``contains``'s rule,
        which refuses a distance that is not finite.

        The rows are tested MEMBERSHIP_SLAB at a time, so that the kind's
        temporaries stay in cache and none is as long as X: on the grid
        oracle's 160,801-node lattices a ball takes 1.2 against 3.0 ms, an
        annulus 1.2 against 1.9 and a two-ball union 1.8 against 2.7, with
        whole-array temporaries and row broadcasts (numpy 2.4, one core). A
        row's distance and norm do not depend on the rows around it, so the
        answer does not either.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (n, {self.dim}) array, got {X.shape}")
        inside = np.empty(X.shape[0], dtype=bool)
        for start in range(0, X.shape[0], MEMBERSHIP_SLAB):
            slab = X[start : start + MEMBERSHIP_SLAB]
            tol = _row_norms(slab)
            tol += 1.0
            tol *= MEMBERSHIP_TOL
            dist = self._distance_batch(slab)
            ok = inside[start : start + MEMBERSHIP_SLAB]
            np.less_equal(dist, tol, out=ok)
            ok &= np.isfinite(dist)
        return inside

    def sample(self, n: int, seed: int) -> Array:
        """n points of the set from _draw, deterministic for a fixed seed;
        n and seed are checked before any draw, the seed on SolverConfig's
        rules."""
        if not _is_integer(n):
            raise ValueError(f"n must be an integer; got {n!r}")
        if n <= 0:
            raise ValueError("n must be positive")
        if not _is_integer(seed):
            raise ValueError(f"seed must be an integer; got {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative; got {seed!r}")
        return self._draw(n, np.random.default_rng(seed))

    def _draw(self, n: int, rng: np.random.Generator) -> Array:
        """n points uniform over the bounding box conditioned on membership,
        by rejection; the kinds whose uniform law has a closed form draw it
        directly instead."""
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
        D = _by_rows(np.subtract, V, u)
        curvature = 0.0 if math.isinf(r) else 0.5 / r
        violation = D @ w - curvature * _row_dots(D, D)
        i = int(np.argmax(violation))
        worst = float(violation[i])
        return NormalCheckReport(worst <= 1e-9, worst, V[i], n_samples, r)


@functools.lru_cache(maxsize=2, typed=True)
def _cached_sample(s: ConstraintSet, n: int, seed: int) -> Array:
    """s.sample(n, seed), drawn once and read-only. Sets hash by identity, so
    the repeated draws of one run share it; two entries keep a --verify run's
    8-point and 10^4-point draws from evicting each other. Entries are typed,
    so a seed of True is not served the draw of seed 1 but reaches sample's
    check."""
    X = s.sample(n, seed)
    X.setflags(write=False)
    return X


def _on_spheres(rng: np.random.Generator, n: int, dim: int, radii) -> Array:
    """n points at the given radii (a float or an (n, 1) array) from the
    origin, each in a uniform direction: a standard Gaussian row divided by
    its norm (Muller, Comm. ACM 2(4), 1959). A zero row, of probability zero,
    gives the origin."""
    g = rng.standard_normal((n, dim))
    norms = _row_norms(g)[:, None]
    norms[norms == 0.0] = 1.0
    return radii * g / norms


def _in_shells(rng: np.random.Generator, n: int, dim: int, outer, inner_share: float = 0.0) -> Array:
    """n points uniform on the shells inner <= ||x|| <= outer around the
    origin, where inner_share = (inner / outer)^dim and outer is a float or
    an (n, 1) array. The radius outer (t + (1 - t) U)^(1/dim), t the share
    and U uniform on [0, 1), inverts the law of r^dim; it cannot overflow,
    and t = 1 gives the sphere of radius outer."""
    u = rng.random((n, 1))
    return _on_spheres(rng, n, dim, outer * (inner_share + (1.0 - inner_share) * u) ** (1.0 / dim))


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
        return _row_norms(X - _by_rows(np.minimum, _by_rows(np.maximum, X, self.lower), self.upper))

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
        return np.maximum(_row_norms(X, self.center) - self.radius, 0.0)

    def _nearest(self, x: Array) -> Array:
        offset = x - self.center
        d = _norm(offset)
        if d <= self.radius:
            return x
        return self.center + self.radius * offset / d

    def _draw(self, n: int, rng: np.random.Generator) -> Array:
        return self.center + _in_shells(rng, n, self.dim, self.radius)


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
        excess = (np.add.reduce(_by_rows(np.multiply, X, self.normal), axis=1) - self.offset) / _norm(self.normal)
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
        return np.abs(_row_norms(X, self.center) - self.radius)

    def _nearest(self, x: Array) -> Array:
        offset = x - self.center
        return _radial(self.center, self.radius, offset, _norm(offset))

    def _draw(self, n: int, rng: np.random.Generator) -> Array:
        return self.center + _on_spheres(rng, n, self.dim, self.radius)


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
        d = _row_norms(X, self.center)
        return np.maximum(0.0, np.maximum(self.inner_radius - d, d - self.outer_radius))

    def _nearest(self, x: Array) -> Array:
        offset = x - self.center
        d = _norm(offset)
        if d <= 1e-13 or d < self.inner_radius:
            return _radial(self.center, self.inner_radius, offset, d)
        if d > self.outer_radius:
            return _radial(self.center, self.outer_radius, offset, d)
        return x

    def _draw(self, n: int, rng: np.random.Generator) -> Array:
        share = (self.inner_radius / self.outer_radius) ** self.dim
        return self.center + _in_shells(rng, n, self.dim, self.outer_radius, share)


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
        to_box = _row_norms(X - _by_rows(np.minimum, _by_rows(np.maximum, X, self.lower), self.upper))
        radial = _row_norms(X, self.center)
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
        da = np.maximum(_row_norms(X, self.center_a) - self.radius_a, 0.0)
        db = np.maximum(_row_norms(X, self.center_b) - self.radius_b, 0.0)
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

    def _draw(self, n: int, rng: np.random.Generator) -> Array:
        # Each row picks a ball with probability proportional to its volume,
        # rho^dim, scaled by the larger radius so that neither power overflows.
        big = max(self.radius_a, self.radius_b)
        va, vb = (self.radius_a / big) ** self.dim, (self.radius_b / big) ** self.dim
        in_a = rng.random((n, 1)) < va / (va + vb)
        radii = np.where(in_a, self.radius_a, self.radius_b)
        return np.where(in_a, self.center_a, self.center_b) + _in_shells(rng, n, self.dim, radii)


SET_KINDS = {
    cls.kind: cls
    for cls in (Box, Ball, Halfspace, Sphere, Annulus, BoxMinusBall, TwoBallUnion)
}
