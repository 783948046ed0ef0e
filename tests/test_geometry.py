"""Constraint sets: projections, certificates, sampling, validation."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxequil import (
    Annulus,
    Ball,
    Box,
    BoxMinusBall,
    DimensionMismatch,
    Halfspace,
    NonFiniteValue,
    PointNotInSet,
    SamplingExhausted,
    Sphere,
    TwoBallUnion,
)
from proxequil.geometry import SET_KINDS, _by_rows, _norm, _row_norms, as_vector
from problems import exterior_boundary_pairs, shipped_sets

CONVEX_KINDS = (Box, Ball, Halfspace)


def _random_points(s, n, seed, inflate=0.5):
    rng = np.random.default_rng(seed)
    lo, hi = s.bounding_box
    span = hi - lo
    return lo - inflate * span + rng.random((n, s.dim)) * (1.0 + 2.0 * inflate) * span


def test_distance_frozen_values():
    assert Ball(np.zeros(2), 1.0).distance(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert Sphere(np.zeros(2), 1.0).distance(np.zeros(2)) == pytest.approx(1.0)
    assert Box(np.zeros(2), np.ones(2)).distance(np.array([2.0, 2.0])) == pytest.approx(
        np.sqrt(2.0)
    )


def test_prox_constants():
    box, ball, halfspace, sphere, annulus, bmb, tbu = shipped_sets()
    assert np.isinf(box.prox_constant)
    assert np.isinf(ball.prox_constant)
    assert np.isinf(halfspace.prox_constant)
    assert sphere.prox_constant == 2.0
    assert annulus.prox_constant == 1.0
    assert bmb.prox_constant == 1.0
    # half the gap between the two unit balls centered at (-2,0) and (2,0)
    assert tbu.prox_constant == 1.0


def test_projection_idempotent_and_member():
    for k, s in enumerate(shipped_sets()):
        pts = _random_points(s, 200, seed=k)
        for x in pts:
            p1 = s.project(x)
            p2 = s.project(p1)
            assert np.max(np.abs(p2 - p1)) <= 1e-12
            assert s.contains(p1)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
def test_ball_projection_properties(xy):
    s = Ball(np.array([0.5, -0.5]), 2.0)
    x = np.array(xy)
    p = s.project(x)
    assert s.contains(p)
    assert np.linalg.norm(p - s.center) <= s.radius + 1e-12
    np.testing.assert_allclose(s.project(p), p, atol=1e-12)


def test_convex_projections_nonexpansive():
    for k, s in enumerate(shipped_sets()):
        if not isinstance(s, CONVEX_KINDS):
            continue
        xs = _random_points(s, 1000, seed=10 + k)
        ys = _random_points(s, 1000, seed=20 + k)
        for x, y in zip(xs, ys):
            px = s.project(x)
            py = s.project(y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("s", shipped_sets(), ids=lambda s: s.kind)
def test_project_validates_its_input(s):
    x = [float(c) for c in s.bounding_box[1]]
    np.testing.assert_array_equal(s.project(x), s.project(np.array(x)))
    with pytest.raises(DimensionMismatch):
        s.project(np.zeros(s.dim + 1))
    with pytest.raises(NonFiniteValue):
        s.project(np.full(s.dim, np.nan))


def test_sphere_center_tiebreak():
    s = Sphere(np.array([1.0, 2.0]), 3.0)
    np.testing.assert_allclose(s.project(np.array([1.0, 2.0])), [4.0, 2.0], atol=0)


def test_two_ball_bisector_tiebreak():
    s = TwoBallUnion(np.array([-2.0, 0.0]), 1.0, np.array([2.0, 0.0]), 1.0)
    p = s.project(np.array([0.0, 0.3]))
    # equidistant from both balls; the lexicographically smaller center wins
    assert p[0] < 0
    assert s.contains(p)
    # clearly one-sided points go to their own ball
    np.testing.assert_allclose(s.project(np.array([4.0, 0.0])), [3.0, 0.0], atol=1e-12)


def test_annulus_projects_hole_to_inner_rim():
    s = Annulus(np.zeros(2), 1.0, 2.0)
    np.testing.assert_allclose(
        s.project(np.array([0.25, 0.0])), [1.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        s.project(np.array([3.0, 0.0])), [2.0, 0.0], atol=1e-12
    )
    # the center is equidistant from the whole inner rim
    np.testing.assert_allclose(s.project(np.zeros(2)), [1.0, 0.0], atol=0)


def test_box_minus_ball_projections():
    s = BoxMinusBall(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), np.zeros(2), 1.0)
    # hole points push radially to the removed sphere
    np.testing.assert_allclose(
        s.project(np.array([0.5, 0.0])), [1.0, 0.0], atol=1e-12
    )
    # exterior points clip to the box
    np.testing.assert_allclose(
        s.project(np.array([3.0, 1.0])), [2.0, 1.0], atol=1e-12
    )
    # the ball's center is equidistant from the whole removed sphere
    np.testing.assert_allclose(s.project(np.zeros(2)), [1.0, 0.0], atol=0)


def _same_bits(a, b) -> bool:
    """Equal shapes and equal 64-bit words, signed zeros and NaN payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    words = [np.ascontiguousarray(x).view(np.uint64) for x in (a, b)]
    return a.shape == b.shape and np.array_equal(*words)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 12])
def test_norms_have_the_bits_of_linalg_norm(d):
    rng = np.random.default_rng(d)
    tiny = np.finfo(float).smallest_subnormal
    vectors = [np.zeros(d), -np.zeros(d), np.full(d, tiny), tiny * rng.integers(-9, 10, d).astype(float)]
    vectors += [10.0**e * rng.standard_normal(d) for e in range(-150, 151, 5) for _ in range(20)]
    for _ in range(200):  # subnormal entries, alone and next to normal ones
        sub = np.ldexp(rng.choice([-1.0, 1.0], d), rng.integers(-1074, -1022, d))
        vectors += [sub, np.where(rng.random(d) < 0.5, sub, rng.standard_normal(d))]
    # strided views, which BLAS may sum in another order than a contiguous copy
    vectors += [rng.standard_normal((d, 3))[:, 0], rng.standard_normal(2 * d)[::-2], np.zeros((d, 2))[:, 1]]
    vectors += [(10.0**e * rng.standard_normal((d, 3)))[:, 1] for e in range(-150, 151, 5) for _ in range(20)]
    for x in vectors:
        n = _norm(x)
        assert type(n) is float
        assert _same_bits(n, float(np.linalg.norm(x))), x
    X = np.array(vectors)
    for rows in (X, X[:1], np.asfortranarray(X), X[::-3], np.hstack([X, X])[:, ::2]):
        assert _same_bits(_row_norms(rows), np.linalg.norm(rows, axis=1))


def _clip_reference(s, x):
    """The nearest point of a Box or BoxMinusBall, written with np.clip."""
    clipped = np.clip(x, s.lower, s.upper)
    if isinstance(s, Box) or np.any(clipped != x):
        return clipped
    d = float(np.linalg.norm(x - s.center))
    if d >= s.radius:
        return x
    if d <= 1e-13:  # the center resolves along the first axis
        p = s.center.copy()
        p[0] += s.radius
        return p
    return s.center + s.radius * (x - s.center) / d


@pytest.mark.parametrize("d", [1, 2, 3, 8, 12])
def test_box_kernels_match_clip_bit_for_bit(d):
    """Box and BoxMinusBall give np.clip's bits, signed zeros included, for
    points on, inside and outside boxes with signed-zero faces."""
    rng = np.random.default_rng(100 + d)
    values = np.array([0.0, -0.0, 2.0, -2.0, 2.5, -2.5, 1.0, -1.0, 1e-300, -1e-300])
    for _ in range(200):
        lower_side = rng.random(d) < 0.5  # the box is [+-0, 2] or [-2, +-0] on each axis
        zero = rng.choice([0.0, -0.0], d)
        lower = np.where(lower_side, zero, -2.0)
        upper = np.where(lower_side, 2.0, zero)
        sets = (Box(lower, upper), BoxMinusBall(lower, upper, np.where(lower_side, 1.0, -1.0), 0.5))
        X = np.where(rng.random((20, d)) < 0.7, rng.choice(values, (20, d)), 3.0 * rng.standard_normal((20, d)))
        for s in sets:
            for x in X:
                assert _same_bits(s.project(x), _clip_reference(s, x)), (s, x)
            to_box = np.linalg.norm(X - np.clip(X, lower, upper), axis=1)
            if isinstance(s, Box):
                expected = to_box
            else:
                radial = np.maximum(s.radius - np.linalg.norm(X - s.center, axis=1), 0.0)
                expected = np.where(to_box == 0.0, radial, to_box)
            assert _same_bits(s._distance_batch(X), expected)


def test_proximal_normal_certificates():
    for k, s in enumerate(shipped_sets()):
        for u, w in exterior_boundary_pairs(s, 20, seed=100 + k):
            rep = s.proximal_normal_check(u, w, n_samples=2000, seed=k)
            assert rep.passed, (type(s).__name__, rep.max_violation)


def test_normal_check_rejects_overclaimed_constant():
    """Claiming a larger prox constant than the geometry supports must fail."""
    sphere = Sphere(np.zeros(2), 1.0)
    inward = sphere.proximal_normal_check(
        np.array([1.0, 0.0]), np.array([-1.0, 0.0]), prox_constant=10.0
    )
    assert not inward.passed
    assert inward.max_violation > 1e-3

    tbu = TwoBallUnion(np.array([-2.0, 0.0]), 1.0, np.array([2.0, 0.0]), 1.0)
    rep = tbu.proximal_normal_check(
        np.array([-1.0, 0.0]), np.array([1.0, 0.0]), prox_constant=3.0
    )
    assert not rep.passed


def test_normal_check_validation():
    ball = Ball(np.zeros(2), 1.0)
    with pytest.raises(PointNotInSet):
        ball.proximal_normal_check(np.array([5.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ball.proximal_normal_check(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    u, w = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    for bad in (math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="^prox constant must be positive$"):
            ball.proximal_normal_check(u, w, n_samples=10, prox_constant=bad)
    # an infinite constant is the convex case, a finite worst violation
    rep = ball.proximal_normal_check(u, w, n_samples=10, prox_constant=math.inf)
    assert rep.passed and math.isfinite(rep.max_violation)


def test_membership_along_normal_ray():
    """u stays the projection of u + t*w for t below the prox constant."""
    for k, s in enumerate(shipped_sets()):
        t = 0.9 * min(s.prox_constant, 2.0)
        for u, w in exterior_boundary_pairs(s, 10, seed=200 + k):
            back = s.project(u + t * w)
            np.testing.assert_allclose(back, u, atol=1e-8)


def test_sampling_deterministic_and_feasible():
    for k, s in enumerate(shipped_sets()):
        a = s.sample(50, seed=300 + k)
        b = s.sample(50, seed=300 + k)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (50, s.dim)
        for x in a:
            assert s.contains(x)


def test_sphere_sampling_unit_norm():
    pts = Sphere(np.zeros(3), 1.0).sample(3, seed=7)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_sphere_draws_directly_through_the_one_sample():
    """Only _draw differs by kind: the sphere's draw is normalised Gaussians
    from the seed's stream, and the base sample keeps the size rule."""
    s = Sphere(np.array([1.0, -2.0, 0.5]), 3.0)
    g = np.random.default_rng(11).standard_normal((6, 3))
    expected = s.center + s.radius * g / np.linalg.norm(g, axis=1, keepdims=True)
    np.testing.assert_array_equal(s.sample(6, 11), expected)
    assert "sample" not in vars(Sphere) and "_draw" in vars(Sphere)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be positive$"):
            s.sample(n, 0)


@pytest.mark.parametrize("s", shipped_sets(), ids=lambda s: s.kind)
def test_sample_size_must_be_a_positive_integer(s, monkeypatch):
    """One size rule and one seed rule for every kind, the seed's with the
    phrases of SolverConfig's, checked before any draw."""
    assert s.sample(np.int64(3), np.int64(2)).shape == (3, s.dim)

    def no_draw(*args):
        raise AssertionError("drew before the check")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for n in (math.nan, 2.5, True):
        with pytest.raises(ValueError, match=rf"^n must be an integer; got {n!r}$"):
            s.sample(n, 0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be positive$"):
            s.sample(n, 0)
    for seed in (1.5, math.nan, True, None, "1"):
        with pytest.raises(ValueError, match=rf"^seed must be an integer; got {re.escape(repr(seed))}$"):
            s.sample(3, seed)
    for seed in (-1, np.int64(-2)):
        with pytest.raises(ValueError, match=rf"^seed must be nonnegative; got {re.escape(repr(seed))}$"):
            s.sample(3, seed)


def _direct_kinds(d):
    """A ball, an annulus and a two-ball union (radii 1 and 0.95) in R^d."""
    e = np.eye(d)[0]
    return [
        Ball(np.full(d, 0.5), 2.0),
        Annulus(np.full(d, -1.0), 1.0, 1.5),
        TwoBallUnion(-3.0 * e, 1.0, 3.0 * e, 0.95),
    ]


@pytest.mark.parametrize("d", [2, 8, 20])
def test_direct_samplers_are_uniform(d):
    """Ball, Annulus and TwoBallUnion draw directly, with no rejection: every
    point is in the set, a seed repeats its array, half the points fall inside
    the half-volume radius, and the two balls split by volume; each share
    within 5 standard deviations."""
    n = 20000
    for s in _direct_kinds(d):
        assert "_draw" in vars(type(s)) and "sample" not in vars(type(s))
        X = s.sample(n, 5)
        assert X.shape == (n, d) and s.contains_batch(X).all()
        np.testing.assert_array_equal(s.sample(n, 5), X)
        assert not np.array_equal(s.sample(n, 6), X)
        if isinstance(s, TwoBallUnion):
            in_a = np.linalg.norm(X - s.center_a, axis=1) <= s.radius_a * (1.0 + 1e-12)
            p = s.radius_a**d / (s.radius_a**d + s.radius_b**d)
            assert abs(in_a.mean() - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)
            # ||x - c||^d / rho^d is uniform on [0, 1) within each ball
            scaled = np.where(
                in_a,
                np.linalg.norm(X - s.center_a, axis=1) / s.radius_a,
                np.linalg.norm(X - s.center_b, axis=1) / s.radius_b,
            ) ** d
            half = 0.5
        elif isinstance(s, Annulus):
            # ||x - c||^d / rho2^d is uniform on [t, 1), t = (rho1 / rho2)^d
            scaled = (np.linalg.norm(X - s.center, axis=1) / s.outer_radius) ** d
            half = 0.5 * (1.0 + (s.inner_radius / s.outer_radius) ** d)
        else:
            scaled = (np.linalg.norm(X - s.center, axis=1) / s.radius) ** d
            half = 0.5
        assert abs((scaled < half).mean() - 0.5) <= 5.0 * math.sqrt(0.25 / n)


@pytest.mark.parametrize("d", [2, 8, 20])
def test_equal_radii_annulus_samples_its_sphere(d):
    s = Annulus(np.full(d, 2.0), 3.0, 3.0)
    X = s.sample(500, 0)
    np.testing.assert_allclose(np.linalg.norm(X - s.center, axis=1), 3.0, rtol=1e-13)
    assert s.contains_batch(X).all()


def test_direct_samplers_stay_finite_in_high_dimension():
    """(rho2 / rho1)^d would overflow here; the sampled radius never forms it."""
    d = 200
    for s in (
        Annulus(np.zeros(d), 1.0, 100.0),
        TwoBallUnion(np.zeros(d), 100.0, np.full(d, 20.0), 1.0),
    ):
        X = s.sample(1000, 0)
        assert np.isfinite(X).all() and s.contains_batch(X).all()


def test_sampling_exhausted():
    # window sits entirely outside the halfspace, rejection can never succeed
    hs = Halfspace(np.array([1.0, 0.0]), -5.0, np.zeros(2), np.ones(2))
    with pytest.raises(SamplingExhausted):
        hs.sample(5, seed=0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Box(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Sphere(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        Annulus(np.zeros(2), 2.0, 1.0)
    with pytest.raises(ValueError):
        Halfspace(np.zeros(2), 1.0, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        BoxMinusBall(np.zeros(2), np.ones(2), np.array([5.0, 5.0]), 0.5)
    with pytest.raises(ValueError):
        TwoBallUnion(np.zeros(2), 1.0, np.array([1.0, 0.0]), 1.0)


def test_as_vector_validation():
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros(3), dim=2)
    with pytest.raises(NonFiniteValue):
        as_vector(np.array([1.0, np.nan]))
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf], [np.nan, np.inf, 1e200]])
def test_as_vector_rejects_nan_and_infinity(bad):
    with pytest.raises(NonFiniteValue, match="^u contains NaN or infinity$"):
        as_vector(bad, name="u")


def test_as_vector_keeps_finite_entries_whose_squares_overflow():
    """The sum of squares of [1e200, 1.0] overflows to inf, so the entrywise
    test decides; the sum must overflow silently, since a RuntimeWarning is
    an error here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([1e200, 1.0], [-1e200, 1e200], np.full(12, np.finfo(float).max)):
            v = as_vector(x)
            assert np.array_equal(v, np.asarray(x, dtype=float))


def test_as_vector_empty_and_long_vectors():
    assert as_vector([]).shape == (0,)
    long = np.random.default_rng(0).standard_normal(10**6)
    assert as_vector(long, 10**6) is long
    long[654321] = np.nan
    with pytest.raises(NonFiniteValue):
        as_vector(long)
    strided = np.arange(20.0)[::3]
    assert as_vector(strided) is strided


@pytest.mark.parametrize("d", range(1, 21))
def test_row_norms_have_the_bits_of_linalg_norm_in_every_dimension(d):
    """n = 1 and 7 take the one add.reduce call and n = 10^5 the column sum
    for 2 <= d < 8; mixed magnitudes make any other summing order show."""
    rng = np.random.default_rng(100 + d)
    for n in (1, 7, 10**5):
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-150, 151, (n, d)).astype(float)
        X[rng.random((n, d)) < 0.05] = 0.0
        assert _same_bits(_row_norms(X), np.linalg.norm(X, axis=1))


@pytest.mark.parametrize("d", range(1, 21))
def test_row_broadcasts_have_the_bits_of_the_plain_call(d):
    """_by_rows(ufunc, X, row) gives the bits of ufunc(X, row) for NaN, +-inf
    and signed zeros in X and in the row, on C-order, F-order and strided X,
    with a C-order result for a C-order X; it calls the ufunc once per column
    exactly when 2 <= d < 8 on 128 rows or more, and otherwise once on X."""
    rng = np.random.default_rng(300 + d)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    row = np.where(rng.random(d) < 0.4, rng.choice(special, d), rng.standard_normal(d))
    for n in (1, 127, 128, 10**5):
        wide = rng.standard_normal((n, d + 1))
        marked = rng.random((n, d + 1)) < 0.1
        wide[marked] = rng.choice(special, marked.sum())
        X = wide[:, 1:].copy()
        for layout in (X, np.asfortranarray(X), wide[:, 1:]):
            for ufunc in (np.subtract, np.maximum, np.minimum):
                calls = []

                def counted(*args, **kwargs):
                    calls.append(args)
                    return ufunc(*args, **kwargs)

                with np.errstate(invalid="ignore"):  # inf - inf
                    got, want = _by_rows(counted, layout, row), ufunc(layout, row)
                assert _same_bits(got, want), (ufunc, n, layout.strides)
                assert got.flags.c_contiguous or not layout.flags.c_contiguous
                if n >= 128 and 2 <= d < 8:
                    assert len(calls) == d
                else:
                    assert len(calls) == 1 and calls[0][0] is layout


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("kind", sorted(SET_KINDS))
def test_set_kernels_ignore_the_memory_layout(kind, d):
    """contains_batch and _distance_batch give the same arrays on C-order,
    F-order and strided copies of 300 points, signed zeros among them, and
    distance(x) of each row, a one-row broadcast, gives its batch entry's
    bits. That holds for a halfspace too, whose row dots are summed one
    column at a time, as _row_norms sums its squares."""
    s = _kind_in_dim(kind, d)
    X = _random_points(s, 300, seed=d)
    X[::5, 0] = -0.0
    X[::7, -1] = 0.0
    wide = np.zeros((300, 2 * d))
    wide[:, ::2] = X
    distances, inside = s._distance_batch(X), s.contains_batch(X)
    for Y in (X, np.asfortranarray(X), wide[:, ::2]):
        assert np.array_equal(s.contains_batch(Y), inside)
        for got in (s._distance_batch(Y), np.array([s.distance(y) for y in Y])):
            assert _same_bits(got, distances)


# One 2-d instance per kind, with list and int inputs.
_KIND_ARGS = {
    "box": dict(lower=[0, 0], upper=[1, 2]),
    "ball": dict(center=[0, 0], radius=1),
    "halfspace": dict(normal=[1, 0], offset=0, window_lower=[-1, -1], window_upper=[1, 1]),
    "sphere": dict(center=[0, 0], radius=1),
    "annulus": dict(center=[0, 0], inner_radius=1, outer_radius=2),
    "box_minus_ball": dict(lower=[-2, -2], upper=[2, 2], center=[0, 0], radius=1),
    "two_ball_union": dict(center_a=[-2, 0], radius_a=1, center_b=[2, 0], radius_b=1),
}


@pytest.mark.parametrize("kind", sorted(_KIND_ARGS))
def test_set_fields_coerced_from_annotations(kind):
    cls, args = SET_KINDS[kind], _KIND_ARGS[kind]
    s = cls(**args)
    vectors = [name for name, value in args.items() if isinstance(value, list)]
    for name, value in args.items():
        got = getattr(s, name)
        if name in vectors:
            assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (2,)
            np.testing.assert_array_equal(got, value)
        else:
            assert type(got) is float and got == value
    for name in vectors[1:]:
        with pytest.raises(DimensionMismatch, match=f"^{name} has dimension 3, expected 2$"):
            cls(**{**args, name: [*args[name], 0]})
    for name in vectors:
        with pytest.raises(NonFiniteValue, match=f"^{name} contains NaN or infinity$"):
            cls(**{**args, name: [math.nan, 0]})
    for name in [name for name in args if name not in vectors]:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteValue, match=f"^{name} is NaN or infinite$"):
                cls(**{**args, name: bad})


def _kind_in_dim(kind, d):
    """An instance of the kind in dimension d."""
    e, z = np.eye(d)[0], np.zeros(d)
    return {
        "box": lambda: Box(-np.ones(d), 2.0 * np.ones(d)),
        "ball": lambda: Ball(0.5 * e, 1.5),
        "halfspace": lambda: Halfspace(np.arange(1.0, d + 1.0), 0.5, -2.0 * np.ones(d), 2.0 * np.ones(d)),
        "sphere": lambda: Sphere(z, 1.5),
        "annulus": lambda: Annulus(z, 1.0, 2.0),
        "box_minus_ball": lambda: BoxMinusBall(-2.0 * np.ones(d), 2.0 * np.ones(d), 0.3 * e, 1.0),
        "two_ball_union": lambda: TwoBallUnion(-2.0 * e, 1.0, 2.0 * e, 0.8),
    }[kind]()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", sorted(SET_KINDS))
def test_project_is_globally_nearest(kind, d):
    """No point of 4 * 10^4 sampled from the set is nearer to x than P(x),
    which lies in the set; x ranges over an inflated bounding box."""
    s = _kind_in_dim(kind, d)
    S = s.sample(40000, seed=1)
    X = _random_points(s, 30, seed=2)
    P = np.array([s.project(x) for x in X])
    assert s.contains_batch(P).all()
    nearest_sample = np.sqrt(((X[:, None, :] - S[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    excess = np.linalg.norm(X - P, axis=1) - nearest_sample
    assert np.all(excess <= 1e-12 * (1.0 + np.linalg.norm(X, axis=1)))


def test_only_geometry_raises_point_not_in_set():
    """Every membership check of the package goes through ConstraintSet.member."""
    raisers = set()
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "proxequil").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "PointNotInSet":
                    raisers.add(path.name)
    assert raisers == {"geometry.py"}
