"""Constraint sets: projections, certificates, sampling, validation."""

import ast
import math
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
from proxequil.geometry import SET_KINDS, _norm, _row_norms, as_vector
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
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


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
