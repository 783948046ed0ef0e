"""Gap function machinery: w-map, value, gradient, line search, descent."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from proxequil import (
    SET_KINDS,
    Annulus,
    Ball,
    Bifunction,
    BoxMinusBall,
    MissingGradient,
    SolverConfig,
    Status,
    UREProblem,
    check_necessary_condition,
    descent_solve,
    finite_diff_gradient,
    gap_gradient,
    gap_value,
    line_search,
    make_vi_bifunction,
    model,
    problem_residual,
    w_map,
)
from problems import (
    annulus_pull_inner,
    ball10_identity,
    ball_pull,
    pull_bifunction,
    two_ball_trap,
)
from test_geometry import _kind_in_dim

CFG = SolverConfig(lam=0.5)


def _zero_bifunction(dim):
    return Bifunction(
        eval=lambda u, v: 0.0,
        grad_v=lambda u, v: np.zeros(dim),
        grad_u=lambda u, v: np.zeros(dim),
    )


def test_alpha_resolution():
    """SolverConfig.alpha is the gap weight as given; None gives k/r, and k
    when r = inf. At the origin of the unit ball, T(u) = u - (2, 0) has the
    best response P((2, 0) / alpha): w = (1, 0) and gap 2 - alpha / 2 for
    alpha <= 2, w = (2 / alpha, 0) and gap 2 / alpha beyond."""
    u = np.zeros(2)

    def gap(p, alpha, u=u):
        return gap_value(p, u, SolverConfig(alpha=alpha))

    assert gap(ball_pull(), None) == gap(ball_pull(), 1.0) == pytest.approx(1.5, abs=1e-15)
    assert gap(ball_pull(), 2.0) == pytest.approx(1.0, abs=1e-15)
    assert gap(ball_pull(), 4.0) == pytest.approx(0.5, abs=1e-15)
    # r = inf has no k/r; the weight defaults to k
    p = UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=4.0, r=math.inf)
    assert gap(p, None) == gap(p, 4.0) == pytest.approx(0.5, abs=1e-15)
    assert gap(p, 1.0) == pytest.approx(1.5, abs=1e-15)
    np.testing.assert_allclose(w_map(p, u, SolverConfig()), [0.5, 0.0], atol=1e-15)
    # the ball_descent start (0, -1): k/r = 1 gives w = (1, 0) and the gap 2;
    # alpha = 5 gives w = (0, -1) - T(0, -1) / 5 = (0.4, -0.8), inside the
    # ball, and the gap -(<(-2, -1), (0.4, 0.2)> + 2.5 ||(0.4, 0.2)||^2) = 0.5
    start = np.array([0.0, -1.0])
    assert gap(ball_pull(), None, start) == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(w_map(ball_pull(), start, SolverConfig(alpha=5.0)), [0.4, -0.8], atol=1e-12)
    assert gap(ball_pull(), 5.0, start) == pytest.approx(0.5, abs=1e-12)


def test_wmap_pull_problem_is_constant():
    """For T(u) = u - p with alpha matching, w(u) = P(p) for every u."""
    g = ball_pull()
    for u in ([1.0, 0.0], [0.0, -1.0], [-0.3, 0.4]):
        np.testing.assert_allclose(w_map(g, np.array(u), CFG), [1.0, 0.0], atol=1e-9)


def test_wmap_zero_bifunction_is_identity():
    g = UREProblem(_zero_bifunction(2), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
    u = np.array([0.3, -0.4])
    np.testing.assert_allclose(w_map(g, u, CFG), u, atol=1e-9)
    assert abs(gap_value(g, u, CFG)) <= 1e-12
    np.testing.assert_allclose(gap_gradient(g, u, CFG), np.zeros(2), atol=1e-9)


def test_gap_frozen_values():
    g = ball_pull()
    # by hand: the inner minimum from (0, -1) is attained at w = (1, 0)
    # with value <(-2,-1), (1,1)> + 0.5*||(1,1)||^2 = -2
    assert gap_value(g, np.array([0.0, -1.0]), CFG) == pytest.approx(2.0, abs=1e-9)
    assert abs(gap_value(g, np.array([1.0, 0.0]), CFG)) <= 1e-10

    g10 = ball10_identity()
    u = np.array([0.5, 0.0])
    assert gap_value(g10, u, CFG) == pytest.approx(0.125, abs=1e-12)
    np.testing.assert_allclose(gap_gradient(g10, u, CFG), [0.5, 0.0], atol=1e-9)

    ga = annulus_pull_inner()
    assert gap_value(ga, np.array([0.0, 1.5]), CFG) == pytest.approx(0.825, abs=1e-9)


def test_gap_nonnegative_sampled():
    for p in (ball_pull(), annulus_pull_inner(), ball10_identity(), two_ball_trap()):
        for u in p.feasible_set.sample(50, seed=13):
            assert gap_value(p, u, CFG) >= -1e-10


def test_gap_zero_exactly_at_solutions():
    cases = [
        (ball_pull(), [1.0, 0.0]),
        (annulus_pull_inner(), [1.0, 0.0]),
        (ball10_identity(), [0.0, 0.0]),
        (two_ball_trap(), [-1.0, 0.0]),
    ]
    for p, u_star in cases:
        assert gap_value(p, np.array(u_star), CFG) <= 1e-8


def test_gap_large_away_from_solutions():
    p = ball_pull()
    count = 0
    for u in p.feasible_set.sample(40, seed=17):
        if problem_residual(p, u) < 1e-2:
            continue
        count += 1
        assert gap_value(p, u, CFG) >= 1e-4
    assert count >= 20


def test_gap_matches_residual_at_matching_alpha():
    """With alpha = k/r the inner objectives coincide, so the values agree."""
    p = ball_pull()
    for u in p.feasible_set.sample(20, seed=23):
        assert gap_value(p, u, CFG) == pytest.approx(problem_residual(p, u), abs=1e-9)


def test_gap_gradient_matches_finite_differences():
    g = ball10_identity()
    rng = np.random.default_rng(29)
    for _ in range(10):
        u = rng.normal(size=2)
        u = u / np.linalg.norm(u) * rng.uniform(1.0, 8.0)
        fd = finite_diff_gradient(lambda x: gap_value(g, x, CFG), u)
        an = gap_gradient(g, u, CFG)
        assert np.linalg.norm(an - fd) <= 1e-4 * np.linalg.norm(fd)


def test_gap_gradient_requires_grad_u():
    f = Bifunction(eval=lambda u, v: float(-u @ (v - u)), grad_v=lambda u, v: -u)
    p = UREProblem(f, Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
    with pytest.raises(MissingGradient):
        gap_gradient(p, np.array([0.5, 0.0]), CFG)


@pytest.mark.parametrize(
    "merit",
    [
        lambda p, u: problem_residual(p, u),
        lambda p, u: w_map(p, u, CFG),
        lambda p, u: gap_value(p, u, CFG),
    ],
    ids=["problem_residual", "w_map", "gap_value"],
)
def test_best_response_needs_grad_v(merit):
    f = ball_pull().bifunction
    with pytest.raises(MissingGradient):
        p = UREProblem(Bifunction(eval=f.eval, grad_v=None), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
        merit(p, np.array([0.5, 0.0]))


def test_necessary_condition_reports():
    rep = check_necessary_condition(ball_pull(), 200, 0)
    assert rep.passed
    assert rep.min_value > 0.0
    assert rep.n_pairs == 200

    zero = UREProblem(_zero_bifunction(2), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
    rep0 = check_necessary_condition(zero, 100, 0)
    assert rep0.passed
    assert rep0.min_value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_pairs", [2.5, math.nan, True, 3.0, 0, -1])
def test_necessary_condition_names_a_bad_n_pairs(n_pairs):
    """n_pairs is checked here, so a fractional, NaN or bool count does not
    reach sample's message about an n the caller never passed."""
    with pytest.raises(ValueError, match=rf"^n_pairs must be a positive integer; got {re.escape(repr(n_pairs))}$"):
        check_necessary_condition(ball_pull(), n_pairs, 0)


def test_necessary_condition_is_the_slope_of_the_affine_part():
    """For T(u) = A u + b the pairing is (w - u)^T A (w - u): grad_u F +
    grad_v F = A^T (w - u), and the quadratic's two slope terms cancel."""
    A = np.array([[1.0, 3.0], [-1.0, 0.5]])
    s = Ball(np.zeros(2), 2.0)
    rep = check_necessary_condition(UREProblem(_affine(A, [0.3, -0.7]), s, k=1.0, r=1.0), 300, 4)
    D = s.sample(300, 5) - s.sample(300, 4)
    assert abs(rep.min_value - np.min(np.einsum("ij,jk,ik->i", D, A, D))) <= 1e-12


def test_line_search_quadratic_closed_form():
    g = ball10_identity()
    u = np.array([0.5, 0.0])
    # gap along u + t*(-u) is 0.125*(1-t)^2, minimized exactly at t = 1
    assert line_search(g, u, -u, CFG) == 1.0
    assert line_search(g, u, np.zeros(2), CFG) == 0.0
    # moving away from the solution only increases the gap
    assert line_search(g, u, u, CFG) == 0.0


def test_line_search_projects_probes_across_annulus_hole():
    g = annulus_pull_inner()
    u = np.array([2.0, 0.0])
    d = np.array([-4.0, 0.0])
    t = line_search(g, u, d, CFG)
    assert 0.0 <= t <= 1.0


def test_descent_frozen_trace_on_identity():
    g = ball10_identity()
    trace = descent_solve(g, CFG, np.array([0.5, 0.0]))
    assert trace.status is Status.CONVERGED
    assert trace.iterations == 1
    gaps = [r.extras["gap"] for r in trace.records]
    np.testing.assert_allclose(gaps, [0.125, 0.0], atol=1e-12)
    assert trace.records[0].extras["t"] == 1.0
    assert "t" not in trace.records[-1].extras
    assert trace.records[0].residual == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(trace.final_point, [0.0, 0.0], atol=1e-9)


def test_descent_converges_on_ball():
    g = ball_pull()
    trace = descent_solve(g, CFG, np.array([0.0, -1.0]))
    assert trace.status is Status.CONVERGED
    np.testing.assert_allclose(trace.final_point, [1.0, 0.0], atol=1e-8)
    assert problem_residual(ball_pull(), trace.final_point) <= 1e-6


def test_descent_gaps_monotone_on_annulus():
    g = annulus_pull_inner()
    trace = descent_solve(g, CFG, np.array([0.0, 1.5]))
    assert trace.status is Status.CONVERGED
    gaps = [r.extras["gap"] for r in trace.records]
    for before, after in zip(gaps, gaps[1:]):
        assert after <= before
    assert annulus_pull_inner().feasible_set.distance(trace.final_point) <= 1e-8


def test_descent_stops_at_the_iteration_budget():
    # T(u) = A u + b with a rotating A: the full run from (0, -1) takes 141 steps.
    A = np.array([[1.0, 2.0], [-2.0, 1.0]])
    b = np.array([-2.0, 0.0])
    f = make_vi_bifunction(lambda u: np.asarray(u) @ A.T + b, lambda u: A)
    g = UREProblem(f, Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
    trace = descent_solve(g, replace(CFG, max_outer=2), np.array([0.0, -1.0]))
    assert trace.status is Status.MAX_ITERATIONS
    assert len(trace.records) == 3
    assert trace.iterations == 2
    assert all("t" in r.extras for r in trace.records[:-1])
    assert "t" not in trace.records[-1].extras


def _affine(A, b):
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return make_vi_bifunction(lambda u: np.asarray(u) @ A.T + b, lambda u: A)


# Two benchmark descent instances whose accepted points, kept unprojected
# while they passed the tolerant membership test, ended about 2e-9 outside
# the set with gaps near -1e-9.
_OUTSIDE_BEFORE = {
    "box_minus_ball": (
        _affine([[1.0, 0.013924], [-0.013924, 1.0]], [0.142694, 0.795373]),
        BoxMinusBall([-2.565154, -2.421544], [1.68744, 1.831051], [-0.438857, -0.295246], 1.119674),
        [-0.426065, -1.737432],
    ),
    "annulus": (
        _affine(
            [[1.0, -0.072245, -0.028549], [0.072245, 1.0, -0.012323], [0.028549, 0.012323, 1.0]],
            [0.422574, 0.260265, -0.157062],
        ),
        Annulus([-0.35469, -0.367461, -0.26814], 1.046474, 1.907744),
        [-0.365796, -0.67858, 1.199743],
    ),
}


@pytest.mark.parametrize("kind", sorted(_OUTSIDE_BEFORE))
def test_descent_iterates_stay_in_the_set(kind):
    f, s, u0 = _OUTSIDE_BEFORE[kind]
    g = UREProblem(f, s, k=1.0, r=1.0)
    trace = descent_solve(g, SolverConfig(), np.array(u0))
    assert trace.status is Status.CONVERGED
    for rec in trace.records:
        assert s.distance(rec.point) <= 1e-15
        assert rec.extras["gap"] >= -1e-15
    assert gap_value(g, trace.final_point, SolverConfig()) >= -1e-15


def _plain_pull():
    """T(u) = u - (2, 0) as a plain Bifunction, with no vi_operator."""
    T = lambda u: u - np.array([2.0, 0.0])
    return T, Bifunction(eval=lambda u, v: float(T(u) @ (v - u)), grad_v=lambda u, v: T(u))


@pytest.mark.parametrize("u", [(0.0, 0.0), (0.5, 0.0), (-0.5, 0.5), (0.3, -0.6), (0.9, 0.1), (1.0, 0.0)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
def test_generic_best_response_reaches_the_closed_form(alpha, u):
    """A plain Bifunction for T(u) = u - (2, 0) runs the multistart descent,
    whose strongly convex inner problem may have an interior minimizer; it
    must still converge to the nearest-point answer P(u - T(u) / alpha)."""
    T, f = _plain_pull()
    s = Ball(np.zeros(2), 1.0)
    p = UREProblem(f, s, k=1.0, r=math.inf)
    u = np.array(u)
    w = s.project(u - T(u) / alpha)
    exact = -(T(u) @ (w - u) + 0.5 * alpha * (w - u) @ (w - u))
    assert abs(gap_value(p, u, SolverConfig(alpha=alpha)) - exact) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", sorted(SET_KINDS))
def test_closed_form_best_response_is_the_global_minimum(kind, d):
    """The nearest-point best response of a VI bifunction scores no worse
    than the multistart descent, which the same bifunction without its
    vi_operator forces, and agrees with it on the convex kinds; the residual
    at alpha = 2 kappa is the positive part of the same gap."""
    s = _kind_in_dim(kind, d)
    rng = np.random.default_rng(d)
    skew = rng.standard_normal((d, d))
    f = _affine(np.eye(d) + 0.1 * (skew - skew.T), rng.uniform(-2.0, 2.0, d))
    p = UREProblem(f, s, k=1.0, r=min(1.0, s.prox_constant))
    alpha = 2.0 * p.kappa
    generic = replace(p, bifunction=replace(f, vi_operator=None))
    cfg = replace(CFG, alpha=alpha)
    for u in s.sample(6, seed=3):
        m_closed = -gap_value(p, u, cfg)
        m_multi = -gap_value(generic, u, cfg)
        assert m_closed <= m_multi + 1e-12
        if math.isinf(s.prox_constant):
            assert abs(m_closed - m_multi) <= 1e-9
        assert problem_residual(p, u) == max(0.0, -m_closed)


def test_generic_paths_still_reach_multistart(monkeypatch):
    calls = []
    multistart = model.multistart_minimize
    monkeypatch.setattr(model, "multistart_minimize", lambda *a: calls.append(1) or multistart(*a))
    p = ball_pull()
    u = np.array([0.0, -1.0])
    gap_value(p, u, CFG)
    problem_residual(p, u)
    assert calls == []
    problem_residual(replace(p, r=math.inf), u)
    assert len(calls) == 1
    plain = replace(p, bifunction=_plain_pull()[1])
    gap_value(plain, u, CFG)
    problem_residual(plain, u)
    assert len(calls) == 3
