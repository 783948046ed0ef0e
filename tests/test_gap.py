"""Gap function machinery: w-map, value, gradient, line search, descent."""

import math
from dataclasses import replace

import numpy as np
import pytest

from proxequil import (
    Ball,
    Bifunction,
    GapModel,
    InfeasibleSegment,
    MissingGradient,
    Regularizer,
    SolverConfig,
    Status,
    UREProblem,
    check_necessary_condition,
    check_regularizer_axioms,
    descent_solve,
    finite_diff_gradient,
    gap_gradient,
    gap_value,
    line_search,
    make_vi_bifunction,
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

CFG = SolverConfig(lam=0.5)


def _zero_bifunction(dim):
    return Bifunction(
        eval=lambda u, v: 0.0,
        grad_v=lambda u, v: np.zeros(dim),
        grad_u=lambda u, v: np.zeros(dim),
    )


def test_alpha_resolution():
    assert GapModel(ball_pull()).resolved_alpha == pytest.approx(1.0)
    assert GapModel(ball_pull(), alpha=2.0).resolved_alpha == pytest.approx(2.0)
    p = UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=1.0, r=math.inf)
    with pytest.raises(ValueError):
        GapModel(p)
    assert GapModel(p, alpha=1.0).resolved_alpha == pytest.approx(1.0)


def test_wmap_pull_problem_is_constant():
    """For T(u) = u - p with alpha matching, w(u) = P(p) for every u."""
    g = GapModel(ball_pull())
    for u in ([1.0, 0.0], [0.0, -1.0], [-0.3, 0.4]):
        np.testing.assert_allclose(w_map(g, np.array(u), CFG), [1.0, 0.0], atol=1e-9)


def test_wmap_zero_bifunction_is_identity():
    g = GapModel(
        UREProblem(_zero_bifunction(2), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
    )
    u = np.array([0.3, -0.4])
    np.testing.assert_allclose(w_map(g, u, CFG), u, atol=1e-9)
    assert abs(gap_value(g, u, CFG)) <= 1e-12
    np.testing.assert_allclose(gap_gradient(g, u, CFG), np.zeros(2), atol=1e-9)


def test_gap_frozen_values():
    g = GapModel(ball_pull())
    # by hand: the inner minimum from (0, -1) is attained at w = (1, 0)
    # with value <(-2,-1), (1,1)> + 0.5*||(1,1)||^2 = -2
    assert gap_value(g, np.array([0.0, -1.0]), CFG) == pytest.approx(2.0, abs=1e-9)
    assert abs(gap_value(g, np.array([1.0, 0.0]), CFG)) <= 1e-10

    g10 = GapModel(ball10_identity())
    u = np.array([0.5, 0.0])
    assert gap_value(g10, u, CFG) == pytest.approx(0.125, abs=1e-12)
    np.testing.assert_allclose(gap_gradient(g10, u, CFG), [0.5, 0.0], atol=1e-9)

    ga = GapModel(annulus_pull_inner())
    assert gap_value(ga, np.array([0.0, 1.5]), CFG) == pytest.approx(0.825, abs=1e-9)


def test_gap_nonnegative_sampled():
    for p in (ball_pull(), annulus_pull_inner(), ball10_identity(), two_ball_trap()):
        g = GapModel(p)
        for u in p.feasible_set.sample(50, seed=13):
            assert gap_value(g, u, CFG) >= -1e-10


def test_gap_zero_exactly_at_solutions():
    cases = [
        (ball_pull(), [1.0, 0.0]),
        (annulus_pull_inner(), [1.0, 0.0]),
        (ball10_identity(), [0.0, 0.0]),
        (two_ball_trap(), [-1.0, 0.0]),
    ]
    for p, u_star in cases:
        assert gap_value(GapModel(p), np.array(u_star), CFG) <= 1e-8


def test_gap_large_away_from_solutions():
    p = ball_pull()
    g = GapModel(p)
    count = 0
    for u in p.feasible_set.sample(40, seed=17):
        if problem_residual(p, u) < 1e-2:
            continue
        count += 1
        assert gap_value(g, u, CFG) >= 1e-4
    assert count >= 20


def test_gap_matches_residual_at_matching_alpha():
    """With alpha = k/r the inner objectives coincide, so the values agree."""
    p = ball_pull()
    g = GapModel(p)
    for u in p.feasible_set.sample(20, seed=23):
        assert gap_value(g, u, CFG) == pytest.approx(problem_residual(p, u), abs=1e-9)


def test_gap_gradient_matches_finite_differences():
    g = GapModel(ball10_identity())
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
    g = GapModel(p)
    with pytest.raises(MissingGradient):
        gap_gradient(g, np.array([0.5, 0.0]), CFG)


@pytest.mark.parametrize(
    "merit",
    [
        lambda p, u: problem_residual(p, u),
        lambda p, u: w_map(GapModel(p), u, CFG),
        lambda p, u: gap_value(GapModel(p), u, CFG),
    ],
    ids=["problem_residual", "w_map", "gap_value"],
)
def test_best_response_needs_grad_v(merit):
    f = ball_pull().bifunction
    with pytest.raises(MissingGradient):
        p = UREProblem(Bifunction(eval=f.eval, grad_v=None), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
        merit(p, np.array([0.5, 0.0]))


def test_necessary_condition_reports():
    rep = check_necessary_condition(GapModel(ball_pull()), 200, 0)
    assert rep.passed
    assert rep.min_value > 0.0
    assert rep.n_pairs == 200

    zero = GapModel(UREProblem(_zero_bifunction(2), Ball(np.zeros(2), 1.0), k=1.0, r=1.0))
    rep0 = check_necessary_condition(zero, 100, 0)
    assert rep0.passed
    assert rep0.min_value == pytest.approx(0.0, abs=1e-12)


def test_line_search_quadratic_closed_form():
    g = GapModel(ball10_identity())
    u = np.array([0.5, 0.0])
    # gap along u + t*(-u) is 0.125*(1-t)^2, minimized exactly at t = 1
    assert line_search(g, u, -u, CFG) == 1.0
    assert line_search(g, u, np.zeros(2), CFG) == 0.0
    # moving away from the solution only increases the gap
    assert line_search(g, u, u, CFG) == 0.0


def test_line_search_strict_segment():
    g = GapModel(annulus_pull_inner())
    u = np.array([2.0, 0.0])
    d = np.array([-4.0, 0.0])
    with pytest.raises(InfeasibleSegment):
        line_search(g, u, d, CFG, strict_segment=True)
    t = line_search(g, u, d, CFG)
    assert 0.0 <= t <= 1.0


def test_descent_frozen_trace_on_identity():
    g = GapModel(ball10_identity())
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
    g = GapModel(ball_pull())
    trace = descent_solve(g, CFG, np.array([0.0, -1.0]))
    assert trace.status is Status.CONVERGED
    np.testing.assert_allclose(trace.final_point, [1.0, 0.0], atol=1e-8)
    assert problem_residual(ball_pull(), trace.final_point) <= 1e-6


def test_descent_gaps_monotone_on_annulus():
    g = GapModel(annulus_pull_inner())
    trace = descent_solve(g, CFG, np.array([0.0, 1.5]))
    assert trace.status is Status.CONVERGED
    gaps = [r.extras["gap"] for r in trace.records]
    for before, after in zip(gaps, gaps[1:]):
        assert after <= before
    assert annulus_pull_inner().feasible_set.contains(trace.final_point, 1e-8)


def test_descent_stops_at_the_iteration_budget():
    # T(u) = A u + b with a rotating A: the full run from (0, -1) takes 141 steps.
    A = np.array([[1.0, 2.0], [-2.0, 1.0]])
    b = np.array([-2.0, 0.0])
    f = make_vi_bifunction(lambda u: np.asarray(u) @ A.T + b, lambda u: A)
    g = GapModel(UREProblem(f, Ball(np.zeros(2), 1.0), k=1.0, r=1.0))
    trace = descent_solve(g, replace(CFG, max_outer=2), np.array([0.0, -1.0]))
    assert trace.status is Status.MAX_ITERATIONS
    assert len(trace.records) == 3
    assert trace.iterations == 2
    assert all("t" in r.extras for r in trace.records[:-1])
    assert "t" not in trace.records[-1].extras


def test_descent_strict_segment_fails_on_nonconvex():
    g = GapModel(annulus_pull_inner())
    trace = descent_solve(g, CFG, np.array([0.0, 1.5]), strict_segment=True)
    assert trace.status is Status.SUBPROBLEM_FAILED
    np.testing.assert_allclose(trace.final_point, [0.0, 1.5], atol=0)


def test_regularizer_axioms_quadratic():
    rep = check_regularizer_axioms(GapModel(ball_pull()))
    assert rep.passed
    assert rep.max_diagonal == 0.0
    assert rep.max_diagonal_grad == 0.0
    assert rep.convexity_modulus == pytest.approx(1.0, abs=1e-9)


def test_regularizer_axioms_reject_negative():
    bad = Regularizer(
        value=lambda x, y: -float((y - x) @ (y - x)),
        grad_x=lambda x, y: 2.0 * (y - x),
        grad_y=lambda x, y: -2.0 * (y - x),
    )
    rep = check_regularizer_axioms(GapModel(ball_pull(), regularizer=bad))
    assert not rep.passed
    assert rep.min_value < 0.0
