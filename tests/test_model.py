"""Problem model: bifunctions, validation, residual."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proxequil import (
    Ball,
    Bifunction,
    DimensionMismatch,
    GridSpec,
    MissingGradient,
    PointNotInSet,
    SolverConfig,
    Sphere,
    Status,
    UREProblem,
    ValidationError,
    finite_diff_gradient,
    grid_solve,
    config,
    make_vi_bifunction,
    parse_config,
    problem_residual,
    proximal_solve,
)
from problems import ball_pull, pull_bifunction

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_vi_bifunction_values():
    f = pull_bifunction([2.0, 0.0])
    u = np.array([0.0, -1.0])
    v = np.array([1.0, 0.0])
    # F(u, v) = <u - p, v - u>
    assert f(u, v) == pytest.approx(-3.0)
    np.testing.assert_allclose(f.grad_v(u, v), [-2.0, -1.0])
    # d/du <T(u), v - u> = JT(u)^T (v - u) - T(u)
    np.testing.assert_allclose(f.grad_u(u, v), [3.0, 2.0])
    assert f.vi_operator is not None
    assert f(u, u) == 0.0


def test_vi_bifunction_without_jacobian_has_no_grad_u():
    f = make_vi_bifunction(lambda u: u)
    assert f.grad_u is None


def _rows_reference(f, U, V):
    return np.array([f(u, v) for u, v in zip(np.broadcast_to(U, V.shape), V)])


def test_eval_rows_calls_vi_operator_only_at_u():
    target = np.array([2.0, -1.0])

    def T(u):
        u = np.asarray(u)
        if u.ndim != 1:
            raise AssertionError("T called on rows")
        return u - target

    f = make_vi_bifunction(T)
    u = np.array([0.3, 0.4])
    V = Ball(np.zeros(2), 1.0).sample(50, seed=5)
    rows = f.eval_rows(u, V)
    assert rows.shape == (50,)
    np.testing.assert_allclose(rows, _rows_reference(f, u, V), rtol=0, atol=1e-14)


# the config's affine_vi, and F = 0 as a zero matrix with no offset
_CONFIG_AFFINE = {
    "affine_vi": dict(matrix=((1.0, 0.5), (-0.5, 2.0)), offset=(-2.0, 0.3)),
    "zero": dict(matrix=((0.0, 0.0), (0.0, 0.0)), offset=None),
}


# U as one point and as one point per row of V
@pytest.mark.parametrize(
    "kind, pairs",
    [("affine_vi", False), ("zero", False), ("affine_vi", True), ("zero", True)],
    ids=["affine_vi", "zero", "affine_vi-pairs", "zero-pairs"],
)
def test_eval_rows_matches_calls_for_config_kinds(kind, pairs):
    rc = parse_config(str(CONFIG_DIR / "ball_proximal.cfg"))
    f = config.build_bifunction(replace(rc, **_CONFIG_AFFINE[kind]))
    U = Ball(np.zeros(2), 1.0).sample(200, seed=9) if pairs else np.array([0.1, -0.2])
    V = Ball(np.zeros(2), 1.0).sample(200, seed=8)
    rows = f.eval_rows(U, V)
    assert rows.shape == (200,)
    np.testing.assert_allclose(rows, _rows_reference(f, U, V), rtol=0, atol=1e-14)
    if kind == "zero":
        assert not rows.any()
        assert not np.signbit(f.vi_operator(U)).any()


def test_eval_rows_loops_over_a_plain_bifunction():
    calls = []

    def value(u, v):
        calls.append(1)
        return float(v @ v - u @ u)

    f = Bifunction(eval=value, grad_v=lambda u, v: 2.0 * v)
    V = Ball(np.zeros(2), 1.0).sample(30, seed=2)
    for U in (np.array([0.5, 0.0]), Ball(np.zeros(2), 1.0).sample(30, seed=3)):
        calls.clear()
        rows = f.eval_rows(U, V)
        assert len(calls) == 30
        np.testing.assert_array_equal(rows, _rows_reference(f, U, V))


def test_eval_rows_of_no_rows_is_empty():
    quad = Bifunction(eval=lambda u, v: float(v @ v), grad_v=lambda u, v: 2.0 * v)
    for f in (pull_bifunction([2.0, 0.0]), quad):
        for U in (np.zeros(2), np.empty((0, 2))):
            assert f.eval_rows(U, np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("kind", ["affine_vi", "zero"])
def test_grad_v_rows_matches_calls_for_config_kinds(kind):
    rc = parse_config(str(CONFIG_DIR / "ball_proximal.cfg"))
    f = config.build_bifunction(replace(rc, **_CONFIG_AFFINE[kind]))
    U = Ball(np.zeros(2), 1.0).sample(200, seed=8)
    V = Ball(np.zeros(2), 1.0).sample(200, seed=9)
    rows = f.grad_v_rows(U, V)
    assert rows.shape == (200, 2)
    np.testing.assert_allclose(rows, [f.grad_v(u, v) for u, v in zip(U, V)], rtol=0, atol=1e-14)
    np.testing.assert_allclose(f.grad_v_rows(U[0], V), [f.grad_v(U[0], v) for v in V], rtol=0, atol=1e-14)
    if kind == "zero":
        assert not rows.any()


def test_grad_v_rows_loops_over_a_plain_bifunction():
    calls = []

    def grad_v(u, v):
        calls.append(1)
        return 2.0 * v - u

    f = Bifunction(eval=lambda u, v: float(v @ v - u @ v), grad_v=grad_v)
    U = Ball(np.zeros(2), 1.0).sample(30, seed=2)
    V = Ball(np.zeros(2), 1.0).sample(30, seed=3)
    rows = f.grad_v_rows(U, V)
    assert len(calls) == 30
    np.testing.assert_array_equal(rows, 2.0 * V - U)
    np.testing.assert_array_equal(f.grad_v_rows(U[0], V), 2.0 * V - U[0])
    assert f.grad_v_rows(np.empty((0, 2)), np.empty((0, 2))).shape == (0, 2)


def test_grad_v_rows_rejects_an_operator_that_ignores_rows():
    f = make_vi_bifunction(lambda u: u.sum() * np.ones(2))
    U = Ball(np.zeros(2), 1.0).sample(5, seed=1)
    with pytest.raises(DimensionMismatch):
        f.grad_v_rows(U, U)
    # the pair form of eval_rows goes through the same check
    with pytest.raises(DimensionMismatch, match="it must act row by row"):
        f.eval_rows(U, U)


def test_bifunction_without_grad_v_is_rejected():
    with pytest.raises(MissingGradient):
        Bifunction(eval=lambda u, v: 0.0, grad_v=None)


def test_diagonal_zero_sampled():
    ball = Ball(np.zeros(2), 1.0)
    quad = Bifunction(
        eval=lambda u, v: float(v @ v - u @ u),
        grad_v=lambda u, v: 2.0 * v,
        grad_u=lambda u, v: -2.0 * u,
    )
    pts = ball.sample(1000, seed=3)
    for f in (pull_bifunction([2.0, 0.0]), quad):
        for u in pts:
            assert abs(f(u, u)) <= 1e-12


def test_declared_gradients_match_finite_differences():
    f = pull_bifunction([2.0, 0.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        fd_v = finite_diff_gradient(lambda w: f(u, w), v)
        fd_u = finite_diff_gradient(lambda w: f(w, v), u)
        assert np.linalg.norm(f.grad_v(u, v) - fd_v) <= 1e-5 * (1.0 + np.linalg.norm(fd_v))
        assert np.linalg.norm(f.grad_u(u, v) - fd_u) <= 1e-5 * (1.0 + np.linalg.norm(fd_u))


def test_problem_validation():
    f = pull_bifunction([2.0, 0.0])
    ball = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        UREProblem(f, ball, k=0.0, r=1.0)
    with pytest.raises(ValueError):
        UREProblem(f, ball, k=1.0, r=-1.0)
    # r may not exceed the set's prox-regularity constant
    with pytest.raises(ValueError):
        UREProblem(f, Sphere(np.zeros(2), 1.0), k=1.0, r=2.0)


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_problem_rejects_a_non_finite_k(k):
    """kappa = inf would make the implicit step w = u_n, so the proximal
    scheme would stop at once wherever it started."""
    with pytest.raises(ValueError, match="k must be finite; got"):
        UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=k, r=1.0)


@pytest.mark.parametrize("k, r", [(1.0, 5e-324), (1e308, 1e-300)])
def test_problem_rejects_an_infinite_kappa(k, r):
    """A finite k and a positive r can still give kappa = k/(2r) = inf; the
    step lam/(1 + kappa) would then be 0, so a run would stop at its start."""
    with pytest.raises(ValidationError, match="^" + re.escape(f"kappa = k/(2r) must be finite; got inf from k={k!r}, r={r!r}") + "$"):
        UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=k, r=r)


def test_problem_allows_r_inf():
    """r = inf is the convex case: kappa = 0, and the proximal scheme still
    reaches the solution (1, 0) of the pull problem from (0, -1)."""
    p = UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=1.0, r=math.inf)
    assert p.kappa == 0.0
    trace = proximal_solve(p, SolverConfig(lam=0.5), (0.0, -1.0))
    assert trace.status is Status.CONVERGED
    np.testing.assert_allclose(trace.final_point, [1.0, 0.0], atol=1e-6)


def test_kappa_values():
    f = pull_bifunction([2.0, 0.0])
    ball = Ball(np.zeros(2), 1.0)
    assert UREProblem(f, ball, k=1.0, r=1.0).kappa == pytest.approx(0.5)
    assert UREProblem(f, ball, k=3.0, r=2.0).kappa == pytest.approx(0.75)
    assert UREProblem(f, ball, k=2.0, r=math.inf).kappa == 0.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(outer_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_outer=0)
    # an infinite step or gap weight is not a setting: alpha = inf makes the
    # best response u itself, so gap descent stops at once on a non-solution
    for name in ("lam", "alpha"):
        with pytest.raises(ValueError, match=f"^{name} must be finite; got inf$"):
            SolverConfig(**{name: math.inf})
    with pytest.raises(ValueError, match="^lam must be finite; got inf$"):
        replace(SolverConfig(), lam=math.inf)
    # budgets and the seed are counts: a float would reach range() or
    # SeedSequence and fail there with a TypeError
    # a bool is an Integral, but True as max_outer was a one-step budget
    for bad in (dict(max_outer=2.5), dict(max_inner=3.0), dict(max_outer=math.inf), dict(seed=1.5),
                dict(seed=True), dict(max_outer=True), dict(max_inner=False)):
        (name, value), = bad.items()
        with pytest.raises(ValidationError, match=f"^{name} must be an integer; got {value!r}$"):
            SolverConfig(**bad)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            replace(SolverConfig(), **bad)
    assert SolverConfig(max_outer=np.int64(3), seed=np.int64(2)).max_outer == 3


def test_problem_residual_frozen():
    p = ball_pull()
    # worst feasible direction from the origin is v = (1, 0):
    # <T(0), v> + 0.5*||v||^2 = -2 + 0.5 = -1.5
    assert problem_residual(p, np.zeros(2)) == pytest.approx(1.5, abs=1e-9)
    assert problem_residual(p, np.array([1.0, 0.0])) <= 1e-10


def test_problem_residual_nonnegative_sampled():
    p = ball_pull()
    for u in p.feasible_set.sample(50, seed=5):
        assert problem_residual(p, u) >= 0.0


def test_problem_residual_zero_at_oracle_solution():
    p = ball_pull()
    res = grid_solve(p, GridSpec(400))
    assert res.certified
    assert problem_residual(p, res.point) <= 1e-10


def test_problem_residual_requires_feasible_point():
    with pytest.raises(PointNotInSet):
        problem_residual(ball_pull(), np.array([5.0, 5.0]))


def test_status_values_are_stable_strings():
    assert Status.CONVERGED.value == "converged"
    assert Status.MAX_ITERATIONS.value == "max_iterations"
    assert Status.SUBPROBLEM_FAILED.value == "subproblem_failed"
