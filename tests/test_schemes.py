"""Iteration schemes: subproblem, proximal, inertial, explicit, Fejér check."""

import math

import numpy as np
import pytest

from proxequil import (
    Ball,
    Bifunction,
    GapModel,
    MissingGradient,
    EmptyTrace,
    PointNotInSet,
    SolverConfig,
    Status,
    SubproblemFailed,
    SubproblemSpec,
    Trace,
    TraceRecord,
    UREProblem,
    default_step_size,
    descent_solve,
    explicit_solve,
    fejer_check,
    inertial_proximal_solve,
    proximal_solve,
    solve_subproblem,
    verify_subproblem_inequality,
)
from problems import (
    annulus_pull_inner,
    annulus_pull_outer,
    ball_pull,
    pull_bifunction,
)

U0 = np.array([0.0, -1.0])
SOLUTION = np.array([1.0, 0.0])


def test_subproblem_fixed_at_solution():
    p = ball_pull()
    spec = SubproblemSpec(p, SOLUTION, SOLUTION, lam=0.5, gamma_n=0.2)
    np.testing.assert_allclose(spec.base_point, SOLUTION, atol=0)
    w = solve_subproblem(spec, SolverConfig(lam=0.5))
    np.testing.assert_allclose(w, SOLUTION, atol=1e-10)


def test_subproblem_frozen_value():
    """Interior fixed point on the annulus, solvable by hand.

    z = u_n - (gamma/(1+kappa))(u_n - u_prev) = (1.48666..., 0) and the
    update w <- z - (lam/(1+kappa))(w - 2) has fixed point (3z + 2)/4.
    """
    p = annulus_pull_outer()
    spec = SubproblemSpec(
        p, np.array([1.5, 0.0]), np.array([1.4, 0.0]), lam=0.5, gamma_n=0.2
    )
    z_expected = 1.5 - (0.2 / 1.5) * 0.1
    np.testing.assert_allclose(spec.base_point, [z_expected, 0.0], atol=1e-15)
    w = solve_subproblem(spec, SolverConfig(lam=0.5))
    np.testing.assert_allclose(w, [(3.0 * z_expected + 2.0) / 4.0, 0.0], atol=5e-12)
    np.testing.assert_allclose(w, [1.615, 0.0], atol=5e-12)

    chk = verify_subproblem_inequality(spec, w)
    assert chk.passed
    assert chk.worst_violation <= 1e-8
    assert chk.n_samples == 10000


def _audit_steps():
    """A proximal step on the ball, which the audit passes, and an inertial
    step from the annulus's inner rim, which it fails at points across the
    hole (the set is not convex)."""
    ball = SubproblemSpec(ball_pull(), U0, U0, lam=0.5, gamma_n=0.0)
    annulus = SubproblemSpec(
        annulus_pull_inner(), np.array([0.0, 1.0]), np.array([0.0, 1.2]), lam=0.5, gamma_n=0.2
    )
    return [(spec, solve_subproblem(spec, SolverConfig(lam=0.5))) for spec in (ball, annulus)]


@pytest.mark.parametrize("step", [0, 1], ids=["ball_proximal", "annulus_inertial"])
def test_verify_matches_scalar_loop(step):
    spec, w = _audit_steps()[step]
    chk = verify_subproblem_inequality(spec, w, seed=4)
    f, z = spec.problem.bifunction, spec.base_point
    worst, worst_v = -np.inf, w
    for v in spec.problem.feasible_set.sample(10000, 4):
        val = spec.lam * f(w, v) + (1.0 + spec.kappa) * float((w - z) @ (v - w))
        if -val > worst:
            worst, worst_v = -val, v
    assert chk.passed == (worst <= 1e-8)
    assert chk.worst_violation == pytest.approx(worst, rel=0, abs=1e-12)
    np.testing.assert_array_equal(chk.worst_point, worst_v)
    assert chk.n_samples == 10000


def test_verify_makes_no_per_sample_calls(monkeypatch):
    calls = []
    plain_call = Bifunction.__call__

    def counted(self, u, v):
        calls.append(1)
        return plain_call(self, u, v)

    monkeypatch.setattr(Bifunction, "__call__", counted)
    for spec, w in _audit_steps():
        verify_subproblem_inequality(spec, w)
    assert calls == []


def test_verify_draws_once_per_set_and_seed(monkeypatch):
    spec, w = _audit_steps()[1]
    s = spec.problem.feasible_set
    draws = []
    plain_sample = type(s).sample

    def counted(self, n, seed):
        draws.append((n, seed))
        return plain_sample(self, n, seed)

    monkeypatch.setattr(type(s), "sample", counted)
    first = verify_subproblem_inequality(spec, w, seed=6)
    again = verify_subproblem_inequality(spec, w, seed=6)
    assert draws == [(10000, 6)]
    assert (again.passed, again.worst_violation) == (first.passed, first.worst_violation)
    np.testing.assert_array_equal(again.worst_point, first.worst_point)
    verify_subproblem_inequality(spec, w, seed=7)
    assert draws == [(10000, 6), (10000, 7)]


def test_subproblem_kappa_zero_gamma_zero():
    """With r = inf and no inertia the update is w <- P[u_n - lam*T(w)]."""
    p = UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=1.0, r=math.inf)
    spec = SubproblemSpec(p, np.zeros(2), np.zeros(2), lam=0.5, gamma_n=0.0)
    w = solve_subproblem(spec, SolverConfig(lam=0.5))
    # w = -0.5*(w - 2) solves to w = 2/3, interior so the projection is inert
    np.testing.assert_allclose(w, [2.0 / 3.0, 0.0], atol=1e-11)


def test_subproblem_budget_exhaustion():
    spec = SubproblemSpec(ball_pull(), U0, U0, lam=0.5, gamma_n=0.0)
    with pytest.raises(SubproblemFailed):
        solve_subproblem(spec, SolverConfig(lam=0.5, max_inner=1))


def test_proximal_converges_on_ball():
    p = ball_pull()
    trace = proximal_solve(p, SolverConfig(lam=0.5), U0)
    assert trace.status is Status.CONVERGED
    assert trace.iterations <= 100
    np.testing.assert_allclose(trace.final_point, SOLUTION, atol=1e-6)
    assert trace.records[-1].step_norm < 1e-8


def test_inertial_converges_on_annulus():
    p = annulus_pull_inner()
    trace = inertial_proximal_solve(p, SolverConfig(lam=0.5, gamma=0.2), np.array([0.0, 1.5]))
    assert trace.status is Status.CONVERGED
    np.testing.assert_allclose(trace.final_point, SOLUTION, atol=1e-5)


def test_all_iterates_feasible():
    p = annulus_pull_inner()
    cfg = SolverConfig(lam=0.5)
    u0 = np.array([0.0, 1.5])
    for solve in (proximal_solve, explicit_solve):
        trace = solve(p, cfg, u0)
        for u in trace.points():
            assert p.feasible_set.contains(u, 1e-8)
    trace = inertial_proximal_solve(p, cfg, u0)
    for u in trace.points():
        assert p.feasible_set.contains(u, 1e-8)


def test_start_at_solution_stops_immediately():
    trace = proximal_solve(ball_pull(), SolverConfig(lam=0.5), SOLUTION)
    assert trace.status is Status.CONVERGED
    assert trace.iterations == 1
    np.testing.assert_allclose(trace.final_point, SOLUTION, atol=1e-10)


def test_explicit_fixed_point_at_solution():
    trace = explicit_solve(ball_pull(), SolverConfig(lam=0.5), SOLUTION)
    assert trace.status is Status.CONVERGED
    np.testing.assert_allclose(trace.final_point, SOLUTION, atol=1e-12)


def test_explicit_converges_to_outer_rim():
    p = annulus_pull_outer()
    trace = explicit_solve(p, SolverConfig(lam=0.3), np.array([0.0, 1.5]))
    assert trace.status is Status.CONVERGED
    assert trace.iterations <= 200
    np.testing.assert_allclose(trace.final_point, [2.0, 0.0], atol=1e-6)


def test_explicit_matches_reference_projected_gradient():
    """kappa = 0 explicit iteration is plain projected gradient descent."""
    p = UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=1.0, r=math.inf)
    cfg = SolverConfig(lam=0.5, max_outer=40, outer_tol=1e-300)
    trace = explicit_solve(p, cfg, U0)

    u = U0.copy()
    reference = [u.copy()]
    for _ in range(40):
        step = u - 0.5 * (u - np.array([2.0, 0.0]))
        norm = np.linalg.norm(step)
        if norm > 1.0:
            step = step / norm
        u = step
        reference.append(u.copy())

    assert len(trace.points()) == len(reference)
    for mine, ref in zip(trace.points(), reference):
        assert np.max(np.abs(mine - ref)) <= 1e-14


def test_gamma_zero_inertial_equals_proximal_exactly():
    p = ball_pull()
    cfg = SolverConfig(lam=0.5)
    a = proximal_solve(p, cfg, U0)
    b = inertial_proximal_solve(p, cfg, U0, gamma_schedule=lambda n: 0.0)
    assert a.status is b.status
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.iteration == rb.iteration
        assert ra.step_norm == rb.step_norm
        assert ra.residual == rb.residual
        assert ra.point.tobytes() == rb.point.tobytes()


def test_gamma_schedule_callable():
    p = ball_pull()
    trace = inertial_proximal_solve(
        p, SolverConfig(lam=0.5), U0, gamma_schedule=lambda n: 0.3 / (n + 1)
    )
    assert trace.status is Status.CONVERGED
    np.testing.assert_allclose(trace.final_point, SOLUTION, atol=1e-6)


def test_distance_to_solution_monotone_when_convex():
    """kappa = 0 proximal iterates never move away from the solution."""
    p = UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=1.0, r=math.inf)
    trace = proximal_solve(p, SolverConfig(lam=0.5), U0)
    dists = [np.linalg.norm(u - SOLUTION) for u in trace.points()]
    for before, after in zip(dists, dists[1:]):
        assert after <= before + 1e-12


def test_subproblem_failure_keeps_partial_trace():
    trace = inertial_proximal_solve(ball_pull(), SolverConfig(lam=0.5, max_inner=1), U0)
    assert trace.status is Status.SUBPROBLEM_FAILED
    assert len(trace.records) == 1
    np.testing.assert_allclose(trace.final_point, U0, atol=0)


def test_fejer_check_passes_on_proximal_run():
    p = ball_pull()
    trace = proximal_solve(p, SolverConfig(lam=0.5), U0)
    rep = fejer_check(trace, SOLUTION, epsilon=p.kappa)
    assert rep.passed
    assert rep.n_pairs == trace.iterations
    assert rep.worst_margin >= 0.0


def test_fejer_check_flags_teleporting_iterate():
    records = [
        TraceRecord(0, np.array([0.0, -1.0]), 0.0, 1.0),
        TraceRecord(1, np.array([-1.0, 0.0]), 1.0, 1.0),
    ]
    rep = fejer_check(Trace(records, Status.CONVERGED), SOLUTION, epsilon=0.5)
    assert not rep.passed
    assert rep.worst_margin < 0.0
    assert rep.worst_index == 0


def test_fejer_check_matches_pairwise_loop():
    p = annulus_pull_inner()
    traces = [
        proximal_solve(ball_pull(), SolverConfig(lam=0.5), U0),
        inertial_proximal_solve(p, SolverConfig(lam=0.5, gamma=0.2), np.array([0.0, 1.5])),
    ]
    for trace, eps in zip(traces, (0.5, p.kappa)):
        rep = fejer_check(trace, SOLUTION, epsilon=eps)
        margins = []
        pts = trace.points()
        for u_n, u_next in zip(pts[:-1], pts[1:]):
            dn = u_n - SOLUTION
            cross = u_next - (1.0 + eps) * u_n + eps * SOLUTION
            rhs = (1.0 + eps) ** 2 * float(dn @ dn) - float(cross @ cross) + 1e-8 * (1.0 + float(dn @ dn))
            margins.append(rhs - float((u_next - SOLUTION) @ (u_next - SOLUTION)))
        i = int(np.argmin(margins))
        assert (rep.passed, rep.worst_index, rep.n_pairs) == (margins[i] >= 0.0, i, len(margins))
        assert rep.worst_margin == pytest.approx(margins[i], rel=0, abs=1e-12)


def test_fejer_check_degenerate_traces():
    single = Trace([TraceRecord(0, U0, 0.0, 1.0)], Status.CONVERGED)
    rep = fejer_check(single, SOLUTION, epsilon=0.5)
    assert rep.passed
    assert rep.n_pairs == 0
    with pytest.raises(EmptyTrace):
        fejer_check(Trace([], Status.CONVERGED), SOLUTION, epsilon=0.5)


def test_polarization_identity():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        u = rng.normal(scale=10.0, size=dim)
        v = rng.normal(scale=10.0, size=dim)
        lhs = 2.0 * float(u @ v)
        rhs = float((u + v) @ (u + v) - u @ u - v @ v)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + u @ u + v @ v)


@pytest.mark.parametrize("solve", [proximal_solve, inertial_proximal_solve, explicit_solve])
def test_missing_gradient_is_reported(solve):
    f = ball_pull().bifunction
    with pytest.raises(MissingGradient):
        p = UREProblem(Bifunction(eval=f.eval, grad_v=None), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
        solve(p, SolverConfig(lam=0.5), U0)


def test_default_step_size():
    lam = default_step_size(ball_pull())
    # T(u) = u - p has unit Lipschitz gradient, so the heuristic gives ~1/4
    assert lam == pytest.approx(0.25, rel=1e-6)
    assert default_step_size(annulus_pull_inner()) > 0.0


_SOLVERS = {
    "proximal": proximal_solve,
    "inertial": inertial_proximal_solve,
    "explicit": explicit_solve,
    "descent": lambda p, cfg, u0: descent_solve(GapModel(p), cfg, u0),
}


@pytest.mark.parametrize("solve", _SOLVERS.values(), ids=_SOLVERS.keys())
def test_infeasible_start_fails_before_sampling(solve):
    """A start outside the set is refused before lambda = auto is resolved:
    sampling a 12-d ball from its bounding box would run out of draws."""
    p = UREProblem(pull_bifunction(np.ones(12)), Ball(np.zeros(12), 1.0), k=1.0, r=1.0)
    with pytest.raises(PointNotInSet, match="u0 is not in the feasible set"):
        solve(p, SolverConfig(), np.full(12, 2.0))
