"""Iteration schemes: subproblem, proximal, inertial, explicit, Fejér check."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proxequil import (
    Annulus,
    Ball,
    Bifunction,
    BoxMinusBall,
    ConstraintSet,
    MissingGradient,
    EmptyTrace,
    Halfspace,
    PointNotInSet,
    SolverConfig,
    Status,
    SubproblemFailed,
    Trace,
    TraceRecord,
    TwoBallUnion,
    UREProblem,
    ValidationError,
    check_necessary_condition,
    default_step_size,
    descent_solve,
    explicit_solve,
    fejer_check,
    gap_value,
    inertial_proximal_solve,
    make_vi_bifunction,
    parse_config,
    problem_residual,
    proximal_solve,
    solve_subproblem,
    verify_subproblem_inequality,
    w_map,
)
from proxequil.schemes import _base_point
from problems import (
    annulus_pull_inner,
    annulus_pull_outer,
    ball_pull,
    pull_bifunction,
    two_ball_trap,
)

U0 = np.array([0.0, -1.0])
SOLUTION = np.array([1.0, 0.0])


def test_subproblem_fixed_at_solution():
    cfg = SolverConfig(lam=0.5, gamma=0.2)
    np.testing.assert_allclose(_base_point(ball_pull(), SOLUTION, SOLUTION, cfg)[1], SOLUTION, atol=0)
    w = solve_subproblem(ball_pull(), SOLUTION, SOLUTION, cfg)
    np.testing.assert_allclose(w, SOLUTION, atol=1e-10)


def test_subproblem_needs_a_step_size():
    """lam = None is SolverConfig's request for the default step; the
    implicit step itself has no default and says so."""
    for check in (
        lambda cfg: solve_subproblem(ball_pull(), U0, U0, cfg),
        lambda cfg: verify_subproblem_inequality(ball_pull(), U0, U0, U0, cfg),
    ):
        with pytest.raises(ValueError, match="cfg.lam is None"):
            check(SolverConfig())


def test_subproblem_frozen_value():
    """Interior fixed point on the annulus, solvable by hand.

    z = u_n - (gamma/(1+kappa))(u_n - u_prev) = (1.48666..., 0) and the
    update w <- z - (lam/(1+kappa))(w - 2) has fixed point (3z + 2)/4.
    """
    p = annulus_pull_outer()
    step = (p, np.array([1.5, 0.0]), np.array([1.4, 0.0]))
    cfg = SolverConfig(lam=0.5, gamma=0.2)
    z_expected = 1.5 - (0.2 / 1.5) * 0.1
    np.testing.assert_allclose(_base_point(*step, cfg)[1], [z_expected, 0.0], atol=1e-15)
    w = solve_subproblem(*step, cfg)
    np.testing.assert_allclose(w, [(3.0 * z_expected + 2.0) / 4.0, 0.0], atol=5e-12)
    np.testing.assert_allclose(w, [1.615, 0.0], atol=5e-12)

    chk = verify_subproblem_inequality(*step, w, cfg)
    assert chk.passed
    assert chk.worst_violation <= 1e-8
    assert chk.n_samples == 10000


def _audit_steps():
    """A proximal step on the ball and an inertial step from the annulus's
    inner rim. The audit passes both; the annulus step needs the
    kappa ||v - w||^2 term at points across the hole (the set is not
    convex)."""
    ball = (ball_pull(), U0, U0, SolverConfig(lam=0.5, gamma=0.0))
    annulus = (annulus_pull_inner(), np.array([0.0, 1.0]), np.array([0.0, 1.2]), SolverConfig(lam=0.5, gamma=0.2))
    return [(step, solve_subproblem(*step)) for step in (ball, annulus)]


@pytest.mark.parametrize("step", [0, 1], ids=["ball_proximal", "annulus_inertial"])
def test_verify_matches_scalar_loop(step):
    (p, u_n, u_prev, cfg), w = _audit_steps()[step]
    chk = verify_subproblem_inequality(p, u_n, u_prev, w, replace(cfg, seed=4))
    f, z = p.bifunction, u_n - (cfg.gamma / (1.0 + p.kappa)) * (u_n - u_prev)

    def value(v):
        return cfg.lam * f(w, v) + (1.0 + p.kappa) * float((w - z) @ (v - w)) + p.kappa * float((v - w) @ (v - w))

    worst, worst_v = -np.inf, w
    for v in p.feasible_set.sample(10000, 4):
        val = value(v)
        if -val > worst:
            worst, worst_v = -val, v
    assert chk.passed == (worst <= 1e-8)
    assert chk.worst_violation == pytest.approx(worst, rel=0, abs=1e-12)
    v = chk.worst_point
    at_v = value(v)
    assert -at_v == pytest.approx(worst, rel=0, abs=1e-12)
    if worst > 1e-12:
        # at rounding level the least value is a near-tie between the two
        # summation orders, so only a clear worst point is compared by bits
        np.testing.assert_array_equal(v, worst_v)
    assert chk.n_samples == 10000


def _step_and_start_cases():
    """(step, w) for the two audit steps and a proximal step of the two-ball
    trap: each step's fixed point, then u_n itself, which is not the step."""
    trap = (two_ball_trap(), np.array([2.5, 0.0]), np.array([2.5, 0.0]), SolverConfig(lam=0.5, gamma=0.0))
    steps = [step for step, _ in _audit_steps()] + [trap]
    return [(step, w) for step in steps for w in (solve_subproblem(*step), step[1])]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_verify_fails_at_a_point_that_is_not_the_step(seed):
    for (p, u_n, u_prev, cfg), w in _step_and_start_cases():
        chk = verify_subproblem_inequality(p, u_n, u_prev, w, replace(cfg, seed=seed))
        at_start = w is u_n
        assert chk.passed is not at_start
        assert (chk.worst_violation > 1e-3) is at_start


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_verify_sampled_minimum_is_never_below_the_exact_one(seed):
    # For a VI with kappa > 0 the audited expression is <c, v - w> +
    # kappa ||v - w||^2 with c = lam T(w) + (1 + kappa)(w - z), that is
    # kappa (||v - y||^2 - ||y - w||^2) with y = w - c / (2 kappa); its
    # minimum over the set takes one projection of y.
    for (p, u_n, u_prev, cfg), w in _step_and_start_cases():
        kappa = p.kappa
        assert kappa > 0
        _, z = _base_point(p, u_n, u_prev, cfg)
        y = w - (cfg.lam * p.bifunction.vi_operator(w) + (1.0 + kappa) * (w - z)) / (2.0 * kappa)
        near = p.feasible_set.project(y)
        exact = kappa * (float((y - near) @ (y - near)) - float((y - w) @ (y - w)))
        chk = verify_subproblem_inequality(p, u_n, u_prev, w, replace(cfg, seed=seed))
        assert -chk.worst_violation >= exact - 1e-12
        assert -chk.worst_violation - exact < 1e-2
        # the step satisfies the inequality exactly; u_n does not
        if w is u_n:
            assert exact < -1e-3
        else:
            assert exact >= -1e-12


def test_verify_makes_no_per_sample_calls(monkeypatch):
    calls = []
    plain_call = Bifunction.__call__

    def counted(self, u, v):
        calls.append(1)
        return plain_call(self, u, v)

    monkeypatch.setattr(Bifunction, "__call__", counted)
    for (p, u_n, u_prev, cfg), w in _audit_steps():
        verify_subproblem_inequality(p, u_n, u_prev, w, cfg)
    assert calls == []


def test_verify_draws_once_per_set_and_seed(monkeypatch):
    (p, u_n, u_prev, cfg), w = _audit_steps()[1]
    s = p.feasible_set
    draws = []
    plain_sample = type(s).sample

    def counted(self, n, seed):
        draws.append((n, seed))
        return plain_sample(self, n, seed)

    monkeypatch.setattr(type(s), "sample", counted)
    first = verify_subproblem_inequality(p, u_n, u_prev, w, replace(cfg, seed=6))
    again = verify_subproblem_inequality(p, u_n, u_prev, w, replace(cfg, seed=6))
    assert draws == [(10000, 6)]
    assert (again.passed, again.worst_violation) == (first.passed, first.worst_violation)
    np.testing.assert_array_equal(again.worst_point, first.worst_point)
    verify_subproblem_inequality(p, u_n, u_prev, w, replace(cfg, seed=7))
    assert draws == [(10000, 6), (10000, 7)]


def test_subproblem_kappa_zero_gamma_zero():
    """With r = inf and no inertia the update is w <- P[u_n - lam*T(w)]."""
    p = UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=1.0, r=math.inf)
    w = solve_subproblem(p, np.zeros(2), np.zeros(2), SolverConfig(lam=0.5, gamma=0.0))
    # w = -0.5*(w - 2) solves to w = 2/3, interior so the projection is inert
    np.testing.assert_allclose(w, [2.0 / 3.0, 0.0], atol=1e-11)


def test_subproblem_budget_exhaustion():
    with pytest.raises(SubproblemFailed, match="no fixed point to 1e-12 within 1 sweeps"):
        solve_subproblem(ball_pull(), U0, U0, SolverConfig(lam=0.5, gamma=0.0, max_inner=1))


def _picard(p, u_n, u_prev, cfg):
    """The implicit step as a plain fixed-point loop: the point and its sweeps."""
    z = u_n - (cfg.gamma / (1.0 + p.kappa)) * (u_n - u_prev)
    scale = cfg.lam / (1.0 + p.kappa)
    w = u_n
    for sweeps in range(1, cfg.max_inner + 1):
        w_new = p.feasible_set.project(z - scale * p.bifunction.grad_v(w, w))
        if np.linalg.norm(w_new - w) <= cfg.inner_tol:
            return w_new, sweeps
        w = w_new
    raise SubproblemFailed("the plain loop did not stop")


def _sets(d):
    e = np.eye(d)[0]
    return {
        "ball": Ball(np.zeros(d), 1.0),
        "annulus": Annulus(np.zeros(d), 1.0, 2.0),
        "box_minus_ball": BoxMinusBall(np.full(d, -2.0), np.full(d, 2.0), np.zeros(d), 1.0),
        "two_ball": TwoBallUnion(-2.0 * e, 1.0, 2.0 * e, 1.0),
    }


def _affine_step(kind, d, seed):
    """A seeded inertial step of T(u) = (I + S)(u - t) with S skew, t a
    seeded target and u_n, u_prev projections of seeded points."""
    rng = np.random.default_rng(seed)
    s = _sets(d)[kind]
    B = rng.normal(scale=0.5, size=(d, d))
    A, t = np.eye(d) + (B - B.T), rng.normal(scale=3.0, size=d)
    p = UREProblem(make_vi_bifunction(lambda u: (u - t) @ A.T), s, k=1.0, r=1.0)
    u_n, u_prev = s.project(rng.normal(size=d)), s.project(rng.normal(size=d))
    return p, u_n, u_prev, SolverConfig(lam=0.5, gamma=0.3)


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("kind", ["ball", "annulus", "box_minus_ball", "two_ball"])
def test_mixed_step_matches_the_plain_loop(monkeypatch, kind, d):
    """Anderson mixing reaches the plain loop's fixed point in no more
    sweeps, and returns its last projection, a point of the set. A step on
    which the plain loop runs out of sweeps (it flips across the hole or the
    gap) has no point to compare with; at least 3 of the 5 seeded steps must
    have one."""
    compared = 0
    for seed in range(5):
        p, u_n, u_prev, cfg = _affine_step(kind, d, seed)
        try:
            expected, plain_sweeps = _picard(p, u_n, u_prev, cfg)
        except SubproblemFailed:
            continue
        compared += 1
        project, sweeps = ConstraintSet.project, []
        with monkeypatch.context() as m:
            m.setattr(ConstraintSet, "project", lambda s, x: sweeps.append(project(s, x)) or sweeps[-1])
            w = solve_subproblem(p, u_n, u_prev, cfg)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-9)
        assert len(sweeps) <= plain_sweeps
        assert w.tobytes() == sweeps[-1].tobytes()
        assert p.feasible_set.member(w, "w").tobytes() == w.tobytes()
    assert compared >= 3


def test_step_that_flips_between_the_balls_fails(monkeypatch):
    """Each sweep sends w to the other ball, so the change never drops and
    every sweep restarts with the plain step: (1, 0), (-2, 0), (3, 0),
    (-3, 0), (3, 0), ... until the budget is spent."""
    s = TwoBallUnion(np.array([-2.0, 0.0]), 1.0, np.array([2.0, 0.0]), 1.0)
    p = UREProblem(make_vi_bifunction(lambda u: 3.0 * u), s, k=1.0, r=1.0)
    project, seen = ConstraintSet.project, []
    monkeypatch.setattr(ConstraintSet, "project", lambda s, x: seen.append(project(s, x)) or seen[-1])
    u_n = np.array([1.0, 0.0])
    with pytest.raises(SubproblemFailed, match="no fixed point to 1e-12 within 6 sweeps"):
        solve_subproblem(p, u_n, u_n, SolverConfig(lam=1.5, gamma=0.0, max_inner=6))
    np.testing.assert_array_equal(np.array(seen)[:, 0], [-2.0, 3.0, -3.0, 3.0, -3.0, 3.0])


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
            assert p.feasible_set.distance(u) <= 1e-8
    trace = inertial_proximal_solve(p, cfg, u0)
    for u in trace.points():
        assert p.feasible_set.distance(u) <= 1e-8


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
    b = inertial_proximal_solve(p, replace(cfg, gamma=0.0), U0)
    assert a.status is b.status
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.iteration == rb.iteration
        assert ra.step_norm == rb.step_norm
        assert ra.residual == rb.residual
        assert ra.point.tobytes() == rb.point.tobytes()


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


def test_fejer_check_rejects_a_non_finite_or_negative_epsilon():
    """epsilon = nan or inf used to give a NaN worst margin, not an error."""
    trace = proximal_solve(ball_pull(), SolverConfig(lam=0.5), U0)
    for bad in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValueError, match=f"^epsilon must be finite and nonnegative; got {bad!r}$"):
            fejer_check(trace, SOLUTION, epsilon=bad)


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


def _step_size_loop(problem, seed):
    """The per-pair estimate that default_step_size batches."""
    f = problem.bifunction
    L = 0.0
    for x, y in zip(problem.feasible_set.sample(100, seed), problem.feasible_set.sample(100, seed + 1)):
        gap = np.linalg.norm(x - y)
        if gap > 1e-12:
            L = max(L, np.linalg.norm(f.grad_v(x, x) - f.grad_v(y, y)) / gap)
    return 0.5 / (1.0 + L)


@pytest.mark.parametrize("d", [2, 3, 8, 12])
def test_default_step_size_matches_the_per_pair_loop(d):
    """Two grad_v_rows calls and row norms give the loop's estimate to a few
    ulps, for a skew VI and for a bifunction without a VI operator, on a
    directly sampled set and on one sampled by rejection."""
    rng = np.random.default_rng(d)
    A = np.eye(d) + 0.5 * rng.standard_normal((d, d))
    vi = make_vi_bifunction(lambda u: u @ A.T)
    generic = Bifunction(eval=vi.eval, grad_v=lambda u, v: A @ u + 0.5 * (v - u))
    sets = [Ball(np.zeros(d), 2.0), BoxMinusBall(-np.ones(d), np.ones(d), np.zeros(d), 0.5)]
    for f in (vi, generic):
        for s in sets:
            p = UREProblem(f, s, k=1.0, r=0.5)
            for seed in (0, 7):
                assert default_step_size(p, seed) == pytest.approx(_step_size_loop(p, seed), rel=1e-14, abs=0)


_SOLVERS = {
    "proximal": proximal_solve,
    "inertial": inertial_proximal_solve,
    "explicit": explicit_solve,
    "descent": descent_solve,
}


@pytest.mark.parametrize("solve", _SOLVERS.values(), ids=_SOLVERS.keys())
def test_infeasible_start_fails_before_sampling(solve):
    """A start outside the set is refused before lambda = auto is resolved:
    sampling this halfspace, which meets its window in a 1e-4 share, would
    run out of draws."""
    s = Halfspace(np.array([1.0, 0.0]), -0.9998, -np.ones(2), np.ones(2))
    p = UREProblem(pull_bifunction(np.ones(2)), s, k=1.0, r=1.0)
    with pytest.raises(PointNotInSet, match="u0 is not in the feasible set"):
        solve(p, SolverConfig(), np.full(2, 2.0))


_OUTSIDE = np.array([5.0, 5.0])
_STEP = SolverConfig(lam=0.5, gamma=0.0)


def _parse_outside_start(tmp_path):
    text = (Path(__file__).resolve().parent.parent / "configs" / "ball_proximal.cfg").read_text(encoding="utf-8")
    path = tmp_path / "run.cfg"
    path.write_text(text.replace("start = 0.0, -1.0", "start = 0.0, -3.0"), encoding="utf-8")
    return parse_config(str(path))


# (id, call on the unit-ball problem ball_pull() and tmp_path, error type,
# the name its message gives the point)
_MEMBERSHIP_ENTRY_POINTS = [
    ("problem_residual", lambda p, tmp: problem_residual(p, _OUTSIDE), PointNotInSet, "u"),
    ("w_map", lambda p, tmp: w_map(p, _OUTSIDE, SolverConfig()), PointNotInSet, "u"),
    ("gap_value", lambda p, tmp: gap_value(p, _OUTSIDE, SolverConfig()), PointNotInSet, "u"),
    *[(name, lambda p, tmp, solve=solve: solve(p, SolverConfig(), _OUTSIDE), PointNotInSet, "u0")
      for name, solve in _SOLVERS.items()],
    ("solve_subproblem-u_n", lambda p, tmp: solve_subproblem(p, _OUTSIDE, U0, _STEP), PointNotInSet, "u_n"),
    ("solve_subproblem-u_prev", lambda p, tmp: solve_subproblem(p, U0, _OUTSIDE, _STEP), PointNotInSet, "u_prev"),
    ("verify-u_n", lambda p, tmp: verify_subproblem_inequality(p, _OUTSIDE, U0, U0, _STEP), PointNotInSet, "u_n"),
    ("verify-u_prev", lambda p, tmp: verify_subproblem_inequality(p, U0, _OUTSIDE, U0, _STEP), PointNotInSet, "u_prev"),
    ("proximal_normal_check",
     lambda p, tmp: p.feasible_set.proximal_normal_check(_OUTSIDE, np.array([1.0, 0.0])), PointNotInSet, "u"),
    ("parse_config", lambda p, tmp: _parse_outside_start(tmp), ValidationError, "problem.start"),
]


@pytest.mark.parametrize(
    "call, error, name", [c[1:] for c in _MEMBERSHIP_ENTRY_POINTS], ids=[c[0] for c in _MEMBERSHIP_ENTRY_POINTS]
)
def test_point_outside_the_set_has_one_message(tmp_path, call, error, name):
    with pytest.raises(error) as err:
        call(ball_pull(), tmp_path)
    assert str(err.value) == f"{name} is not in the feasible set"


def _generic_twin(p):
    """p without its VI operator, so the residual samples its starts."""
    return UREProblem(Bifunction(eval=p.bifunction.eval, grad_v=p.bifunction.grad_v), p.feasible_set, k=p.k, r=p.r)


# the entry points that sample the set with a seed they are given
_SEEDED_ENTRY_POINTS = {
    "default_step_size": lambda p, seed: default_step_size(p, seed),
    "check_necessary_condition": lambda p, seed: check_necessary_condition(p, 10, seed),
    "proximal_normal_check":
        lambda p, seed: p.feasible_set.proximal_normal_check(SOLUTION, np.array([1.0, 0.0]), seed=seed),
    "problem_residual": lambda p, seed: problem_residual(_generic_twin(p), SOLUTION, seed=seed),
}


@pytest.mark.parametrize("call", _SEEDED_ENTRY_POINTS.values(), ids=_SEEDED_ENTRY_POINTS.keys())
def test_bad_seed_has_the_solver_config_message(call):
    # seed 1 first: the residual's cached draw of seed 1 must not serve True
    p = ball_pull()
    call(p, 1)
    for seed, phrase in ((1.5, "must be an integer"), (True, "must be an integer"), (-1, "must be nonnegative")):
        with pytest.raises(ValueError) as err:
            call(p, seed)
        assert str(err.value) == f"seed {phrase}; got {seed!r}"
