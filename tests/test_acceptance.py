"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single "PASS criterion NN" line once its assertions hold,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.  Reference
points come from closed forms cross-certified by the grid oracle, never from
the solvers under test.
"""

import math
import time
from dataclasses import replace

import numpy as np

from proxequil import (
    Ball,
    Bifunction,
    Box,
    GridSpec,
    Halfspace,
    SolverConfig,
    Status,
    UREProblem,
    check_necessary_condition,
    check_pseudomonotone,
    descent_solve,
    explicit_solve,
    fejer_check,
    finite_diff_gradient,
    gap_gradient,
    gap_value,
    grid_solve,
    inertial_proximal_solve,
    make_vi_bifunction,
    problem_residual,
    proximal_solve,
    w_map,
)
from problems import (
    annulus_pull_inner,
    ball10_identity,
    ball_pull,
    exterior_boundary_pairs,
    pull_bifunction,
    shipped_sets,
    two_ball_trap,
)

CFG = SolverConfig(lam=0.5)
U0 = np.array([0.0, -1.0])


def _ok(number, text):
    print(f"PASS criterion {number:02d}: {text}")


def test_criterion_01_fejer_inequality():
    start = time.perf_counter()
    p = ball_pull()
    trace = proximal_solve(p, CFG, U0)
    rep = fejer_check(trace, np.array([1.0, 0.0]), epsilon=0.5)
    assert rep.passed
    assert rep.n_pairs == trace.iterations >= 1
    assert rep.worst_margin >= 0.0
    assert time.perf_counter() - start < 5.0
    _ok(1, "Fejer inequality holds at every proximal iteration")


def test_criterion_02_convergence_to_oracle():
    runs = [
        (ball_pull(), U0),
        (annulus_pull_inner(), np.array([0.0, 1.5])),
    ]
    for p, u0 in runs:
        start = time.perf_counter()
        trace = proximal_solve(p, CFG, u0)
        oracle = grid_solve(p, GridSpec(400))
        assert trace.status is Status.CONVERGED
        assert trace.iterations <= 500
        assert trace.records[-1].step_norm <= 1e-6
        assert oracle.certified
        assert np.linalg.norm(trace.final_point - oracle.point) <= 2e-2
        assert time.perf_counter() - start < 10.0
    _ok(2, "proximal runs land within 2e-2 of the 400-cell grid oracle")


def test_criterion_03_zero_inertia_degenerates_byte_for_byte():
    p = ball_pull()
    a = proximal_solve(p, CFG, U0)
    b = inertial_proximal_solve(p, replace(CFG, gamma=0.0), U0)
    assert a.status is b.status
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.iteration == rb.iteration
        assert ra.point.tobytes() == rb.point.tobytes()
        assert np.float64(ra.step_norm).tobytes() == np.float64(rb.step_norm).tobytes()
        assert np.float64(ra.residual).tobytes() == np.float64(rb.residual).tobytes()
    _ok(3, "gamma = 0 inertial trace equals the proximal trace byte for byte")


def test_criterion_04_explicit_matches_reference_loop():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    c = np.array([-1.0, -2.0])
    p = UREProblem(
        make_vi_bifunction(lambda u: A @ u + c),
        Ball(np.zeros(2), 1.0),
        k=1.0,
        r=math.inf,
    )
    cfg = SolverConfig(lam=0.2, max_outer=50, outer_tol=1e-300)
    trace = explicit_solve(p, cfg, U0)

    u = U0.copy()
    reference = [u.copy()]
    for _ in range(50):
        y = u - 0.2 * (A @ u + c)
        norm = np.linalg.norm(y)
        if norm > 1.0:
            y = y / norm
        u = y
        reference.append(u.copy())

    points = trace.points()
    assert len(points) == 51 == len(reference)
    for mine, ref in zip(points, reference):
        assert np.max(np.abs(mine - ref)) <= 1e-14
    _ok(4, "kappa = 0 explicit scheme reproduces a hand-rolled projected gradient loop")


def test_criterion_05_gap_axioms():
    cases = [
        (ball_pull(), np.array([1.0, 0.0])),
        (annulus_pull_inner(), np.array([1.0, 0.0])),
        (ball10_identity(), np.array([0.0, 0.0])),
        (two_ball_trap(), np.array([-1.0, 0.0])),
    ]

    # nonnegative at 1000 sampled feasible points across the four problems
    for i, (p, _) in enumerate(cases):
        for u in p.feasible_set.sample(250, seed=50 + i):
            assert gap_value(p, u, CFG) >= -1e-10

    # zero at each analytic solution, cross-certified by the oracle
    for p, u_star in cases:
        oracle = grid_solve(p, GridSpec(400))
        assert oracle.certified
        assert np.linalg.norm(oracle.point - u_star) <= 1.5 * oracle.spacing
        assert gap_value(p, u_star, CFG) <= 1e-8

    # clearly positive wherever the residual is clearly positive
    checked = 0
    for i, (p, _) in enumerate(cases):
        for u in p.feasible_set.sample(60, seed=70 + i):
            if checked >= 100:
                break
            if problem_residual(p, u) < 1e-2:
                continue
            assert gap_value(p, u, CFG) >= 1e-4
            checked += 1
    assert checked >= 100
    _ok(5, "gap is nonnegative, zero at certified solutions, large off them")


def test_criterion_06_gap_gradient_against_finite_differences():
    start = time.perf_counter()
    g = ball10_identity()
    rng = np.random.default_rng(61)
    for _ in range(100):
        u = rng.normal(size=2)
        u = u / np.linalg.norm(u) * rng.uniform(1.0, 8.0)
        fd = finite_diff_gradient(lambda x: gap_value(g, x, CFG), u)
        an = gap_gradient(g, u, CFG)
        assert np.linalg.norm(an - fd) <= 1e-4 * np.linalg.norm(fd)
    assert time.perf_counter() - start < 10.0
    _ok(6, "gap gradient matches central finite differences to 1e-4 relative")


def test_criterion_07_descent_direction_sign():
    instances = [
        (ball_pull(), [U0, np.array([-0.6, 0.3])]),
        (ball10_identity(), [np.array([0.5, 0.0]), np.array([3.0, -4.0])]),
    ]
    for p, starts in instances:
        assert check_necessary_condition(p, 200, 0).passed
        for u0 in starts:
            trace = descent_solve(p, CFG, u0)
            gaps = [r.extras["gap"] for r in trace.records]
            for before, after in zip(gaps, gaps[1:]):
                assert after <= before
            for rec in trace.records:
                if rec.residual <= 1e-8:
                    continue
                u = rec.point
                d = w_map(p, u, CFG) - u
                assert abs(np.linalg.norm(d) - rec.residual) <= 1e-9
                assert float(gap_gradient(p, u, CFG) @ d) < 0.0
    _ok(7, "descent direction has negative slope and gaps never increase")


def test_criterion_08_descent_convergence():
    p = ball_pull()
    trace = descent_solve(p, CFG, U0)
    assert trace.status is Status.CONVERGED
    assert problem_residual(p, trace.final_point) <= 1e-6
    oracle = grid_solve(p, GridSpec(400))
    assert np.linalg.norm(trace.final_point - oracle.point) <= 2e-2
    _ok(8, "descent run ends residual-small and agrees with the oracle")


def test_criterion_09_geometry_certificates():
    for k, s in enumerate(shipped_sets()):
        # 100 boundary points with genuine unit proximal normals
        for u, w in exterior_boundary_pairs(s, 100, seed=90 + k):
            assert s.proximal_normal_check(u, w, n_samples=2000, seed=k).passed

        rng = np.random.default_rng(190 + k)
        lo, hi = s.bounding_box
        span = hi - lo
        xs = lo - 0.5 * span + rng.random((200, s.dim)) * 2.0 * span
        for x in xs:
            p1 = s.project(x)
            assert np.max(np.abs(s.project(p1) - p1)) <= 1e-12
        if isinstance(s, (Box, Ball, Halfspace)):
            ys = lo - 0.5 * span + rng.random((1000, s.dim)) * 2.0 * span
            zs = lo - 0.5 * span + rng.random((1000, s.dim)) * 2.0 * span
            for y, z in zip(ys, zs):
                py = s.project(y)
                pz = s.project(z)
                assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-12
    _ok(9, "prox-normal certificates, idempotence, and nonexpansiveness hold")


def test_criterion_10_polarization_identity():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        u = rng.normal(scale=10.0, size=dim)
        v = rng.normal(scale=10.0, size=dim)
        lhs = 2.0 * float(u @ v)
        rhs = float((u + v) @ (u + v) - u @ u - v @ v)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + u @ u + v @ v)
    _ok(10, "polarization identity holds for 1000 random pairs")


def test_criterion_11_pseudomonotonicity():
    box = Box(-np.ones(2), np.ones(2))
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    monotone = make_vi_bifunction(lambda u: u @ A.T)
    rep = check_pseudomonotone(monotone, box, 0.0, n_pairs=10000)
    assert rep.passed
    assert rep.n_counterexamples == 0

    flip = Bifunction(
        eval=lambda u, v: float(-u @ (v - u)),
        grad_v=lambda u, v: -u,
    )
    rep = check_pseudomonotone(flip, box, 0.0, n_pairs=10000)
    assert not rep.passed
    assert rep.n_counterexamples >= 1
    _ok(11, "monotone affine VI is pseudomonotone, the sign flip is not")
