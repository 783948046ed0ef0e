"""Outer iterations: the implicit (proximal) step with optional inertia, the
explicit projected step, and the Fejer-type distance diagnostic.

All four schemes, these three and the gap descent of ``gap``, run one outer
loop in ``_iterate``: measure the iterate, then step, u_{n+1} = advance(n,
u_n, u_{n-1}). A scheme supplies only the measure (the residual written to
its trace record, extras such as the gap, and whether the iterate is done)
and the step. The fixed-point schemes measure the natural residual and
differ only in the step. With kappa = k/(2r) and an extrapolated base point

    z = u_n - (gamma / (1 + kappa)) (u_n - u_prev),

the implicit step computes the fixed point of

    w = P[z - (lam/(1+kappa)) grad_v F(w, w)],

found by sweeps of that map with depth-1 Anderson mixing, and stopped when
one sweep changes w by at most inner_tol. The fixed point w = P(x), with
x = z - (lam/(1+kappa)) grad_v F(w, w), solves the auxiliary inequality

    lam F(w, v) + (1 + kappa) <w - z, v - w> + kappa ||v - w||^2  >=  0

for all v in the set. On a convex set it holds without the last term. On a
nonconvex r-prox-regular set x - w is a proximal normal, not a normal, so
<x - w, v - w> is bounded by ||x - w|| ||v - w||^2 / (2r), not by 0; the
problem's own kappa ||v - w||^2 covers that while (1 + kappa) ||x - w|| <= k.
The sampled audit verify_subproblem_inequality checks this inequality.

The explicit scheme freezes the gradient at the current iterate instead,
u_{n+1} = P[u_n - lam grad_v F(u_n, u_n)], and involves no kappa at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import EmptyTrace, SubproblemFailed
from .geometry import Array, _by_rows, _cached_sample, _norm, _row_norms, as_vector
from .model import SolverConfig, Status, Trace, TraceRecord, UREProblem


def _base_point(problem: UREProblem, u_n, u_prev, cfg: SolverConfig) -> tuple[Array, Array]:
    """u_n, checked, and the implicit step's base point
    z = u_n - (gamma/(1+kappa)) (u_n - u_prev), with gamma from cfg."""
    if cfg.lam is None:
        raise ValueError("the implicit step needs a step size: cfg.lam is None")
    s = problem.feasible_set
    u_n, u_prev = s.member(u_n, "u_n"), s.member(u_prev, "u_prev")
    return u_n, u_n - (cfg.gamma / (1.0 + problem.kappa)) * (u_n - u_prev)


def solve_subproblem(problem: UREProblem, u_n, u_prev, cfg: SolverConfig) -> Array:
    """Fixed point of g(w) = P[z - (lam/(1+kappa)) grad_v F(w, w)] from
    w = u_n, with lam and gamma from cfg, by depth-1 Anderson mixing.

    Each sweep takes g = g(w) and its change r = g - w. When ||r|| <=
    cfg.inner_tol it returns g, a projection onto the set. When ||r|| is
    below the last sweep's, the next point mixes in that sweep,
    w = g - (<r, dr> / ||dr||^2)(g - g_prev) with dr = r - r_prev (Walker and
    Ni, SIAM J. Numer. Anal. 49, 2011); otherwise it is g. The mixed point
    may lie outside the set, and grad_v is evaluated there. Raises
    SubproblemFailed when cfg.max_inner sweeps do not stop.
    """
    w, z = _base_point(problem, u_n, u_prev, cfg)
    f = problem.bifunction
    project = problem.feasible_set.project
    scale = cfg.lam / (1.0 + problem.kappa)
    g_prev = r_prev = None
    r_prev_norm = 0.0  # no history: no change is below 0
    for _ in range(cfg.max_inner):
        g = project(z - scale * f.grad_v(w, w))
        r = g - w
        r_norm = _norm(r)
        if r_norm <= cfg.inner_tol:
            return g
        w = g
        if r_norm < r_prev_norm:
            dr = r - r_prev
            dr_sq = float(dr.dot(dr))
            if dr_sq > 0.0:
                w = g - (float(r.dot(dr)) / dr_sq) * (g - g_prev)
        g_prev, r_prev, r_prev_norm = g, r, r_norm
    raise SubproblemFailed(
        f"no fixed point to {cfg.inner_tol:g} within {cfg.max_inner} sweeps"
    )


@dataclass(frozen=True)
class SubproblemCheck:
    passed: bool
    worst_violation: float
    worst_point: Array
    n_samples: int


def verify_subproblem_inequality(problem: UREProblem, u_n, u_prev, w, cfg: SolverConfig) -> SubproblemCheck:
    """Sampled audit of the auxiliary inequality at w, the step from u_n with
    lam and gamma from cfg.

    Checks lam F(w, v) + (1+kappa) <w - z, v - w> + kappa ||v - w||^2 >=
    -1e-8 at the 10^4 feasible v of sample(10000, cfg.seed), with F in one
    Bifunction.eval_rows call and no projection, so the audit does not
    repeat the step it checks; the worst point is the first row of least
    value.
    """
    _, z = _base_point(problem, u_n, u_prev, cfg)
    w = as_vector(w, problem.dim, "w")
    V = _cached_sample(problem.feasible_set, 10000, cfg.seed)
    D = _by_rows(np.subtract, V, w)
    shift = (1.0 + problem.kappa) * (w - z)
    vals = cfg.lam * problem.bifunction.eval_rows(w, V) + D @ shift + problem.kappa * _row_norms(D) ** 2
    i = int(np.argmin(vals))
    worst = float(-vals[i])
    return SubproblemCheck(worst <= 1e-8, worst, V[i], V.shape[0])


def default_step_size(problem: UREProblem, seed: int = 0) -> float:
    """0.5 / (1 + L) with L a Lipschitz estimate of grad_v F: the largest
    ratio ||grad_v F(x, x) - grad_v F(y, y)|| / ||x - y|| over the 100 pairs
    of rows of sample(100, seed) and sample(100, seed + 1), skipping pairs
    closer than 1e-12. Each side's gradients are one Bifunction.grad_v_rows
    call, and the gaps and slopes are row norms.
    """
    f = problem.bifunction
    X = problem.feasible_set.sample(100, seed)
    Y = problem.feasible_set.sample(100, seed + 1)
    gaps = _row_norms(X - Y)
    apart = gaps > 1e-12
    slopes = _row_norms(f.grad_v_rows(X, X) - f.grad_v_rows(Y, Y))[apart] / gaps[apart]
    return 0.5 / (1.0 + float(slopes.max(initial=0.0)))


def _explicit_step(problem: UREProblem, u: Array, lam: float) -> Array:
    """The explicit step P[u - lam grad_v F(u, u)] from u."""
    return problem.feasible_set.project(u - lam * problem.bifunction.grad_v(u, u))


def _resolve_lam(problem: UREProblem, cfg: SolverConfig) -> float:
    return cfg.lam if cfg.lam is not None else default_step_size(problem, cfg.seed)


_Measure = Callable[[Array], tuple[float, dict[str, float], bool]]


def _iterate(cfg: SolverConfig, u0: Array, measure: _Measure, advance: Callable[[int, Array, Array], Array]) -> Trace:
    """The outer loop of every scheme: u_{n+1} = advance(n, u_n, u_{n-1}),
    with u_{-1} = u_0.

    measure(u) gives each record its residual and extras and says whether u
    is done. The run converges when the measure says so or when the step
    norm falls below cfg.outer_tol, and stops with MAX_ITERATIONS after
    cfg.max_outer steps. A subproblem failure ends the run early with the
    partial trace and status SUBPROBLEM_FAILED.
    """
    residual, extras, done = measure(u0)
    records = [TraceRecord(0, u0, 0.0, residual, extras)]
    u_prev = u_n = u0
    for n in range(cfg.max_outer):
        if done:
            return Trace(records, Status.CONVERGED)
        try:
            u_next = advance(n, u_n, u_prev)
        except SubproblemFailed:
            return Trace(records, Status.SUBPROBLEM_FAILED)
        step = _norm(u_next - u_n)
        residual, extras, done = measure(u_next)
        records.append(TraceRecord(n + 1, u_next, step, residual, extras))
        done = done or step < cfg.outer_tol
        u_prev, u_n = u_n, u_next
    return Trace(records, Status.CONVERGED if done else Status.MAX_ITERATIONS)


def _residual_measure(problem: UREProblem, lam: float) -> _Measure:
    """The implicit schemes' measure: the natural residual
    ||u - P[u - lam grad_v F(u, u)]||, never done."""
    return lambda u: (_norm(u - _explicit_step(problem, u, lam)), {}, False)


def inertial_proximal_solve(problem: UREProblem, cfg: SolverConfig, u0) -> Trace:
    """Implicit scheme with inertial extrapolation gamma (u_n - u_{n-1}),
    gamma = cfg.gamma."""
    u0 = problem.feasible_set.member(u0, "u0")
    cfg = replace(cfg, lam=_resolve_lam(problem, cfg))

    def advance(n: int, u_n: Array, u_prev: Array) -> Array:
        return solve_subproblem(problem, u_n, u_prev, cfg)

    return _iterate(cfg, u0, _residual_measure(problem, cfg.lam), advance)


def proximal_solve(problem: UREProblem, cfg: SolverConfig, u0) -> Trace:
    """Implicit scheme without inertia: the inertial scheme at gamma = 0, so
    a zero-gamma inertial run reproduces this trace bitwise."""
    return inertial_proximal_solve(problem, replace(cfg, gamma=0.0), u0)


def explicit_solve(problem: UREProblem, cfg: SolverConfig, u0) -> Trace:
    """Explicit scheme u_{n+1} = P[u_n - lam grad_v F(u_n, u_n)]."""
    u0 = problem.feasible_set.member(u0, "u0")
    lam = _resolve_lam(problem, cfg)
    moved = None  # the explicit step from the iterate measured last

    def measure(u: Array) -> tuple[float, dict[str, float], bool]:
        nonlocal moved
        moved = _explicit_step(problem, u, lam)
        return _norm(u - moved), {}, False

    def advance(n: int, u_n: Array, u_prev: Array) -> Array:
        return moved

    return _iterate(cfg, u0, measure, advance)


@dataclass(frozen=True, eq=False)
class FejerReport:
    passed: bool
    worst_margin: float
    worst_index: int
    n_pairs: int


def fejer_check(trace: Trace, u_star, epsilon: float) -> FejerReport:
    """Per-step distance inequality against a known solution u_star.

    For every consecutive pair checks, with e = epsilon,

        ||u_{n+1} - u*||^2 <= (1+e)^2 ||u_n - u*||^2
                              - ||u_{n+1} - (1+e) u_n + e u*||^2 + slack,

    slack = 1e-8 (1 + ||u_n - u*||^2). Reports the worst margin (right side
    minus left side; negative means violated) and where it occurred.
    """
    if not trace.records:
        raise EmptyTrace("trace has no records")
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative; got {epsilon!r}")
    P = trace.points()
    u_star = as_vector(u_star, P.shape[1], "u_star")
    if len(P) < 2:
        return FejerReport(True, float("inf"), -1, 0)
    d = P - u_star
    cross = P[1:] - (1.0 + epsilon) * P[:-1] + epsilon * u_star
    sq, cc = np.einsum("ij,ij->i", d, d), np.einsum("ij,ij->i", cross, cross)
    margin = (1.0 + epsilon) ** 2 * sq[:-1] - cc + 1e-8 * (1.0 + sq[:-1]) - sq[1:]
    i = int(np.argmin(margin))
    return FejerReport(bool(margin[i] >= 0.0), float(margin[i]), i, len(P) - 1)
