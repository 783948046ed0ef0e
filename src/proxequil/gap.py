"""Merit-function machinery: a regularized best-response map turns the
equilibrium problem into the minimization of a nonnegative gap.

With the weight alpha > 0 of SolverConfig (default k/r) the gap at a feasible u is

    gap(u) = -( F(u, w) + (alpha/2) ||w - u||^2 ),
    w = argmin_v F(u, v) + (alpha/2) ||v - u||^2,

which is nonnegative because v = u is admissible and scores F(u, u) = 0, and
is zero exactly at problem solutions when alpha = k/r (the inner objective is
then F(u, v) + kappa ||v - u||^2, the left side of the defining inequality,
so the gap coincides with problem_residual wherever the residual is
positive). The inner minimum is model._best_response with the one weight
c = alpha / 2, as the residual's is with c = kappa. For a VI bifunction
F(u, v) = <T(u), v - u>, w is the nearest point P(u - T(u) / alpha):
Fukushima's regularized gap, exact on nonconvex sets too. The descent method
follows d = w - u with an exact line search on [0, 1], projecting every probe
and iterate onto the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingGradient
from .geometry import Array, _is_integer, _norm, as_vector
from .model import SolverConfig, Trace, UREProblem, _best_response
from .schemes import _iterate


def _alpha(problem: UREProblem, cfg: SolverConfig) -> float:
    """The gap weight: cfg.alpha, else k/r, or k for a problem posed with
    r = inf, where k/r is no weight at all and any positive one gives a
    valid gap."""
    if cfg.alpha is not None:
        return float(cfg.alpha)
    return float(problem.k if math.isinf(problem.r) else problem.k / problem.r)


def _w_and_gap(problem: UREProblem, u: Array, cfg: SolverConfig) -> tuple[Array, float]:
    w, m = _best_response(problem, u, 0.5 * _alpha(problem, cfg), cfg.seed, cfg.inner_tol, cfg.max_inner)
    return w, -m + 0.0


def w_map(problem: UREProblem, u, cfg: SolverConfig) -> Array:
    """Best response: the minimizer over the set of F(u, .) + (alpha/2) ||. - u||^2,
    with alpha from cfg.

    For a VI bifunction this is the nearest point P(u - T(u) / alpha), exact
    and global. Otherwise it is projected gradient descent from u plus 8
    seeded feasible starts, keeping the best converged result. Either way
    v = u is beaten or matched, so the minimum never exceeds zero and the
    gap is nonnegative.
    """
    return _w_and_gap(problem, problem.feasible_set.member(u, "u"), cfg)[0]


def gap_value(problem: UREProblem, u, cfg: SolverConfig) -> float:
    """-(F(u, w) + (alpha/2) ||w - u||^2) at the best response w."""
    return _w_and_gap(problem, problem.feasible_set.member(u, "u"), cfg)[1]


def gap_gradient(problem: UREProblem, u, cfg: SolverConfig) -> Array:
    """Gradient of the gap: -grad_u F(u, w) - alpha (u - w) at w = w_map(u).

    The envelope rule removes the dependence through w, so only first-slot
    gradients appear.
    """
    u = problem.feasible_set.member(u, "u")
    f = problem.bifunction
    if f.grad_u is None:
        raise MissingGradient("gap_gradient needs the first-slot gradient of F")
    w = _w_and_gap(problem, u, cfg)[0]
    return -f.grad_u(u, w) - _alpha(problem, cfg) * (u - w)


@dataclass(frozen=True, eq=False)
class NecessaryConditionReport:
    passed: bool
    min_value: float
    worst_u: Array
    worst_w: Array
    n_pairs: int


def check_necessary_condition(problem: UREProblem, n_pairs: int, seed: int) -> NecessaryConditionReport:
    """Sampled test of the monotonicity-type condition behind gap descent.

    Over sampled feasible pairs (u, w), evaluates the combined-slope pairing

        < grad_u F(u,w) + grad_v F(u,w), w - u >

    and passes when its minimum is >= -1e-9. When this holds, pairing the gap
    gradient with the best-response direction d = w(u) - u is nonpositive, so
    d is a descent direction wherever it is nonzero. The two slope terms of
    the quadratic (alpha/2) ||w - u||^2 cancel, so alpha does not appear.
    """
    if not (_is_integer(n_pairs) and n_pairs > 0):
        raise ValueError(f"n_pairs must be a positive integer; got {n_pairs!r}")
    f = problem.bifunction
    if f.grad_u is None:
        raise MissingGradient("necessary-condition check needs the first-slot gradient of F")
    s = problem.feasible_set
    U = s.sample(n_pairs, seed)
    W = s.sample(n_pairs, seed + 1)
    worst = np.inf
    worst_u = U[0]
    worst_w = W[0]
    for u, w in zip(U, W):
        val = float((f.grad_u(u, w) + f.grad_v(u, w)) @ (w - u))
        if val < worst:
            worst = val
            worst_u, worst_w = u, w
    return NecessaryConditionReport(worst >= -1e-9, float(worst), worst_u, worst_w, n_pairs)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def line_search(problem: UREProblem, u, d, cfg: SolverConfig) -> float:
    """Globally minimize t -> gap(u + t d) over [0, 1].

    Coarse 17-point scan to bracket the best region, golden-section refinement
    to width cfg.line_search_tol, then a final comparison that always includes
    the exact endpoints 0 and 1. Every probe is projected onto the set
    before evaluation. d = 0 returns 0 by convention.
    """
    u = as_vector(u, problem.dim, "u")
    d = as_vector(d, problem.dim, "d")
    if _norm(d) == 0.0:
        return 0.0
    s = problem.feasible_set
    cache: dict[float, float] = {}

    def phi(t: float) -> float:
        if t not in cache:
            cache[t] = gap_value(problem, s.project(u + t * d), cfg)
        return cache[t]

    ts = [i / 16.0 for i in range(17)]
    vals = [phi(t) for t in ts]
    i_best = int(np.argmin(vals))
    a = ts[max(i_best - 1, 0)]
    b = ts[min(i_best + 1, 16)]

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = phi(x1), phi(x2)
    while b - a > cfg.line_search_tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = phi(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = phi(x2)
    refined = x1 if f1 <= f2 else x2

    best_t = 0.0
    for t in (1.0, ts[i_best], refined):
        if phi(t) < phi(best_t):
            best_t = t
    return best_t


def descent_solve(problem: UREProblem, cfg: SolverConfig, u0) -> Trace:
    """Minimize the gap along best-response directions with exact line search.

    Each record carries the gap value in extras["gap"], the step factor
    chosen at that iterate in extras["t"] (absent on the final record), and
    the direction norm ||w(u_n) - u_n|| as its residual. Stops when either
    the direction norm or the step norm falls below cfg.outer_tol. The
    accepted point is projected onto the set, so every iterate lies in it.
    """
    s = problem.feasible_set
    u0 = s.member(u0, "u0")
    d = extras = None  # the direction and record of the iterate measured last

    def measure(u: Array) -> tuple[float, dict[str, float], bool]:
        nonlocal d, extras
        w, gap = _w_and_gap(problem, u, cfg)
        d, extras = w - u, {"gap": gap}
        res = _norm(d)
        return res, extras, res < cfg.outer_tol

    def advance(n: int, u: Array, u_prev: Array) -> Array:
        t = line_search(problem, u, d, cfg)
        extras["t"] = t
        return s.project(u + t * d)

    return _iterate(cfg, u0, measure, advance)
