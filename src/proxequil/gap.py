"""Merit-function machinery: a regularized best-response map turns the
equilibrium problem into the minimization of a nonnegative gap.

For a regularizer G (default quadratic (alpha/2)||x - y||^2, alpha = k/r) the
gap at a feasible u is

    gap(u) = -( F(u, w) + G(u, w) ),   w = argmin_v F(u, v) + G(u, v),

which is nonnegative because v = u is admissible and scores zero, and is zero
exactly at problem solutions when alpha = k/r (the inner objective is then
F(u, v) + kappa ||v - u||^2, the left side of the defining inequality, so the
gap coincides with problem_residual wherever the residual is positive). For
a VI bifunction F(u, v) = <T(u), v - u> and the default regularizer, w is the
nearest point P(u - T(u) / alpha): Fukushima's regularized gap, exact on
nonconvex sets too. The descent method follows d = w - u with an exact line
search on [0, 1], projecting every probe and iterate onto the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import MissingGradient
from .geometry import Array, as_vector
from .model import SolverConfig, Trace, UREProblem, _best_response
from .schemes import _iterate


@dataclass(frozen=True, eq=False)
class Regularizer:
    """Smooth pairing G(x, y) with both partial gradients.

    Expected behavior (see check_regularizer_axioms): nonnegative, zero on
    the diagonal with vanishing y-gradient there, strongly convex in y.
    """

    value: Callable[[Array, Array], float]
    grad_x: Callable[[Array, Array], Array]
    grad_y: Callable[[Array, Array], Array]


def quadratic_regularizer(alpha: float) -> Regularizer:
    if not alpha > 0:
        raise ValueError("alpha must be positive")

    def value(x: Array, y: Array) -> float:
        d = y - x
        return 0.5 * alpha * float(d @ d)

    return Regularizer(
        value=value,
        grad_x=lambda x, y: alpha * (x - y),
        grad_y=lambda x, y: alpha * (y - x),
    )


@dataclass(frozen=True, eq=False)
class GapModel:
    """An equilibrium problem paired with the regularizer defining its gap.

    alpha=None resolves to k/r, or to k for a problem posed with r = inf,
    where k/r is no weight at all and any positive one gives a valid gap.
    quad is the weight c of the regularizer c ||y - x||^2 the model built
    itself (alpha / 2), which allows the closed-form best response, else 0.
    """

    problem: UREProblem
    alpha: float | None = None
    regularizer: Regularizer | None = None
    resolved_alpha: float = field(init=False)
    quad: float = field(init=False, default=0.0)

    def __post_init__(self):
        alpha = self.alpha
        if alpha is None:
            p = self.problem
            alpha = p.k if math.isinf(p.r) else p.k / p.r
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "resolved_alpha", float(alpha))
        if self.regularizer is None:
            object.__setattr__(self, "regularizer", quadratic_regularizer(float(alpha)))
            object.__setattr__(self, "quad", 0.5 * float(alpha))
        if not self.problem.bifunction.diagonal_zero:
            raise ValueError("gap construction requires F(u, u) = 0")


def _w_and_gap(g: GapModel, u: Array, cfg: SolverConfig) -> tuple[Array, float]:
    G = g.regularizer
    w, fw = _best_response(g.problem, u, G.value, G.grad_y, cfg.seed, cfg.inner_tol, cfg.max_inner, g.quad)
    return w, -fw + 0.0


def w_map(g: GapModel, u, cfg: SolverConfig) -> Array:
    """Best response: the minimizer over the set of F(u, .) + G(u, .).

    For a VI bifunction with the model's own quadratic regularizer this is
    the nearest point P(u - T(u) / alpha), exact and global. Otherwise it
    is projected gradient descent from u plus 8 seeded feasible starts,
    keeping the best converged result. Either way v = u is beaten or
    matched, so the minimum never exceeds zero and the gap is nonnegative.
    """
    return _w_and_gap(g, g.problem.feasible_set.member(u, "u"), cfg)[0]


def gap_value(g: GapModel, u, cfg: SolverConfig) -> float:
    """-(F(u, w) + G(u, w)) at the best response w."""
    return _w_and_gap(g, g.problem.feasible_set.member(u, "u"), cfg)[1]


def gap_gradient(g: GapModel, u, cfg: SolverConfig) -> Array:
    """Gradient of the gap: -grad_u F(u, w) - grad_x G(u, w) at w = w_map(u).

    The envelope rule removes the dependence through w, so only first-slot
    gradients appear.
    """
    u = as_vector(u, g.problem.dim, "u")
    f = g.problem.bifunction
    if f.grad_u is None:
        raise MissingGradient("gap_gradient needs the first-slot gradient of F")
    w = w_map(g, u, cfg)
    return -f.grad_u(u, w) - g.regularizer.grad_x(u, w)


@dataclass(frozen=True, eq=False)
class NecessaryConditionReport:
    passed: bool
    min_value: float
    worst_u: Array
    worst_w: Array
    n_pairs: int


def check_necessary_condition(g: GapModel, n_pairs: int, seed: int) -> NecessaryConditionReport:
    """Sampled test of the monotonicity-type condition behind gap descent.

    Over sampled feasible pairs (u, w), evaluates the combined-slope pairing

        < grad_u F(u,w) + grad_x G(u,w) + grad_v F(u,w) + grad_y G(u,w), w - u >

    and passes when its minimum is >= -1e-9. When this holds, pairing the gap
    gradient with the best-response direction d = w(u) - u is nonpositive, so
    d is a descent direction wherever it is nonzero. For the quadratic
    regularizer the two G terms cancel exactly.
    """
    if n_pairs <= 0:
        raise ValueError("n_pairs must be positive")
    f = g.problem.bifunction
    if f.grad_u is None:
        raise MissingGradient("necessary-condition check needs the first-slot gradient of F")
    G = g.regularizer
    s = g.problem.feasible_set
    U = s.sample(n_pairs, seed)
    W = s.sample(n_pairs, seed + 1)
    worst = np.inf
    worst_u = U[0]
    worst_w = W[0]
    for u, w in zip(U, W):
        combined = f.grad_u(u, w) + G.grad_x(u, w) + f.grad_v(u, w) + G.grad_y(u, w)
        val = float(combined @ (w - u))
        if val < worst:
            worst = val
            worst_u, worst_w = u, w
    return NecessaryConditionReport(worst >= -1e-9, float(worst), worst_u, worst_w, n_pairs)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def line_search(g: GapModel, u, d, cfg: SolverConfig) -> float:
    """Globally minimize t -> gap(u + t d) over [0, 1].

    Coarse 17-point scan to bracket the best region, golden-section refinement
    to width cfg.line_search_tol, then a final comparison that always includes
    the exact endpoints 0 and 1. Every probe is projected onto the set
    before evaluation. d = 0 returns 0 by convention.
    """
    u = as_vector(u, g.problem.dim, "u")
    d = as_vector(d, g.problem.dim, "d")
    if float(np.linalg.norm(d)) == 0.0:
        return 0.0
    s = g.problem.feasible_set
    cache: dict[float, float] = {}

    def phi(t: float) -> float:
        if t not in cache:
            cache[t] = gap_value(g, s.project(u + t * d), cfg)
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


def descent_solve(g: GapModel, cfg: SolverConfig, u0) -> Trace:
    """Minimize the gap along best-response directions with exact line search.

    Each record carries the gap value in extras["gap"], the step factor
    chosen at that iterate in extras["t"] (absent on the final record), and
    the direction norm ||w(u_n) - u_n|| as its residual. Stops when either
    the direction norm or the step norm falls below cfg.outer_tol. The
    accepted point is projected onto the set, so every iterate lies in it.
    """
    s = g.problem.feasible_set
    u0 = s.member(u0, "u0")
    d = extras = None  # the direction and record of the iterate measured last

    def measure(u: Array) -> tuple[float, dict[str, float], bool]:
        nonlocal d, extras
        w, gap = _w_and_gap(g, u, cfg)
        d, extras = w - u, {"gap": gap}
        res = float(np.linalg.norm(d))
        return res, extras, res < cfg.outer_tol

    def advance(n: int, u: Array, u_prev: Array) -> Array:
        t = line_search(g, u, d, cfg)
        extras["t"] = t
        return s.project(u + t * d)

    return _iterate(cfg, u0, measure, advance)


@dataclass(frozen=True, eq=False)
class RegularizerReport:
    passed: bool
    min_value: float
    max_diagonal: float
    max_diagonal_grad: float
    convexity_modulus: float
    n_samples: int


def check_regularizer_axioms(g: GapModel) -> RegularizerReport:
    """Sampled audit of the regularizer: nonnegative, zero diagonal with zero
    y-gradient, and midpoint-strongly convex in y with a positive modulus,
    over 500 seeded triples of feasible points."""
    n_samples = 500
    G = g.regularizer
    s = g.problem.feasible_set
    X = s.sample(n_samples, 0)
    Y = s.sample(n_samples, 1)
    Z = s.sample(n_samples, 2)
    min_value = np.inf
    max_diag = 0.0
    max_diag_grad = 0.0
    modulus = np.inf
    for x, y, z in zip(X, Y, Z):
        min_value = min(min_value, G.value(x, y))
        max_diag = max(max_diag, abs(G.value(x, x)))
        max_diag_grad = max(max_diag_grad, float(np.linalg.norm(G.grad_y(x, x))))
        gap2 = float((y - z) @ (y - z))
        if gap2 > 1e-16:
            excess = 0.5 * G.value(x, y) + 0.5 * G.value(x, z) - G.value(x, 0.5 * (y + z))
            modulus = min(modulus, 8.0 * excess / gap2)
    passed = (
        min_value >= -1e-12
        and max_diag <= 1e-12
        and max_diag_grad <= 1e-9
        and modulus > 0.0
    )
    return RegularizerReport(passed, float(min_value), float(max_diag), float(max_diag_grad), float(modulus), n_samples)
