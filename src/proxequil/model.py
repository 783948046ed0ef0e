"""Problem data: bifunctions, the equilibrium problem itself, solver settings,
run traces, and the exact residual a point leaves in the defining inequality.

A problem asks for u in the set K with

    F(u, v) + kappa * ||v - u||^2  >=  0   for every v in K,

where kappa = k / (2 r) couples the modulus k of the bifunction to the
prox-regularity constant r of the set (kappa = 0 when the set is convex,
r = inf). ``problem_residual`` measures how far a point is from satisfying
this: it is max(0, -m(u)) where m(u) is the minimum over v of the left-hand
side, found by ``_best_response``, the best response the gap also uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._minimize import multistart_minimize
from .errors import DimensionMismatch, MissingGradient, NonFiniteValue, PointNotInSet
from .geometry import Array, ConstraintSet, _cached_sample, as_vector


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    SUBPROBLEM_FAILED = "subproblem_failed"


@dataclass(frozen=True, eq=False)
class TraceRecord:
    iteration: int
    point: Array
    step_norm: float
    residual: float
    extras: dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class Trace:
    records: list[TraceRecord]
    status: Status

    @property
    def final_point(self) -> Array:
        return self.records[-1].point

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    def points(self) -> Array:
        return np.array([r.point for r in self.records])


@dataclass(frozen=True, eq=False)
class Bifunction:
    """F(u, v) with the partial gradients the solvers need.

    grad_v is the gradient in the second slot; it drives every scheme and
    every best response, so it is required and checked once, here. grad_u,
    in the first slot, is only needed by the gap gradient and the necessary
    condition check and may be omitted. diagonal_zero records that
    F(u, u) = 0, which the gap construction requires. eval_rows and
    grad_v_rows are the batch forms of F and grad_v over rows.
    """

    eval: Callable[[Array, Array], float]
    grad_v: Callable[[Array, Array], Array]
    grad_u: Callable[[Array, Array], Array] | None = None
    vi_operator: Callable[[Array], Array] | None = None
    diagonal_zero: bool = True

    def __post_init__(self):
        if self.grad_v is None:
            raise MissingGradient("a bifunction needs the second-slot gradient grad_v")

    def __call__(self, u: Array, v: Array) -> float:
        return float(self.eval(u, v))

    def eval_rows(self, u: Array, V: Array) -> Array:
        """F(u, v) for every row v of V, shape (n,): one product (V - u) @ T(u)
        for a VI bifunction (T called only at u), else one call per row."""
        if self.vi_operator is not None:
            return (V - u) @ np.asarray(self.vi_operator(u), dtype=float)
        return np.array([self(u, v) for v in V], dtype=float)

    def grad_v_rows(self, U: Array, V: Array) -> Array:
        """grad_v F(u, v) for every row pair (u, v) of U and V, shape (n, d):
        one call T(U) for a VI bifunction, else one grad_v call per pair."""
        if self.vi_operator is not None:
            G = np.asarray(self.vi_operator(U), dtype=float)
            if G.shape != U.shape:
                raise DimensionMismatch(f"T maps rows of shape {U.shape} to {G.shape}; it must act row by row")
            return G
        return np.array([self.grad_v(u, v) for u, v in zip(U, V)], dtype=float).reshape(U.shape)


def make_vi_bifunction(T: Callable[[Array], Array], JT: Callable[[Array], Array] | None = None) -> Bifunction:
    """The bifunction <T(u), v-u> of a variational inequality.

    T maps a stack of points row by row: for an (n, d) array it returns the
    (n, d) array of T at each row, which Bifunction.grad_v_rows uses as one
    call. The second-slot gradient is T(u) exactly; the first-slot gradient
    JT(u)^T (v-u) - T(u) is available when the Jacobian is supplied.
    """

    def f(u: Array, v: Array) -> float:
        return float(T(u) @ (v - u))

    def gv(u: Array, v: Array) -> Array:
        return T(u)

    gu = None
    if JT is not None:

        def gu(u: Array, v: Array) -> Array:
            return np.asarray(JT(u), dtype=float).T @ (v - u) - T(u)

    return Bifunction(eval=f, grad_v=gv, grad_u=gu, vi_operator=T)


@dataclass(frozen=True, eq=False)
class UREProblem:
    """An equilibrium problem over a prox-regular set with moduli k and r."""

    bifunction: Bifunction
    feasible_set: ConstraintSet
    k: float
    r: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not self.r > 0:
            raise ValueError("r must be positive")
        if self.r > self.feasible_set.prox_constant:
            raise ValueError(
                f"r={self.r:g} exceeds the set's prox-regularity constant "
                f"{self.feasible_set.prox_constant:g}"
            )

    @property
    def kappa(self) -> float:
        return 0.0 if math.isinf(self.r) else self.k / (2.0 * self.r)

    @property
    def dim(self) -> int:
        return self.feasible_set.dim


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative schemes.

    lam=None asks each scheme to pick a step from a finite-difference
    Lipschitz estimate of the second-slot gradient; alpha=None lets the gap
    machinery default the regularizer weight to k/r.
    """

    lam: float | None = None
    gamma: float = 0.2
    alpha: float | None = None
    outer_tol: float = 1e-8
    inner_tol: float = 1e-12
    max_outer: int = 500
    max_inner: int = 400
    line_search_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.lam is not None and not self.lam > 0:
            raise ValueError("lam must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError("alpha must be positive")
        for name in ("outer_tol", "inner_tol", "line_search_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration budgets must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _best_response(
    problem: UREProblem, u: Array, reg_value: Callable[[Array, Array], float],
    reg_grad: Callable[[Array, Array], Array], seed: int, inner_tol: float, max_inner: int,
) -> tuple[Array, float]:
    """The minimizer w and minimum m over the set of v -> F(u, v) + reg(u, v).

    Shared by the residual (reg = kappa ||v - u||^2) and the gap (reg = G).
    Projected gradient descent from u itself and 8 starts sampled with seed
    (drawn once per set and seed), keeping the best converged result;
    starting at u keeps m <= reg(u, u).
    """
    f = problem.bifunction
    s = problem.feasible_set

    def value(v: Array) -> float:
        return f(u, v) + reg_value(u, v)

    def grad(v: Array) -> Array:
        return f.grad_v(u, v) + reg_grad(u, v)

    starts = np.vstack([u, _cached_sample(s, 8, seed)])
    return multistart_minimize(value, grad, s.project, starts, inner_tol, max_inner)


def problem_residual(problem: UREProblem, u, *, seed: int = 0) -> float:
    """Worst violation of the defining inequality at u.

    Minimizes v -> F(u, v) + kappa ||v - u||^2 over the set with
    ``_best_response`` (at most 600 sweeps per start, to a step of 1e-11)
    and returns max(0, -minimum). Zero means no start found a violating
    direction, so u solves the problem to the solver's resolution.
    """
    u = as_vector(u, problem.dim, "u")
    s = problem.feasible_set
    if not s.contains(u):
        raise PointNotInSet(f"u is not feasible (distance {s.distance(u):.3e})")
    kap = problem.kappa

    def reg_value(u: Array, v: Array) -> float:
        return kap * float((v - u) @ (v - u))

    def reg_grad(u: Array, v: Array) -> Array:
        return 2.0 * kap * (v - u)

    _, m = _best_response(problem, u, reg_value, reg_grad, seed, 1e-11, 600)
    if not math.isfinite(m):
        raise NonFiniteValue("inner minimum is not finite")
    return max(0.0, -m)
