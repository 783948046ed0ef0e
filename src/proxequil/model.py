"""Problem data: bifunctions, the equilibrium problem itself, solver settings,
run traces, and the exact residual a point leaves in the defining inequality.

A problem asks for u in the set K with

    F(u, v) + kappa * ||v - u||^2  >=  0   for every v in K,

where kappa = k / (2 r) couples the modulus k of the bifunction to the
prox-regularity constant r of the set (kappa = 0 when the set is convex,
r = inf). ``problem_residual`` measures how far a point is from satisfying
this: it is max(0, -m(u)) where m(u) is the minimum over v of the left-hand
side. ``_best_response`` finds it; it minimizes F(u, v) + c ||v - u||^2 for
one weight c, kappa here and alpha / 2 for the gap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._minimize import multistart_minimize
from .errors import DimensionMismatch, MissingGradient, NonFiniteValue, ValidationError
from .geometry import Array, ConstraintSet, _by_rows, _cached_sample, _is_integer


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
    condition check and may be omitted. F(u, u) = 0 is required: the
    residual and the gap rest on it. eval_rows and grad_v_rows are the batch
    forms of F and grad_v over rows.
    """

    eval: Callable[[Array, Array], float]
    grad_v: Callable[[Array, Array], Array]
    grad_u: Callable[[Array, Array], Array] | None = None
    vi_operator: Callable[[Array], Array] | None = None

    def __post_init__(self):
        if self.grad_v is None:
            raise MissingGradient("a bifunction needs the second-slot gradient grad_v")

    def __call__(self, u: Array, v: Array) -> float:
        return float(self.eval(u, v))

    def eval_rows(self, U: Array, V: Array) -> Array:
        """F(u, v) for every pair of U and the rows v of V, shape (n,), with U
        one point or one per row as in grad_v_rows: (V - u) @ T(u) or the
        row-wise <T(U), V - U> for a VI bifunction, else one call per pair."""
        if self.vi_operator is None:
            return np.array([self(u, v) for u, v in zip(np.broadcast_to(U, V.shape), V)], dtype=float)
        if np.ndim(U) == 1:
            return _by_rows(np.subtract, V, U) @ np.asarray(self.vi_operator(U), dtype=float)
        return np.einsum("ij,ij->i", V - U, self.grad_v_rows(U, V))

    def grad_v_rows(self, U: Array, V: Array) -> Array:
        """grad_v F(u, v) for every pair of U (one point or one per row) and V,
        shape (n, d): one call T(U) for a VI bifunction, else one per pair."""
        U = np.broadcast_to(U, V.shape)
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


def _broken_rules(rules, values) -> dict[str, str]:
    """name -> "<phrase>; got <value>" of the first broken (name, phrase,
    test) rule of each name in values, in the order of the rules that broke."""
    broken: dict[str, str] = {}
    for name, phrase, test in rules:
        if name in values and name not in broken and not test(values[name]):
            broken[name] = f"{phrase}; got {values[name]!r}"
    return broken


def _enforce(rules, obj) -> None:
    """Raise the first broken rule of obj's fields as a ValidationError."""
    for name, message in _broken_rules(rules, vars(obj)).items():
        raise ValidationError([f"{name} {message}"])  # the first


_PROBLEM_RULES = (
    ("k", "must be finite", math.isfinite),
    ("k", "must be positive", lambda v: v > 0),
    ("r", "must be positive", lambda v: v > 0),
)


@dataclass(frozen=True, eq=False)
class UREProblem:
    """An equilibrium problem over a prox-regular set with moduli k and r."""

    bifunction: Bifunction
    feasible_set: ConstraintSet
    k: float
    r: float

    def __post_init__(self):
        _enforce(_PROBLEM_RULES, self)
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


_SOLVER_RULES = (
    ("lam", "must be finite", lambda v: v is None or math.isfinite(v)),
    ("lam", "must be positive or auto", lambda v: v is None or v > 0),
    ("gamma", "must lie in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("alpha", "must be finite", lambda v: v is None or math.isfinite(v)),
    ("alpha", "must be positive or auto", lambda v: v is None or v > 0),
    *((tol, phrase, test)
      for tol in ("outer_tol", "inner_tol", "line_search_tol")
      for phrase, test in (("must be finite", math.isfinite), ("must be positive", lambda v: v > 0))),
    *((count, "must be an integer", _is_integer) for count in ("seed", "max_outer", "max_inner")),
    ("seed", "must be nonnegative", lambda v: v >= 0),
    *((count, "is too small", lambda v: v >= 1) for count in ("max_outer", "max_inner")),
)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative schemes, and the one home of the
    paper's three parameters and the seed: the implicit and explicit step
    lam, the inertial weight gamma and the gap weight alpha.

    lam=None asks each scheme to pick a step from a finite-difference
    Lipschitz estimate of the second-slot gradient; alpha=None lets the gap
    machinery default the gap weight to k/r (k when r = inf). The first
    broken rule of _SOLVER_RULES raises ValidationError, a ValueError,
    as "<field> <rule>; got <value>".
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
        _enforce(_SOLVER_RULES, self)


def _best_response(
    problem: UREProblem, u: Array, c: float, seed: int, inner_tol: float, max_inner: int
) -> tuple[Array, float]:
    """The minimizer w and minimum m over the set of v -> F(u, v) + c ||v - u||^2.

    Shared by the residual (c = kappa) and the gap (c = alpha / 2). For a VI
    bifunction and c > 0 the minimizer is the nearest point
    P(u - T(u) / (2 c)), exact and global on every set kind because project
    returns a global nearest point (the regularized gap of Fukushima, Math.
    Programming 53, 1992). Otherwise projected gradient descent runs from u
    itself and 8 starts sampled with seed (drawn once per set and seed),
    keeping the best converged result; starting at u keeps m <= F(u, u) = 0.
    """
    f = problem.bifunction
    s = problem.feasible_set

    def value(v: Array) -> float:
        return f(u, v) + c * float((v - u) @ (v - u))

    if f.vi_operator is not None and c > 0:
        w = s.project(u - np.asarray(f.vi_operator(u), dtype=float) / (2.0 * c))
        return w, value(w)

    def grad(v: Array) -> Array:
        return f.grad_v(u, v) + 2.0 * c * (v - u)

    starts = np.vstack([u, _cached_sample(s, 8, seed)])
    return multistart_minimize(value, grad, s.project, starts, inner_tol, max_inner)


def problem_residual(problem: UREProblem, u, *, seed: int = 0) -> float:
    """Worst violation of the defining inequality at u.

    Minimizes v -> F(u, v) + kappa ||v - u||^2 over the set with
    ``_best_response`` and returns max(0, -minimum). For a VI bifunction
    with kappa > 0 the minimum is exact; otherwise it is the best of the
    multistart descent (at most 600 sweeps per start, to a step of 1e-11),
    and zero means no start found a violating direction, so u solves the
    problem to the solver's resolution.
    """
    u = problem.feasible_set.member(u, "u")
    _, m = _best_response(problem, u, problem.kappa, seed, 1e-11, 600)
    if not math.isfinite(m):
        raise NonFiniteValue("inner minimum is not finite")
    return max(0.0, -m)
