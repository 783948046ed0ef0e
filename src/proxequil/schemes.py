"""Outer iterations: the implicit (proximal) step with optional inertia, the
explicit projected step, and the Fejer-type distance diagnostic.

All three schemes run one outer loop, u_{n+1} = step(u_n, u_{n-1}), in
``_iterate``; they differ only in the step. With kappa = k/(2r) and an
extrapolated base point

    z = u_n - (gamma_n / (1 + kappa)) (u_n - u_prev),

the implicit step returns the w solving the strengthened auxiliary inequality

    lam F(w, v) + (1 + kappa) <w - z, v - w>  >=  0   for all v in the set,

realized as the fixed point of w <- P[z - (lam/(1+kappa)) grad_v F(w, w)].
Dropping the quadratic term kappa ||v - w||^2 from the auxiliary inequality
only strengthens it, so any such w also solves the original relaxed step.
The explicit scheme freezes the gradient at the current iterate instead,
u_{n+1} = P[u_n - lam grad_v F(u_n, u_n)], and involves no kappa at all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EmptyTrace, MissingGradient, PointNotInSet, SubproblemFailed
from .geometry import Array, ConstraintSet, as_vector
from .model import SolverConfig, Status, Trace, TraceRecord, UREProblem


@dataclass(frozen=True, eq=False)
class SubproblemSpec:
    """One implicit step: current iterate, previous iterate, step and inertia
    weights. kappa is copied from the problem for direct access."""

    problem: UREProblem
    u_n: Array
    u_prev: Array
    lam: float
    gamma_n: float
    kappa: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "u_n", as_vector(self.u_n, self.problem.dim, "u_n"))
        object.__setattr__(self, "u_prev", as_vector(self.u_prev, self.problem.dim, "u_prev"))
        object.__setattr__(self, "kappa", self.problem.kappa)
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.gamma_n < 0:
            raise ValueError("gamma_n must be nonnegative")
        for name, pt in (("u_n", self.u_n), ("u_prev", self.u_prev)):
            if not self.problem.feasible_set.contains(pt):
                raise PointNotInSet(f"{name} is not in the feasible set")

    @property
    def base_point(self) -> Array:
        return self.u_n - (self.gamma_n / (1.0 + self.kappa)) * (self.u_n - self.u_prev)


def solve_subproblem(spec: SubproblemSpec, cfg: SolverConfig) -> Array:
    """Fixed point of w <- P[z - (lam/(1+kappa)) grad_v F(w, w)].

    Iterates until the successive change drops below cfg.inner_tol; raises
    SubproblemFailed when cfg.max_inner sweeps do not get there.
    """
    f = spec.problem.bifunction
    if f.grad_v is None:
        raise MissingGradient("solve_subproblem needs grad_v")
    project = spec.problem.feasible_set.project
    z = spec.base_point
    scale = spec.lam / (1.0 + spec.kappa)
    w = spec.u_n
    for _ in range(cfg.max_inner):
        w_new = project(z - scale * f.grad_v(w, w))
        if float(np.linalg.norm(w_new - w)) <= cfg.inner_tol:
            return w_new
        w = w_new
    raise SubproblemFailed(
        f"no fixed point to {cfg.inner_tol:g} within {cfg.max_inner} sweeps"
    )


@dataclass(frozen=True)
class SubproblemCheck:
    passed: bool
    worst_violation: float
    worst_point: Array
    n_samples: int


@functools.lru_cache(maxsize=1)
def _verify_sample(s: ConstraintSet, seed: int) -> Array:
    """The read-only audit draw; sets hash by identity, so one run's steps share it."""
    V = s.sample(10000, seed)
    V.setflags(write=False)
    return V


def verify_subproblem_inequality(spec: SubproblemSpec, w: Array, seed: int = 0) -> SubproblemCheck:
    """Sampled audit of the strengthened auxiliary inequality at w.

    Checks lam F(w, v) + (1+kappa) <w - z, v - w> >= -1e-8 at the 10^4
    feasible v of sample(10000, seed) in one Bifunction.eval_rows call; the
    worst point is the first row of least value.
    """
    w = as_vector(w, spec.problem.dim, "w")
    V = _verify_sample(spec.problem.feasible_set, seed)
    shift = (1.0 + spec.kappa) * (w - spec.base_point)
    vals = spec.lam * spec.problem.bifunction.eval_rows(w, V) + (V - w) @ shift
    i = int(np.argmin(vals))
    worst = float(-vals[i])
    return SubproblemCheck(worst <= 1e-8, worst, V[i], V.shape[0])


def default_step_size(problem: UREProblem, seed: int = 0) -> float:
    """0.5 / (1 + L) with L a Lipschitz estimate of grad_v F over 100
    sampled pairs."""
    f = problem.bifunction
    if f.grad_v is None:
        raise MissingGradient("step-size heuristic needs grad_v")
    X = problem.feasible_set.sample(100, seed)
    Y = problem.feasible_set.sample(100, seed + 1)
    L = 0.0
    for x, y in zip(X, Y):
        gap = float(np.linalg.norm(x - y))
        if gap <= 1e-12:
            continue
        L = max(L, float(np.linalg.norm(f.grad_v(x, x) - f.grad_v(y, y))) / gap)
    return 0.5 / (1.0 + L)


def _natural_residual(problem: UREProblem, u: Array, lam: float) -> float:
    f = problem.bifunction
    moved = problem.feasible_set.project(u - lam * f.grad_v(u, u))
    return float(np.linalg.norm(u - moved))


def _resolve_lam(problem: UREProblem, cfg: SolverConfig) -> float:
    return cfg.lam if cfg.lam is not None else default_step_size(problem, cfg.seed)


def _iterate(
    problem: UREProblem,
    cfg: SolverConfig,
    u0,
    advance: Callable[[int, Array, Array, float], Array],
) -> Trace:
    """The outer loop of the fixed-point schemes: u_{n+1} = advance(n, u_n,
    u_{n-1}, lam), with u_{-1} = u_0.

    Stops when the step norm falls below cfg.outer_tol. A subproblem failure
    ends the run early with the partial trace and status SUBPROBLEM_FAILED.
    """
    u0 = as_vector(u0, problem.dim, "u0")
    if not problem.feasible_set.contains(u0):
        raise PointNotInSet("u0 is not in the feasible set")
    if problem.bifunction.grad_v is None:
        raise MissingGradient("the fixed-point schemes need grad_v")
    lam = _resolve_lam(problem, cfg)
    records = [TraceRecord(0, u0, 0.0, _natural_residual(problem, u0, lam))]
    u_prev = u_n = u0
    for n in range(cfg.max_outer):
        try:
            u_next = advance(n, u_n, u_prev, lam)
        except SubproblemFailed:
            return Trace(records, Status.SUBPROBLEM_FAILED)
        step = float(np.linalg.norm(u_next - u_n))
        records.append(TraceRecord(n + 1, u_next, step, _natural_residual(problem, u_next, lam)))
        if step < cfg.outer_tol:
            return Trace(records, Status.CONVERGED)
        u_prev, u_n = u_n, u_next
    return Trace(records, Status.MAX_ITERATIONS)


def inertial_proximal_solve(
    problem: UREProblem,
    cfg: SolverConfig,
    u0,
    gamma_schedule: Callable[[int], float] | None = None,
) -> Trace:
    """Implicit scheme with inertial extrapolation gamma_n (u_n - u_{n-1}).

    gamma_schedule maps the iteration index to gamma_n; the default is the
    constant cfg.gamma.
    """

    def advance(n: int, u_n: Array, u_prev: Array, lam: float) -> Array:
        gamma_n = cfg.gamma if gamma_schedule is None else gamma_schedule(n)
        spec = SubproblemSpec(problem, u_n, u_prev, lam, float(gamma_n))
        return solve_subproblem(spec, cfg)

    return _iterate(problem, cfg, u0, advance)


def proximal_solve(problem: UREProblem, cfg: SolverConfig, u0) -> Trace:
    """Implicit scheme without inertia: gamma_n identically zero.

    Shares every instruction with inertial_proximal_solve, so a zero-gamma
    inertial run reproduces this trace bitwise.
    """
    return inertial_proximal_solve(problem, cfg, u0, gamma_schedule=lambda n: 0.0)


def explicit_solve(problem: UREProblem, cfg: SolverConfig, u0) -> Trace:
    """Explicit scheme u_{n+1} = P[u_n - lam grad_v F(u_n, u_n)]."""
    grad_v = problem.bifunction.grad_v
    project = problem.feasible_set.project

    def advance(n: int, u_n: Array, u_prev: Array, lam: float) -> Array:
        return project(u_n - lam * grad_v(u_n, u_n))

    return _iterate(problem, cfg, u0, advance)


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
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
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
