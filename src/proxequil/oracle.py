"""Brute-force and sampling oracles used to audit the solvers.

Everything here evaluates the bifunction directly on grids or samples and
never calls into the iterative machinery, so oracle agreement is independent
evidence rather than a consistency check of one code path against itself.

grid_solve scores every feasible grid point u by the worst value

    m(u) = min over feasible grid v of  F(u, v) + kappa ||v - u||^2,

and returns the argmax. Since v = u contributes zero, m(u) <= 0 with equality
exactly at grid solutions; the best point is certified when m is within a
sampled-Lipschitz tolerance C * h of zero. T at every grid point and the
sampled gradients behind C each come from one Bifunction.grad_v_rows call,
which trusts a VI's T to map rows (see make_vi_bifunction) without probing
it. The VI form F(u, v) = <T(u), v-u> expands to a matrix product, evaluated
in chunks with early abandoning: a row whose running minimum already fell
below the best certified value so far can never become the argmax and is
dropped from later blocks. Each row starts on a 128-point v-block and the
blocks grow fourfold up to 4096 points, so most rows are dropped after a
few hundred products instead of thousands. Any other bifunction is scored
by one Bifunction.eval_rows call per 128-point v-block, abandoned the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, GridTooLarge, NonFiniteValue, SamplingExhausted
from .geometry import Array, ConstraintSet, as_vector
from .model import Bifunction, UREProblem, _enforce, _is_integer

MAX_GRID_POINTS = int(1e7)
MAX_GENERIC_EVALS = int(4e6)

_GRID_RULES = (
    ("resolution", "must be an integer", _is_integer),
    ("resolution", "is too small", lambda v: v >= 2),
)


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Grid resolution as cells per axis (so resolution+1 points per axis and
    spacing width/resolution, which keeps round boxes on round lattices) and
    an optional bounding box override."""

    resolution: int
    box: tuple[Array, Array] | None = None

    def __post_init__(self):
        _enforce(_GRID_RULES, self)


@dataclass(frozen=True, eq=False)
class OracleResult:
    point: Array
    inner_value: float
    certified: bool
    tolerance: float
    spacing: float
    n_feasible: int


def finite_diff_gradient(fn, u) -> Array:
    """Central differences (fn(u + h e_i) - fn(u - h e_i)) / (2h) with
    h = 1e-6 (1 + ||u||)."""
    u = as_vector(u, name="u")
    h = 1e-6 * (1.0 + float(np.linalg.norm(u)))
    out = np.empty_like(u)
    for i in range(u.shape[0]):
        e = np.zeros_like(u)
        e[i] = h
        hi = float(fn(u + e))
        lo = float(fn(u - e))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteValue(f"fn is not finite near coordinate {i}")
        out[i] = (hi - lo) / (2.0 * h)
    return out


def _grid_points(s: ConstraintSet, gs: GridSpec) -> tuple[Array, float]:
    if s.dim > 3:
        raise GridTooLarge(f"grid oracle handles dimension <= 3, got {s.dim}")
    lo, hi = gs.box if gs.box is not None else s.bounding_box
    lo = as_vector(lo, s.dim, "box lower")
    hi = as_vector(hi, s.dim, "box upper")
    total = (gs.resolution + 1) ** s.dim
    if total > MAX_GRID_POINTS:
        raise GridTooLarge(f"{total} grid points exceeds the {MAX_GRID_POINTS} guard")
    axes = [np.linspace(lo[i], hi[i], gs.resolution + 1) for i in range(s.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    h = float(np.max((hi - lo) / gs.resolution))
    return points, h


def _inner_lipschitz(p: UREProblem) -> float:
    """Twice the largest gradient norm of v -> F(u,v) + kappa||v-u||^2 over
    1000 sampled pairs (u, v), all of them in one Bifunction.grad_v_rows call;
    8 pairs when the set cannot yield 1000 points."""
    try:
        U = p.feasible_set.sample(1000, 0)
        V = p.feasible_set.sample(1000, 1)
    except SamplingExhausted:
        U = p.feasible_set.sample(8, 0)
        V = p.feasible_set.sample(8, 1)
    grads = p.bifunction.grad_v_rows(U, V) + 2.0 * p.kappa * (V - U)
    return 2.0 * float(np.linalg.norm(grads, axis=1).max())


def _vi_grid_argmax(T_all: Array, V: Array, kappa: float) -> tuple[int, float]:
    """Argmax over rows u of min over v of <T(u), v-u> + kappa||v-u||^2.

    For row u the inner objective over all v is one matrix-vector expression:
        (T(u) - 2 kappa u) . v + kappa ||v||^2 + (kappa ||u||^2 - T(u) . u).
    Rows are processed in chunks, 32 rows and then 512 at a time, against
    shuffled v-blocks of 128, 512, 2048 and then 4096 points; after each
    block a row whose running minimum falls below the best completed row is
    abandoned, so every row of the first chunk completes. The small first
    blocks drop most rows after 128 products; a dropped row's true m is already
    below a completed one, so the argmax is that of the dense max-min. BLAS
    may round a product differently in its last bit with the number of rows
    still active, so near-ties can break on that rounding.
    """
    n = V.shape[0]
    vsq = np.einsum("ij,ij->i", V, V)
    lin = T_all - 2.0 * kappa * V
    const = kappa * vsq - np.einsum("ij,ij->i", T_all, V)

    order = np.argsort(np.einsum("ij,ij->i", T_all, T_all), kind="stable")
    shuffle = np.random.default_rng(0).permutation(n)
    v_lin = V[shuffle]
    v_off = kappa * vsq[shuffle]

    best_m = -np.inf
    best_row = -1

    def full_min(rows: Array) -> tuple[Array, Array]:
        """Running minima plus a mask of rows evaluated against every block.

        An abandoned row's running minimum is only an upper bound on its true
        m, so callers must ignore it; abandonment is sound because the true m
        can only be lower, and the row was already beaten.
        """
        mins = np.full(rows.shape[0], np.inf)
        active = np.arange(rows.shape[0])
        start, width = 0, 128
        while start < n and active.size:
            stop = start + width
            block = lin[rows[active]] @ v_lin[start:stop].T
            block += v_off[start:stop][None, :]
            mins[active] = np.minimum(mins[active], block.min(axis=1))
            keep = mins[active] + const[rows[active]] >= best_m
            active = active[keep]
            start, width = stop, min(4 * width, 4096)
        completed = np.zeros(rows.shape[0], dtype=bool)
        completed[active] = True
        return mins + const[rows], completed

    for rows in np.split(order, range(32, n, 512)):
        m, done = full_min(rows)
        if not np.any(done):
            continue
        idx = np.flatnonzero(done)
        j = int(idx[np.argmax(m[idx])])
        if m[j] > best_m:
            best_m = float(m[j])
            best_row = int(rows[j])
    return best_row, best_m


def grid_solve(p: UREProblem, gs: GridSpec) -> OracleResult:
    """Exhaustive search for the grid point closest to solving the problem.

    Returns the feasible grid point with the largest worst-case inner value
    m(u), certified when m(u) >= -C h for the grid spacing h and a sampled
    Lipschitz bound C of the inner objective.
    """
    f = p.bifunction
    points, h = _grid_points(p.feasible_set, gs)
    feasible = p.feasible_set.contains_batch(points)
    V = points[feasible]
    if V.shape[0] == 0:
        raise EmptyGrid("no grid point passed the membership test")
    C = _inner_lipschitz(p)

    if f.vi_operator is not None:
        row, m_best = _vi_grid_argmax(f.grad_v_rows(V, V), V, p.kappa)
    else:
        n = V.shape[0]
        if n * n > MAX_GENERIC_EVALS:
            raise GridTooLarge(
                f"{n}^2 bifunction evaluations exceed the {MAX_GENERIC_EVALS} guard; "
                "lower the resolution for bifunctions without a VI operator"
            )
        m_best = -np.inf
        row = -1
        for i, u in enumerate(V):
            running = np.inf
            for start in range(0, n, 128):
                B = V[start : start + 128]
                D = B - u
                vals = f.eval_rows(u, B) + p.kappa * np.einsum("ij,ij->i", D, D)
                running = min(running, float(vals.min()))
                if running < m_best:
                    break
            if running > m_best:
                m_best = running
                row = i
    tol = C * h
    return OracleResult(V[row], float(m_best), bool(m_best >= -tol), float(tol), h, int(V.shape[0]))


@dataclass(frozen=True, eq=False)
class PseudomonotoneReport:
    passed: bool
    n_pairs: int
    n_counterexamples: int
    counterexamples: tuple[tuple[Array, Array], ...]


def check_pseudomonotone(
    f: Bifunction,
    s: ConstraintSet,
    kappa: float,
    n_pairs: int = 10000,
) -> PseudomonotoneReport:
    """Sampled implication check: whenever F(u,v) + kappa||v-u||^2 >= 0, the
    reverse value F(v,u) + kappa||v-u||^2 must not exceed 1e-10. The pairs
    are drawn with seeds 0 and 1, and F is evaluated over all of them in the
    two calls Bifunction.eval_rows(U, V) and eval_rows(V, U).

    Stores at most 25 counterexample pairs; an empty tuple means passed.
    """
    if n_pairs <= 0:
        raise ValueError("n_pairs must be positive")
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and nonnegative; got {kappa!r}")
    U = s.sample(n_pairs, 0)
    V = s.sample(n_pairs, 1)
    D = V - U
    q = kappa * np.einsum("ij,ij->i", D, D)
    bad = np.flatnonzero((f.eval_rows(U, V) + q >= 0.0) & (f.eval_rows(V, U) + q > 1e-10))
    found = tuple((U[i], V[i]) for i in bad[:25])
    return PseudomonotoneReport(bad.size == 0, n_pairs, int(bad.size), found)
