"""Brute-force and sampling oracles used to audit the solvers.

Everything here evaluates the bifunction directly on grids or samples and
never calls into the iterative machinery, so oracle agreement is independent
evidence rather than a consistency check of one code path against itself.

grid_solve scores every feasible grid point u by the worst value

    m(u) = min over feasible grid v of  F(u, v) + kappa ||v - u||^2,

and returns the argmax. Since v = u contributes zero, m(u) <= 0 with equality
exactly at grid solutions; the best point is certified when m is within a
sampled-Lipschitz tolerance C * h of zero. grad_v F(u, u) at every grid
point and the sampled gradients behind C each come from one
Bifunction.grad_v_rows call, which trusts a VI's T to map rows (see
make_vi_bifunction) without probing it. One search, _grid_argmax, runs the
max-min for every bifunction and abandons a row once its running minimum
falls below the best completed value. A bifunction supplies only the minima
over a v-block: for a VI one matrix product (_vi_scorer), 22 to 38 per node
on the 400-cell 2-d grids of perfbench's audit workload; for any other one
Bifunction.eval_rows call (_eval_scorer), about 24 evaluations per node on
the 952-node grid of the shipped annulus_inertial config at resolution 40.

The grid's arrays are (n, 2) or (n, 3), a shape on which numpy's fancy
indexing, its broadcasts of one row, its row sums and its reductions along
the long axis of a few columns are several times slower than need be. So
rows are gathered with np.take and np.compress (0.6 against 5.1 ms for the
shuffle of a 125,629-node grid, numpy 2.4, one core), row dots are summed
one column at a time (geometry._row_dots), the set's membership test
works on columns too (geometry._row_norms), and a block takes its
minimum by halving it in place (_vi_scorer).

A grid_solve call also makes as few full-grid arrays as it can, because
glibc returns a freed heap to the system and the next call faults it in
again, at about 2 us a page: an (n, 2) array of that grid is 490 pages.
The lattice is filled in place and tested MEMBERSHIP_SLAB rows at a time,
so the membership test makes no full-length temporary; the VI scorer keeps
one per-row term and forms T(u) - 2 kappa u for the active rows only. A
seed-1 audit pass of perfbench then makes 3,000 to 10,700 minor faults,
against 13,700 with a meshgrid lattice and full-length temporaries; where
in that range depends on which small objects the process left at the top
of its heap. Every array lives in one call: nothing is kept between calls
or in module state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, GridTooLarge, NonFiniteValue, SamplingExhausted
from .geometry import Array, ConstraintSet, _is_integer, _row_dots, _row_norms, as_vector
from .model import Bifunction, UREProblem, _enforce

MAX_GRID_POINTS = int(1e7)
MAX_GENERIC_EVALS = int(4e6)
MAX_BLOCK = 2**16  # pairs of one max-min block (for a VI a 512 KiB product); wider ones raised peak memory, not speed

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
    """The feasible nodes of gs's lattice, in the order of meshgrid's "ij"
    ravel, and its spacing. The lattice is filled one axis at a time into a
    single array, which goes once contains_batch has tested it.
    NonFiniteValue when a spacing or node is not finite: a box wider than
    the largest float has no lattice."""
    if s.dim > 3:
        raise GridTooLarge(f"grid oracle handles dimension <= 3, got {s.dim}")
    lo, hi = gs.box if gs.box is not None else s.bounding_box
    lo = as_vector(lo, s.dim, "box lower")
    hi = as_vector(hi, s.dim, "box upper")
    if np.any(lo > hi):
        raise ValueError("box needs lower <= upper componentwise")
    m = gs.resolution + 1
    total = m**s.dim
    if total > MAX_GRID_POINTS:
        raise GridTooLarge(f"{total} grid points exceeds the {MAX_GRID_POINTS} guard")
    with np.errstate(over="ignore", invalid="ignore"):
        axes = [np.linspace(lo[i], hi[i], m) for i in range(s.dim)]
    # an axis whose spacing overflows gets NaN nodes, so this refuses it too
    if not all(np.isfinite(a).all() for a in axes):
        raise NonFiniteValue(f"the grid's spacing or a node is not finite (box {lo.tolist()} to {hi.tolist()})")
    lattice = np.empty((m,) * s.dim + (s.dim,))
    for i, a in enumerate(axes):
        lattice[..., i] = a.reshape((m,) + (1,) * (s.dim - 1 - i))
    points = lattice.reshape(-1, s.dim)
    h = float(np.max((hi - lo) / gs.resolution))
    return np.compress(s.contains_batch(points), points, axis=0), h


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
    return 2.0 * float(_row_norms(grads).max())


def _grid_argmax(V: Array, G: Array, scorer) -> tuple[int, float]:
    """Argmax over rows u of V of m(u) = min over rows v of V of F(u, v) +
    kappa||v-u||^2, given G(u) = grad_v F(u, u) at each row and a scorer
    built on V (_vi_scorer, _eval_scorer). The v rows are shuffled once
    here, W = V in the order of default_rng(0).permutation, and scorer(W)
    gives score(rows, block): that minimum over the v rows W[block], a
    slice, for each u = V[rows].

    Rows are taken in the stable order of ||G||^2 (||T||^2 for a VI), the 8
    smallest first and then 2048 at a time, against v-blocks of 8, 32, 128,
    512, 2048 and then 4096 points, each of at most MAX_BLOCK pairs. A row's
    chunk sets the shape of the BLAS products it is scored in, and so the
    last bit of its m (see _vi_scorer); so the order is np.argsort's stable
    one and the shuffle default_rng(0).permutation's. After each block a row
    whose running minimum falls below the best completed row is abandoned,
    so every row of the first chunk completes; the 8-point first block
    drops most rows after 8 values. A dropped row's true m is already below
    a completed one, so the argmax is that of the dense max-min, and among
    equal m the first row of the stable order wins.
    """
    n = V.shape[0]
    order = np.argsort(_row_dots(G, G), kind="stable")
    score = scorer(np.take(V, np.random.default_rng(0).permutation(n), axis=0))

    best_m = -np.inf
    best_row = -1
    for rows in np.split(order, range(8, n, 2048)):
        # An abandoned row's running minimum is only an upper bound on its
        # true m; abandonment is sound because the true m can only be lower,
        # and the row was already beaten.
        mins = np.full(rows.shape[0], np.inf)
        start, width = 0, 8
        while start < n and rows.size:
            stop = start + min(width, MAX_BLOCK // rows.size)
            np.minimum(mins, score(rows, slice(start, stop)), out=mins)
            keep = mins >= best_m
            rows, mins = rows[keep], mins[keep]
            start, width = stop, min(4 * width, 4096)
        if rows.size and mins.max() > best_m:
            j = int(np.argmax(mins))
            best_m = float(mins[j])
            best_row = int(rows[j])
    return best_row, best_m


def _vi_scorer(T: Array, V: Array, kappa: float):
    """Block minima of a VI with T its operator at each row of V. For row u
    the inner objective over all v is one matrix-vector expression:
        (T(u) - 2 kappa u) . v + kappa ||v||^2 + (kappa ||u||^2 - T(u) . u),
    so a block is one product of shape (block, rows), reduced with a
    minimum over the block; the last term, added to the minima, rounds as
    it would on every entry. kappa ||v||^2 of every shuffled row and the
    last term of every row are formed once, and T(u) - 2 kappa u for the
    active rows of each block, which saves an (n, d) array for a few small
    products. BLAS may round a product differently in its last bit with the
    number of rows still active, so near-ties can break on that.

    The block is halved in place, each half's minimum taken with the
    other's over contiguous rows, and no array is made. numpy's minimum
    along axis 0 runs an inner loop as short as a row: on the first chunk's
    8 rows against every node it takes 85 us for 4096 x 8, halving 22 us.
    It is a few us faster on blocks of 128 rows or more, but the max-min of
    perfbench's seed-1 audit grids takes 59 ms halving every block, 58 ms
    with min(axis=0) from 16 rows up and 69 ms with it on every block. A
    minimum selects an entry, and no entry is -0.0 (kappa ||v||^2 >= +0.0),
    so the order of its comparisons leaves the bits alone; a NaN entry, in
    either order, drops its row.
    """
    const = _row_dots(V, V)
    const *= kappa
    const -= _row_dots(T, V)

    def on(W):
        vsq = _row_dots(W, W)
        vsq *= kappa

        def score(rows, block):
            lin = np.take(V, rows, axis=0)
            lin *= 2.0 * kappa
            np.subtract(np.take(T, rows, axis=0), lin, out=lin)
            out = W[block] @ lin.T
            out += vsq[block, None]
            b = out.shape[0]
            while b > 1:
                h = b // 2
                np.minimum(out[:h], out[b - h : b], out=out[:h])
                b -= h
            return out[0] + const[rows]

        return score

    return on


def _eval_scorer(f: Bifunction, V: Array, kappa: float):
    """Block minima of any bifunction: one eval_rows call on the pairs of
    the active rows of V and the block, plus kappa ||v - u||^2."""

    def on(W):
        def score(rows, block):
            B = W[block]
            U = np.repeat(np.take(V, rows, axis=0), B.shape[0], axis=0)
            P = np.tile(B, (rows.size, 1))
            D = P - U
            vals = f.eval_rows(U, P) + kappa * _row_dots(D, D)
            return vals.reshape(rows.size, B.shape[0]).min(axis=1)

        return score

    return on


def grid_solve(p: UREProblem, gs: GridSpec) -> OracleResult:
    """Exhaustive search for the grid point closest to solving the problem.

    Returns the feasible grid point with the largest worst-case inner value
    m(u), certified when m(u) >= -C h for the grid spacing h and a sampled
    Lipschitz bound C of the inner objective. Without a VI operator,
    n^2 > MAX_GENERIC_EVALS raises before any evaluation.
    """
    f = p.bifunction
    V, h = _grid_points(p.feasible_set, gs)
    n = V.shape[0]
    if n == 0:
        raise EmptyGrid("no grid point passed the membership test")
    if f.vi_operator is None and n * n > MAX_GENERIC_EVALS:
        raise GridTooLarge(
            f"{n}^2 bifunction evaluations exceed the {MAX_GENERIC_EVALS} guard; "
            "lower the resolution for bifunctions without a VI operator"
        )
    tol = _inner_lipschitz(p) * h
    G = f.grad_v_rows(V, V)
    scorer = _vi_scorer(G, V, p.kappa) if f.vi_operator is not None else _eval_scorer(f, V, p.kappa)
    row, m_best = _grid_argmax(V, G, scorer)
    return OracleResult(V[row], float(m_best), bool(m_best >= -tol), float(tol), h, n)


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
    if not (_is_integer(n_pairs) and n_pairs > 0):
        raise ValueError(f"n_pairs must be a positive integer; got {n_pairs!r}")
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and nonnegative; got {kappa!r}")
    U = s.sample(n_pairs, 0)
    V = s.sample(n_pairs, 1)
    D = V - U
    q = kappa * _row_dots(D, D)
    bad = np.flatnonzero((f.eval_rows(U, V) + q >= 0.0) & (f.eval_rows(V, U) + q > 1e-10))
    found = tuple((U[i], V[i]) for i in bad[:25])
    return PseudomonotoneReport(bad.size == 0, n_pairs, int(bad.size), found)
