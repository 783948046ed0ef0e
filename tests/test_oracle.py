"""Grid oracle and sampling checkers.

The oracle evaluates the bifunction exhaustively and shares nothing with the
solvers, so the frozen outputs here double as reference values for the
solver tests.  A 400-cell grid over the default bounding boxes lands the
analytic solutions of the shipped problems exactly on grid nodes.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from proxequil import (
    Annulus,
    Ball,
    Bifunction,
    Box,
    DimensionMismatch,
    EmptyGrid,
    GridSpec,
    GridTooLarge,
    Halfspace,
    NonFiniteValue,
    SamplingExhausted,
    Sphere,
    TwoBallUnion,
    UREProblem,
    ValidationError,
    check_pseudomonotone,
    finite_diff_gradient,
    grid_solve,
    make_vi_bifunction,
)
from proxequil.config import build_problem, parse_config
from proxequil.geometry import _row_dots
from proxequil.oracle import (
    MAX_GENERIC_EVALS,
    _grid_argmax,
    _grid_points,
    _inner_lipschitz,
    _vi_scorer,
)
from problems import (
    annulus_pull_inner,
    annulus_pull_outer,
    ball10_identity,
    ball_pull,
    pull_bifunction,
    two_ball_trap,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_ball_pull_frozen():
    res = grid_solve(ball_pull(), GridSpec(400))
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-12)
    assert res.certified
    assert res.spacing == pytest.approx(0.005)
    assert abs(res.inner_value) <= 1e-12


def test_annulus_inner_frozen():
    res = grid_solve(annulus_pull_inner(), GridSpec(400))
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-12)
    assert res.certified
    assert res.spacing == pytest.approx(0.01)
    assert abs(res.inner_value) <= 1e-12


def test_annulus_outer_frozen():
    res = grid_solve(annulus_pull_outer(), GridSpec(400))
    np.testing.assert_allclose(res.point, [2.0, 0.0], atol=1e-12)
    assert res.certified


def test_ball10_identity_frozen():
    res = grid_solve(ball10_identity(), GridSpec(400))
    np.testing.assert_allclose(res.point, [0.0, 0.0], atol=1e-12)
    assert res.certified
    assert res.spacing == pytest.approx(0.05)


def test_two_ball_trap_prefers_global_basin():
    """The certified point tracks the global solution (-1, 0) to one cell."""
    res = grid_solve(two_ball_trap(), GridSpec(400))
    assert res.certified
    np.testing.assert_allclose(res.point, [-1.005, 0.0], atol=1e-12)
    assert np.linalg.norm(res.point - np.array([-1.0, 0.0])) <= 1.5 * res.spacing
    assert res.spacing == pytest.approx(0.015)


def test_convex_vi_matches_analytic_projection():
    """For T(u) = u - p on a convex set the solution is the projection of p."""
    box = Box(np.zeros(2), np.ones(2))
    p = UREProblem(pull_bifunction([2.0, 2.0]), box, k=1.0, r=np.inf)
    res = grid_solve(p, GridSpec(200))
    assert res.certified
    assert np.linalg.norm(res.point - np.array([1.0, 1.0])) <= 1.5 * res.spacing

    res = grid_solve(ball_pull(), GridSpec(200))
    assert np.linalg.norm(res.point - np.array([1.0, 0.0])) <= 1.5 * res.spacing


def test_refinement_keeps_certified_point():
    """Doubling the resolution moves the best point at most 2 coarse cells."""
    coarse = grid_solve(ball_pull(), GridSpec(400))
    fine = grid_solve(ball_pull(), GridSpec(800))
    assert fine.certified
    assert np.linalg.norm(fine.point - coarse.point) <= 2.0 * coarse.spacing


def test_zero_bifunction_every_point_solves():
    """With F identically zero, m(u) = min_v kappa*||v-u||^2 = 0 at v = u.
    Every row ties, so the search abandons none: it makes all n^2
    evaluations, and the first feasible node wins."""
    calls = [0]

    def zero(u, v):
        calls[0] += 1
        return 0.0

    p = UREProblem(Bifunction(eval=zero, grad_v=lambda u, v: np.zeros(2)), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
    res = grid_solve(p, GridSpec(20))
    assert res.certified
    assert res.inner_value == 0.0
    assert res.n_feasible > 0
    assert calls[0] == res.n_feasible**2
    lattice = np.linspace(-1.0, 1.0, 21)
    first = next(np.array([x, y]) for x in lattice for y in lattice if x * x + y * y <= 1.0)
    np.testing.assert_array_equal(res.point, first)


def _random_vi_case(seed, dim, kind):
    """A seeded set of the given kind, an affine T and a grid resolution."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, dim)
    if kind == "ball":
        s = Ball(c, rng.uniform(0.5, 2.0))
    elif kind == "annulus":
        inner = rng.uniform(0.3, 1.0)
        s = Annulus(c, inner, inner + rng.uniform(0.3, 1.5))
    else:
        e = np.zeros(dim)
        e[0] = rng.uniform(1.4, 2.5)
        s = TwoBallUnion(c - e, rng.uniform(0.3, 1.2), c + e, rng.uniform(0.3, 1.2))
    A = rng.normal(size=(dim, dim))
    b = rng.normal(size=dim)
    res = int(rng.integers(4, 41 if dim == 2 else 17))
    return s, make_vi_bifunction(lambda u: u @ A.T + b), res


def _lattice(s, res):
    """The feasible nodes of a res-cell grid over the set's bounding box."""
    lo, hi = s.bounding_box
    axes = [np.linspace(lo[i], hi[i], res + 1) for i in range(s.dim)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return points[s.contains_batch(points)]


def _dense_max_min(f, V, kappa):
    """m(u) = min over every v of F(u, v) + kappa ||v - u||^2, one row at a time."""
    return np.array([np.min(f.eval_rows(u, V) + kappa * np.sum((V - u) ** 2, axis=1)) for u in V])


def _twin(f, calls=None):
    """f without its VI operator, so that grid_solve scores it through
    eval_rows; each F evaluation adds one to calls[0] when calls is given."""

    def ev(u, v):
        if calls is not None:
            calls[0] += 1
        return f.eval(u, v)

    return Bifunction(eval=ev, grad_v=f.grad_v)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["ball", "annulus", "two_ball_union"])
@pytest.mark.parametrize("dim", [2, 3])
def test_vi_grid_max_min_matches_dense(dim, kind, kappa):
    """The early-abandoning max-min returns the dense n x n max-min, for a VI
    and for its twin without the VI operator. The twin's grids above
    MAX_GENERIC_EVALS (two 3-d balls of 2,109 nodes) raise GridTooLarge
    before any evaluation of F."""
    for seed in range(6):
        s, f, res = _random_vi_case(seed, dim, kind)
        V = _lattice(s, res)
        m = _dense_max_min(f, V, kappa)
        top, second = np.sort(m)[::-1][:2]
        calls = [0]
        for g in (f, _twin(f, calls)):
            # grid_solve reads only these three fields; a namespace also admits
            # kappa = 0 on the nonconvex sets, which UREProblem refuses.
            problem = SimpleNamespace(bifunction=g, feasible_set=s, kappa=kappa)
            if g is not f and V.shape[0] ** 2 > MAX_GENERIC_EVALS:
                with pytest.raises(GridTooLarge):
                    grid_solve(problem, GridSpec(res))
                assert calls == [0]
                continue
            out = grid_solve(problem, GridSpec(res))
            assert out.n_feasible == V.shape[0]
            assert out.inner_value == pytest.approx(m.max(), abs=1e-9)
            if top - second > 1e-9:
                np.testing.assert_array_equal(out.point, V[np.argmax(m)])


def _dense_max_min_in_row_blocks(T, V, kappa):
    """m(u) = min over every v of <T(u), v - u> + kappa ||v - u||^2, 512 rows at a time."""
    m = np.empty(V.shape[0])
    vsq = np.sum(V * V, axis=1)
    for start in range(0, V.shape[0], 512):
        U, TU = V[start : start + 512], T[start : start + 512]
        sq = vsq[None, :] - 2.0 * U @ V.T + np.sum(U * U, axis=1)[:, None]
        m[start : start + 512] = (TU @ V.T - np.sum(TU * U, axis=1)[:, None] + kappa * sq).min(axis=1)
    return m


@pytest.mark.parametrize("kappa", [0.0, 0.5])
@pytest.mark.parametrize("dim, kind, res, seed", [(2, "annulus", 100, 3), (3, "ball", 20, 2)])
def test_vi_grid_max_min_matches_dense_across_row_chunks(dim, kind, res, seed, kappa):
    """On grids of more than 8 + 4096 nodes the rows after the first 8 run in
    2048-row chunks, and the argmax is still the dense max-min's. T(u) =
    A (u - p) with A = I + skew and p outside the set puts the winner on the
    boundary, hundreds of rows into the stable order of ||T||^2."""
    rng = np.random.default_rng(seed)
    s = Annulus(np.zeros(dim), 0.5, 1.0) if kind == "annulus" else Ball(np.zeros(dim), 1.0)
    S = rng.normal(size=(dim, dim))
    p = rng.normal(size=dim)
    V = _lattice(s, res)
    assert V.shape[0] > 8 + 4096
    T = (V - 1.6 * p / np.linalg.norm(p)) @ (np.eye(dim) + 2.0 * (S - S.T)).T
    row, value = _grid_argmax(V, T, _vi_scorer(T, V, kappa))
    m = _dense_max_min_in_row_blocks(T, V, kappa)
    assert value == pytest.approx(m.max(), abs=1e-9)
    top, second = np.sort(m)[::-1][:2]
    assert top - second > 1e-3
    assert row == np.argmax(m)
    order = np.argsort(np.einsum("ij,ij->i", T, T), kind="stable")
    assert np.flatnonzero(order == row)[0] >= 8


def test_vi_grid_ties_keep_the_first_row_of_the_stable_order():
    """T(u) = (2 - y, 0) on the unit box: every node of the face x = 0 ties
    at m = 0 exactly and no other node reaches it. The rows are taken in the
    stable order of ||T||^2 = (2 - y)^2, so the corner (0, 1) wins, not the
    first node (0, 0) in index order."""
    box = Box(np.zeros(2), np.ones(2))
    f = make_vi_bifunction(lambda u: np.stack([2.0 - u[..., 1], np.zeros_like(u[..., 0])], axis=-1))
    V = _lattice(box, 70)
    T = f.grad_v_rows(V, V)
    m = _dense_max_min_in_row_blocks(T, V, 0.0)
    assert m.max() == 0.0
    assert np.array_equal(np.flatnonzero(m == 0.0), np.flatnonzero(V[:, 0] == 0.0))
    row, value = _grid_argmax(V, T, _vi_scorer(T, V, 0.0))
    assert value == 0.0
    np.testing.assert_array_equal(V[row], [0.0, 1.0])
    res = grid_solve(UREProblem(f, box, k=1.0, r=np.inf), GridSpec(70))
    np.testing.assert_array_equal(res.point, [0.0, 1.0])


def test_generic_grid_ties_keep_the_first_row_of_the_stable_order():
    """The twin of the tie case above, without its VI operator, on a 20-cell
    grid: its rows follow the stable order of ||grad_v F(u, u)||^2 = ||T(u)||^2,
    so it also picks the corner (0, 1) among the tied nodes of x = 0, and not
    the first of them in index order."""
    box = Box(np.zeros(2), np.ones(2))
    f = make_vi_bifunction(lambda u: np.stack([2.0 - u[..., 1], np.zeros_like(u[..., 0])], axis=-1))
    V = _lattice(box, 20)
    m = _dense_max_min(f, V, 0.0)
    assert np.array_equal(np.flatnonzero(m == m.max()), np.flatnonzero(V[:, 0] == 0.0))
    res = grid_solve(UREProblem(_twin(f), box, k=1.0, r=np.inf), GridSpec(20))
    assert res.inner_value == 0.0
    np.testing.assert_array_equal(res.point, [0.0, 1.0])


def test_grid_ties_follow_the_stable_row_order():
    """On the box [-1, 1]^2 with kappa = 0 and T(u) = (1 if u_y <= 0 else 0, 0),
    every node with u_y > 0 has T = 0 and ties at m = 0. Only a stable sort
    of ||T||^2 keeps those rows in index order, so the first of them,
    (-1, 0.1), wins for the VI and for its twin without a VI operator; an
    unstable sort may put another tied row first."""
    box = Box(-np.ones(2), np.ones(2))
    f = make_vi_bifunction(
        lambda u: np.stack([np.where(u[..., 1] <= 0.0, 1.0, 0.0), np.zeros_like(u[..., 0])], axis=-1)
    )
    V = _lattice(box, 20)
    m = _dense_max_min(f, V, 0.0)
    assert m.max() == 0.0 and np.all(m[V[:, 1] > 0.0] == 0.0)
    first = V[np.flatnonzero(V[:, 1] > 0.0)[0]]
    np.testing.assert_allclose(first, [-1.0, 0.1], rtol=0, atol=1e-15)
    for g in (f, _twin(f)):
        res = grid_solve(UREProblem(g, box, k=1.0, r=np.inf), GridSpec(20))
        assert res.inner_value == 0.0
        np.testing.assert_array_equal(res.point, first)


def test_generic_grid_abandons_beaten_rows():
    """The twin of the shipped annulus_inertial config without its VI
    operator, at resolution 40 (952 nodes), makes at most 50 F evaluations
    per node, where a scan that abandons no row makes 952, and finds the
    VI's node."""
    p = build_problem(parse_config(str(CONFIG_DIR / "annulus_inertial.cfg")))
    calls = [0]
    twin = UREProblem(_twin(p.bifunction, calls), p.feasible_set, k=p.k, r=p.r)
    res = grid_solve(twin, GridSpec(40))
    assert res.n_feasible == 952
    assert calls[0] <= 50 * res.n_feasible
    np.testing.assert_array_equal(res.point, grid_solve(p, GridSpec(40)).point)


def test_vi_grid_zero_operator_keeps_every_row():
    """With T = 0 and kappa = 0 every row ties at m = 0, so none is dropped
    and the first 8 rows run every v-block width (8, 32, 128, 512, 2048,
    then 4096 points). The later 2048-row chunks run 32-point blocks, the
    widest whose product fits in MAX_BLOCK = 2^16 entries."""
    zero = make_vi_bifunction(lambda u: np.zeros_like(u))
    p = UREProblem(zero, Ball(np.zeros(2), 1.0), k=1.0, r=np.inf)
    res = grid_solve(p, GridSpec(120))
    assert res.n_feasible > 8 + 32 + 128 + 512 + 2048 + 4096
    assert res.inner_value == 0.0
    assert res.certified
    # Ties keep the first row of the stable order: the first feasible node.
    lattice = np.linspace(-1.0, 1.0, 121)
    first = next(np.array([x, y]) for x in lattice for y in lattice if x * x + y * y <= 1.0)
    np.testing.assert_array_equal(res.point, first)


def test_inner_lipschitz_fallback_keeps_kappa_term():
    """A halfspace that meets its window in a 9e-4 share yields 8 sampled
    points but not 1000, so the bound falls back to 8 pairs; they must be
    distinct pairs, or the 2 kappa (v - u) part of the gradient vanishes.
    Here T(u) + 2 kappa (v - u) = v - c."""
    s = Halfspace(np.array([1.0, 0.0]), 0.0009, np.zeros(2), np.ones(2))
    with pytest.raises(SamplingExhausted):
        s.sample(1000, 0)
    c = np.array([0.2, 0.0])
    p = UREProblem(make_vi_bifunction(lambda u: u - c), s, k=1.0, r=1.0)
    V = s.sample(8, 1)
    assert _inner_lipschitz(p) == pytest.approx(2.0 * np.linalg.norm(V - c, axis=1).max(), rel=1e-12)


def test_oracle_stays_independent_of_solver_code():
    """oracle.py imports only errors, geometry and model from the package
    and never names the solvers' projection, residual or minimizer."""
    path = Path(__file__).resolve().parent.parent / "src" / "proxequil" / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                modules |= {node.module} if node.module else {a.name for a in node.names}
            elif node.module.split(".")[0] == "proxequil":
                modules.add(node.module)
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name for a in node.names if a.name.split(".")[0] == "proxequil"}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.arg)):
            names.add(node.name if isinstance(node, ast.FunctionDef) else node.arg)
    assert modules <= {"errors", "geometry", "model"}
    assert not names & {"project", "problem_residual", "multistart_minimize", "schemes", "gap"}


def test_grid_solve_same_point_with_and_without_vi_operator():
    p = ball_pull()
    f = p.bifunction
    twin = UREProblem(Bifunction(eval=f.eval, grad_v=f.grad_v), p.feasible_set, k=p.k, r=p.r)
    vi, generic = grid_solve(p, GridSpec(20)), grid_solve(twin, GridSpec(20))
    np.testing.assert_array_equal(vi.point, generic.point)
    np.testing.assert_allclose(vi.point, [1.0, 0.0], atol=1e-12)
    assert vi.tolerance == pytest.approx(generic.tolerance, rel=1e-12)


def test_grid_solve_rejects_an_operator_that_ignores_rows():
    f = make_vi_bifunction(lambda u: u.sum() * np.ones(2))
    with pytest.raises(DimensionMismatch):
        grid_solve(UREProblem(f, Ball(np.zeros(2), 1.0), k=1.0, r=1.0), GridSpec(20))


def test_custom_box_restricts_search():
    gs = GridSpec(100, box=(np.array([0.5, -0.5]), np.array([1.0, 0.5])))
    res = grid_solve(ball_pull(), gs)
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-12)


def test_grid_guards():
    for bad in (3.0, 2.5, math.inf, math.nan, True, False):
        with pytest.raises(ValidationError, match=rf"^resolution must be an integer; got {re.escape(repr(bad))}$"):
            GridSpec(bad)
    for bad in (1, 0, -2):
        with pytest.raises(ValidationError, match=rf"^resolution is too small; got {bad}$"):
            GridSpec(bad)
    with pytest.raises(GridTooLarge):
        grid_solve(
            UREProblem(pull_bifunction([0.0] * 4), Ball(np.zeros(4), 1.0), k=1.0, r=1.0),
            GridSpec(10),
        )
    with pytest.raises(GridTooLarge):
        grid_solve(ball_pull(), GridSpec(4000))


def test_grid_points_refuse_a_box_wider_than_the_floats():
    """A ball of radius 1e308 has a box 2e308 wide: its spacing overflowed to
    inf and linspace's nodes to NaN, and the corner (1e308, 1e308) passed
    the membership test as the oracle point. Now no node is made."""
    for s in (Ball(np.zeros(2), 1e308), Box(np.full(3, -1e308), np.full(3, 1e308))):
        with pytest.raises(NonFiniteValue, match=r"^the grid's spacing or a node is not finite \(box "):
            _grid_points(s, GridSpec(40))


def test_grid_solve_rejects_an_inverted_box():
    """A box whose lower bound exceeds its upper one on any axis raises Box's
    own message before a node is made; before, the shipped ball at
    resolution 40 with the box ((1, 1), (-1, -1)) returned a negative
    spacing and tolerance and certified: False at the exact solution. A
    flat box, lower == upper on one axis, is still a grid."""
    p = build_problem(parse_config(str(CONFIG_DIR / "ball_proximal.cfg")))
    for lo, hi in (([1.0, 1.0], [-1.0, -1.0]), ([-1.0, 1.0], [1.0, -1.0])):
        with pytest.raises(ValueError, match=r"^box needs lower <= upper componentwise$"):
            grid_solve(p, GridSpec(40, box=(np.array(lo), np.array(hi))))
    flat = grid_solve(p, GridSpec(40, box=(np.zeros(2), np.array([1.0, 0.0]))))
    assert flat.spacing == 0.025 and flat.tolerance > 0.0 and flat.certified
    np.testing.assert_array_equal(flat.point, [1.0, 0.0])


@pytest.mark.parametrize(
    "s, res, box",
    [
        (Ball(np.array([0.3]), 1.0), 50, None),
        (Annulus(np.array([0.1, -0.2]), 0.5, 1.0), 60, None),
        (TwoBallUnion(np.array([-2.0, 0.0, 0.1]), 1.0, np.array([2.0, 0.0, 0.0]), 0.7), 20, None),
        (Ball(np.zeros(2), 1.0), 37, (np.array([0.1, -0.7]), np.array([1.3, 0.2]))),
    ],
)
def test_grid_points_are_the_feasible_nodes_of_the_meshgrid_lattice(s, res, box):
    """_grid_points fills the lattice one axis at a time into one array; its
    feasible nodes are those of meshgrid(..., indexing="ij") plus stack,
    bit for bit and in the same order, in dimensions 1 to 3."""
    lo, hi = box if box is not None else s.bounding_box
    axes = [np.linspace(lo[i], hi[i], res + 1) for i in range(s.dim)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    V, h = _grid_points(s, GridSpec(res, box=box))
    want = points[s.contains_batch(points)]
    assert V.shape == want.shape and V.flags.c_contiguous
    assert np.array_equal(V.view(np.uint64), want.view(np.uint64))
    assert h == float(np.max((hi - lo) / res))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_dots_have_the_bits_of_einsum(d):
    """_row_dots(A, B) gives the bits of np.einsum("ij,ij->i", A, B), signed
    zeros included, on C-order, F-order and strided rows of mixed
    magnitudes, exact cancellations, zeros of both signs and +-inf."""
    rng = np.random.default_rng(40 + d)
    special = np.array([0.0, -0.0, 1.0, -1.0, 3.0, np.inf, -np.inf])
    for n in (1, 5, 1000, 10**5):
        wide = rng.standard_normal((n, 2 * d)) * 10.0 ** rng.integers(-150, 151, (n, 2 * d)).astype(float)
        marked = rng.random((n, 2 * d)) < 0.3
        wide[marked] = rng.choice(special, marked.sum())
        A, B = wide[:, :d].copy(), wide[:, d:].copy()
        for a, b in ((A, B), (A, A), (np.asfortranarray(A), B), (wide[:, ::2], wide[:, 1::2])):
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = _row_dots(a, b), np.einsum("ij,ij->i", a, b)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, a.strides)


_SHIPPED_ORACLE_BITS = """
import json, sys
from pathlib import Path
from proxequil.config import build_problem, parse_config
from proxequil.oracle import GridSpec, grid_solve
out = {}
for path in sorted(Path(sys.argv[1]).glob("*.cfg")):
    rc = parse_config(str(path))
    r = grid_solve(build_problem(rc), GridSpec(rc.oracle_resolution))
    out[path.name] = [r.point.tobytes().hex(), float.hex(r.inner_value), r.n_feasible]
print(json.dumps(out))
"""


def test_grid_solve_gives_the_same_bits_in_every_process():
    """The five shipped configs at their default resolution give the same
    oracle point and inner value bits in fresh interpreters with other hash
    seeds and other glibc allocator settings: MALLOC_PERTURB_ fills new and
    freed heap memory with a byte, which shows an entry of np.empty read
    before it is written, and a 1e9 mmap threshold moves every array onto
    the heap, at other addresses and alignments. The processes are compared
    with each other, not with frozen bits, which differ between BLAS builds."""
    src = Path(__file__).resolve().parent.parent / "src"
    variants = [
        {"PYTHONHASHSEED": "0"},
        {"PYTHONHASHSEED": "4242"},
        {"MALLOC_PERTURB_": "165"},
        {"MALLOC_PERTURB_": "90", "MALLOC_MMAP_THRESHOLD_": "1000000000"},
    ]
    outputs = []
    for variant in variants:
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "PYTHONHASHSEED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        env.update(variant)
        run = subprocess.run(
            [sys.executable, "-c", _SHIPPED_ORACLE_BITS, str(CONFIG_DIR)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0 and run.stderr == "", (variant, run.stderr)
        outputs.append(json.loads(run.stdout))
    assert sorted(outputs[0]) == sorted(p.name for p in CONFIG_DIR.glob("*.cfg")) and len(outputs[0]) == 5
    for variant, out in zip(variants[1:], outputs[1:]):
        assert out == outputs[0], variant


def test_empty_grid_raises():
    """A search box that misses the sphere leaves no feasible node."""
    s = Sphere(np.array([0.1, 0.0]), 1.0)
    p = UREProblem(pull_bifunction([2.0, 0.0]), s, k=1.0, r=1.0)
    gs = GridSpec(50, box=(np.array([-0.5, -0.5]), np.array([0.5, 0.5])))
    with pytest.raises(EmptyGrid):
        grid_solve(p, gs)


def test_pseudomonotone_identity_vi():
    ident = make_vi_bifunction(lambda u: u)
    ball = Ball(np.zeros(2), 1.0)
    for kappa in (0.0, 0.5):
        rep = check_pseudomonotone(ident, ball, kappa, n_pairs=2000)
        assert rep.passed
        assert rep.n_counterexamples == 0


def test_pseudomonotone_monotone_affine():
    """Monotone operators are pseudomonotone: a PSD affine VI never fails."""
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    mono = make_vi_bifunction(lambda u: u @ A.T)
    box = Box(-np.ones(2), np.ones(2))
    rep = check_pseudomonotone(mono, box, 0.0, n_pairs=10000)
    assert rep.passed
    assert rep.n_counterexamples == 0
    assert rep.n_pairs == 10000


def test_pseudomonotone_rejects_a_non_finite_or_negative_kappa():
    """kappa = nan made every comparison false, so the check passed with no
    counterexample where kappa = 0 finds them."""
    flip = make_vi_bifunction(lambda u: -u)
    ball = Ball(np.zeros(2), 1.0)
    assert not check_pseudomonotone(flip, ball, 0.0, n_pairs=2000).passed
    for bad in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValueError, match=f"^kappa must be finite and nonnegative; got {bad!r}$"):
            check_pseudomonotone(flip, ball, bad, n_pairs=2000)


@pytest.mark.parametrize("n_pairs", [2.5, math.nan, True, 3.0, 0, -1])
def test_pseudomonotone_names_a_bad_n_pairs(n_pairs):
    """n_pairs is checked here, so a fractional, NaN or bool count does not
    reach sample's message about an n the caller never passed."""
    ident = make_vi_bifunction(lambda u: u)
    with pytest.raises(ValueError, match=rf"^n_pairs must be a positive integer; got {re.escape(repr(n_pairs))}$"):
        check_pseudomonotone(ident, Ball(np.zeros(2), 1.0), 0.0, n_pairs=n_pairs)


def test_pseudomonotone_sign_flip_fails():
    flip = Bifunction(
        eval=lambda u, v: float(-u @ (v - u)),
        grad_v=lambda u, v: -u,
    )
    box = Box(-np.ones(2), np.ones(2))
    rep = check_pseudomonotone(flip, box, 0.0, n_pairs=10000)
    assert not rep.passed
    assert rep.n_counterexamples >= 1
    assert 1 <= len(rep.counterexamples) <= 25
    u, v = rep.counterexamples[0]
    assert u.shape == (2,) and v.shape == (2,)


def _pseudomonotone_reference(f, s, kappa, n_pairs):
    """check_pseudomonotone's count and counterexamples, one pair at a time."""
    found, n_bad = [], 0
    for u, v in zip(s.sample(n_pairs, 0), s.sample(n_pairs, 1)):
        q = kappa * float((v - u) @ (v - u))
        if f(u, v) + q >= 0.0 and f(v, u) + q > 1e-10:
            n_bad += 1
            if len(found) < 25:
                found.append((u, v))
    return n_bad, found


_ROTATE = np.array([[0.3, -1.0], [1.0, 0.2]])


@pytest.mark.parametrize(
    "f, s",
    [
        (make_vi_bifunction(lambda u: u @ _ROTATE.T - np.array([0.5, 0.1])), Annulus(np.zeros(2), 1.0, 2.0)),
        (
            Bifunction(eval=lambda u, v: float((_ROTATE @ u) @ (v - u)), grad_v=lambda u, v: _ROTATE @ u),
            TwoBallUnion(np.array([-2.0, 0.0]), 1.0, np.array([2.0, 0.0]), 1.0),
        ),
    ],
    ids=["vi-annulus", "plain-two-ball-union"],
)
def test_pseudomonotone_matches_pairwise_reference(f, s):
    """The two batch evaluations give the per-pair loop's verdict exactly:
    the same count and the same 25 counterexample pairs, bit for bit."""
    rep = check_pseudomonotone(f, s, 0.3, n_pairs=4000)
    n_bad, found = _pseudomonotone_reference(f, s, 0.3, 4000)
    assert not rep.passed and rep.n_counterexamples == n_bad > 25
    assert len(rep.counterexamples) == len(found) == 25
    for (u, v), (u_ref, v_ref) in zip(rep.counterexamples, found):
        assert u.tobytes() == u_ref.tobytes() and v.tobytes() == v_ref.tobytes()


def test_finite_diff_quadratic():
    u = np.array([0.5, -0.25])
    grad = finite_diff_gradient(lambda x: 0.5 * float(x @ x), u)
    np.testing.assert_allclose(grad, u, atol=1e-9)


def test_finite_diff_constant_is_zero():
    grad = finite_diff_gradient(lambda x: 3.25, np.array([1.0, 2.0, 3.0]))
    assert np.all(grad == 0.0)


def test_finite_diff_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        finite_diff_gradient(lambda x: float("nan"), np.zeros(2))
