"""Grid oracle and sampling checkers.

The oracle evaluates the bifunction exhaustively and shares nothing with the
solvers, so the frozen outputs here double as reference values for the
solver tests.  A 400-cell grid over the default bounding boxes lands the
analytic solutions of the shipped problems exactly on grid nodes.
"""

import ast
import math
import re
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
from proxequil.oracle import _inner_lipschitz
from problems import (
    annulus_pull_inner,
    annulus_pull_outer,
    ball10_identity,
    ball_pull,
    pull_bifunction,
    two_ball_trap,
)


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
    """With F identically zero, m(u) = min_v kappa*||v-u||^2 = 0 at v = u."""
    zero = Bifunction(
        eval=lambda u, v: 0.0,
        grad_v=lambda u, v: np.zeros(2),
    )
    p = UREProblem(zero, Ball(np.zeros(2), 1.0), k=1.0, r=1.0)
    res = grid_solve(p, GridSpec(20))
    assert res.certified
    assert res.inner_value == 0.0
    assert res.n_feasible > 0


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


def _dense_max_min(f, V, kappa):
    """m(u) = min over every v of F(u, v) + kappa ||v - u||^2, one row at a time."""
    return np.array([np.min(f.eval_rows(u, V) + kappa * np.sum((V - u) ** 2, axis=1)) for u in V])


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["ball", "annulus", "two_ball_union"])
@pytest.mark.parametrize("dim", [2, 3])
def test_vi_grid_max_min_matches_dense(dim, kind, kappa):
    """The early-abandoning VI max-min returns the dense n x n max-min."""
    for seed in range(6):
        s, f, res = _random_vi_case(seed, dim, kind)
        lo, hi = s.bounding_box
        axes = [np.linspace(lo[i], hi[i], res + 1) for i in range(dim)]
        points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        V = points[s.contains_batch(points)]
        # grid_solve reads only these three fields; a namespace also admits
        # kappa = 0 on the nonconvex sets, which UREProblem refuses.
        out = grid_solve(SimpleNamespace(bifunction=f, feasible_set=s, kappa=kappa), GridSpec(res))
        m = _dense_max_min(f, V, kappa)
        assert out.n_feasible == V.shape[0]
        assert out.inner_value == pytest.approx(m.max(), abs=1e-9)
        top, second = np.sort(m)[::-1][:2]
        if top - second > 1e-9:
            np.testing.assert_array_equal(out.point, V[np.argmax(m)])


def test_vi_grid_zero_operator_keeps_every_row():
    """With T = 0 and kappa = 0 every row ties at m = 0, so none is dropped
    and every v-block size runs (128, 512, 2048, then 4096 points)."""
    zero = make_vi_bifunction(lambda u: np.zeros_like(u))
    p = UREProblem(zero, Ball(np.zeros(2), 1.0), k=1.0, r=np.inf)
    res = grid_solve(p, GridSpec(120))
    assert res.n_feasible > 128 + 512 + 2048 + 4096
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
