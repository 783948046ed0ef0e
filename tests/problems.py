"""Shared problem instances and boundary-point helpers for the test suite."""

import numpy as np

from proxequil import (
    Annulus,
    Ball,
    Box,
    BoxMinusBall,
    Halfspace,
    Sphere,
    TwoBallUnion,
    UREProblem,
    make_vi_bifunction,
)


def pull_bifunction(target):
    """VI bifunction for T(u) = u - target, the gradient of 0.5*||u - target||^2."""
    target = np.asarray(target, dtype=float)

    def T(u):
        return u - target

    def JT(u):
        return np.eye(target.size)

    return make_vi_bifunction(T, JT)


def ball_pull():
    """Unit ball pulled toward (2, 0); unique solution (1, 0)."""
    return UREProblem(pull_bifunction([2.0, 0.0]), Ball(np.zeros(2), 1.0), k=1.0, r=1.0)


def annulus_pull_inner():
    """Annulus [1, 2] pulled toward the hole point (0.2, 0); solution (1, 0)."""
    return UREProblem(
        pull_bifunction([0.2, 0.0]), Annulus(np.zeros(2), 1.0, 2.0), k=1.0, r=1.0
    )


def annulus_pull_outer():
    """Annulus [1, 2] pulled toward (2, 0) on the outer rim; solution (2, 0)."""
    return UREProblem(
        pull_bifunction([2.0, 0.0]), Annulus(np.zeros(2), 1.0, 2.0), k=1.0, r=1.0
    )


def ball10_identity():
    """Identity VI on the radius-10 ball; its gap at alpha=1 is 0.5*||u||^2."""
    return UREProblem(pull_bifunction([0.0, 0.0]), Ball(np.zeros(2), 10.0), k=1.0, r=1.0)


def two_ball_trap():
    """Union of unit balls at (-2, 0) and (2, 0), pulled toward (-0.5, 0).

    The global solution is (-1, 0).  Starts inside the right ball converge to
    the local trap (1, 0), which only the grid oracle can flag.
    """
    s = TwoBallUnion(np.array([-2.0, 0.0]), 1.0, np.array([2.0, 0.0]), 1.0)
    return UREProblem(pull_bifunction([-0.5, 0.0]), s, k=1.0, r=1.0)


def shipped_sets():
    """One representative instance of every constraint-set kind."""
    return [
        Box(np.array([-1.0, -0.5]), np.array([2.0, 1.5])),
        Ball(np.array([0.5, -0.5]), 2.0),
        Halfspace(np.array([1.0, 0.0]), 1.0, np.array([-3.0, -3.0]), np.array([3.0, 3.0])),
        Sphere(np.array([0.0, 1.0]), 2.0),
        Annulus(np.zeros(2), 1.0, 2.0),
        BoxMinusBall(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), np.zeros(2), 1.0),
        TwoBallUnion(np.array([-2.0, 0.0]), 1.0, np.array([2.0, 0.0]), 1.0),
    ]


def exterior_boundary_pairs(s, n, seed):
    """Pairs (u, w): u = P(x) for exterior x, w = (x - u)/||x - u||.

    By the nearest-point construction w is a genuine unit proximal normal
    at the boundary point u, for any set kind.
    """
    rng = np.random.default_rng(seed)
    lo, hi = s.bounding_box
    span = hi - lo
    pairs = []
    while len(pairs) < n:
        x = lo - 0.5 * span + rng.random(s.dim) * 2.0 * span
        if s.contains(x):
            continue
        u = s.project(x)
        direction = x - u
        dist = np.linalg.norm(direction)
        if dist < 1e-9:
            continue
        pairs.append((u, direction / dist))
    return pairs
