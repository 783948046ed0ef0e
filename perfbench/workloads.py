"""Seeded instance generator for the benchmark workloads.

Every instance is an affine variational inequality T(u) = A u + b with
k = r = 1, like the shipped configs. A is the identity plus a small skew
part and b = -A p pulls toward a target p. Parameters come from the workload seed and the instance name
only, so one seed gives the same instances in any order and the solver sees
nothing but the emitted config files.

The dimension range deliberately includes d = 12. There rejection sampling
from the bounding box runs out of draws for the ball, annulus and two-ball
sets (about 3e-4 of the box is feasible), so `problem_residual`, the gap and
`solver.lambda = auto` fail and the run is counted as failed. That is the
sampling defect this benchmark is meant to show in `fail_frac` until it is
fixed; do not drop or re-seed those instances. The two-ball trap family
starts in the ball that does not hold the global solution, so the solvers
stop at a local point with a positive residual, and the two-ball jump family
makes the implicit step's fixed-point sweep flip between the balls
(SUBPROBLEM_FAILED). Both are counted as failed for the same reason.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Gap-descent runs share the solve workload: on a host of two shared cores
# every workload's timings move with the host's speed over minutes, so fewer,
# longer workloads measure more steadily than one more short one.
WORKLOADS = ("solve", "audit")
SETS = ("ball", "annulus", "box_minus_ball", "two_ball_union")
DIMS = (2, 3, 8, 12)

# The five shipped configs, copied so the workloads stay fixed when the
# repository's example configs change.
SHIPPED = {
    "ball_proximal": """\
scheme = proximal
problem.k = 1.0
problem.r = 1.0
problem.start = 0.0, -1.0
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0
problem.bifunction.offset = -2.0, 0.0
problem.set.kind = ball
problem.set.center = 0.0, 0.0
problem.set.radius = 1.0
solver.lambda = 0.5
""",
    "annulus_inertial": """\
scheme = inertial
problem.k = 1.0
problem.r = 1.0
problem.start = 0.0, 1.5
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0
problem.bifunction.offset = -0.2, 0.0
problem.set.kind = annulus
problem.set.center = 0.0, 0.0
problem.set.inner_radius = 1.0
problem.set.outer_radius = 2.0
solver.lambda = 0.5
solver.gamma = 0.2
""",
    "annulus_explicit": """\
scheme = explicit
problem.k = 1.0
problem.r = 1.0
problem.start = 0.0, 1.5
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0
problem.bifunction.offset = -2.0, 0.0
problem.set.kind = annulus
problem.set.center = 0.0, 0.0
problem.set.inner_radius = 1.0
problem.set.outer_radius = 2.0
solver.lambda = 0.3
""",
    "ball_descent": """\
scheme = descent
problem.k = 1.0
problem.r = 1.0
problem.start = 0.0, -1.0
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0
problem.bifunction.offset = -2.0, 0.0
problem.set.kind = ball
problem.set.center = 0.0, 0.0
problem.set.radius = 1.0
solver.lambda = 0.5
""",
    "two_ball_trap": """\
scheme = proximal
problem.k = 1.0
problem.r = 1.0
problem.start = 2.5, 0.0
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0
problem.bifunction.offset = 0.5, 0.0
problem.set.kind = two_ball_union
problem.set.center_a = -2.0, 0.0
problem.set.radius_a = 1.0
problem.set.center_b = 2.0, 0.0
problem.set.radius_b = 1.0
solver.lambda = 0.5
""",
}

# A fixed 2-d annulus run whose solution lies off the oracle's grid lattice.
# The solver's answer passes the closed-form check, but the grid oracle at
# resolution 400 lands 0.025 away, beyond oracle.tol = 0.02, so --oracle
# exits 4. Seeded audit instances put their solutions on the lattice, because
# off it the outcome flips with the seed; this one keeps that defect in the
# audit load at a fixed count. Its long steps (17 of them) keep the pass short:
# --verify costs 10^4 evaluations a step.
OFF_LATTICE = """\
scheme = proximal
problem.k = 1.0
problem.r = 1.0
problem.start = 1.878982, 0.005282
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1.0, 0.076008; -0.076008, 1.0
problem.bifunction.offset = -2.823547, 2.142078
problem.set.kind = annulus
problem.set.center = 0.222008, 0.197332
problem.set.inner_radius = 1.008446
problem.set.outer_radius = 1.988715
solver.lambda = 1.8
"""


@dataclass(frozen=True)
class Instance:
    """One run: the config text the solver sees plus the CLI flags."""

    name: str
    family: str
    text: str
    oracle: bool = False
    verify: bool = False


def _num(x: float) -> str:
    return repr(round(float(x), 6) + 0.0)


def _vec(v) -> str:
    return ", ".join(_num(x) for x in v)


def _mat(m) -> str:
    return "; ".join(_vec(row) for row in m)


class _Draw:
    """Random draws for one instance.

    The canonical design of an instance (its radii, distances, angles and
    operator) comes from its name alone, so an instance costs about the same
    under every workload seed and pass times stay comparable across seeds.
    The seed moves each uniform draw by up to jitter / 2 of its range and then
    places the whole instance with a signed axis permutation and a shift.
    Signed permutations keep boxes and the two-ball axis aligned with the
    coordinates, so bounding boxes, and with them rejection sampling, keep
    their tightness.
    """

    def __init__(self, seed: int, name: str, d: int, jitter: float = 0.1):
        key = zlib.crc32(name.encode())
        self.jitter = jitter
        self.base = np.random.default_rng(key)
        self.moved = np.random.default_rng([seed, key])
        self.d = d
        Q = np.zeros((d, d))
        Q[self.moved.permutation(d), np.arange(d)] = self.moved.choice([-1.0, 1.0], d)
        self.Q = Q
        self.shift = self.moved.uniform(-0.5, 0.5, d)

    def uniform(self, lo: float, hi: float) -> float:
        u = self.base.uniform() + self.jitter * (self.moved.uniform() - 0.5)
        return lo + (hi - lo) * min(max(u, 0.0), 1.0)

    def unit(self) -> np.ndarray:
        g = self.base.standard_normal(self.d)
        return g / np.linalg.norm(g)

    def near(self, e: np.ndarray, spread: float) -> np.ndarray:
        """A unit vector within a bounded angle of the unit vector e."""
        g = self.base.standard_normal(self.d)
        g -= (g @ e) * e
        v = e + spread * g / np.linalg.norm(g)
        return v / np.linalg.norm(v)

    def place(self, x: np.ndarray) -> np.ndarray:
        return self.Q @ x + self.shift

    def operator(self) -> np.ndarray:
        """Identity plus a skew part of spectral norm at most 0.2."""
        g = self.base.standard_normal((self.d, self.d))
        s = g - g.T
        A = np.eye(self.d) + self.uniform(0.0, 0.2) * s / np.linalg.norm(s, 2)
        return self.Q @ A @ self.Q.T


def _geometry(g: _Draw, kind: str, variant: str, lattice: bool):
    """Set parameters, target point and feasible start, placed by the seed.

    variant only shapes the two-ball set: "solution" starts in the ball that
    holds the solution, "trap" in the other one, and "jump" starts in the
    other one with the target beyond the far side of the first, so that the
    implicit step's fixed-point sweep flips between the balls and the run
    ends SUBPROBLEM_FAILED. With lattice=True the target lies outside the set along a coordinate
    axis from the center, so the solution is a corner coordinate of the
    bounding box and therefore a point of the grid oracle's lattice.
    """
    axis = np.eye(g.d)[0]
    e = axis if lattice else g.unit()
    if kind == "ball":
        radius = g.uniform(0.8, 1.5)
        center = g.place(np.zeros(g.d))
        params = {"center": center, "radius": radius}
        target = g.uniform(1.3, 2.5) * radius * e
        start = g.uniform(0.0, 0.9) * radius * g.near(e, 1.0)
    elif kind == "annulus":
        inner = g.uniform(1.0, 1.3)
        outer = inner + g.uniform(0.7, 1.2)
        params = {"center": g.place(np.zeros(g.d)), "inner_radius": inner, "outer_radius": outer}
        if not lattice and g.uniform(0.0, 1.0) < 0.5:
            target = g.uniform(0.35, 0.7) * inner * e
        else:
            target = g.uniform(1.2, 1.8) * outer * e
        start = g.uniform(inner + 0.05, outer - 0.05) * g.near(e, 0.6)
    elif kind == "box_minus_ball":
        radius = g.uniform(1.0, 1.4)
        half = radius + g.uniform(1.0, 1.5)
        center = g.place(np.zeros(g.d))
        params = {"lower": center - half, "upper": center + half, "center": center, "radius": radius}
        target = g.uniform(0.4, 0.75) * radius * e
        start = g.uniform(radius + 0.1, radius + 0.6) * g.near(e, 0.6)
    elif kind == "two_ball_union":
        # The balls sit on a coordinate axis, as in the shipped trap, so the
        # bounding box stays tight; a tilted pair would lose sampling to the
        # box's empty corners from d = 8 on.
        ra, rb = g.uniform(0.8, 1.2), g.uniform(0.8, 1.2)
        gap = g.uniform(2.2, 3.0)
        ca = -(ra + 0.5 * gap) * axis
        cb = (rb + 0.5 * gap) * axis
        params = {"center_a": g.place(ca), "radius_a": ra, "center_b": g.place(cb), "radius_b": rb}
        if variant == "jump":
            target = ca - (ra + g.uniform(0.3, 1.5)) * g.near(axis, 0.1)
        else:
            # The target sits in the gap next to ball a, so a's nearest point
            # is the solution; it stays far enough from the middle of the gap
            # that no step of at most lam = 0.6 carries a start in b across.
            target = ca + (ra + g.uniform(0.35, 0.5) * gap) * g.near(axis, 0.2)
        home, rho = (ca, ra) if variant == "solution" else (cb, rb)
        start = home + g.uniform(0.0, 0.9) * rho * e
    else:
        raise ValueError(f"unknown set kind {kind!r}")
    return params, g.place(target), g.place(start)


def _seeded_text(g: _Draw, scheme: str, kind: str, lam: tuple[float, float] | None,
                 variant: str = "solution", lattice: bool = False) -> str:
    """Config text of one instance; lam is a (low, high) range or None for auto."""
    params, target, start = _geometry(g, kind, variant, lattice)
    A = g.Q @ g.Q.T if lattice else g.operator()
    lines = [
        f"scheme = {scheme}",
        "problem.k = 1.0",
        "problem.r = 1.0",
        f"problem.start = {_vec(start)}",
        "problem.bifunction.kind = affine_vi",
        f"problem.bifunction.matrix = {_mat(A)}",
        f"problem.bifunction.offset = {_vec(-A @ target)}",
        f"problem.set.kind = {kind}",
    ]
    for name, value in params.items():
        text = _vec(value) if np.ndim(value) else _num(value)
        lines.append(f"problem.set.{name} = {text}")
    lines.append(f"solver.lambda = {'auto' if lam is None else _num(g.uniform(*lam))}")
    if scheme == "inertial":
        lines.append(f"solver.gamma = {_num(g.uniform(0.1, 0.3))}")
    return "\n".join(lines) + "\n"


def _family(seed: int, scheme: str, per_cell: int, trap_index: int, auto_index: int | None) -> list[Instance]:
    out = []
    for kind in SETS:
        for d in DIMS:
            for i in range(per_cell):
                trap = kind == "two_ball_union" and i == trap_index
                name = f"{scheme}-{kind}-d{d}-{i}"
                lam = None if i == auto_index else (0.3, 0.6)
                text = _seeded_text(_Draw(seed, name, d), scheme, kind, lam, "trap" if trap else "solution")
                out.append(Instance(name, "trap" if trap else kind, text))
    return out


def _solve(seed: int) -> list[Instance]:
    out = [Instance(n, "shipped", SHIPPED[n]) for n in ("ball_proximal", "annulus_inertial", "annulus_explicit", "two_ball_trap")]
    for scheme in ("proximal", "inertial", "explicit"):
        out += _family(seed, scheme, 3, trap_index=2, auto_index=1)
    for scheme in ("proximal", "inertial"):
        for d in DIMS:
            name = f"{scheme}-jump-d{d}"
            text = _seeded_text(_Draw(seed, name, d), scheme, "two_ball_union", (0.5, 0.6), "jump")
            out.append(Instance(name, "jump", text))
    return out


def _descent(seed: int) -> list[Instance]:
    return [Instance("ball_descent", "shipped", SHIPPED["ball_descent"])] + _family(seed, "descent", 2, trap_index=1, auto_index=None)


def _audit(seed: int) -> list[Instance]:
    out = [
        Instance("ball_proximal", "shipped", SHIPPED["ball_proximal"], oracle=True, verify=True),
        Instance("two_ball_trap", "shipped", SHIPPED["two_ball_trap"], oracle=True, verify=True),
        Instance("annulus_off_lattice", "off_lattice", OFF_LATTICE, oracle=True, verify=True),
    ]
    for scheme, kind in (("proximal", "ball"), ("inertial", "annulus")):
        name = f"audit-{scheme}-{kind}"
        # Longer steps than elsewhere: --verify costs 10^4 evaluations a step,
        # and short passes give each run several timings in one measurement.
        # From lam = 2.5 the ball's fixed-point sweep stops converging.
        # No jitter: with five runs a pass the median run is one of these, so
        # only the placement, which leaves the cost unchanged, follows the seed.
        text = _seeded_text(_Draw(seed, name, 2, jitter=0.0), scheme, kind, (1.5, 1.9), lattice=True)
        out.append(Instance(name, kind, text, oracle=True, verify=True))
    return out


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed, in run order."""
    if workload == "solve":
        return _solve(seed) + _descent(seed)
    if workload == "audit":
        return _audit(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def emit(instances: list[Instance], config_dir: Path) -> list[Path]:
    """Write each instance as a canonical config file.

    The generated text goes through parse_config and back out through
    emit_config, so the files on disk are exactly what the config layer
    produces for the parsed RunConfig.
    """
    from proxequil.config import emit_config, parse_config

    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst in instances:
        path = config_dir / f"{inst.name}.cfg"
        path.write_text(inst.text, encoding="utf-8")
        path.write_text(emit_config(parse_config(str(path))), encoding="utf-8")
        paths.append(path)
    return paths
