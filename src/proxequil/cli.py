"""Batch front end: run one config or a directory of configs, write a trace
CSV and a JSON summary, optionally cross-check against the grid oracle.

Exit codes: 0 converged (and oracle agreement when requested), 1 input or
I/O problem, 2 iteration budget exhausted, 3 subproblem failure, 4 oracle
disagreement.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, build_problem, parse_config
from .errors import InnerSolveFailed, ProxequilError, SubproblemFailed
from .gap import descent_solve, gap_value
from .geometry import _norm
from .model import SolverConfig, Status, Trace, UREProblem, problem_residual
from .oracle import GridSpec, grid_solve
from .schemes import (
    _resolve_lam,
    explicit_solve,
    fejer_check,
    inertial_proximal_solve,
    proximal_solve,
    verify_subproblem_inequality,
)

_STATUS_CODE = {
    Status.CONVERGED: 0,
    Status.MAX_ITERATIONS: 2,
    Status.SUBPROBLEM_FAILED: 3,
}


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def _write_trace(path: Path, trace: Trace) -> None:
    lines = ["iter,step_norm,residual,gap,t"]
    for rec in trace.records:
        lines.append(
            f"{rec.iteration},{_fmt(rec.step_norm)},{_fmt(rec.residual)},"
            f"{_fmt(rec.extras.get('gap'))},{_fmt(rec.extras.get('t'))}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _verify_steps(
    p: UREProblem, cfg: SolverConfig, rc: RunConfig, trace: Trace
) -> tuple[bool | None, float | None]:
    """(all passed, worst violation) over the accepted steps, with the
    resolved step cfg.lam; (None, None) when the trace has no accepted step."""
    if rc.scheme == "proximal":
        cfg = replace(cfg, gamma=0.0)
    pts = [r.point for r in trace.records]
    checks = [
        verify_subproblem_inequality(p, pts[n], pts[n - 1] if n else pts[0], pts[n + 1], cfg)
        for n in range(len(pts) - 1)
    ]
    if not checks:
        print("proxequil: subproblem check not computed: no accepted step", file=sys.stderr)
        return None, None
    return all(c.passed for c in checks), max(c.worst_violation for c in checks)


def execute(
    rc: RunConfig,
    out_dir: str | None = None,
    oracle: bool = False,
    seed: int | None = None,
    verify: bool = False,
) -> int:
    """Run one config and write its outputs; returns the process exit code."""
    if seed is not None and not (isinstance(seed, numbers.Integral) and seed >= 0):
        print(f"proxequil: seed must be a nonnegative integer; got {seed!r}", file=sys.stderr)
        return 1
    try:
        p = build_problem(rc)
        cfg = rc.solver
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if rc.scheme != "descent":  # one resolved lambda for the solve and --verify
            cfg = replace(cfg, lam=_resolve_lam(p, cfg))
        # one solver per name in config.SCHEMES, which build_problem enforces;
        # looked up per call, so a solver rebound on this module is the one run
        solvers = {
            "proximal": proximal_solve,
            "inertial": inertial_proximal_solve,
            "explicit": explicit_solve,
            "descent": descent_solve,
        }
        trace = solvers[rc.scheme](p, cfg, np.array(rc.start, dtype=float))

        final = trace.final_point
        summary: dict = {
            "status": trace.status.value,
            "iterations": trace.iterations,
            "final_point": [float(x) for x in final],
        }
        for key, merit in (
            ("final_residual", lambda: problem_residual(p, final, seed=cfg.seed)),
            ("final_gap", lambda: gap_value(p, final, cfg)),
        ):
            try:
                summary[key] = merit()
            except ProxequilError as exc:
                print(f"proxequil: {key} not computed: {exc}", file=sys.stderr)
                summary[key] = None

        code = _STATUS_CODE[trace.status]
        try:
            if oracle or rc.oracle_enabled:
                res = grid_solve(p, GridSpec(rc.oracle_resolution))
                distance = _norm(final - res.point)
                summary["oracle_point"] = [float(x) for x in res.point]
                summary["oracle_distance"] = distance
                if rc.scheme in ("proximal", "inertial"):
                    summary["fejer_passed"] = fejer_check(trace, res.point, p.kappa).passed
                if code == 0 and distance > rc.oracle_tol:
                    code = 4
            if verify and rc.scheme in ("proximal", "inertial"):
                ok, worst = _verify_steps(p, cfg, rc, trace)
                summary["subproblem_check_passed"] = ok
                summary["subproblem_check_worst"] = worst
        except ProxequilError as exc:
            # The solve finished: keep its outputs and its own failure code.
            print(f"proxequil: audit failed: {exc}", file=sys.stderr)
            code = code or 1

        base = Path(out_dir) if out_dir is not None else Path(".")
        _write_trace(base / rc.trace_path, trace)
        summary_path = base / rc.summary_path
        summary_path.parent.mkdir(parents=True, exist_ok=True)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return code
    except OSError as exc:
        print(f"proxequil: i/o error: {exc}", file=sys.stderr)
        return 1
    except (SubproblemFailed, InnerSolveFailed) as exc:
        print(f"proxequil: solver failure: {exc}", file=sys.stderr)
        return 3
    except ProxequilError as exc:
        # Input and guard errors (a bad start, exhausted sampling, ...).
        print(f"proxequil: {exc}", file=sys.stderr)
        return 1


def _suite_worker(task: tuple[str, str, bool, int | None, bool]) -> tuple[str, int]:
    cfg_path, out_sub, oracle, seed, verify = task
    try:
        rc = parse_config(cfg_path)
    except (ProxequilError, OSError) as exc:
        print(f"proxequil: {cfg_path}: {exc}", file=sys.stderr)
        return (cfg_path, 1)
    return (cfg_path, execute(rc, out_dir=out_sub, oracle=oracle, seed=seed, verify=verify))


def _run_suite(
    suite_dir: str,
    out_dir: str | None,
    oracle: bool,
    seed: int | None,
    verify: bool,
) -> int:
    configs = sorted(Path(suite_dir).glob("*.cfg"))
    if not configs:
        print(f"proxequil: no .cfg files in {suite_dir}", file=sys.stderr)
        return 1
    base = Path(out_dir) if out_dir is not None else Path(".")
    tasks = [
        (str(c), str(base / c.stem), oracle, seed, verify)
        for c in configs
    ]
    workers = min(len(tasks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_suite_worker, tasks))
    worst = 0
    for name, code in results:
        print(f"{name}: exit {code}")
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxequil",
        description="Solve equilibrium problems over prox-regular sets from config files.",
    )
    parser.add_argument("args", nargs="*", help="'run <config.cfg>' for a single run")
    parser.add_argument("--oracle", action="store_true", help="cross-check against the grid oracle")
    parser.add_argument("--suite", metavar="DIR", help="run every .cfg in DIR concurrently")
    parser.add_argument("--out", metavar="DIR", help="directory receiving trace and summary files")
    parser.add_argument("--seed", type=int, default=None, help="override solver.seed")
    parser.add_argument("--verify", action="store_true", help="audit accepted steps by sampled inequalities")
    ns = parser.parse_args(argv)
    if ns.seed is not None and ns.seed < 0:
        print(f"proxequil: --seed must be nonnegative; got {ns.seed}", file=sys.stderr)
        return 1

    if ns.suite is not None:
        if ns.args:
            print("proxequil: --suite does not take positional arguments", file=sys.stderr)
            return 1
        return _run_suite(ns.suite, ns.out, ns.oracle, ns.seed, ns.verify)

    if len(ns.args) != 2 or ns.args[0] != "run":
        print("usage: proxequil run <config.cfg> [--oracle] [--out DIR] [--seed N] [--verify]", file=sys.stderr)
        print("       proxequil --suite DIR [--oracle] [--out DIR] [--seed N] [--verify]", file=sys.stderr)
        return 1
    try:
        rc = parse_config(ns.args[1])
    except (ProxequilError, OSError) as exc:
        print(f"proxequil: {exc}", file=sys.stderr)
        return 1
    return execute(rc, out_dir=ns.out, oracle=ns.oracle, seed=ns.seed, verify=ns.verify)


if __name__ == "__main__":
    sys.exit(main())
