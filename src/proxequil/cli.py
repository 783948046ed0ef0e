"""Batch front end: run one config or a directory of configs, write a trace
CSV and a JSON summary, optionally cross-check against the grid oracle.

Exit codes: 0 converged (and oracle agreement when requested), 1 input or
I/O problem, 2 iteration budget exhausted, 3 subproblem failure, 4 oracle
disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, build_problem, parse_config
from .errors import EmptyTrace, InnerSolveFailed, ProxequilError, SubproblemFailed
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


def _verify_steps(p: UREProblem, cfg: SolverConfig, trace: Trace) -> tuple[bool, float]:
    """(all passed, worst violation) over the accepted steps, with the run's
    resolved cfg; EmptyTrace when the trace has no accepted step."""
    pts = [r.point for r in trace.records]
    checks = [
        verify_subproblem_inequality(p, pts[n], pts[n - 1] if n else pts[0], pts[n + 1], cfg)
        for n in range(len(pts) - 1)
    ]
    if not checks:
        raise EmptyTrace("no accepted step")
    return all(c.passed for c in checks), max(c.worst_violation for c in checks)


def _grid_audit(p: UREProblem, trace: Trace, resolution: int, fejer: bool) -> list:
    """The oracle point, its distance from the final point, and with fejer the Fejer check."""
    res = grid_solve(p, GridSpec(resolution))
    passed = [fejer_check(trace, res.point, p.kappa).passed] if fejer else []
    return [[float(x) for x in res.point], _norm(trace.final_point - res.point), *passed]


# a non-finite step is reported by the package's own finiteness check, not by numpy
@np.errstate(over="ignore", invalid="ignore")
def execute(
    rc: RunConfig, out_dir: str | None = None, oracle: bool = False, seed: int | None = None, verify: bool = False
) -> int:
    """Run one config and write its outputs; returns the process exit code.

    Past the status, iterations and final point, each summary field comes
    from one of the report's rows: final_residual, final_gap, oracle (when
    oracle is set) and verify (when verify is set, implicit schemes only). A
    row that raises writes its fields as null and prints
    `proxequil: <row> not computed: <error>`; a failed oracle or verify row
    makes a converged run exit 1.
    """
    try:
        p = build_problem(rc)
        implicit = rc.scheme in ("proximal", "inertial")
        # the run's one SolverConfig, for the solve and the report: the seed,
        # the resolved lambda, and gamma = 0 for proximal
        cfg = rc.solver if seed is None else replace(rc.solver, seed=seed)
        if rc.scheme != "descent":
            cfg = replace(cfg, lam=_resolve_lam(p, cfg), gamma=0.0 if rc.scheme == "proximal" else cfg.gamma)
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
        code = _STATUS_CODE[trace.status]
        # (row, whether it runs, its summary fields, the call that fills them, the exit
        # code its failure gives a converged run); each runs even when another fails
        rows = (
            ("final_residual", True, ["final_residual"], lambda: [problem_residual(p, final, seed=cfg.seed)], 0),
            ("final_gap", True, ["final_gap"], lambda: [gap_value(p, final, cfg)], 0),
            ("oracle", oracle, ["oracle_point", "oracle_distance", "fejer_passed"][: 2 + implicit],
             lambda: _grid_audit(p, trace, rc.oracle_resolution, implicit), 1),
            ("verify", verify and implicit, ["subproblem_check_passed", "subproblem_check_worst"],
             lambda: _verify_steps(p, cfg, trace), 1),
        )
        for name, runs, keys, call, fail_code in rows:
            if not runs:
                continue
            try:
                summary.update(zip(keys, call()))
            except ProxequilError as exc:
                print(f"proxequil: {name} not computed: {exc}", file=sys.stderr)
                summary.update(dict.fromkeys(keys))
                code = code or fail_code
            if code == 0 and (summary.get("oracle_distance") or 0.0) > rc.oracle_tol:
                code = 4

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
    # Imported here: with multiprocessing and logging it is about 17 ms of
    # importing proxequil.cli, and only --suite needs it.
    from concurrent.futures import ProcessPoolExecutor

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
