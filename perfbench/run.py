"""Seeded end-to-end and per-layer benchmark of proxequil's batch front end.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0

Run from the repository root. The workload's configs are generated from the
seed (perfbench/workloads.py) and written under perfbench/_work/. One client
then calls proxequil.cli.execute on them one after another, in passes over
the whole workload, until --seconds is used up (at least three passes). Each
run is checked against the closed form in perfbench/check.py.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of
perfbench/layers.py, from traced passes that alternate with untraced ones.
`correct` is false when a run's exit code or summary differs between passes,
when tracing changes one, or when a per-layer count differs between traced
passes. Runs whose answers are wrong are counted in `failed`, not in
`correct`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 5
MIN_PASSES = 3  # a run's median needs three timings to leave out one slow one
MIN_TRACED = 2  # counts must repeat between two traced passes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread() -> None:
    """Run BLAS on one thread, as proxequil's own Python loop does.

    On a host of a few shared cores a second BLAS thread measures the
    scheduler more than the program. Must run before numpy is imported;
    setup probes inherit the setting.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


class Run:
    """One instance of the workload with its config, output files and outcome."""

    def __init__(self, inst, path: Path, out_dir: Path):
        from perfbench.check import read_config
        from proxequil.config import parse_config

        self.inst = inst
        self.path = path
        self.out_dir = out_dir
        self.pairs = read_config(path.read_text(encoding="utf-8"))
        self.rc = parse_config(str(path))
        self.summary = out_dir / "summary.json"
        self.trace = out_dir / "trace.csv"

    def clear(self) -> None:
        for f in (self.summary, self.trace):
            f.unlink(missing_ok=True)

    def execute(self) -> int | None:
        from proxequil import cli

        try:
            return cli.execute(self.rc, out_dir=str(self.out_dir), oracle=self.inst.oracle, verify=self.inst.verify)
        except Exception:
            print(f"perfbench: {self.inst.name} raised:", file=sys.stderr)
            traceback.print_exc()
            return None

    def outcome(self, code: int | None) -> tuple[int | None, str | None, str | None]:
        """(exit code, summary text, failure reason or None)."""
        from perfbench.check import run_failure

        text = self.summary.read_text(encoding="utf-8") if self.summary.exists() else None
        return code, text, run_failure(self.pairs, code, text)

    def bytes_written(self) -> int:
        return sum(f.stat().st_size for f in (self.summary, self.trace) if f.exists())


class Pass:
    """One closed-loop pass over every run of the workload."""

    def __init__(self, runs: list[Run], tracer=None):
        self.durations = []
        self.cpu = []
        codes = []
        wall0 = time.perf_counter()
        for run in runs:
            run.clear()
            c0 = time.process_time()
            t0 = time.perf_counter()
            codes.append(run.execute())
            self.durations.append(time.perf_counter() - t0)
            self.cpu.append(time.process_time() - c0)
        self.wall = time.perf_counter() - wall0
        self.outcomes = [run.outcome(code) for run, code in zip(runs, codes)]
        self.failures = [o[2] for o in self.outcomes]
        self.passed = sum(f is None for f in self.failures)
        self.layers = None
        if tracer is not None:
            self.layers = tracer.metrics()
            self.layers["cli.bytes_written"] = sum(run.bytes_written() for run in runs)


def _per_run_medians(passes: list[Pass], attr: str) -> list[float]:
    """Each run's median over the passes of its wall (or CPU) times.

    The host's slow spells last seconds, so they hit a run in some passes and
    not in others; the median keeps them out of every metric built on it.
    """
    return [statistics.median(column) for column in zip(*(getattr(p, attr) for p in passes))]


def _setup_seconds(runs: list[Run], config_dir: Path) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    out_dir = WORK / "setup_out"
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(config_dir), runs[0].inst.name, str(out_dir)]
    # No timeout: with one, the wait polls the child every 50 ms and rounds
    # the measured time up to that step.
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _consistent(passes: list[Pass], label: str) -> bool:
    """True when every pass gave each run the same exit code and summary."""
    first = passes[0].outcomes
    ok = True
    for p in passes[1:]:
        for i, (a, b) in enumerate(zip(first, p.outcomes)):
            if a[:2] != b[:2]:
                print(f"perfbench: run {i} differs between {label} passes", file=sys.stderr)
                ok = False
    return ok


def _report_failures(runs: list[Run], p: Pass) -> None:
    reasons = Counter((run.inst.family, why) for run, why in zip(runs, p.failures) if why is not None)
    print(f"perfbench: {len(runs) - p.passed} of {len(runs)} runs failed per pass", file=sys.stderr)
    for (family, why), n in sorted(reasons.items()):
        print(f"perfbench:   {n:4d}  {family}: {why}", file=sys.stderr)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[Run], config_dir: Path, seconds: float) -> tuple[bool, int, int, dict]:
    runs[0].execute()  # warm-up, as in the set-up probe
    # One set-up probe before each pass, so that set-up is timed across the
    # whole measurement like the runs are.
    setups = []
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1].wall <= seconds:
        setups.append(_setup_seconds(runs, config_dir))
        passes.append(Pass(runs))
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_seconds(runs, config_dir))
    _report_failures(runs, passes[0])

    wall = _per_run_medians(passes, "durations")
    attempted = len(runs) * len(passes)
    failed = sum(len(runs) - p.passed for p in passes)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "runs_per_s": _metric(passes[0].passed / sum(wall), "1/s"),
        "run_s.p50": _metric(statistics.median(wall), "s"),
        "run_s.p90": _metric(statistics.quantiles(wall, n=10, method="inclusive")[-1], "s"),
        "cpu_s": _metric(sum(_per_run_medians(passes, "cpu")), "s"),
        "fail_frac": _metric(failed / attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"perfbench: {len(passes)} passes of {len(runs)} runs", file=sys.stderr)
    return _consistent(passes, "untraced"), attempted, failed, metrics


def per_layer(runs: list[Run], seconds: float) -> tuple[bool, int, int, dict]:
    from perfbench.layers import LAYER_METRICS, Tracer
    from proxequil import config

    tracer = Tracer()
    plain: list[Pass] = []
    traced: list[Pass] = []
    runs[0].execute()  # warm-up
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start + plain[-1].wall + traced[-1].wall <= seconds:
        if not plain or len(traced) >= MIN_TRACED:
            plain.append(Pass(runs))
        tracer.install()
        try:
            tracer.reset()
            for run in runs:
                config.parse_config(str(run.path))
            traced.append(Pass(runs, tracer))
        finally:
            tracer.restore()
    _report_failures(runs, plain[0])

    correct = _consistent(plain, "untraced") and _consistent(traced, "traced")
    if [o[:2] for o in plain[0].outcomes] != [o[:2] for o in traced[0].outcomes]:
        print("perfbench: tracing changed a run's exit code or summary", file=sys.stderr)
        correct = False
    counts = [{k: v for k, v in t.layers.items() if isinstance(v, int)} for t in traced]
    if any(c != counts[0] for c in counts[1:]):
        print("perfbench: per-layer counts differ between traced passes", file=sys.stderr)
        correct = False
    _cross_check(runs, tracer)

    overhead = statistics.median(t.wall for t in traced) - statistics.median(p.wall for p in plain)
    metrics = {}
    for m in LAYER_METRICS:
        if m.name == "trace.overhead_s":
            value = overhead
        else:
            values = [t.layers[m.name] for t in traced]
            value = values[0] if isinstance(values[0], int) else statistics.median(values)
        metrics[m.name] = _metric(value, m.unit)
    all_passes = plain + traced
    attempted = len(runs) * len(all_passes)
    failed = sum(len(runs) - p.passed for p in all_passes)
    return correct, attempted, failed, metrics


def _cross_check(runs: list[Run], tracer) -> None:
    """Report per-run counts of shipped configs next to their known values."""
    from perfbench.layers import SEED_COUNTS

    for run in runs:
        want = SEED_COUNTS.get(run.inst.name)
        if want is None:
            continue
        tracer.install()
        try:
            tracer.reset()
            run.clear()
            run.execute()
            got = {k: tracer.counts[k] for k in want}
        finally:
            tracer.restore()
        verdict = "matches" if got == want else f"differs from {want}"
        print(f"perfbench: traced {run.inst.name}: {got} {verdict}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proxequil" / "__init__.py").is_file():
        print(f"perfbench: no proxequil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _one_blas_thread()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import emit, generate

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    instances = generate(args.workload, args.seed)
    paths = emit(instances, work / "configs")
    runs = [Run(inst, path, work / "out" / inst.name) for inst, path in zip(instances, paths)]

    if args.trace:
        correct, attempted, failed, metrics = per_layer(runs, args.seconds)
    else:
        correct, attempted, failed, metrics = end_to_end(runs, work / "configs", args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
