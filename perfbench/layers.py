"""Per-layer counting and timing for the traced pass.

The layers are proxequil's modules. `Tracer.install` puts thin wrappers on
their public functions from outside: module-level functions are replaced in
every proxequil module that holds a reference to them, `ConstraintSet`
subclasses and `Bifunction` are wrapped on the class, and `grad_v` on each
new `Bifunction` instance. `Tracer.restore` puts the originals back. No
solver code changes.

A timed function that calls itself through another timed name of the same
metric (proximal_solve -> inertial_proximal_solve) is timed once, by the
outermost call. Times are inclusive: `minimize.s` is also part of
`gap.value.s` and `model.residual.s`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this layer metric should move


_COUNT = "count"

# Written down before any optimization: which end-to-end metric each layer
# metric should move, and on which workload.
LAYER_METRICS = (
    LayerMetric("geometry.project.calls", _COUNT, "lower", "run_s.p50 on solve"),
    LayerMetric("geometry.project.s", "s", "lower", "run_s.p50 on solve"),
    LayerMetric("geometry.sample.calls", _COUNT, "lower", "runs_per_s on solve (its descent runs), run_s.p50 on audit"),
    LayerMetric("geometry.sample.points", _COUNT, "lower", "runs_per_s on solve (its descent runs), run_s.p50 on audit"),
    LayerMetric("geometry.sample.s", "s", "lower", "runs_per_s on solve (its descent runs), run_s.p50 on audit"),
    LayerMetric("geometry.contains_batch.points", _COUNT, "lower", "run_s.p50 on audit"),
    LayerMetric("model.F.evals", _COUNT, "lower", "run_s.p50 on audit (verify) and on solve"),
    LayerMetric("model.grad_v.calls", _COUNT, "lower", "run_s.p50 on audit (verify) and on solve"),
    LayerMetric("model.residual.calls", _COUNT, "lower", "run_s.p50 on solve"),
    LayerMetric("model.residual.s", "s", "lower", "run_s.p50 on solve"),
    LayerMetric("minimize.descents", _COUNT, "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("minimize.converged_frac", "ratio", "higher", "runs_per_s on solve (its descent runs)"),
    LayerMetric("minimize.s", "s", "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("schemes.solve.s", "s", "lower", "run_s.p50 on solve"),
    LayerMetric("schemes.outer_iterations", _COUNT, "lower", "run_s.p50 on solve"),
    LayerMetric("schemes.subproblem.calls", _COUNT, "lower", "run_s.p50 on solve"),
    LayerMetric("schemes.subproblem.failed", _COUNT, "lower", "fail_frac on solve"),
    LayerMetric("schemes.inner_sweeps", _COUNT, "lower", "run_s.p50 on solve"),
    LayerMetric("schemes.step_size.s", "s", "lower", "run_s.p50 on solve (lambda = auto runs)"),
    LayerMetric("schemes.verify.s", "s", "lower", "run_s.p50 on audit"),
    LayerMetric("schemes.verify.steps", _COUNT, "lower", "run_s.p50 on audit"),
    LayerMetric("schemes.fejer.s", "s", "lower", "run_s.p50 on audit"),
    LayerMetric("gap.descent.s", "s", "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("gap.value.calls", _COUNT, "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("gap.value.s", "s", "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("gap.line_search.calls", _COUNT, "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("gap.line_search.probes", _COUNT, "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("gap.line_search.s", "s", "lower", "runs_per_s on solve (its descent runs)"),
    LayerMetric("oracle.grid_solve.calls", _COUNT, "lower", "run_s.p50 on audit"),
    LayerMetric("oracle.grid_solve.s", "s", "lower", "run_s.p50 on audit"),
    LayerMetric("oracle.grid_points", _COUNT, "lower", "run_s.p50 on audit"),
    LayerMetric("config.parse.s", "s", "lower", "setup_s on every workload"),
    LayerMetric("config.build.s", "s", "lower", "setup_s on every workload"),
    LayerMetric("cli.execute.s", "s", "lower", "run_s.p50 and runs_per_s on every workload"),
    LayerMetric("cli.write.s", "s", "lower", "run_s.p50 and runs_per_s on every workload"),
    LayerMetric("cli.bytes_written", "bytes", "lower", "run_s.p50 and runs_per_s on every workload"),
    LayerMetric("trace.overhead_s", "s", "lower", "none: traced minus untraced pass wall time"),
)

# Counts of one traced `execute` of a shipped config at the commit that
# introduced this benchmark: they check that the wrappers see every call.
SEED_COUNTS = {
    "annulus_inertial": {"schemes.outer_iterations": 287, "geometry.project.calls": 7247},
    "ball_proximal": {"schemes.outer_iterations": 37, "geometry.project.calls": 642},
    "ball_descent": {"minimize.descents": 504},
}


class _JsonShim:
    """Stands in for the json module inside cli so summary writes are timed."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Counters and inclusive timers around proxequil's layer functions."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # ---- wrapper factories -------------------------------------------------

    def _timed(self, key, on_call=None, on_result=None, on_error=None):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                if self._active[key]:
                    return orig(*args, **kwargs)
                self._active[key] += 1
                start = perf_counter()
                try:
                    result = orig(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                finally:
                    self.seconds[key] += perf_counter() - start
                    self._active[key] -= 1
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        return make

    def _counted(self, on_call):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                on_call(args, kwargs)
                return orig(*args, **kwargs)

            return wrapper

        return make

    def _bump(self, key):
        def on_call(args, kwargs):
            self.counts[key] += 1

        return on_call

    # ---- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _function(self, module, name, make):
        """Wrap module.name in every proxequil module that refers to it."""
        orig = getattr(module, name)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "proxequil" or mod_name.startswith("proxequil."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapped)

    def _method(self, classes, name, make):
        for cls in classes:
            if name in cls.__dict__:
                self._set(cls, name, make(cls.__dict__[name]))

    def install(self) -> None:
        from proxequil import _minimize, cli, config, gap, geometry, model, oracle, schemes
        from proxequil.errors import SubproblemFailed

        if self._undo:
            raise RuntimeError("tracer is already installed")
        c = self.counts
        a = self._active
        sets = [geometry.ConstraintSet, *geometry.SET_KINDS.values()]

        def on_project(args, kwargs):
            c["geometry.project.calls"] += 1
            if a["schemes.subproblem"]:
                c["schemes.inner_sweeps"] += 1

        def on_sample(args, kwargs):
            c["geometry.sample.calls"] += 1
            c["geometry.sample.points"] += int(args[1] if len(args) > 1 else kwargs["n"])

        def on_contains_batch(args, kwargs):
            X = args[1] if len(args) > 1 else kwargs["X"]
            c["geometry.contains_batch.points"] += len(X)

        self._method(sets, "project", self._timed("geometry.project", on_call=on_project))
        self._method(sets, "sample", self._timed("geometry.sample", on_call=on_sample))
        self._method(sets, "contains_batch", self._counted(on_contains_batch))

        self._method([model.Bifunction], "__call__", self._counted(self._bump("model.F.evals")))
        count_grad_v = self._bump("model.grad_v.calls")

        def make_init(orig):
            @functools.wraps(orig)
            def __init__(bif, *args, **kwargs):
                orig(bif, *args, **kwargs)
                grad_v = bif.grad_v
                if grad_v is not None and not getattr(grad_v, "_perfbench_counted", False):
                    counted = self._counted(count_grad_v)(grad_v)
                    counted._perfbench_counted = True
                    object.__setattr__(bif, "grad_v", counted)

            return __init__

        self._method([model.Bifunction], "__init__", make_init)
        self._function(model, "problem_residual", self._timed("model.residual", on_call=self._bump("model.residual.calls")))

        def on_descent(result):
            c["minimize.descents"] += 1
            c["minimize.converged"] += bool(result[2])

        self._function(_minimize, "projected_descent", self._timed("minimize.descent", on_result=on_descent))
        self._function(_minimize, "multistart_minimize", self._timed("minimize"))

        def on_solved(trace):
            c["schemes.outer_iterations"] += trace.iterations

        for name in ("inertial_proximal_solve", "proximal_solve", "explicit_solve"):
            self._function(schemes, name, self._timed("schemes.solve", on_result=on_solved))

        def on_subproblem_error(exc):
            if isinstance(exc, SubproblemFailed):
                c["schemes.subproblem.failed"] += 1

        self._function(schemes, "solve_subproblem", self._timed(
            "schemes.subproblem", on_call=self._bump("schemes.subproblem.calls"), on_error=on_subproblem_error))
        self._function(schemes, "default_step_size", self._timed("schemes.step_size"))
        self._function(schemes, "verify_subproblem_inequality", self._timed(
            "schemes.verify", on_call=self._bump("schemes.verify.steps")))
        self._function(schemes, "fejer_check", self._timed("schemes.fejer"))

        def on_gap_value(args, kwargs):
            c["gap.value.calls"] += 1
            if a["gap.line_search"]:
                c["gap.line_search.probes"] += 1

        self._function(gap, "descent_solve", self._timed("gap.descent"))
        self._function(gap, "gap_value", self._timed("gap.value", on_call=on_gap_value))
        self._function(gap, "line_search", self._timed("gap.line_search", on_call=self._bump("gap.line_search.calls")))

        def on_grid(result):
            c["oracle.grid_points"] += int(result.n_feasible)

        self._function(oracle, "grid_solve", self._timed(
            "oracle.grid_solve", on_call=self._bump("oracle.grid_solve.calls"), on_result=on_grid))

        self._function(config, "parse_config", self._timed("config.parse"))
        self._function(config, "build_problem", self._timed("config.build"))
        self._function(cli, "execute", self._timed("cli.execute"))
        write = self._timed("cli.write")
        self._function(cli, "_write_trace", write)
        self._set(cli, "json", _JsonShim(write(json.dump)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer values accumulated since the last reset.

        trace.overhead_s and cli.bytes_written are measured by the runner
        and are not included.
        """
        c, s = self.counts, self.seconds
        out = {}
        for m in LAYER_METRICS:
            if m.name.endswith(".s"):
                out[m.name] = s[m.name[:-2]]
            elif m.unit == _COUNT:
                out[m.name] = c[m.name]
        # With no descents nothing failed to converge.
        out["minimize.converged_frac"] = c["minimize.converged"] / c["minimize.descents"] if c["minimize.descents"] else 1.0
        return out
