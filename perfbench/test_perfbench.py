"""Tests of the benchmark's own pieces: generator, closed-form check, tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import check, workloads  # noqa: E402
from perfbench.layers import LAYER_METRICS, SEED_COUNTS, Tracer  # noqa: E402
from proxequil import cli  # noqa: E402
from proxequil.config import emit_config, parse_config  # noqa: E402


def _pairs(name):
    return check.read_config(workloads.SHIPPED[name])


def _summary(**fields):
    base = {"status": "converged", "iterations": 3, "final_point": [1.0, 0.0], "final_residual": 0.0, "final_gap": 0.0}
    base.update(fields)
    return json.dumps(base)


def test_closed_form_accepts_ball_proximal_answer():
    assert check.closed_form_residual(_pairs("ball_proximal"), [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert check.run_failure(_pairs("ball_proximal"), 0, _summary()) is None


def test_closed_form_rejects_two_ball_trap_point():
    # y = (1,0) - ((1,0) + (0.5,0)) = (-0.5,0): kappa (1.5^2 - 0.5^2) = 1.
    assert check.closed_form_residual(_pairs("two_ball_trap"), [1.0, 0.0]) == pytest.approx(1.0)
    assert check.run_failure(_pairs("two_ball_trap"), 0, _summary()) == "residual"


@pytest.mark.parametrize(
    "code, text, reason",
    [
        (0, _summary(final_residual=None), "null field"),
        (0, _summary(final_gap=None), "null field"),
        (0, None, "no summary"),
        (3, _summary(), "exit 3"),
        (None, None, "raised"),
        (0, _summary(final_point=[3.0, 0.0]), "infeasible"),
    ],
)
def test_run_failure_reasons(code, text, reason):
    assert check.run_failure(_pairs("ball_proximal"), code, text) == reason


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_configs(tmp_path, workload):
    a = workloads.emit(workloads.generate(workload, 7), tmp_path / "a")
    b = workloads.emit(workloads.generate(workload, 7), tmp_path / "b")
    c = workloads.emit(workloads.generate(workload, 8), tmp_path / "c")
    texts = [[p.read_bytes() for p in paths] for paths in (a, b, c)]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    for path in a:
        assert emit_config(parse_config(str(path))) == path.read_text()


def test_workloads_span_sets_dimensions_and_shipped_configs():
    names = {w: [i.name for i in workloads.generate(w, 1)] for w in workloads.WORKLOADS}
    for scheme in ("proximal", "inertial", "explicit", "descent"):
        for kind in workloads.SETS:
            for d in workloads.DIMS:
                assert any(n.startswith(f"{scheme}-{kind}-d{d}-") for n in names["solve"])
    assert set(workloads.SHIPPED) <= set(names["solve"])
    assert "two_ball_trap" in names["audit"]


@pytest.mark.skipif(not (ROOT / "configs").is_dir(), reason="no shipped configs")
@pytest.mark.parametrize("name", sorted(workloads.SHIPPED))
def test_shipped_copies_match_repository_configs(tmp_path, name):
    copy = tmp_path / f"{name}.cfg"
    copy.write_text(workloads.SHIPPED[name])
    assert parse_config(str(copy)) == parse_config(str(ROOT / "configs" / f"{name}.cfg"))


def _traced_execute(tmp_path, name, **flags):
    path = tmp_path / f"{name}.cfg"
    path.write_text(workloads.SHIPPED[name])
    rc = parse_config(str(path))
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.execute(rc, out_dir=str(tmp_path / "traced"), **flags)
    finally:
        tracer.restore()
    plain = cli.execute(rc, out_dir=str(tmp_path / "plain"), **flags)
    return tracer, code, plain


@pytest.mark.parametrize("name", sorted(SEED_COUNTS))
def test_traced_counts_match_known_counts(tmp_path, name):
    tracer, code, plain = _traced_execute(tmp_path, name)
    assert {k: tracer.counts[k] for k in SEED_COUNTS[name]} == SEED_COUNTS[name]
    assert code == plain == 0
    traced = (tmp_path / "traced" / "summary.json").read_text()
    assert traced == (tmp_path / "plain" / "summary.json").read_text()


def test_tracer_restores_every_attribute(tmp_path):
    modules = [m for n, m in sys.modules.items() if n == "proxequil" or n.startswith("proxequil.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    classes = [v for v in before.values() if isinstance(v, type) and v.__module__.startswith("proxequil")]
    class_before = {(c, k): v for c in classes for k, v in vars(c).items()}
    _traced_execute(tmp_path, "ball_proximal")
    assert {(m.__name__, k): v for m in modules for k, v in vars(m).items()} == before
    assert {(c, k): v for c in classes for k, v in vars(c).items()} == class_before


def test_tracer_reports_every_layer_metric(tmp_path):
    tracer, _, _ = _traced_execute(tmp_path, "two_ball_trap", oracle=True)
    values = tracer.metrics()
    measured_by_runner = {"trace.overhead_s", "cli.bytes_written"}
    assert set(values) == {m.name for m in LAYER_METRICS} - measured_by_runner
    assert values["oracle.grid_solve.calls"] == 1
    assert values["oracle.grid_points"] > 0
    assert values["schemes.outer_iterations"] == 4


def test_off_lattice_instance_fails_only_at_the_oracle(tmp_path):
    path = tmp_path / "off.cfg"
    path.write_text(workloads.OFF_LATTICE)
    out = tmp_path / "out"
    code = cli.execute(parse_config(str(path)), out_dir=str(out), oracle=True)
    summary = json.loads((out / "summary.json").read_text())
    assert code == 4
    assert check.closed_form_residual(check.read_config(workloads.OFF_LATTICE), summary["final_point"]) < check.RESIDUAL_TOL


def test_benchmark_json_lists_the_layer_metrics_and_keeps_its_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
