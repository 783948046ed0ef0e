"""Config parsing, emission round-trips, and the command line front end."""

import json
import math
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from proxequil import GapModel, ParseError, RunConfig, ValidationError, config, emit_config, gap_value, parse_config
from proxequil.cli import execute, main
from problems import shipped_sets

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
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
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_minimal_config_fills_defaults(tmp_path):
    rc = parse_config(_write(tmp_path, MINIMAL))
    assert rc.scheme == "proximal"
    assert rc.start == (0.0, -1.0)
    assert rc.solver.lam is None and rc.solver.alpha is None
    assert rc.solver.gamma == 0.2
    assert rc.solver.outer_tol == 1e-8
    assert rc.solver.max_outer == 500
    assert rc.solver.seed == 0
    assert rc.oracle_enabled is False
    assert rc.oracle_resolution == 400
    assert rc.trace_path == "trace.csv"
    assert rc.summary_path == "summary.json"


def test_unknown_key_reports_line(tmp_path):
    path = _write(tmp_path, MINIMAL + "problem.wobble = 3\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert "problem.wobble" in str(err.value)
    assert ":11" in str(err.value)


def test_duplicate_key_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "problem.k = 2.0\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert "problem.k" in str(err.value)


def test_bad_value_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("problem.k = 1.0", "problem.k = banana"))
    with pytest.raises(ParseError):
        parse_config(path)


_NON_FINITE = [
    ("problem.k", "problem.k = 1.0", "problem.k = inf"),
    ("problem.r", "problem.r = 1.0", "problem.r = nan"),
    ("problem.set.radius", "radius = 1.0", "radius = inf"),
    ("problem.start", "start = 0.0, -1.0", "start = 0.0, -inf"),
    ("problem.bifunction.matrix", "0.0, 1.0\n", "0.0, inf\n"),
    ("problem.bifunction.offset", "offset = -2.0, 0.0", "offset = nan, 0.0"),
    ("solver.outer_tol", "", "solver.outer_tol = inf\n"),
    ("solver.lambda", "", "solver.lambda = inf\n"),
    ("solver.alpha", "", "solver.alpha = -inf\n"),
    ("oracle.tol", "", "oracle.tol = nan\n"),
]


@pytest.mark.parametrize("key, old, new", _NON_FINITE, ids=[case[0] for case in _NON_FINITE])
def test_non_finite_value_names_key(tmp_path, key, old, new):
    text = MINIMAL.replace(old, new) if old else MINIMAL + new
    with pytest.raises(ParseError) as err:
        parse_config(_write(tmp_path, text))
    assert f"bad value for {key}: " in str(err.value)


def test_negative_k_names_field(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("problem.k = 1.0", "problem.k = -1.0"))
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert "problem.k" in str(err.value)


def test_negative_seed_names_field(tmp_path):
    path = _write(tmp_path, MINIMAL + "solver.seed = -1\n")
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert "solver.seed" in str(err.value)


def test_unknown_scheme_lists_choices(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("scheme = proximal", "scheme = newton"))
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    message = str(err.value)
    for name in ("proximal", "inertial", "explicit", "descent"):
        assert name in message


def test_missing_set_parameter(tmp_path):
    broken = MINIMAL.replace("problem.set.radius = 1.0\n", "")
    with pytest.raises(ValidationError) as err:
        parse_config(_write(tmp_path, broken))
    assert "problem.set.radius" in str(err.value)


def test_zero_bifunction_rejects_affine_keys(tmp_path):
    zero = MINIMAL.replace("kind = affine_vi", "kind = zero")
    with pytest.raises(ValidationError) as err:
        parse_config(_write(tmp_path, zero))
    assert err.value.problems == [
        "bifunction kind zero does not take problem.bifunction.matrix",
        "bifunction kind zero does not take problem.bifunction.offset",
    ]


_SET_KINDS = "annulus, ball, box, box_minus_ball, halfspace, sphere, two_ball_union"

# (id, text replaced in configs/ball_proximal.cfg or "" to append, its
# replacement, error type, message; {path} stands for the config's path)
_CONFIG_ERRORS = [
    ("no-scheme", "scheme = proximal\n", "", ValidationError, "missing required key scheme"),
    ("bifunction-kind", "kind = affine_vi", "kind = cubic", ValidationError,
     "problem.bifunction.kind must be one of affine_vi, zero; got 'cubic'"),
    ("no-matrix", "problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0\n", "", ValidationError,
     "affine_vi needs problem.bifunction.matrix"),
    ("set-kind", "kind = ball", "kind = disk", ValidationError,
     f"problem.set.kind must be one of {_SET_KINDS}; got 'disk'"),
    ("negative-r", "problem.r = 1.0", "problem.r = -1", ValidationError, "problem.r must be positive; got -1.0"),
    ("extra-set-key", "", "problem.set.inner_radius = 0.5\n", ValidationError,
     "set kind ball does not take problem.set.inner_radius"),
    ("outer-tol", "", "solver.outer_tol = 0\n", ValidationError, "solver.outer_tol must be positive; got 0.0"),
    ("gamma", "", "solver.gamma = 1.0\n", ValidationError, "solver.gamma must lie in [0, 1); got 1.0"),
    ("lambda", "solver.lambda = 0.5", "solver.lambda = -1", ValidationError,
     "solver.lambda must be positive or auto; got -1.0"),
    ("alpha", "", "solver.alpha = -1\n", ValidationError, "solver.alpha must be positive or auto; got -1.0"),
    ("max-outer", "", "solver.max_outer = 0\n", ValidationError, "solver.max_outer is too small; got 0"),
    ("resolution", "", "oracle.resolution = 1\n", ValidationError, "oracle.resolution is too small; got 1"),
    ("matrix-shape", "1.0, 0.0; 0.0, 1.0", "1.0, 0.0, 0.0; 0.0, 1.0, 0.0; 0.0, 0.0, 1.0", ValidationError,
     "problem.bifunction.matrix must be 2x2 to match problem.start; got (3, 3)"),
    ("offset-length", "offset = -2.0, 0.0", "offset = -2.0, 0.0, 0.0", ValidationError,
     "problem.bifunction.offset length must match problem.start"),
    ("start-dimension", "start = 0.0, -1.0", "start = 0.0, -1.0, 0.0", ValidationError,
     "problem.start has dimension 3, the set expects 2"),
    ("start-outside", "start = 0.0, -1.0", "start = 0.0, -3.0", ValidationError,
     "problem.start is not in the feasible set"),
    ("empty-component", "start = 0.0, -1.0", "start = 0.0,", ParseError,
     "{path}:5: bad value for problem.start: empty vector component"),
    ("bool", "", "oracle.enabled = yes\n", ParseError,
     "{path}:13: bad value for oracle.enabled: expected true or false"),
    ("no-equals", "", "solver seed 3\n", ParseError, "{path}:13: expected 'key = value', got 'solver seed 3'"),
]


@pytest.mark.parametrize("old, new, error, message", [c[1:] for c in _CONFIG_ERRORS], ids=[c[0] for c in _CONFIG_ERRORS])
def test_config_error_messages(tmp_path, old, new, error, message):
    text = (CONFIG_DIR / "ball_proximal.cfg").read_text(encoding="utf-8")
    assert not old or old in text
    path = _write(tmp_path, text.replace(old, new) if old else text + new)
    with pytest.raises(error) as err:
        parse_config(path)
    assert str(err.value) == message.format(path=path)


def test_shipped_configs_round_trip(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(configs) == 5
    for cfg in configs:
        rc = parse_config(str(cfg))
        again = parse_config(_write(tmp_path, emit_config(rc), name="echo.cfg"))
        assert again == rc


def test_round_trip_inf_and_auto(tmp_path):
    rc = parse_config(_write(tmp_path, MINIMAL))
    rc = replace(rc, r=math.inf, solver=replace(rc.solver, lam=None, alpha=2.0), oracle_enabled=True)
    again = parse_config(_write(tmp_path, emit_config(rc), name="echo.cfg"))
    assert again == rc


@pytest.mark.parametrize("s", shipped_sets(), ids=lambda s: s.kind)
def test_every_set_kind_round_trips(tmp_path, s):
    # problem.set.* keys and their value types come from the set's fields:
    # a halfspace offset is a scalar, a bifunction offset a vector.
    params = {f.name: getattr(s, f.name) for f in fields(s)}
    plain = {
        name: tuple(v.tolist()) if isinstance(v, np.ndarray) else float(v)
        for name, v in params.items()
    }
    rc = RunConfig(
        scheme="proximal",
        k=1.0,
        r=1.0,
        start=tuple(s.project(np.zeros(s.dim)).tolist()),
        bifunction_kind="zero",
        set_kind=s.kind,
        set_params=tuple(sorted(plain.items())),
    )
    again = parse_config(_write(tmp_path, emit_config(rc)))
    assert again == rc
    built = config.build_set(again)
    assert type(built) is type(s)
    for name, value in params.items():
        np.testing.assert_array_equal(getattr(built, name), value)


def test_solver_config_rejection_is_a_validation_error(tmp_path, monkeypatch):
    # parse_config builds the SolverConfig, so its checks back up _validate's.
    monkeypatch.setattr(config, "_validate", lambda pairs, problems: None)
    with pytest.raises(ValidationError) as err:
        parse_config(_write(tmp_path, MINIMAL + "solver.gamma = 1.5\n"))
    assert "gamma" in str(err.value)


def test_cli_run_with_oracle(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(CONFIG_DIR / "ball_proximal.cfg"), "--oracle", "--out", str(out)])
    assert code == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    np.testing.assert_allclose(summary["final_point"], [1.0, 0.0], atol=1e-6)
    assert summary["final_residual"] <= 1e-8
    assert summary["final_gap"] <= 1e-8
    np.testing.assert_allclose(summary["oracle_point"], [1.0, 0.0], atol=1e-12)
    assert summary["oracle_distance"] <= 2e-2
    assert summary["fejer_passed"] is True

    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,step_norm,residual,gap,t"
    assert len(lines) == summary["iterations"] + 2
    assert lines[1].startswith("0,")


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = str(CONFIG_DIR / "annulus_inertial.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_cli_exit_budget_exhausted(tmp_path):
    text = MINIMAL + "solver.max_outer = 1\n"
    code = main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_exit_subproblem_failure(tmp_path):
    text = MINIMAL + "solver.max_inner = 1\nsolver.lambda = 0.5\n"
    code = main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert code == 3


def _ball12(lam: str) -> str:
    """A proximal run on the 12-d unit ball, whose sampling from the bounding
    box runs out of draws."""
    d = 12
    zeros = ", ".join(["0.0"] * d)
    rows = "; ".join(", ".join("1.0" if i == j else "0.0" for j in range(d)) for i in range(d))
    return f"""\
scheme = proximal
problem.k = 1.0
problem.r = 1.0
problem.start = {zeros}
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = {rows}
problem.bifunction.offset = -2.0{", 0.0" * (d - 1)}
problem.set.kind = ball
problem.set.center = {zeros}
problem.set.radius = 1.0
solver.lambda = {lam}
"""


def test_cli_solve_input_error_exits_1(tmp_path, capsys):
    # solver.lambda = auto samples the 12-d unit ball from its bounding box,
    # which runs out of draws: an input/guard error, not a solver failure.
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, _ball12("auto")), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "proxequil: ball: 34 of 100 points after 110000 draws" in err
    assert "solver failure" not in err
    assert not (out / "summary.json").exists()


def test_cli_reports_uncomputed_merits(tmp_path, capsys):
    # A fixed lambda solves without sampling; the residual and the gap then
    # sample their starts, run out of draws and are written as null.
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, _ball12("0.5")), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["final_residual"] is None and summary["final_gap"] is None
    err = capsys.readouterr().err
    assert "proxequil: final_residual not computed: ball: " in err
    assert "proxequil: final_gap not computed: ball: " in err
    assert err.count("of 8 points after 18000 draws") == 2


def test_cli_exit_oracle_disagreement(tmp_path):
    trap = (CONFIG_DIR / "two_ball_trap.cfg").read_text() + "oracle.enabled = true\n"
    code = main(["run", _write(tmp_path, trap), "--out", str(tmp_path / "out")])
    assert code == 4
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "converged"
    np.testing.assert_allclose(summary["final_point"], [1.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(summary["oracle_point"], [-1.005, 0.0], atol=1e-12)
    assert summary["oracle_distance"] > 2.0


def test_cli_audit_error_keeps_solve_outputs(tmp_path, capsys):
    # The grid oracle stops above dimension 3; the converged solve still counts.
    ball4 = """\
scheme = proximal
problem.k = 1.0
problem.r = 1.0
problem.start = 0.0, 0.0, 0.0, 0.0
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1, 0, 0, 0; 0, 1, 0, 0; 0, 0, 1, 0; 0, 0, 0, 1
problem.bifunction.offset = -2.0, 0.0, 0.0, 0.0
problem.set.kind = ball
problem.set.center = 0.0, 0.0, 0.0, 0.0
problem.set.radius = 1.0
solver.lambda = 0.5
"""
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, ball4), "--oracle", "--out", str(out)])
    assert code == 1
    assert "proxequil: audit failed:" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    np.testing.assert_allclose(summary["final_point"], [1.0, 0.0, 0.0, 0.0], atol=1e-6)
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "old, new, alpha",
    [
        ("problem.r = 1.0", "problem.r = 1.0\nsolver.alpha = 2.0", 2.0),
        ("problem.k = 1.0\nproblem.r = 1.0", "problem.k = 4.0\nproblem.r = inf", 4.0),
    ],
    ids=["solver_alpha", "infinite_r"],
)
def test_cli_final_gap_weight(tmp_path, old, new, alpha):
    # solver.alpha is used as given; with r = inf there is no k/r and the gap
    # weight falls back to k. One step leaves a point with a positive gap.
    rc = parse_config(_write(tmp_path, MINIMAL.replace(old, new) + "solver.max_outer = 1\n"))
    out = tmp_path / "out"
    assert execute(rc, out_dir=str(out)) == 2
    summary = json.loads((out / "summary.json").read_text())
    p, final = config.build_problem(rc), np.array(summary["final_point"])
    assert summary["final_gap"] == gap_value(GapModel(p, alpha=alpha), final, rc.solver)
    assert summary["final_gap"] != gap_value(GapModel(p, alpha=1.0), final, rc.solver)


def test_cli_input_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    assert main(["run", _write(tmp_path, MINIMAL + "bogus.key = 1\n")]) == 1
    assert main([]) == 1
    assert main(["run"]) == 1
    assert main(["--suite", str(tmp_path / "nocfgs")]) == 1
    assert main(["run", "x.cfg", "--suite", str(tmp_path)]) == 1
    capsys.readouterr()


def test_cli_verify_flag(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(CONFIG_DIR / "ball_proximal.cfg"), "--verify", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["subproblem_check_passed"] is True
    assert summary["subproblem_check_worst"] <= 1e-8


def test_cli_verify_without_accepted_step_writes_null(tmp_path, capsys):
    # One inner sweep fails the first subproblem, so no step is accepted.
    text = (CONFIG_DIR / "ball_proximal.cfg").read_text() + "solver.max_inner = 1\n"
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, text), "--verify", "--out", str(out)])
    assert code == 3

    def strict(name):
        raise ValueError(f"{name} is not valid JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
    assert summary["status"] == "subproblem_failed"
    assert summary["subproblem_check_passed"] is None
    assert summary["subproblem_check_worst"] is None
    assert "proxequil: subproblem check not computed: no accepted step" in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(CONFIG_DIR / "ball_descent.cfg"), "--seed", "7", "--out", str(out)])
    assert code == 0


def test_cli_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(CONFIG_DIR / "ball_descent.cfg"), "--seed", "-3", "--out", str(out)]) == 1
    assert main(["--suite", str(CONFIG_DIR), "--seed", "-3", "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_execute_rejects_negative_seed(tmp_path, capsys):
    rc = parse_config(str(CONFIG_DIR / "ball_proximal.cfg"))
    assert execute(rc, out_dir=str(tmp_path / "out"), seed=-3) == 1
    err = capsys.readouterr().err
    assert err.startswith("proxequil: ") and "-3" in err
    assert not (tmp_path / "out").exists()


def test_cli_suite_mode(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("ball_proximal.cfg", "annulus_explicit.cfg"):
        shutil.copy(CONFIG_DIR / name, suite / name)
    out = tmp_path / "out"
    assert main(["--suite", str(suite), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "ball_proximal.cfg: exit 0" in printed
    assert "annulus_explicit.cfg: exit 0" in printed
    for stem in ("ball_proximal", "annulus_explicit"):
        assert (out / stem / "trace.csv").exists()
        assert (out / stem / "summary.json").exists()


def test_cli_suite_reports_worst_exit(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    shutil.copy(CONFIG_DIR / "ball_proximal.cfg", suite / "good.cfg")
    (suite / "slow.cfg").write_text(MINIMAL + "solver.max_outer = 1\n", encoding="utf-8")
    assert main(["--suite", str(suite), "--out", str(tmp_path / "out")]) == 2
    capsys.readouterr()
