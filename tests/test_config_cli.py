"""Config parsing, emission round-trips, and the command line front end."""

import json
import math
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from proxequil import Ball, ConstraintSet, GridSpec, ParseError, RunConfig, SolverConfig, UREProblem, ValidationError, cli, config, emit_config, gap, gap_value, make_vi_bifunction, parse_config, schemes
from proxequil.cli import execute, main
from proxequil.model import _PROBLEM_RULES, _SOLVER_RULES
from proxequil.oracle import _GRID_RULES
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


def test_zero_bifunction_kind_is_rejected(tmp_path):
    # F = 0 is affine_vi with a zero matrix; there is no kind of its own
    zero = MINIMAL.replace("kind = affine_vi", "kind = zero")
    with pytest.raises(ValidationError) as err:
        parse_config(_write(tmp_path, zero))
    assert err.value.problems == ["problem.bifunction.kind must be one of affine_vi; got 'zero'"]
    bare = "".join(line for line in zero.splitlines(True) if not line.startswith("problem.bifunction.m"))
    with pytest.raises(ValidationError) as err:
        parse_config(_write(tmp_path, bare))
    assert err.value.problems == [
        "missing required key problem.bifunction.matrix",
        "problem.bifunction.kind must be one of affine_vi; got 'zero'",
    ]


_SET_KINDS = "annulus, ball, box, box_minus_ball, halfspace, sphere, two_ball_union"

# (id, text replaced in configs/ball_proximal.cfg or "" to append, its
# replacement, error type, message; {path} stands for the config's path)
_CONFIG_ERRORS = [
    ("no-scheme", "scheme = proximal\n", "", ValidationError, "missing required key scheme"),
    ("bifunction-kind", "kind = affine_vi", "kind = cubic", ValidationError,
     "problem.bifunction.kind must be one of affine_vi; got 'cubic'"),
    ("no-matrix", "problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0\n", "", ValidationError,
     "missing required key problem.bifunction.matrix"),
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
        bifunction_kind="affine_vi",
        set_kind=s.kind,
        set_params=tuple(sorted(plain.items())),
        matrix=((0.0,) * s.dim,) * s.dim,
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


def _thin_halfspace(lam: str) -> str:
    """A proximal run on the halfspace x_1 <= -0.9998, whose window [-1, 1]^2
    meets it in a 1e-4 share: rejection sampling from the window runs out of
    draws. The solution is the projection (-0.9998, 0) of (2, 0)."""
    return f"""\
scheme = proximal
problem.k = 1.0
problem.r = 1.0
problem.start = -1.0, 0.0
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = 1.0, 0.0; 0.0, 1.0
problem.bifunction.offset = -2.0, 0.0
problem.set.kind = halfspace
problem.set.normal = 1.0, 0.0
problem.set.offset = -0.9998
problem.set.window_lower = -1.0, -1.0
problem.set.window_upper = 1.0, 1.0
solver.lambda = {lam}
"""


def test_cli_solve_input_error_exits_1(tmp_path, capsys):
    # solver.lambda = auto samples the halfspace from its window, which runs
    # out of draws: an input/guard error, not a solver failure.
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, _thin_halfspace("auto")), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"proxequil: halfspace: \d+ of 100 points after 110000 draws\n", err)
    assert "solver failure" not in err
    assert not (out / "summary.json").exists()


def test_cli_reports_uncomputed_merits(tmp_path, capsys):
    # A fixed lambda solves without sampling. With r = 1 both merits are
    # closed-form nearest points, exact at the solution (-0.9998, 0); with
    # r = inf, kappa = 0, so the residual samples its starts, runs out of
    # draws and is written as null, while the gap keeps its closed form.
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, _thin_halfspace("0.5")), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["final_point"] == [-0.9998, 0.0]
    assert summary["final_residual"] == summary["final_gap"] == 0.0
    assert capsys.readouterr().err == ""

    convex = _thin_halfspace("0.5").replace("problem.r = 1.0", "problem.r = inf")
    out = tmp_path / "out-inf"
    code = main(["run", _write(tmp_path, convex), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["final_residual"] is None and summary["final_gap"] == 0.0
    err = capsys.readouterr().err
    assert err.startswith("proxequil: final_residual not computed: halfspace: ")
    assert err.count("of 8 points after 18000 draws") == 1
    assert "final_gap" not in err


def _vec(v) -> str:
    return ", ".join(repr(float(x)) for x in v)


@pytest.mark.parametrize("d", [8, 20])
@pytest.mark.parametrize("kind", ["ball", "annulus"])
def test_auto_step_solves_high_dimensional_sets(tmp_path, capsys, kind, d):
    """solver.lambda = auto samples the set in d = 8 and 20. The affine VI
    T(u) = u - p is solved by the nearest point P(p): on the ball p lies
    outside, on the annulus in the hole, 0.6 from the set (at most k)."""
    c = np.linspace(-0.5, 0.5, d)
    e = np.ones(d) / math.sqrt(d)
    if kind == "ball":
        set_keys = "problem.set.radius = 1.5\n"
        p, start, answer = c + 3.0 * e, c, c + 1.5 * e
    else:
        set_keys = "problem.set.inner_radius = 1.0\nproblem.set.outer_radius = 2.0\n"
        p, start, answer = c + 0.4 * e, c + 1.5 * e, c + e
    identity = "; ".join(_vec(row) for row in np.eye(d))
    text = f"""\
scheme = proximal
problem.k = 1.0
problem.r = 1.0
problem.start = {_vec(start)}
problem.bifunction.kind = affine_vi
problem.bifunction.matrix = {identity}
problem.bifunction.offset = {_vec(-p)}
problem.set.kind = {kind}
problem.set.center = {_vec(c)}
{set_keys}solver.lambda = auto
"""
    out = tmp_path / "out"
    assert execute(parse_config(_write(tmp_path, text)), str(out)) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    np.testing.assert_allclose(summary["final_point"], answer, atol=1e-7)
    assert summary["final_residual"] <= 1e-8


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
    assert summary["final_gap"] == gap_value(p, final, replace(rc.solver, alpha=alpha))
    assert summary["final_gap"] != gap_value(p, final, replace(rc.solver, alpha=1.0))


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
    # --seed reaches SolverConfig through execute, which prints its message;
    # in a suite every config exits 1 on it and nothing is written
    out = tmp_path / "out"
    assert main(["run", str(CONFIG_DIR / "ball_descent.cfg"), "--seed", "-3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "proxequil: seed must be nonnegative; got -3\n"
    assert not out.exists()
    assert main(["--suite", str(CONFIG_DIR), "--seed", "-3", "--out", str(out)]) == 1
    names = sorted(str(c) for c in CONFIG_DIR.glob("*.cfg"))
    assert capsys.readouterr().out == "".join(f"{name}: exit 1\n" for name in names)
    assert not out.exists()


def test_execute_rejects_negative_seed(tmp_path, capsys):
    rc = parse_config(str(CONFIG_DIR / "ball_proximal.cfg"))
    assert execute(rc, out_dir=str(tmp_path / "out"), seed=-3) == 1
    assert capsys.readouterr().err == "proxequil: seed must be nonnegative; got -3\n"
    # a non-integer seed would reach the sampler of a lambda = auto run, and
    # True, an Integral, would run as seed 1
    auto = replace(rc, solver=replace(rc.solver, lam=None))
    for seed in (1.5, 2.0, True):
        assert execute(auto, out_dir=str(tmp_path / "out"), seed=seed) == 1
        assert capsys.readouterr().err == f"proxequil: seed must be an integer; got {seed!r}\n"
    assert not (tmp_path / "out").exists()


# (field, phrase) of each rule of _PROBLEM_RULES, _SOLVER_RULES and
# _GRID_RULES -> a value that breaks it and no earlier rule of its field
_BREAKING = {
    ("k", "must be finite"): math.inf,
    ("k", "must be positive"): -1.0,
    ("r", "must be positive"): 0.0,
    ("lam", "must be finite"): math.inf,
    ("lam", "must be positive or auto"): -1.0,
    ("gamma", "must lie in [0, 1)"): 1.0,
    ("alpha", "must be finite"): math.nan,
    ("alpha", "must be positive or auto"): 0.0,
    ("outer_tol", "must be finite"): math.nan,
    ("outer_tol", "must be positive"): 0.0,
    ("inner_tol", "must be finite"): math.inf,
    ("inner_tol", "must be positive"): -1e-12,
    ("line_search_tol", "must be finite"): -math.inf,
    ("line_search_tol", "must be positive"): -1.0,
    ("seed", "must be an integer"): 1.5,
    ("seed", "must be nonnegative"): -3,
    ("max_outer", "must be an integer"): True,
    ("max_outer", "is too small"): 0,
    ("max_inner", "must be an integer"): 3.0,
    ("max_inner", "is too small"): -1,
    ("resolution", "must be an integer"): 2.5,
    ("resolution", "is too small"): 1,
}

_RULES = [(table, field, phrase)
          for table, rules in (("problem", _PROBLEM_RULES), ("solver", _SOLVER_RULES), ("grid", _GRID_RULES))
          for field, phrase, _ in rules]

# field -> (config key, RunConfig field) of the fields a RunConfig holds
# outside its SolverConfig, which cannot hold a broken value
_RUN_FIELDS = {"k": ("problem.k", "k"), "r": ("problem.r", "r"), "resolution": ("oracle.resolution", "oracle_resolution")}


def _construct(table, field, value):
    if table == "problem":
        return UREProblem(make_vi_bifunction(lambda u: u), Ball(np.zeros(2), 1.0), **{"k": 1.0, "r": 1.0, field: value})
    return SolverConfig(**{field: value}) if table == "solver" else GridSpec(value)


@pytest.mark.parametrize("table, field, phrase", _RULES, ids=[f"{f}-{p}" for _, f, p in _RULES])
def test_each_rule_has_one_message_per_path(tmp_path, table, field, phrase):
    # The constructor names the field; build_problem on a Python RunConfig
    # and parse_config on a file name the config key. A second home of the
    # rule, with its own text, would break one of the three.
    bad = _BREAKING[field, phrase]
    with pytest.raises(ValidationError) as err:
        _construct(table, field, bad)
    assert isinstance(err.value, ValueError)
    assert err.value.problems == [f"{field} {phrase}; got {bad!r}"]
    rc = parse_config(str(CONFIG_DIR / "ball_proximal.cfg"))
    if field in _RUN_FIELDS:
        key, rc_field = _RUN_FIELDS[field]
        with pytest.raises(ValidationError) as err:
            config.build_problem(replace(rc, **{rc_field: bad}))
        assert err.value.problems == [f"{key} {phrase}; got {bad!r}"]
    else:
        key = config._SOLVER_KEYS[field]
    # a file holds finite numbers, and integers only for an int key
    if type(bad) is (int if config._SCHEMA[key] == "int" else float) and math.isfinite(bad):
        lines = [line for line in emit_config(rc).splitlines(True) if not line.startswith(f"{key} =")]
        with pytest.raises(ValidationError) as err:
            parse_config(_write(tmp_path, "".join(lines) + f"{key} = {bad!r}\n"))
        assert err.value.problems == [f"{key} {phrase}; got {bad!r}"]


# (id, shipped config, RunConfig change, message)
_BUILD_ERRORS = [
    ("start-dimension", "ball_proximal", dict(start=(0.0, -1.0, 0.0)), "problem.start has dimension 3, the set expects 2"),
    ("negative-k", "ball_proximal", dict(k=-1.0), "problem.k must be positive; got -1.0"),
    ("negative-radius", "ball_proximal", dict(set_params=(("center", (0.0, 0.0)), ("radius", -1.0))),
     "radius must be positive"),
    ("start-outside", "ball_proximal", dict(start=(0.0, -3.0)), "problem.start is not in the feasible set"),
    ("extra-field", "ball_proximal",
     dict(set_params=(("center", (0.0, 0.0)), ("inner_radius", 0.5), ("radius", 1.0))),
     "set kind ball does not take problem.set.inner_radius"),
    ("missing-field", "ball_proximal", dict(set_params=(("center", (0.0, 0.0)),)), "set kind ball needs problem.set.radius"),
    ("nan-radius", "ball_proximal", dict(set_params=(("center", (0.0, 0.0)), ("radius", math.nan))),
     "radius is NaN or infinite"),
    ("unknown-set-kind", "ball_proximal", dict(set_kind="blob"), f"problem.set.kind must be one of {_SET_KINDS}; got 'blob'"),
    ("unknown-scheme", "ball_proximal", dict(scheme="blob"),
     "scheme must be one of proximal, inertial, explicit, descent; got 'blob'"),
    ("oracle-resolution", "ball_proximal", dict(oracle_resolution=1), "oracle.resolution is too small; got 1"),
    ("oracle-resolution-fraction", "ball_proximal", dict(oracle_resolution=2.5), "oracle.resolution must be an integer; got 2.5"),
    ("oracle-resolution-nan", "ball_proximal", dict(oracle_resolution=math.nan), "oracle.resolution must be an integer; got nan"),
    ("oracle-resolution-inf", "ball_proximal", dict(oracle_resolution=math.inf), "oracle.resolution must be an integer; got inf"),
    ("oracle-resolution-float", "ball_proximal", dict(oracle_resolution=3.0), "oracle.resolution must be an integer; got 3.0"),
    ("oracle-resolution-bool", "ball_proximal", dict(oracle_resolution=True), "oracle.resolution must be an integer; got True"),
    # the trap converges to (1, 0), far from the oracle's (-1.005, 0); a
    # tolerance that is not a positive number would let it pass
    ("oracle-tol-nan", "two_ball_trap", dict(oracle_tol=math.nan), "oracle.tol must be finite; got nan"),
    ("oracle-tol-inf", "two_ball_trap", dict(oracle_tol=math.inf), "oracle.tol must be finite; got inf"),
    ("oracle-tol-zero", "two_ball_trap", dict(oracle_tol=0.0), "oracle.tol must be positive; got 0.0"),
    ("oracle-tol-negative", "two_ball_trap", dict(oracle_tol=-1.0), "oracle.tol must be positive; got -1.0"),
    ("unknown-bifunction-kind", "ball_proximal", dict(bifunction_kind="cubic"),
     "problem.bifunction.kind must be one of affine_vi; got 'cubic'"),
    ("affine-no-matrix", "ball_proximal", dict(matrix=None), "missing required key problem.bifunction.matrix"),
    ("zero-kind", "ball_proximal", dict(bifunction_kind="zero", matrix=None, offset=None),
     "missing required key problem.bifunction.matrix; problem.bifunction.kind must be one of affine_vi; got 'zero'"),
    ("infinite-k", "ball_proximal", dict(k=math.inf), "problem.k must be finite; got inf"),
]


@pytest.mark.parametrize("name, change, message", [c[1:] for c in _BUILD_ERRORS], ids=[c[0] for c in _BUILD_ERRORS])
def test_execute_reports_build_errors(tmp_path, capsys, name, change, message):
    # A RunConfig made in Python gets the checks of parse_config in
    # build_problem, and those of the constructors it calls: each ends in a
    # message that names its key, and nothing is written.
    rc = replace(parse_config(str(CONFIG_DIR / f"{name}.cfg")), **change)
    assert execute(rc, out_dir=str(tmp_path / "out"), oracle=True) == 1
    assert capsys.readouterr().err == f"proxequil: {message}\n"
    assert not (tmp_path / "out").exists()


def test_execute_reports_a_set_field_named_kind(tmp_path, capsys):
    # no config key can hold it: problem.set.kind names the set class
    rc = parse_config(str(CONFIG_DIR / "ball_proximal.cfg"))
    rc = replace(rc, set_params=(("center", (0.0, 0.0)), ("kind", "ball"), ("radius", 1.0)))
    assert execute(rc, out_dir=str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("proxequil: ") and "unexpected keyword argument 'kind'" in err
    assert not (tmp_path / "out").exists()


# _CONFIG_ERRORS cases as a change of the parsed configs/ball_proximal.cfg
_AS_REPLACE = {
    "no-scheme": dict(scheme=None),
    "bifunction-kind": dict(bifunction_kind="cubic"),
    "no-matrix": dict(matrix=None),
    "set-kind": dict(set_kind="disk"),
    "negative-r": dict(r=-1.0),
    "extra-set-key": dict(set_params=(("center", (0.0, 0.0)), ("inner_radius", 0.5), ("radius", 1.0))),
    "resolution": dict(oracle_resolution=1),
    "matrix-shape": dict(matrix=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
    "offset-length": dict(offset=(-2.0, 0.0, 0.0)),
    "start-dimension": dict(start=(0.0, -1.0, 0.0)),
    "start-outside": dict(start=(0.0, -3.0)),
}


@pytest.mark.parametrize("case", [c for c in _CONFIG_ERRORS if c[0] in _AS_REPLACE], ids=lambda c: c[0])
def test_python_run_config_gets_the_file_message(tmp_path, capsys, case):
    name, old, new, error, _ = case
    text = (CONFIG_DIR / "ball_proximal.cfg").read_text(encoding="utf-8")
    with pytest.raises(error) as err:
        parse_config(_write(tmp_path, text.replace(old, new) if old else text + new))
    rc = replace(parse_config(str(CONFIG_DIR / "ball_proximal.cfg")), **_AS_REPLACE[name])
    assert execute(rc, out_dir=str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"proxequil: {err.value}\n"
    assert not (tmp_path / "out").exists()


# Per shipped config: the calls to ConstraintSet.project, and to the solver
# functions the benchmark tracer wraps, during execute(..., verify=True).
_TRACED_CALLS = {
    # 157 inner sweeps over the 37 implicit steps, 38 residual measures, the
    # final residual and the final gap
    "ball_proximal": (197, dict(solve_subproblem=37, verify_subproblem_inequality=37, line_search=0, gap_value=1)),
    # 1,227 inner sweeps over 287 steps, 288 measures and the two merits
    "annulus_inertial": (1517, dict(solve_subproblem=287, verify_subproblem_inequality=287, line_search=0, gap_value=1)),
    # 53 explicit steps, each measured once (52 iterations), the final
    # residual and the final gap
    "annulus_explicit": (55, dict(solve_subproblem=0, verify_subproblem_inequality=0, line_search=0, gap_value=1)),
    # 52 line-search probes and the final gap
    "ball_descent": (109, dict(solve_subproblem=0, verify_subproblem_inequality=0, line_search=1, gap_value=53)),
}


@pytest.mark.parametrize(
    "name, calls, traced",
    [pytest.param(name, calls, traced, id=f"{name}-{calls}") for name, (calls, traced) in _TRACED_CALLS.items()],
)
def test_shipped_runs_project_through_the_public_method(tmp_path, monkeypatch, name, calls, traced):
    """Every projection of a run goes through the public ConstraintSet.project,
    and every implicit step, step audit, line search and gap value through
    its module global, which the benchmark wraps to count projections, inner
    sweeps, subproblems, audited steps, line searches and probes."""
    project = ConstraintSet.project
    seen = []
    monkeypatch.setattr(ConstraintSet, "project", lambda s, x: seen.append(x) or project(s, x))
    counts = dict.fromkeys(traced, 0)
    for module in (schemes, gap, cli):
        for fn in traced:
            if hasattr(module, fn):
                orig = getattr(module, fn)
                monkeypatch.setattr(module, fn, lambda *a, fn=fn, orig=orig: counts.__setitem__(fn, counts[fn] + 1) or orig(*a))
    rc = parse_config(str(CONFIG_DIR / f"{name}.cfg"))
    assert execute(rc, out_dir=str(tmp_path / "out"), verify=True) == 0
    assert len(seen) == calls
    assert counts == traced


def test_verify_resolves_auto_lambda_once(tmp_path, monkeypatch):
    calls = []
    step_size = schemes.default_step_size
    monkeypatch.setattr(schemes, "default_step_size", lambda p, seed=0: calls.append(seed) or step_size(p, seed))
    rc = parse_config(str(CONFIG_DIR / "ball_proximal.cfg"))
    rc = replace(rc, solver=replace(rc.solver, lam=None))
    assert execute(rc, out_dir=str(tmp_path / "out"), verify=True) == 0
    assert calls == [0]


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
