"""Run configuration: a flat key-value file format with dotted keys, strict
parsing, exact emission, and builders that turn a config into live objects.

Format rules: one `key = value` per line, `#` comments and blank lines
allowed, every key known, no duplicates. Vectors are comma-separated numbers,
matrices use `;` between rows, `auto` leaves a tunable to its heuristic, and
every number is finite except the literal `inf` of problem.r.
parse_config(emit_config written to a file) reproduces the RunConfig exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError, ProxequilError, ValidationError
from .geometry import SET_KINDS, ConstraintSet
from .model import Bifunction, SolverConfig, UREProblem, make_vi_bifunction

SCHEMES = ("proximal", "inertial", "explicit", "descent")
BIFUNCTION_KINDS = ("affine_vi", "zero")

# field annotation -> config value type, for the dataclasses whose fields are
# config keys: the set classes (problem.set.*) and SolverConfig (solver.*)
_FIELD_TYPES = {"Array": "vector", "float": "scalar", "float | None": "scalar_or_auto", "int": "int"}

# SolverConfig field -> config key; lam is spelled solver.lambda, the name
# the field cannot have because lambda is a Python keyword
_SOLVER_KEYS = {
    f.name: "solver.lambda" if f.name == "lam" else f"solver.{f.name}" for f in fields(SolverConfig)
}

# key -> value type used by the parser and emitter
_SCHEMA = {
    "scheme": "string",
    "problem.k": "scalar",
    "problem.r": "scalar_or_inf",
    "problem.start": "vector",
    "problem.bifunction.kind": "string",
    "problem.bifunction.matrix": "matrix",
    "problem.bifunction.offset": "vector",
    "problem.set.kind": "string",
    **{
        f"problem.set.{f.name}": _FIELD_TYPES[f.type]
        for cls in SET_KINDS.values()
        for f in fields(cls)
    },
    **{_SOLVER_KEYS[f.name]: _FIELD_TYPES[f.type] for f in fields(SolverConfig)},
    "oracle.enabled": "bool",
    "oracle.resolution": "int",
    "oracle.tol": "scalar",
    "output.trace": "string",
    "output.summary": "string",
}

_REQUIRED = (
    "scheme",
    "problem.k",
    "problem.r",
    "problem.start",
    "problem.bifunction.kind",
    "problem.set.kind",
)


@dataclass(frozen=True)
class RunConfig:
    """One solver run, fully described by plain values (comparable, hashable).

    set_params holds the (field, value) pairs of the set class named by
    set_kind, sorted by field name; they are its problem.set.* keys. solver
    holds the solver.* keys and is handed to the schemes as it is.
    """

    scheme: str
    k: float
    r: float
    start: tuple[float, ...]
    bifunction_kind: str
    set_kind: str
    set_params: tuple[tuple[str, object], ...]
    matrix: tuple[tuple[float, ...], ...] | None = None
    offset: tuple[float, ...] | None = None
    solver: SolverConfig = SolverConfig()
    oracle_enabled: bool = False
    oracle_resolution: int = 400
    oracle_tol: float = 2e-2
    trace_path: str = "trace.csv"
    summary_path: str = "summary.json"


def _parse_scalar(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _parse_vector(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError("empty vector component")
    return tuple(_parse_scalar(p) for p in parts)


def _parse_value(key: str, text: str):
    vtype = _SCHEMA[key]
    if vtype == "string":
        return text
    if vtype == "bool":
        if text not in ("true", "false"):
            raise ValueError("expected true or false")
        return text == "true"
    if vtype == "int":
        return int(text)
    if vtype == "scalar":
        return _parse_scalar(text)
    if vtype == "scalar_or_inf":
        return math.inf if text == "inf" else _parse_scalar(text)
    if vtype == "scalar_or_auto":
        return None if text == "auto" else _parse_scalar(text)
    if vtype == "vector":
        return _parse_vector(text)
    if vtype == "matrix":
        return tuple(_parse_vector(row) for row in text.split(";"))
    raise AssertionError(f"unhandled value type {vtype}")


def _fmt_value(key: str, value) -> str:
    vtype = _SCHEMA[key]
    if vtype == "string":
        return str(value)
    if vtype == "bool":
        return "true" if value else "false"
    if vtype == "int":
        return repr(int(value))
    if vtype == "scalar":
        return repr(float(value))
    if vtype == "scalar_or_inf":
        return "inf" if math.isinf(value) else repr(float(value))
    if vtype == "scalar_or_auto":
        return "auto" if value is None else repr(float(value))
    if vtype == "vector":
        return ", ".join(repr(float(x)) for x in value)
    if vtype == "matrix":
        return "; ".join(", ".join(repr(float(x)) for x in row) for row in value)
    raise AssertionError(f"unhandled value type {vtype}")


def _read_pairs(path: str) -> dict[str, object]:
    pairs: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _SCHEMA:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            if key in pairs:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                pairs[key] = _parse_value(key, text)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return pairs


def _validate(pairs: dict[str, object], problems: list[str]) -> None:
    for key in _REQUIRED:
        if key not in pairs:
            problems.append(f"missing required key {key}")
    scheme = pairs.get("scheme")
    if scheme is not None and scheme not in SCHEMES:
        problems.append(f"scheme must be one of {', '.join(SCHEMES)}; got {scheme!r}")
    bkind = pairs.get("problem.bifunction.kind")
    if bkind is not None and bkind not in BIFUNCTION_KINDS:
        problems.append(
            f"problem.bifunction.kind must be one of {', '.join(BIFUNCTION_KINDS)}; got {bkind!r}"
        )
    if bkind == "affine_vi" and "problem.bifunction.matrix" not in pairs:
        problems.append("affine_vi needs problem.bifunction.matrix")
    skind = pairs.get("problem.set.kind")
    if skind is not None and skind not in SET_KINDS:
        problems.append(
            f"problem.set.kind must be one of {', '.join(sorted(SET_KINDS))}; got {skind!r}"
        )
    k = pairs.get("problem.k")
    if k is not None and not k > 0:
        problems.append(f"problem.k must be positive; got {k!r}")
    r = pairs.get("problem.r")
    if r is not None and not r > 0:
        problems.append(f"problem.r must be positive; got {r!r}")
    if skind in SET_KINDS:
        wanted = [f.name for f in fields(SET_KINDS[skind])]
        for name in wanted:
            if f"problem.set.{name}" not in pairs:
                problems.append(f"set kind {skind} needs problem.set.{name}")
        for key in pairs:
            if key.startswith("problem.set.") and key != "problem.set.kind":
                name = key[len("problem.set.") :]
                if name not in wanted:
                    problems.append(f"set kind {skind} does not take problem.set.{name}")
    for key, positive in (
        ("solver.gamma", False),
        ("solver.outer_tol", True),
        ("solver.inner_tol", True),
        ("solver.line_search_tol", True),
        ("oracle.tol", True),
    ):
        val = pairs.get(key)
        if val is not None:
            if positive and not val > 0:
                problems.append(f"{key} must be positive; got {val!r}")
            if not positive and not 0.0 <= val < 1.0:
                problems.append(f"{key} must lie in [0, 1); got {val!r}")
    lam = pairs.get("solver.lambda")
    if lam is not None and not lam > 0:
        problems.append(f"solver.lambda must be positive or auto; got {lam!r}")
    alpha = pairs.get("solver.alpha")
    if alpha is not None and not alpha > 0:
        problems.append(f"solver.alpha must be positive or auto; got {alpha!r}")
    seed = pairs.get("solver.seed")
    if seed is not None and seed < 0:
        problems.append(f"solver.seed must be nonnegative; got {seed!r}")
    for key in ("solver.max_outer", "solver.max_inner", "oracle.resolution"):
        val = pairs.get(key)
        if val is not None and val < (2 if key == "oracle.resolution" else 1):
            problems.append(f"{key} is too small; got {val!r}")


def parse_config(path: str) -> RunConfig:
    """Read, type-check, and fully validate a config file.

    Syntax problems (unknown or duplicate keys, malformed values) raise
    ParseError pointing at the line; semantic problems are collected and
    raised together as one ValidationError.
    """
    pairs = _read_pairs(path)
    problems: list[str] = []
    _validate(pairs, problems)
    if problems:
        raise ValidationError(problems)

    set_params = []
    for key, value in pairs.items():
        if key.startswith("problem.set.") and key != "problem.set.kind":
            set_params.append((key[len("problem.set.") :], value))
    set_params.sort()

    kwargs = dict(
        scheme=pairs["scheme"],
        k=pairs["problem.k"],
        r=pairs["problem.r"],
        start=pairs["problem.start"],
        bifunction_kind=pairs["problem.bifunction.kind"],
        set_kind=pairs["problem.set.kind"],
        set_params=tuple(set_params),
        matrix=pairs.get("problem.bifunction.matrix"),
        offset=pairs.get("problem.bifunction.offset"),
    )
    optional = {
        "oracle.enabled": "oracle_enabled",
        "oracle.resolution": "oracle_resolution",
        "oracle.tol": "oracle_tol",
        "output.trace": "trace_path",
        "output.summary": "summary_path",
    }
    for key, attr in optional.items():
        if key in pairs:
            kwargs[attr] = pairs[key]

    try:
        solver = SolverConfig(**{name: pairs[key] for name, key in _SOLVER_KEYS.items() if key in pairs})
        rc = RunConfig(**kwargs, solver=solver)
        build_problem(rc)
    except (ValueError, ProxequilError) as exc:
        raise ValidationError([str(exc)]) from exc
    return rc


def emit_config(rc: RunConfig) -> str:
    """Render a RunConfig as config-file text that parses back equal."""
    lines = [
        ("scheme", rc.scheme),
        ("problem.k", rc.k),
        ("problem.r", rc.r),
        ("problem.start", rc.start),
        ("problem.bifunction.kind", rc.bifunction_kind),
    ]
    if rc.matrix is not None:
        lines.append(("problem.bifunction.matrix", rc.matrix))
    if rc.offset is not None:
        lines.append(("problem.bifunction.offset", rc.offset))
    lines.append(("problem.set.kind", rc.set_kind))
    for name, value in rc.set_params:
        lines.append((f"problem.set.{name}", value))
    lines.extend((key, getattr(rc.solver, name)) for name, key in _SOLVER_KEYS.items())
    lines.extend(
        [
            ("oracle.enabled", rc.oracle_enabled),
            ("oracle.resolution", rc.oracle_resolution),
            ("oracle.tol", rc.oracle_tol),
            ("output.trace", rc.trace_path),
            ("output.summary", rc.summary_path),
        ]
    )
    return "".join(f"{key} = {_fmt_value(key, value)}\n" for key, value in lines)


def build_set(rc: RunConfig) -> ConstraintSet:
    cls = SET_KINDS[rc.set_kind]
    return cls(**dict(rc.set_params))


def build_bifunction(rc: RunConfig) -> Bifunction:
    dim = len(rc.start)
    if rc.bifunction_kind == "zero":

        def T(u):
            return np.zeros_like(np.asarray(u, dtype=float))

        return make_vi_bifunction(T, JT=lambda u: np.zeros((dim, dim)))
    A = np.array(rc.matrix, dtype=float)
    if A.shape != (dim, dim):
        raise ValueError(
            f"problem.bifunction.matrix must be {dim}x{dim} to match problem.start; got {A.shape}"
        )
    b = np.zeros(dim) if rc.offset is None else np.array(rc.offset, dtype=float)
    if b.shape != (dim,):
        raise ValueError("problem.bifunction.offset length must match problem.start")

    def T(u):
        return np.asarray(u, dtype=float) @ A.T + b

    return make_vi_bifunction(T, JT=lambda u: A)


def build_problem(rc: RunConfig) -> UREProblem:
    s = build_set(rc)
    if len(rc.start) != s.dim:
        raise ValueError(f"problem.start has dimension {len(rc.start)}, the set expects {s.dim}")
    f = build_bifunction(rc)
    p = UREProblem(bifunction=f, feasible_set=s, k=rc.k, r=rc.r)
    if not s.contains(np.array(rc.start)):
        raise ValueError("problem.start is not in the feasible set")
    return p
