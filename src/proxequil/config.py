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
import numbers
from dataclasses import MISSING, dataclass, fields

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

# RunConfig field -> (config key, value type), in emission order; the
# problem.set.* and solver.* keys of set_params and solver follow
# problem.set.kind
_RUN_KEYS = {
    "scheme": ("scheme", "string"),
    "k": ("problem.k", "scalar"),
    "r": ("problem.r", "scalar_or_inf"),
    "start": ("problem.start", "vector"),
    "bifunction_kind": ("problem.bifunction.kind", "string"),
    "matrix": ("problem.bifunction.matrix", "matrix"),
    "offset": ("problem.bifunction.offset", "vector"),
    "set_kind": ("problem.set.kind", "string"),
    "oracle_enabled": ("oracle.enabled", "bool"),
    "oracle_resolution": ("oracle.resolution", "int"),
    "oracle_tol": ("oracle.tol", "scalar"),
    "trace_path": ("output.trace", "string"),
    "summary_path": ("output.summary", "string"),
}

# key -> value type used by the parser and emitter
_SCHEMA = {
    **dict(_RUN_KEYS.values()),
    **{
        f"problem.set.{f.name}": _FIELD_TYPES[f.type]
        for cls in SET_KINDS.values()
        for f in fields(cls)
    },
    **{_SOLVER_KEYS[f.name]: _FIELD_TYPES[f.type] for f in fields(SolverConfig)},
}


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


# the keys whose RunConfig field has no default
_REQUIRED = tuple(
    _RUN_KEYS[f.name][0] for f in fields(RunConfig) if f.name in _RUN_KEYS and f.default is MISSING
)


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


def _one_of(key: str, value, allowed) -> list[str]:
    """The message for a value of key that is not in allowed, if it is not."""
    return [] if value in allowed else [f"{key} must be one of {', '.join(allowed)}; got {value!r}"]


def _set_field_problems(kind: str, names) -> list[str]:
    """One message for a kind that is not in SET_KINDS; else one per field
    the set kind needs and names lacks, then one per name it does not take."""
    if kind not in SET_KINDS:
        return _one_of("problem.set.kind", kind, sorted(SET_KINDS))
    wanted = [f.name for f in fields(SET_KINDS[kind])]
    return [f"set kind {kind} needs problem.set.{n}" for n in wanted if n not in names] + [
        f"set kind {kind} does not take problem.set.{n}" for n in names if n not in wanted
    ]


def _validate(pairs: dict[str, object], problems: list[str]) -> None:
    for key in _REQUIRED:
        if key not in pairs:
            problems.append(f"missing required key {key}")
    scheme = pairs.get("scheme")
    if scheme is not None:
        problems.extend(_one_of("scheme", scheme, SCHEMES))
    bkind = pairs.get("problem.bifunction.kind")
    if bkind is not None:
        problems.extend(_one_of("problem.bifunction.kind", bkind, BIFUNCTION_KINDS))
    if bkind == "affine_vi" and "problem.bifunction.matrix" not in pairs:
        problems.append("affine_vi needs problem.bifunction.matrix")
    if bkind == "zero":
        for key in ("problem.bifunction.matrix", "problem.bifunction.offset"):
            if key in pairs:
                problems.append(f"bifunction kind zero does not take {key}")
    k = pairs.get("problem.k")
    if k is not None and not k > 0:
        problems.append(f"problem.k must be positive; got {k!r}")
    r = pairs.get("problem.r")
    if r is not None and not r > 0:
        problems.append(f"problem.r must be positive; got {r!r}")
    skind = pairs.get("problem.set.kind")
    if skind is not None:
        given = [key[len("problem.set.") :] for key in pairs if key.startswith("problem.set.")]
        problems.extend(_set_field_problems(skind, [name for name in given if name != "kind"]))
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

    set_params = sorted(
        (key[len("problem.set.") :], value)
        for key, value in pairs.items()
        if key.startswith("problem.set.") and key != "problem.set.kind"
    )
    kwargs = {name: pairs[key] for name, (key, _) in _RUN_KEYS.items() if key in pairs}
    try:
        solver = SolverConfig(**{name: pairs[key] for name, key in _SOLVER_KEYS.items() if key in pairs})
        rc = RunConfig(**kwargs, set_params=tuple(set_params), solver=solver)
        build_problem(rc)
    except (ValueError, ProxequilError) as exc:
        raise ValidationError([str(exc)]) from exc
    return rc


def emit_config(rc: RunConfig) -> str:
    """Render a RunConfig as config-file text that parses back equal.

    A field left at None (no bifunction matrix or offset) writes no line.
    """
    lines = []
    for name, (key, _) in _RUN_KEYS.items():
        value = getattr(rc, name)
        if value is not None:
            lines.append((key, value))
        if name == "set_kind":
            lines.extend((f"problem.set.{n}", v) for n, v in rc.set_params)
            lines.extend((k, getattr(rc.solver, n)) for n, k in _SOLVER_KEYS.items())
    return "".join(f"{key} = {_fmt_value(key, value)}\n" for key, value in lines)


def build_set(rc: RunConfig) -> ConstraintSet:
    """The set rc describes; a ValueError with parse_config's messages for an
    unknown kind or wrong fields."""
    params = dict(rc.set_params)
    problems = _set_field_problems(rc.set_kind, params)
    if problems:
        raise ValueError("; ".join(problems))
    return SET_KINDS[rc.set_kind](**params)


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

    At = A.T

    def T(u):
        return np.asarray(u, dtype=float) @ At + b

    return make_vi_bifunction(T, JT=lambda u: A)


def build_problem(rc: RunConfig) -> UREProblem:
    """The problem rc describes; a ValueError of its own or of a constructor
    it calls is reported as a ValidationError. It also rejects a scheme not
    in SCHEMES, so that a RunConfig made in Python names a solver, and an
    oracle resolution that is not an integer of at least 2, which
    parse_config cannot produce."""
    try:
        if rc.scheme not in SCHEMES:
            raise ValueError(_one_of("scheme", rc.scheme, SCHEMES)[0])
        if not isinstance(rc.oracle_resolution, numbers.Integral):
            raise ValueError(f"oracle.resolution must be an integer; got {rc.oracle_resolution!r}")
        if rc.oracle_resolution < 2:
            raise ValueError(f"oracle.resolution is too small; got {rc.oracle_resolution!r}")
        s = build_set(rc)
        if len(rc.start) != s.dim:
            raise ValueError(f"problem.start has dimension {len(rc.start)}, the set expects {s.dim}")
        p = UREProblem(bifunction=build_bifunction(rc), feasible_set=s, k=rc.k, r=rc.r)
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc
    s.member(rc.start, "problem.start")
    return p
