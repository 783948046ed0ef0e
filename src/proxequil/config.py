"""Run configuration: a flat key-value file format with dotted keys, strict
parsing, exact emission, and builders that turn a config into live objects.

Format rules: one `key = value` per line, `#` comments and blank lines
allowed, every key known, no duplicates. Vectors are comma-separated numbers,
matrices use `;` between rows, `auto` leaves a tunable to its heuristic, and
every number is finite except the literal `inf` of problem.r.
parse_config(emit_config written to a file) reproduces the RunConfig exactly.

A run's values are checked on one path, _validate, which reads the rules of
_KEY_RULES by config key, among them the tables the constructors enforce by
field: _PROBLEM_RULES, _SOLVER_RULES and _GRID_RULES. parse_config runs it on
a file's pairs; build_problem runs it on _pairs(rc), the pairs emit_config
writes, so a RunConfig built in Python gets the file's checks and messages.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ParseError, ProxequilError, ValidationError
from .geometry import SET_KINDS, ConstraintSet, _by_rows
from .model import Bifunction, SolverConfig, UREProblem, make_vi_bifunction
from .model import _PROBLEM_RULES, _SOLVER_RULES, _broken_rules
from .oracle import _GRID_RULES

SCHEMES = ("proximal", "inertial", "explicit", "descent")
BIFUNCTION_KINDS = ("affine_vi",)

# field annotation -> config value type, for the dataclasses whose fields are
# config keys: the set classes (problem.set.*) and SolverConfig (solver.*)
_FIELD_TYPES = {"Array": "vector", "float": "scalar", "float | None": "scalar_or_auto", "int": "int"}

# SolverConfig field -> config key; lam is spelled solver.lambda, the name
# the field cannot have because lambda is a Python keyword
_SOLVER_KEYS = {
    f.name: "solver.lambda" if f.name == "lam" else f"solver.{f.name}" for f in fields(SolverConfig)
}


def _one_of(key: str, allowed) -> tuple:
    return (key, f"must be one of {', '.join(allowed)}", lambda v: v in allowed)


# the problem, solver and grid tables by config key, and the rules of the
# other keys but the problem.set.* values, which the set constructors check
_KEY_RULES = (
    _one_of("scheme", SCHEMES),
    _one_of("problem.bifunction.kind", BIFUNCTION_KINDS),
    _one_of("problem.set.kind", sorted(SET_KINDS)),
    *((f"problem.{name}", phrase, test) for name, phrase, test in _PROBLEM_RULES),
    *((_SOLVER_KEYS[name], phrase, test) for name, phrase, test in _SOLVER_RULES),
    ("oracle.tol", "must be finite", math.isfinite),
    ("oracle.tol", "must be positive", lambda v: v > 0),
    *((f"oracle.{name}", phrase, test) for name, phrase, test in _GRID_RULES),
)

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
    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...] | None = None
    solver: SolverConfig = SolverConfig()
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


def _fmt_scalar(x) -> str:
    return repr(float(x))


def _fmt_vector(v) -> str:
    return ", ".join(map(_fmt_scalar, v))


# value type -> (parse, format); parse raises ValueError on bad text
_CODECS = {
    "string": (str, str),
    "int": (int, lambda n: repr(int(n))),
    "scalar": (_parse_scalar, _fmt_scalar),
    "scalar_or_inf": (
        lambda t: math.inf if t == "inf" else _parse_scalar(t),
        lambda x: "inf" if math.isinf(x) else _fmt_scalar(x),
    ),
    "scalar_or_auto": (
        lambda t: None if t == "auto" else _parse_scalar(t),
        lambda x: "auto" if x is None else _fmt_scalar(x),
    ),
    "vector": (_parse_vector, _fmt_vector),
    "matrix": (
        lambda t: tuple(_parse_vector(row) for row in t.split(";")),
        lambda m: "; ".join(map(_fmt_vector, m)),
    ),
}


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
                pairs[key] = _CODECS[_SCHEMA[key]][0](text)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return pairs


def _validate(pairs: dict[str, object], problems: list[str]) -> None:
    """Append a message to problems for each broken rule of a run's key ->
    value pairs: those of a config file, or _pairs(rc) of a RunConfig. The
    messages follow a fixed order of keys, so a file's ValidationError keeps
    its text."""
    broken = _broken_rules(_KEY_RULES, pairs)

    def report(*keys):
        problems.extend(f"{key} {broken.pop(key)}" for key in keys if key in broken)

    problems.extend(f"missing required key {key}" for key in _REQUIRED if key not in pairs)
    report("scheme", "problem.bifunction.kind", "problem.k", "problem.r", "problem.set.kind")
    skind = pairs.get("problem.set.kind")
    if skind in SET_KINDS:
        wanted = [f.name for f in fields(SET_KINDS[skind])]
        given = [key[len("problem.set.") :] for key in pairs if key.startswith("problem.set.")]
        given.remove("kind")
        problems.extend(f"set kind {skind} needs problem.set.{n}" for n in wanted if n not in given)
        problems.extend(f"set kind {skind} does not take problem.set.{n}" for n in given if n not in wanted)
    report("solver.gamma", "solver.outer_tol", "solver.inner_tol", "solver.line_search_tol", "oracle.tol")
    report(*broken)  # the rest, in rule order


def parse_config(path: str) -> RunConfig:
    """Read, type-check, and fully validate a config file.

    Syntax problems (unknown or duplicate keys, malformed values) raise
    ParseError pointing at the line; the problems _validate finds are
    collected and raised together as one ValidationError, as is a problem
    build_problem finds in the RunConfig.
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


def _pairs(rc: RunConfig) -> dict[str, object]:
    """rc as config key -> value, in emission order. A field left at None
    (no bifunction offset) has no key."""
    pairs: dict[str, object] = {}
    for name, (key, _) in _RUN_KEYS.items():
        value = getattr(rc, name)
        if value is not None:
            pairs[key] = value
        if name == "set_kind":
            pairs.update((f"problem.set.{n}", v) for n, v in rc.set_params)
            pairs.update((k, getattr(rc.solver, n)) for n, k in _SOLVER_KEYS.items())
    return pairs


def emit_config(rc: RunConfig) -> str:
    """Render a RunConfig as config-file text that parses back equal."""
    return "".join(f"{key} = {_CODECS[_SCHEMA[key]][1](value)}\n" for key, value in _pairs(rc).items())


def build_set(rc: RunConfig) -> ConstraintSet:
    return SET_KINDS[rc.set_kind](**dict(rc.set_params))


def build_bifunction(rc: RunConfig) -> Bifunction:
    dim = len(rc.start)
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
        out = np.asarray(u, dtype=float) @ At
        if out.ndim == 2:  # rows: the offset by columns, on _by_rows's rule
            return _by_rows(np.add, out, b, out=out)
        out += b
        return out

    return make_vi_bifunction(T, JT=lambda u: A)


def build_problem(rc: RunConfig) -> UREProblem:
    """The problem rc describes, held to the checks of a config file: the
    problems _validate finds in _pairs(rc) raise a ValidationError with
    parse_config's messages, and so does a ValueError or TypeError of a
    constructor build_problem calls (a set field named kind, which no config
    key can hold, reaches the set class)."""
    problems: list[str] = []
    _validate(_pairs(rc), problems)
    if problems:
        raise ValidationError(problems)
    try:
        s = build_set(rc)
        if len(rc.start) != s.dim:
            raise ValueError(f"problem.start has dimension {len(rc.start)}, the set expects {s.dim}")
        p = UREProblem(bifunction=build_bifunction(rc), feasible_set=s, k=rc.k, r=rc.r)
    except (TypeError, ValueError) as exc:
        raise ValidationError([str(exc)]) from exc
    s.member(rc.start, "problem.start")
    return p
