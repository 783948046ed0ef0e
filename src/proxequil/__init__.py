"""Solvers for equilibrium problems posed over prox-regular feasible sets.

The package splits into geometry (constraint sets with exact projections and
prox-regularity certificates), model (bifunctions, problems, residuals),
schemes (implicit, inertial, and explicit iterations plus the Fejer check),
gap (merit-function machinery and the descent method), oracle (independent
grid and sampling audits), and config/cli (batch plumbing).
"""

from types import ModuleType as _ModuleType

from .errors import (
    DimensionMismatch,
    EmptyGrid,
    EmptyTrace,
    GridTooLarge,
    InnerSolveFailed,
    MissingGradient,
    NonFiniteValue,
    ParseError,
    PointNotInSet,
    ProxequilError,
    SamplingExhausted,
    SubproblemFailed,
    ValidationError,
)
from .geometry import (
    Annulus,
    Ball,
    Box,
    BoxMinusBall,
    ConstraintSet,
    Halfspace,
    NormalCheckReport,
    SET_KINDS,
    Sphere,
    TwoBallUnion,
)
from .model import (
    Bifunction,
    SolverConfig,
    Status,
    Trace,
    TraceRecord,
    UREProblem,
    make_vi_bifunction,
    problem_residual,
)
from .schemes import (
    FejerReport,
    SubproblemCheck,
    default_step_size,
    explicit_solve,
    fejer_check,
    inertial_proximal_solve,
    proximal_solve,
    solve_subproblem,
    verify_subproblem_inequality,
)
from .gap import (
    NecessaryConditionReport,
    check_necessary_condition,
    descent_solve,
    gap_gradient,
    gap_value,
    line_search,
    w_map,
)
from .oracle import (
    GridSpec,
    OracleResult,
    PseudomonotoneReport,
    check_pseudomonotone,
    finite_diff_gradient,
    grid_solve,
)
from .config import RunConfig, build_problem, emit_config, parse_config

__version__ = "0.1.0"

# every public name imported above, not the submodules those imports bind
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
