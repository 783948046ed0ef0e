"""Closed-form correctness check for affine VI runs.

For T(u) = A u + b and kappa = k / (2 r) > 0, completing the square gives

    min_{v in K} <T(u), v - u> + kappa ||v - u||^2
        = kappa (dist(y, K)^2 - ||y - u||^2),   y = u - T(u) / (2 kappa),

so the residual of the defining inequality at a feasible u is
kappa (||y - u||^2 - dist(y, K)^2). It needs only the set's exact distance
function: no scheme, gap, multistart or residual code of the solver runs here.
"""

from __future__ import annotations

import json
import math

import numpy as np

# A converged point leaves a residual near 1e-14 on these instances (it is
# quadratic in the error, or linear with slope ~2 for a point just inside the
# boundary); the trap leaves one of order 1.
RESIDUAL_TOL = 1e-6


def read_config(text: str) -> dict[str, str]:
    """The `key = value` pairs of a config file, values left as text."""
    pairs = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


_SCALAR_SET_PARAMS = {"radius", "inner_radius", "outer_radius", "radius_a", "radius_b", "offset"}


def _vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _set(pairs: dict[str, str]):
    from proxequil.geometry import SET_KINDS

    params = {}
    for key, value in pairs.items():
        if key.startswith("problem.set.") and key != "problem.set.kind":
            name = key[len("problem.set."):]
            params[name] = float(value) if name in _SCALAR_SET_PARAMS else _vector(value)
    return SET_KINDS[pairs["problem.set.kind"]](**params)


def closed_form_residual(pairs: dict[str, str], u, K=None) -> float:
    """kappa (||y - u||^2 - dist(y, K)^2) for the config's affine VI at u.

    K is the config's constraint set, built from pairs when not given.
    """
    k = float(pairs["problem.k"])
    r = math.inf if pairs["problem.r"] == "inf" else float(pairs["problem.r"])
    kappa = 0.0 if math.isinf(r) else k / (2.0 * r)
    if not kappa > 0:
        raise ValueError("the closed form needs kappa = k / (2 r) > 0")
    if pairs["problem.bifunction.kind"] != "affine_vi":
        raise ValueError("the closed form covers affine_vi bifunctions only")
    A = np.array([_vector(row) for row in pairs["problem.bifunction.matrix"].split(";")])
    u = np.asarray(u, dtype=float)
    b = _vector(pairs["problem.bifunction.offset"]) if "problem.bifunction.offset" in pairs else np.zeros_like(u)
    y = u - (A @ u + b) / (2.0 * kappa)
    K = _set(pairs) if K is None else K
    return kappa * (float((y - u) @ (y - u)) - K.distance(y) ** 2)


def _has_null(value) -> bool:
    if value is None:
        return True
    if isinstance(value, dict):
        return any(_has_null(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_null(v) for v in value)
    return False


def run_failure(pairs: dict[str, str], code: int | None, summary_text: str | None) -> str | None:
    """Why a run failed, or None when it passed.

    code is None when execute raised. A run fails when it raised, exited
    nonzero, wrote no summary, wrote a null field, ended outside the set, or
    left a closed-form residual above RESIDUAL_TOL.
    """
    if code is None:
        return "raised"
    if code != 0:
        return f"exit {code}"
    if summary_text is None:
        return "no summary"
    summary = json.loads(summary_text)
    if _has_null(summary):
        return "null field"
    u = np.array(summary["final_point"], dtype=float)
    K = _set(pairs)
    if K.distance(u) > RESIDUAL_TOL:
        return "infeasible"
    if closed_form_residual(pairs, u, K) > RESIDUAL_TOL:
        return "residual"
    return None
