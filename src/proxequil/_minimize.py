"""Projected gradient descent with backtracking, shared by the gap machinery
and the residual computation so both report the same inner minimum.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InnerSolveFailed

Array = np.ndarray


def projected_descent(
    value: Callable[[Array], float],
    grad: Callable[[Array], Array],
    project: Callable[[Array], Array],
    w0: Array,
    inner_tol: float,
    max_inner: int,
) -> tuple[Array, float, bool]:
    """Minimize a smooth function over a set given by its projection map.

    Backtracking on the projected-gradient step: from the current point w the
    candidate is P(w - t g); the step is accepted under a quadratic sufficient
    decrease model and t is halved otherwise. An accepted step grows t by 1.6
    only if it strictly decreases the value and halves it otherwise, so steps
    near an interior minimizer shrink below inner_tol. Returns (point, value,
    converged) where converged means the projected step length fell below
    inner_tol before the iteration budget ran out.
    """
    w = project(np.asarray(w0, dtype=float))
    fw = float(value(w))
    t = 1.0
    converged = False
    for _ in range(max_inner):
        g = grad(w)
        moved = False
        for _ in range(60):
            cand = project(w - t * g)
            step = cand - w
            sq = float(step @ step)
            if sq <= inner_tol * inner_tol:
                return cand, float(value(cand)), True
            fc = float(value(cand))
            if fc <= fw + float(g @ step) + 0.5 * sq / t + 1e-14 * (1.0 + abs(fw)):
                t = min(t * 1.6, 1e8) if fc < fw else t * 0.5
                w, fw = cand, fc
                moved = True
                break
            t *= 0.5
        if not moved:
            # Step collapsed without satisfying the model: treat as stationary.
            converged = True
            break
    else:
        return w, fw, False
    return w, fw, converged


def multistart_minimize(
    value: Callable[[Array], float],
    grad: Callable[[Array], Array],
    project: Callable[[Array], Array],
    starts: Array,
    inner_tol: float,
    max_inner: int,
) -> tuple[Array, float]:
    """Best converged result of projected_descent over several starts."""
    best_w = None
    best_f = np.inf
    any_converged = False
    for w0 in starts:
        w, fw, ok = projected_descent(value, grad, project, w0, inner_tol, max_inner)
        if ok:
            any_converged = True
            if fw < best_f:
                best_w, best_f = w, fw
    if not any_converged:
        raise InnerSolveFailed(
            f"no start converged within {max_inner} iterations at tol {inner_tol:g}"
        )
    return best_w, best_f
