"""Finite-difference checks of analytic gradients and Hessians, shared
by the tests.  An objective returns (value, gradient), or (value,
gradient, Hessian)."""

import numpy as np


def grad_check(objective, point, step: float = 1e-6) -> float:
    """Max relative deviation between the analytic gradient and central
    finite differences, normalized by the larger gradient norm."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(point, dtype=float)
    analytic = objective(x)[1]
    numeric = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        numeric[i] = (objective(x + e)[0] - objective(x - e)[0]) / (2.0 * step)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def hess_check(objective, point, step: float = 1e-6) -> float:
    """Max relative deviation between the analytic Hessian and central
    finite differences of the analytic gradient, normalized by the larger
    Hessian norm."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(point, dtype=float)
    analytic = objective(x)[2]
    numeric = np.zeros_like(analytic)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        numeric[:, i] = (objective(x + e)[1] - objective(x - e)[1]) / (2.0 * step)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-300)
    return float(np.max(np.abs(analytic - numeric)) / scale)
