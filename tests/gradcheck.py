"""Finite-difference check of analytic gradients, shared by the tests."""

import numpy as np


def grad_check(objective, point, step: float = 1e-6) -> float:
    """Max relative deviation between the analytic gradient and central
    finite differences, normalized by the larger gradient norm."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(point, dtype=float)
    _, analytic = objective(x)
    numeric = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        up, _ = objective(x + e)
        down, _ = objective(x - e)
        numeric[i] = (up - down) / (2.0 * step)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)
