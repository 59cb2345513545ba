"""Rotary-wing propulsion: exact power curve, its convex upper bound, and
the fastest speed the per-slot energy budget allows.

The exact curve dips below hover power at moderate speed (induced power
falls as forward speed grows) and is not convex.  Optimization, the
displacement cap and the slot validator therefore use the upper bound that
freezes the induced term at its hover value, and so do the episode CSV's
`flying_power` and `summary.json`'s `flying_energy`; `summary.json`'s
`flying_energy_exact` uses the exact curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .scenario import PropulsionParams


@dataclass(frozen=True)
class PropulsionDerived:
    p0: float  # blade profile power at hover, W
    pi: float  # induced power at hover, W


def derived(params: PropulsionParams) -> PropulsionDerived:
    p0 = (params.delta / 8.0) * params.rho * params.s * params.disc_area \
        * params.omega ** 3 * params.rotor_radius ** 3
    pi = (1.0 + params.k_factor) * params.weight ** 1.5 \
        / math.sqrt(2.0 * params.rho * params.disc_area)
    return PropulsionDerived(p0, pi)


def flying_power(v: float, params: PropulsionParams) -> float:
    if v < 0:
        raise ValueError("speed must be nonnegative")
    d = derived(params)
    profile = d.p0 * (1.0 + 3.0 * v * v / params.u_tip ** 2)
    induced = d.pi * math.sqrt(math.sqrt(1.0 + v ** 4 / (4.0 * params.v0 ** 4))
                               - v * v / (2.0 * params.v0 ** 2))
    parasite = 0.5 * params.d0 * params.rho * params.s * params.disc_area * v ** 3
    return profile + induced + parasite


def flying_power_upper(v: float, params: PropulsionParams) -> float:
    """Convex bound: induced power held at hover level."""
    if v < 0:
        raise ValueError("speed must be nonnegative")
    d = derived(params)
    profile = d.p0 * (1.0 + 3.0 * v * v / params.u_tip ** 2)
    parasite = 0.5 * params.d0 * params.rho * params.s * params.disc_area * v ** 3
    return profile + d.pi + parasite


def hover_power(params: PropulsionParams) -> float:
    d = derived(params)
    return d.p0 + d.pi


def max_speed_under_energy(e_max: float, slot_len: float,
                           params: PropulsionParams, tol: float = 1e-6) -> float:
    """Largest v with flying_power_upper(v) * slot_len <= e_max, by bisection.

    flying_power_upper is strictly increasing, so the root is unique."""
    budget = e_max / slot_len
    if budget < hover_power(params):
        raise ValueError("energy budget cannot sustain hovering")
    lo, hi = 0.0, 1.0
    while flying_power_upper(hi, params) <= budget:
        hi *= 2.0
        if hi > 1e6:
            return hi  # budget is effectively unbounded
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flying_power_upper(mid, params) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=256)
def move_radius(d_max: float, e_max: float, slot_len: float,
                params: PropulsionParams) -> float:
    """Per-slot displacement cap: distance limit or energy-limited reach,
    whichever binds.  Memoized: every stage of every slot asks again with
    the scenario's constants, and each answer costs a bisection."""
    return min(d_max, max_speed_under_energy(e_max, slot_len, params) * slot_len)
