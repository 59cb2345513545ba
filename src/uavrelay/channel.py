"""Channel power gains and inter-carrier interference.

Terrestrial links are Rayleigh with a distance power law.  Air links mix
line-of-sight and non-line-of-sight free-space losses, weighted by an
elevation-angle logistic.  The ICI machinery quantifies how much power a
Doppler-shifted relayed subcarrier leaks into its neighbours; the rest of
the package treats that leakage as the constant `Scenario.ici_power`.

Everything in a slot's channel that does not depend on where the UAV
sits -- the fading draws, the whole terrestrial UE-to-BS gain, the
per-subchannel free-space factors and the ground peers' coordinates -- is
built once per (scenario, slot) by `slot_channel` and cached.  Those
arrays are shared by every caller, so they are checked once when built
and returned read-only; `gain_matrices` adds the geometric part, one
vectorized pass over the N UEs and the BS per UAV position or per stack
of positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario


def free_space_pathloss(freq: float) -> float:
    """(4 pi f / c)^2, the 1 m free-space loss at carrier frequency f."""
    if freq <= 0:
        raise ValueError("frequency must be positive")
    return (4.0 * math.pi * freq / SPEED_OF_LIGHT) ** 2


def los_probability(theta_deg: float, a: float, b: float) -> float:
    """LoS probability of an air link at elevation angle theta (degrees)."""
    if not 0.0 < theta_deg <= 90.0:
        raise ValueError("elevation must be in (0, 90] degrees")
    return 1.0 / (1.0 + a * math.exp(-b * (theta_deg - a)))


def fading_draws(model: str, shape, rng: np.random.Generator, k_db: float = 10.0) -> np.ndarray:
    """Unit-mean small-scale power fading |g|^2."""
    if model == "none":
        return np.ones(shape)
    if model == "rayleigh":
        return rng.exponential(1.0, shape)
    if model == "rician":
        k = 10.0 ** (k_db / 10.0)
        mean_amp = math.sqrt(k / (k + 1.0))
        scatter_std = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        re = mean_amp + rng.normal(0.0, scatter_std, shape)
        im = rng.normal(0.0, scatter_std, shape)
        return re * re + im * im
    raise ValueError(f"unknown fading model {model!r}")


@dataclass
class ChannelGains:
    """Linear power gains for one slot: (N, K) UE-to-BS, (N, K) UE-to-UAV,
    (K,) UAV-to-BS; for a stack of T UAV positions, (T, N, K) UE-to-UAV
    and (T, 1, K) UAV-to-BS."""

    h_ue_bs: np.ndarray
    h_ue_uav: np.ndarray
    h_uav_bs: np.ndarray


@dataclass(frozen=True)
class SlotChannel:
    """The position-free part of one slot's channel; every array is
    read-only, as it is shared by all calls for the same (scenario, slot).

    `air_scale` is an air link's gain without its geometry: the fading
    draw over the free-space factor of the subchannel.  An air gain is
    air_scale / (d^2 * LoS/NLoS mixture) for the slant distance d."""

    h_ue_bs: np.ndarray    # (N, K) terrestrial gains
    air_scale: np.ndarray  # (N + 1, K): UE-to-UAV rows, then the UAV-to-BS row
    peers: np.ndarray      # (N + 1, 3): UE positions, then the BS antenna


@lru_cache(maxsize=64)
def slot_channel(scenario: Scenario, slot_index: int = 0) -> SlotChannel:
    """Build, check and freeze the position-free channel of one slot.

    Fading is deterministic 1 unless the scenario opts into a model, in
    which case draws are seeded per (scenario seed, slot)."""
    n, k = scenario.n_ues, scenario.n_subchannels
    if scenario.fading_model == "none":
        g_ue_bs = np.ones((n, k))
        g_ue_uav = np.ones((n, k))
        g_uav_bs = np.ones(k)
    else:
        rng = np.random.default_rng((scenario.rng_seed, 7, slot_index))
        # "mixed" is the full channel model: Rayleigh on the terrestrial
        # link, Rician on both air links
        ground = "rayleigh" if scenario.fading_model == "mixed" else scenario.fading_model
        air = "rician" if scenario.fading_model == "mixed" else scenario.fading_model
        g_ue_bs = fading_draws(ground, (n, k), rng, scenario.rician_k_factor)
        g_ue_uav = fading_draws(air, (n, k), rng, scenario.rician_k_factor)
        g_uav_bs = fading_draws(air, (k,), rng, scenario.rician_k_factor)

    peers = np.array([*scenario.ue_positions, (0.0, 0.0, scenario.bs_height)], dtype=float)
    ground_dist = np.sqrt(np.sum((peers[:n] - peers[n]) ** 2, axis=1))
    if np.any(ground_dist == 0.0):
        raise ValueError("coincident endpoints")
    fspl = np.array([free_space_pathloss(f) for f in scenario.subchannel_freqs])
    out = SlotChannel(ground_dist[:, None] ** -scenario.pathloss_exp * g_ue_bs,
                      np.vstack([g_ue_uav, g_uav_bs]) / fspl, peers)
    for name in ("h_ue_bs", "air_scale"):
        arr = getattr(out, name)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValueError(f"{name} must be strictly positive and finite")
    for arr in (out.h_ue_bs, out.air_scale, out.peers):
        arr.flags.writeable = False
    return out


def gain_matrices(scenario: Scenario, uav_pos, slot_index: int = 0) -> ChannelGains:
    """All link gains for one UAV position (3,), or for each position of
    a stack (T, 3) in one pass: the slot's cached terrestrial gains
    (shared and read-only) and the air gains of the position.  A stack's
    air gains lead with its T axis, and its UAV-to-BS gains keep a unit
    UE axis, (T, 1, K), so that they broadcast against the (N, K) links;
    each position's gains are bit-identical to its own call's."""
    chan = slot_channel(scenario, slot_index)
    pos = np.asarray(uav_pos, dtype=float)
    diff = chan.peers - pos[..., None, :]
    d2 = np.einsum("...j,...j->...", diff, diff)
    if not np.isfinite(d2).all():
        raise ValueError("UAV position must be finite")
    if (d2 == 0.0).any():
        raise ValueError("coincident endpoints")
    dz = np.abs(diff[..., 2])
    if (dz <= 0.0).any():
        raise ValueError("air link endpoints must differ in height")
    p = scenario.a2g
    elev = np.degrees(np.arcsin(dz / np.sqrt(d2)))
    pr_los = 1.0 / (1.0 + p.a * np.exp(-p.b * (elev - p.a)))
    air = chan.air_scale / (d2 * (pr_los * p.eta_los + (1.0 - pr_los) * p.eta_nlos))[..., None]
    if pos.ndim == 1:
        return ChannelGains(chan.h_ue_bs, air[:-1], air[-1])
    return ChannelGains(chan.h_ue_bs, air[:, :-1], air[:, -1:])


# ---------------------------------------------------------------------------
# Inter-carrier interference from Doppler on relayed subcarriers.

def dirichlet_kernel(x, n: int):
    """sin(pi x) / (n sin(pi x / n)), the leakage coefficient between OFDM
    bins offset by x, for an n-point DFT.  Vectorized; the removable
    singularities at x = 0 mod n take their limit cos(pi x)/cos(pi x/n)."""
    arr = np.asarray(x, dtype=float)
    denom = n * np.sin(np.pi * arr / n)
    near = np.abs(denom) < 1e-12
    safe = np.where(near, 1.0, denom)
    out = np.where(near,
                   np.cos(np.pi * arr) / np.cos(np.pi * arr / n),
                   np.sin(np.pi * arr) / safe)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IciContext:
    """Inputs for one ICI evaluation at a single desired subcarrier.

    `occupied` lists the subcarriers carrying relayed (Doppler-shifted)
    signals; `powers` their received powers at the BS after relaying.
    `desired_power` is the received power of the wanted signal on
    `desired_index`: the relayed power in relay mode, the direct-path
    power in cellular mode.
    """

    n_subcarriers: int = 1000
    spacing_hz: float = 15e3
    center_freq_hz: float = 3.5e9
    uav_speed: float = 100.0 / 3.6
    desired_index: int = 500
    occupied: tuple[int, ...] = ()
    powers: tuple[float, ...] = ()
    desired_power: float = 1.0
    n_angle_samples: int = 512

    @property
    def max_normalized_doppler(self) -> float:
        return self.uav_speed * self.center_freq_hz / SPEED_OF_LIGHT / self.spacing_hz


def _angle_grid(n: int) -> np.ndarray:
    # midpoint rule over [0, pi]; the ray-arrival angle of an isotropic
    # scatter model enters only through cos, symmetric about pi.
    return (np.arange(n) + 0.5) * (np.pi / n)


def _mean_kernel_sq(offsets: np.ndarray, ctx: IciContext) -> np.ndarray:
    """E over arrival angle of |D(offset + eps cos phi)|^2, per offset."""
    eps = ctx.max_normalized_doppler
    if eps == 0.0:
        # no Doppler: bins stay orthogonal, integer offsets leak nothing
        return np.where(offsets % ctx.n_subcarriers == 0, 1.0, 0.0)
    phis = _angle_grid(ctx.n_angle_samples)
    x = offsets[:, None] + eps * np.cos(phis)[None, :]
    d = dirichlet_kernel(x, ctx.n_subcarriers)
    return np.mean(d * d, axis=1)


def ici_power(mode: str, ctx: IciContext) -> float:
    """Expected interference power leaked into the desired subcarrier by
    the occupied relayed subcarriers, in the same unit as ctx.powers."""
    if mode not in ("cellular", "relay"):
        raise ValueError("mode must be 'cellular' or 'relay'")
    if any(not 0 <= m < ctx.n_subcarriers for m in ctx.occupied):
        raise ValueError("occupied subcarrier index out of range")
    if not 0 <= ctx.desired_index < ctx.n_subcarriers:
        raise ValueError("desired subcarrier index out of range")
    pairs = [(m, p) for m, p in zip(ctx.occupied, ctx.powers) if m != ctx.desired_index]
    if not pairs:
        return 0.0
    offsets = np.array([m - ctx.desired_index for m, _ in pairs], dtype=float)
    powers = np.array([p for _, p in pairs])
    return float(np.dot(powers, _mean_kernel_sq(offsets, ctx)))


def desired_power(mode: str, ctx: IciContext) -> float:
    """Received power of the wanted signal after Doppler.  Only the relayed
    path moves, so cellular reception keeps full subcarrier orthogonality."""
    if mode == "cellular":
        return ctx.desired_power
    if mode == "relay":
        return ctx.desired_power * float(_mean_kernel_sq(np.zeros(1), ctx)[0])
    raise ValueError("mode must be 'cellular' or 'relay'")


def ici_ratio_db(mode: str, ctx: IciContext) -> float:
    return 10.0 * math.log10(ici_power(mode, ctx) / desired_power(mode, ctx))


def reference_ici_context(mode: str, occupancy: float = 1.0,
                          pathloss_advantage_db: float = 15.0,
                          **overrides) -> IciContext:
    """Representative configuration used to justify the constant ICI term.

    All relayed subcarriers arrive with equal power (the relay's automatic
    gain control equalizes them); in cellular mode the wanted direct path
    is `pathloss_advantage_db` weaker than the relayed interferers.
    `occupancy` keeps that fraction of the other subcarriers occupied,
    nearest to the desired one first (the worst case for leakage).
    """
    base = IciContext(**overrides)
    k = base.desired_index
    others = sorted((m for m in range(base.n_subcarriers) if m != k),
                    key=lambda m: (abs(m - k), m))
    n_occ = round(occupancy * len(others))
    occupied = tuple(sorted(others[:n_occ]))
    desired = 1.0 if mode == "relay" else 10.0 ** (-pathloss_advantage_db / 10.0)
    return IciContext(**{**base.__dict__,
                         "occupied": occupied,
                         "powers": (1.0,) * len(occupied),
                         "desired_power": desired})


def occupancy_sensitivity(fractions=(1.0, 0.75, 0.5, 0.25, 0.1)) -> list[tuple[float, float, float]]:
    """(fraction, relay ratio dB, cellular ratio dB) rows for the reference
    geometry at several occupancy levels."""
    rows = []
    for frac in fractions:
        relay = ici_ratio_db("relay", reference_ici_context("relay", frac))
        cell = ici_ratio_db("cellular", reference_ici_context("cellular", frac))
        rows.append((frac, relay, cell))
    return rows
