"""Problem instances: constants, unit handling, loading, validation, sampling.

Everything downstream works in SI units (watts, meters, Hz, linear ratios).
Config files may use dBm / dB via key suffixes; conversion happens once, here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s

# UAV deployment envelope: horizontal start inside the cell disc, altitude
# drawn uniformly from this band.
UAV_ALT_RANGE = (100.0, 200.0)
CELL_RADIUS = 200.0


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class A2GParams:
    """Air-to-ground link constants: excess attenuation (linear) and the
    two environment coefficients of the LoS-probability logistic."""

    eta_los: float = db_to_linear(1.0)
    eta_nlos: float = db_to_linear(20.0)
    a: float = 9.6
    b: float = 0.28


@dataclass(frozen=True)
class PropulsionParams:
    """Rotary-wing power-model constants."""

    delta: float = 0.012        # profile drag coefficient
    omega: float = 300.0        # blade angular velocity, rad/s
    rotor_radius: float = 0.4   # m
    u_tip: float = 120.0        # rotor tip speed, m/s
    v0: float = 4.03            # mean induced velocity in hover, m/s
    d0: float = 0.6             # fuselage drag ratio
    rho: float = 1.225          # air density, kg/m^3
    s: float = 0.05             # rotor solidity
    disc_area: float = 0.503    # m^2
    weight: float = 20.0        # aircraft weight, N
    k_factor: float = 0.1       # induced-power correction


@dataclass(frozen=True)
class SnrThresholds:
    """Minimum linear SNRs: direct uplink, UE-to-UAV hop, UAV-to-BS hop."""

    direct: float = 300.0
    ue_uav: float = 300.0
    uav_bs: float = 300.0


@dataclass(frozen=True)
class Tolerances:
    bcd: float = 1e-3         # outer loop stops when the objective gain drops below this
    trajectory: float = 0.01  # trajectory stage stop


@dataclass
class UavState:
    """UAV position for the current slot and the anchor it moved from."""

    pos: tuple[float, float, float]
    prev_pos: tuple[float, float, float]


Point = tuple[float, float, float]


@dataclass(frozen=True)
class Scenario:
    n_ues: int = 5
    n_subchannels: int = 10
    n_slots: int = 10
    slot_len: float = 1.0
    bs_height: float = 30.0
    ue_positions: tuple[Point, ...] = ()
    subchannel_freqs: tuple[float, ...] = ()
    p_ue_max: float = dbm_to_watts(6.0)
    p_uav_max: float = 0.3
    noise_var: float = dbm_to_watts(-96.0)
    ici_power: float = dbm_to_watts(-110.0)
    pathloss_exp: float = 4.0
    a2g: A2GParams = field(default_factory=A2GParams)
    propulsion: PropulsionParams = field(default_factory=PropulsionParams)
    d_max: float = 15.0
    e_max: float = 500.0
    snr_thresholds: SnrThresholds = field(default_factory=SnrThresholds)
    tolerances: Tolerances = field(default_factory=Tolerances)
    fading_model: str = "none"  # none | rayleigh | rician | mixed (Rayleigh ground, Rician air)
    rician_k_factor: float = 10.0  # dB, used by the rician/mixed models
    rng_seed: int = 0
    uav_start: Point | None = None

    def with_positions(self, seed: int | None = None) -> "Scenario":
        """Fill in any missing UE positions / frequencies / UAV start, seeded."""
        s = self
        if seed is None:
            seed = s.rng_seed
        if not s.subchannel_freqs:
            s = replace(s, subchannel_freqs=(1e9,) * s.n_subchannels)
        if not s.ue_positions:
            pts = sample_positions(seed, CELL_RADIUS, s.n_ues)
            s = replace(s, ue_positions=tuple(tuple(p) for p in pts))
        if s.uav_start is None:
            s = replace(s, uav_start=sample_uav_start(seed + 1, CELL_RADIUS))
        return s

    @property
    def noise_plus_ici_scale(self) -> float:
        """c = 1 + |I|^2 / sigma^2, the ICI inflation factor on noise."""
        return 1.0 + self.ici_power / self.noise_var


def sample_positions(seed: int, radius: float, n: int) -> list[Point]:
    """n points uniform over the disc of the given radius, z = 0."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return [(float(ri * np.cos(pi)), float(ri * np.sin(pi)), 0.0) for ri, pi in zip(r, phi)]


def sample_uav_start(seed: int, radius: float = CELL_RADIUS) -> Point:
    """Initial UAV position: uniform over the cell disc, altitude uniform
    in UAV_ALT_RANGE."""
    (x, y, _), = sample_positions(seed, radius, 1)
    rng = np.random.default_rng(seed + 10_000)
    z = float(rng.uniform(*UAV_ALT_RANGE))
    return (x, y, z)


# Config values are converted once, by key, before anything reads them; a
# value of the wrong type or shape is rejected, never truncated.

def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _integer(v) -> int:
    if not _number(v).is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _numbers(v, lengths=()) -> tuple[float, ...]:
    """A list of numbers, of one of `lengths` when any are given."""
    if not isinstance(v, list) or (lengths and len(v) not in lengths):
        size = " " + " or ".join(map(str, lengths)) if lengths else ""
        raise ValueError(f"expected a list of{size} numbers, got {v!r}")
    return tuple(_number(x) for x in v)


def _ue_positions(v) -> tuple[Point, ...]:
    """UE positions as [x, y] (on the ground) or [x, y, z]."""
    if not isinstance(v, list):
        raise ValueError(f"expected a list of positions, got {v!r}")
    return tuple((*p, 0.0) if len(p) == 2 else p
                 for p in (_numbers(q, (2, 3)) for q in v))


# Config keys.  _PLAIN_KEYS and _LIST_KEYS map each documented key to its
# converter.  _POWER_KEYS and _ATTEN_KEYS map a base name to its scenario
# field; their unit variants (W/dBm, linear/dB), all numbers, are generated
# below.  Booked this way so unknown keys can be rejected with a clear
# message and dBm/dB duplicates detected.
_POWER_KEYS = {
    "p_ue_max": "p_ue_max",
    "p_uav_max": "p_uav_max",
    "noise_var": "noise_var",
    "ici_power": "ici_power",
}
_ATTEN_KEYS = {
    "eta_los": "eta_los",
    "eta_nlos": "eta_nlos",
}
_PLAIN_KEYS = {
    "n_ues": _integer,
    "n_subchannels": _integer,
    "n_slots": _integer,
    "slot_len": _number,
    "bs_height_m": _number,
    "pathloss_exp": _number,
    "a2g_a": _number,
    "a2g_b": _number,
    "d_max_m": _number,
    "e_max": _number,
    "snr_min": _number,
    "snr_min_db": _number,
    "snr_min_ue_uav": _number,
    "snr_min_uav_bs": _number,
    "bcd_eps": _number,
    "trajectory_eps": _number,
    "fading_model": str,  # validate() names the models it accepts
    "rician_k_db": _number,
    "rng_seed": _integer,
    "freq_hz": _number,
    "prop_delta": _number,
    "prop_omega": _number,
    "prop_rotor_radius_m": _number,
    "prop_u_tip": _number,
    "prop_v0": _number,
    "prop_d0": _number,
    "prop_rho": _number,
    "prop_s": _number,
    "prop_disc_area": _number,
    "prop_weight": _number,
    "prop_k_factor": _number,
}
_LIST_KEYS = {
    "subchannel_freqs_hz": _numbers,
    "ue_positions": _ue_positions,
    "uav_start": lambda v: _numbers(v, (3,)),
}


def known_config_keys() -> set[str]:
    keys = set(_PLAIN_KEYS) | set(_LIST_KEYS)
    for base in _POWER_KEYS:
        keys |= {base + "_w", base + "_dbm"}
    for base in _ATTEN_KEYS:
        keys |= {base, base + "_db"}
    return keys


def load_scenario(text: str) -> Scenario:
    """Parse a JSON config document into a validated Scenario.

    Missing keys fall back to the defaults above.  Unknown keys,
    duplicate unit variants (e.g. both noise_var_w and noise_var_dbm)
    and values of the wrong type or shape are rejected.  UE positions,
    frequencies and the UAV start that the document leaves out stay
    unset, to be drawn from the seed an episode runs with
    (`Scenario.with_positions`); the checks see them as drawn from
    `rng_seed`.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse failure: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")

    unknown = set(raw) - known_config_keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    doc: dict = {}
    for key, value in raw.items():
        convert = _PLAIN_KEYS.get(key) or _LIST_KEYS.get(key) or _number
        try:
            doc[key] = convert(value)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"config key {key}: {exc}") from exc

    kw: dict = {}

    for base, fname in _POWER_KEYS.items():
        w_key, dbm_key = base + "_w", base + "_dbm"
        if w_key in doc and dbm_key in doc:
            raise ValueError(f"give only one of {w_key} / {dbm_key}")
        if w_key in doc:
            kw[fname] = doc[w_key]
        elif dbm_key in doc:
            kw[fname] = dbm_to_watts(doc[dbm_key])

    a2g_kw: dict = {}
    for base, fname in _ATTEN_KEYS.items():
        db_key = base + "_db"
        if base in doc and db_key in doc:
            raise ValueError(f"give only one of {base} / {db_key}")
        if base in doc:
            a2g_kw[fname] = doc[base]
        elif db_key in doc:
            a2g_kw[fname] = db_to_linear(doc[db_key])
    if "a2g_a" in doc:
        a2g_kw["a"] = doc["a2g_a"]
    if "a2g_b" in doc:
        a2g_kw["b"] = doc["a2g_b"]
    if a2g_kw:
        kw["a2g"] = A2GParams(**{**A2GParams().__dict__, **a2g_kw})

    prop_kw = {}
    for key in _PLAIN_KEYS:
        if key.startswith("prop_") and key in doc:
            prop_kw[key.removeprefix("prop_").removesuffix("_m")] = doc[key]
    if prop_kw:
        kw["propulsion"] = PropulsionParams(**{**PropulsionParams().__dict__, **prop_kw})

    for key, fname in (("n_ues", "n_ues"), ("n_subchannels", "n_subchannels"),
                       ("n_slots", "n_slots"), ("slot_len", "slot_len"),
                       ("bs_height_m", "bs_height"), ("pathloss_exp", "pathloss_exp"),
                       ("d_max_m", "d_max"), ("e_max", "e_max"),
                       ("fading_model", "fading_model"), ("rician_k_db", "rician_k_factor"),
                       ("rng_seed", "rng_seed"), ("ue_positions", "ue_positions"),
                       ("uav_start", "uav_start")):
        if key in doc:
            kw[fname] = doc[key]

    if "snr_min" in doc and "snr_min_db" in doc:
        raise ValueError("give only one of snr_min / snr_min_db")
    gamma = None
    if "snr_min" in doc:
        gamma = doc["snr_min"]
    elif "snr_min_db" in doc:
        gamma = db_to_linear(doc["snr_min_db"])
    if gamma is not None or "snr_min_ue_uav" in doc or "snr_min_uav_bs" in doc:
        base_thr = SnrThresholds()
        g = gamma if gamma is not None else base_thr.direct
        kw["snr_thresholds"] = SnrThresholds(
            direct=g,
            ue_uav=doc.get("snr_min_ue_uav", g),
            uav_bs=doc.get("snr_min_uav_bs", g),
        )

    if "bcd_eps" in doc or "trajectory_eps" in doc:
        base_tol = Tolerances()
        kw["tolerances"] = Tolerances(
            bcd=doc.get("bcd_eps", base_tol.bcd),
            trajectory=doc.get("trajectory_eps", base_tol.trajectory),
        )

    if "subchannel_freqs_hz" in doc and "freq_hz" in doc:
        raise ValueError("give only one of freq_hz / subchannel_freqs_hz")
    if "subchannel_freqs_hz" in doc:
        kw["subchannel_freqs"] = doc["subchannel_freqs_hz"]
    elif "freq_hz" in doc:
        n_k = kw.get("n_subchannels", Scenario().n_subchannels)
        kw["subchannel_freqs"] = (doc["freq_hz"],) * n_k

    scenario = Scenario(**kw)
    problems = validate(scenario.with_positions())
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))
    return scenario


def validate(s: Scenario) -> list[str]:
    """Return a list of violated invariants; empty means the scenario is usable."""
    out: list[str] = []
    if s.n_ues < 1:
        out.append("n_ues must be >= 1")
    if s.n_subchannels < 1:
        out.append("n_subchannels must be >= 1")
    if s.n_slots < 1:
        out.append("n_slots must be >= 1")
    for name in ("slot_len", "bs_height", "p_ue_max", "p_uav_max", "noise_var",
                 "pathloss_exp", "d_max", "e_max"):
        if getattr(s, name) <= 0:
            out.append(f"{name} must be positive")
    if s.ici_power < 0:
        out.append("ici_power must be nonnegative")
    if s.ue_positions and len(s.ue_positions) != s.n_ues:
        out.append("ue_positions length must equal n_ues")
    for i, p in enumerate(s.ue_positions):
        if p[2] != 0.0:
            out.append(f"ue {i} z-coordinate must be 0")
    if s.subchannel_freqs:
        if len(s.subchannel_freqs) != s.n_subchannels:
            out.append("subchannel_freqs length must equal n_subchannels")
        if any(f <= 0 for f in s.subchannel_freqs):
            out.append("subchannel frequencies must be positive")
    thr = s.snr_thresholds
    if thr.direct <= 0 or thr.ue_uav <= 0 or thr.uav_bs <= 0:
        out.append("snr thresholds must be positive")
    if s.tolerances.bcd <= 0 or s.tolerances.trajectory <= 0:
        out.append("tolerances must be positive")
    if not (1.0 <= s.a2g.eta_los <= s.a2g.eta_nlos):
        out.append("need eta_nlos >= eta_los >= 1 (linear)")
    if s.a2g.a <= 0 or s.a2g.b <= 0:
        out.append("a2g logistic coefficients must be positive")
    for fname, val in s.propulsion.__dict__.items():
        if val <= 0:
            out.append(f"propulsion {fname} must be positive")
    if s.fading_model not in ("none", "rayleigh", "rician", "mixed"):
        out.append("fading_model must be one of none/rayleigh/rician/mixed")
    if s.uav_start is not None and s.uav_start[2] <= s.bs_height:
        out.append("uav_start altitude must exceed bs_height")
    return out


def serialize(s: Scenario) -> str:
    """Inverse of load_scenario, in SI units only."""
    doc = {
        "n_ues": s.n_ues,
        "n_subchannels": s.n_subchannels,
        "n_slots": s.n_slots,
        "slot_len": s.slot_len,
        "bs_height_m": s.bs_height,
        "p_ue_max_w": s.p_ue_max,
        "p_uav_max_w": s.p_uav_max,
        "noise_var_w": s.noise_var,
        "ici_power_w": s.ici_power,
        "pathloss_exp": s.pathloss_exp,
        "eta_los": s.a2g.eta_los,
        "eta_nlos": s.a2g.eta_nlos,
        "a2g_a": s.a2g.a,
        "a2g_b": s.a2g.b,
        "d_max_m": s.d_max,
        "e_max": s.e_max,
        "snr_min": s.snr_thresholds.direct,
        "snr_min_ue_uav": s.snr_thresholds.ue_uav,
        "snr_min_uav_bs": s.snr_thresholds.uav_bs,
        "bcd_eps": s.tolerances.bcd,
        "trajectory_eps": s.tolerances.trajectory,
        "fading_model": s.fading_model,
        "rician_k_db": s.rician_k_factor,
        "rng_seed": s.rng_seed,
        "subchannel_freqs_hz": list(s.subchannel_freqs),
        "ue_positions": [list(p) for p in s.ue_positions],
        "prop_delta": s.propulsion.delta,
        "prop_omega": s.propulsion.omega,
        "prop_rotor_radius_m": s.propulsion.rotor_radius,
        "prop_u_tip": s.propulsion.u_tip,
        "prop_v0": s.propulsion.v0,
        "prop_d0": s.propulsion.d0,
        "prop_rho": s.propulsion.rho,
        "prop_s": s.propulsion.s,
        "prop_disc_area": s.propulsion.disc_area,
        "prop_weight": s.propulsion.weight,
        "prop_k_factor": s.propulsion.k_factor,
    }
    if s.uav_start is not None:
        doc["uav_start"] = list(s.uav_start)
    return json.dumps(doc, indent=2)
