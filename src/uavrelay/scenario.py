"""Problem instances: constants, unit handling, loading, validation, sampling.

Everything downstream works in SI units (watts, meters, Hz, linear ratios).
`CONFIG_SCHEMA` is the one reference for config keys: each row gives an SI
key, the `Scenario` attribute it sets, its converter and, where the document
may give it in other units (dBm, dB, one frequency for all subchannels), that
unit variant and its conversion to SI.  `load_scenario`, `serialize` and
`known_config_keys` all read it; conversion happens once, here.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s

# UAV deployment envelope: horizontal start inside the cell disc, altitude
# drawn uniformly from this band.
UAV_ALT_RANGE = (100.0, 200.0)
CELL_RADIUS = 200.0


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
        """Fill in any missing UE positions / frequencies / UAV start, seeded.
        Raises ValueError, naming the field, when a count is out of range,
        before anything is drawn."""
        _raise_problems(_count_problems(self))
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
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _integer(v) -> int:
    if not _number(v).is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _count(v) -> int:
    if not 1 <= _integer(v) <= sys.maxsize:
        raise ValueError(f"expected an integer from 1 to {sys.maxsize}, got {v!r}")
    return int(v)


def _seed(v) -> int:
    if _integer(v) < 0:
        raise ValueError(f"expected a nonnegative integer, got {v!r}")
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


class ConfigKey(NamedTuple):
    """One row of the config schema: an SI key, the `Scenario` attribute it
    sets ("group.field" inside a parameter group), the converter that checks
    its JSON value and, optionally, a unit variant the document may give
    instead (always a number) with its conversion to SI."""

    key: str
    attr: str
    convert: Callable = _number
    variant: str | None = None
    to_si: Callable[[float], float] | None = None


# The config schema, in `serialize` order.
CONFIG_SCHEMA = (
    ConfigKey("n_ues", "n_ues", _count),
    ConfigKey("n_subchannels", "n_subchannels", _count),
    ConfigKey("n_slots", "n_slots", _count),
    ConfigKey("slot_len", "slot_len"),
    ConfigKey("bs_height_m", "bs_height"),
    ConfigKey("p_ue_max_w", "p_ue_max", variant="p_ue_max_dbm", to_si=dbm_to_watts),
    ConfigKey("p_uav_max_w", "p_uav_max", variant="p_uav_max_dbm", to_si=dbm_to_watts),
    ConfigKey("noise_var_w", "noise_var", variant="noise_var_dbm", to_si=dbm_to_watts),
    ConfigKey("ici_power_w", "ici_power", variant="ici_power_dbm", to_si=dbm_to_watts),
    ConfigKey("pathloss_exp", "pathloss_exp"),
    ConfigKey("eta_los", "a2g.eta_los", variant="eta_los_db", to_si=db_to_linear),
    ConfigKey("eta_nlos", "a2g.eta_nlos", variant="eta_nlos_db", to_si=db_to_linear),
    ConfigKey("a2g_a", "a2g.a"),
    ConfigKey("a2g_b", "a2g.b"),
    ConfigKey("d_max_m", "d_max"),
    ConfigKey("e_max", "e_max"),
    ConfigKey("snr_min", "snr_thresholds.direct", variant="snr_min_db", to_si=db_to_linear),
    ConfigKey("snr_min_ue_uav", "snr_thresholds.ue_uav"),
    ConfigKey("snr_min_uav_bs", "snr_thresholds.uav_bs"),
    ConfigKey("bcd_eps", "tolerances.bcd"),
    ConfigKey("trajectory_eps", "tolerances.trajectory"),
    ConfigKey("fading_model", "fading_model", str),  # validate() names the models it accepts
    ConfigKey("rician_k_db", "rician_k_factor"),
    ConfigKey("rng_seed", "rng_seed", _seed),
    ConfigKey("subchannel_freqs_hz", "subchannel_freqs", _numbers, variant="freq_hz", to_si=float),
    ConfigKey("ue_positions", "ue_positions", _ue_positions),
    ConfigKey("prop_delta", "propulsion.delta"),
    ConfigKey("prop_omega", "propulsion.omega"),
    ConfigKey("prop_rotor_radius_m", "propulsion.rotor_radius"),
    ConfigKey("prop_u_tip", "propulsion.u_tip"),
    ConfigKey("prop_v0", "propulsion.v0"),
    ConfigKey("prop_d0", "propulsion.d0"),
    ConfigKey("prop_rho", "propulsion.rho"),
    ConfigKey("prop_s", "propulsion.s"),
    ConfigKey("prop_disc_area", "propulsion.disc_area"),
    ConfigKey("prop_weight", "propulsion.weight"),
    ConfigKey("prop_k_factor", "propulsion.k_factor"),
    ConfigKey("uav_start", "uav_start", lambda v: _numbers(v, (3,))),
)
_ROW_OF = {k: row for row in CONFIG_SCHEMA for k in (row.key, row.variant) if k}


def known_config_keys() -> set[str]:
    return set(_ROW_OF)


def _convert(key: str, convert: Callable, value):
    try:
        return convert(value)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"config key {key}: {exc}") from exc


def load_scenario(text: str) -> Scenario:
    """Parse a JSON config document into a validated Scenario.

    Each key is read as `CONFIG_SCHEMA` says; missing keys fall back to
    the defaults above.  Unknown keys, a key given together with its unit
    variant (e.g. both noise_var_w and noise_var_dbm), values of the wrong
    type or shape, counts (`n_ues`, `n_subchannels`, `n_slots`) below 1
    or above `sys.maxsize`, and numbers that are not finite (JSON NaN,
    Infinity, 1e400) or overflow in SI units are rejected, naming the key.  Two
    rules span rows: `snr_min` (or `snr_min_db`) also sets the hop floors
    the document leaves out, and `freq_hz` fills every subchannel.  UE
    positions, frequencies and the UAV start that the document leaves out
    stay unset, to be drawn from the seed an episode runs with
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

    doc = {}
    for key, value in raw.items():
        row = _ROW_OF[key]
        doc[key] = _convert(key, _number if key == row.variant else row.convert, value)

    kw: dict = {}
    for row in CONFIG_SCHEMA:
        if row.variant in doc:
            if row.key in doc:
                # shorter name first: the SI key, but freq_hz before the list
                first, second = sorted((row.key, row.variant), key=len)
                raise ValueError(f"give only one of {first} / {second}")
            kw[row.attr] = _convert(row.variant, row.to_si, doc[row.variant])
        elif row.key in doc:
            kw[row.attr] = doc[row.key]

    # snr_min also sets the hop floors the document leaves out
    if "snr_thresholds.direct" in kw:
        for hop in ("snr_thresholds.ue_uav", "snr_thresholds.uav_bs"):
            kw.setdefault(hop, kw["snr_thresholds.direct"])

    scenario = Scenario()
    for attr, value in kw.items():
        group, _, name = attr.rpartition(".")
        if group:
            value = replace(getattr(scenario, group), **{name: value})
        scenario = replace(scenario, **{group or name: value})
    if isinstance(scenario.subchannel_freqs, float):  # freq_hz fills every subchannel
        scenario = replace(scenario, subchannel_freqs=(
            scenario.subchannel_freqs,) * scenario.n_subchannels)
    require_valid(scenario.with_positions())
    return scenario


def require_valid(s: Scenario) -> Scenario:
    """Return `s`, or raise ValueError naming every problem `validate` finds."""
    _raise_problems(validate(s))
    return s


def _raise_problems(problems: list[str]) -> None:
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))


def _count_problems(s: Scenario) -> list[str]:
    return [f"{name} must be from 1 to {sys.maxsize}"
            for name in ("n_ues", "n_subchannels", "n_slots")
            if not 1 <= getattr(s, name) <= sys.maxsize]


def validate(s: Scenario) -> list[str]:
    """Return a list of violated invariants; empty means the scenario is usable."""
    out = _count_problems(s)
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
    out += [f"{name} must be finite" for name in _nonfinite(s)]
    if not out:  # hover power needs a valid propulsion model
        from .uav_power import hover_power  # uav_power imports this module
        hover = hover_power(s.propulsion)
        if s.e_max / s.slot_len < hover:
            out.append(f"e_max / slot_len must cover hover power ({hover:.1f} W)")
    return out


def _nonfinite(obj, prefix: str = "") -> Iterator[str]:
    """Names ("group.field" inside a group) of the numeric fields, or number
    tuples, that hold NaN or an infinity."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _nonfinite(value, f"{prefix}{f.name}.")
        elif (isinstance(value, (int, float, tuple))
              and not np.isfinite(np.asarray(value, dtype=float)).all()):
            yield prefix + f.name


def serialize(s: Scenario) -> str:
    """Inverse of load_scenario: every SI key of `CONFIG_SCHEMA`, in order;
    the UAV start only when it is set."""
    doc = {row.key: value for row in CONFIG_SCHEMA
           if (value := attrgetter(row.attr)(s)) is not None}
    return json.dumps(doc, indent=2)
