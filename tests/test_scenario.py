import json
import math
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay.scenario import (
    A2GParams,
    Scenario,
    SnrThresholds,
    db_to_linear,
    dbm_to_watts,
    known_config_keys,
    load_scenario,
    sample_positions,
    sample_uav_start,
    serialize,
    validate,
)
from uavrelay.uav_power import hover_power


def test_defaults_match_reference_table():
    s = Scenario()
    assert s.n_ues == 5
    assert s.n_subchannels == 10
    assert s.n_slots == 10
    assert s.slot_len == 1.0
    assert s.bs_height == 30.0
    assert s.d_max == 15.0
    assert s.p_uav_max == 0.3
    assert s.noise_var == pytest.approx(2.511886431509582e-13, rel=1e-12)
    assert s.ici_power == pytest.approx(1e-14, rel=1e-12)
    assert s.pathloss_exp == 4.0
    assert s.a2g.eta_los == pytest.approx(db_to_linear(1.0))
    assert s.a2g.eta_nlos == pytest.approx(100.0)
    assert s.a2g.a == 9.6
    assert s.a2g.b == 0.28
    assert s.snr_thresholds.direct == 300.0
    assert s.tolerances.bcd == 1e-3
    assert s.tolerances.trajectory == 0.01
    # the reference table leaves the UE budget open (it is the swept axis
    # of the power experiments); the default sits inside that sweep range
    assert s.p_ue_max == pytest.approx(dbm_to_watts(6.0))
    assert dbm_to_watts(5.0) <= s.p_ue_max <= dbm_to_watts(20.0)
    p = s.propulsion
    assert (p.delta, p.omega, p.rotor_radius, p.u_tip) == (0.012, 300.0, 0.4, 120.0)
    assert (p.v0, p.d0, p.rho, p.s) == (4.03, 0.6, 1.225, 0.05)
    assert (p.disc_area, p.weight, p.k_factor) == (0.503, 20.0, 0.1)


def test_empty_document_gives_pure_defaults():
    s = load_scenario("")
    t = load_scenario("{}")
    assert s == t
    assert s.n_ues == 5 and s.n_subchannels == 10
    # what the document leaves out stays unset until an episode draws it
    assert s.ue_positions == () and s.subchannel_freqs == () and s.uav_start is None
    s = s.with_positions()
    assert len(s.ue_positions) == 5
    assert all(f == 1e9 for f in s.subchannel_freqs)
    assert s.uav_start is not None and s.uav_start[2] > s.bs_height


def test_explicit_table_document_round_trips():
    doc = {
        "n_ues": 5, "n_subchannels": 10, "n_slots": 10, "slot_len": 1.0,
        "bs_height_m": 30.0, "d_max_m": 15.0, "p_uav_max_w": 0.3,
        "noise_var_dbm": -96.0, "eta_los_db": 1.0, "eta_nlos_db": 20.0,
        "a2g_a": 9.6, "a2g_b": 0.28, "freq_hz": 1e9,
        "ici_power_dbm": -110.0, "bcd_eps": 0.001, "trajectory_eps": 0.01,
        "snr_min_db": 20.0, "snr_min_uav_bs": 50.0,
    }
    s = load_scenario(json.dumps(doc))
    assert s.noise_var == pytest.approx(dbm_to_watts(-96.0), rel=1e-12)
    assert s.a2g.eta_nlos == pytest.approx(100.0, rel=1e-12)
    assert s.subchannel_freqs == (1e9,) * 10
    # snr_min also sets the hop floors the document leaves out
    assert s.snr_thresholds == SnrThresholds(db_to_linear(20.0), db_to_linear(20.0), 50.0)
    assert validate(s) == []


def test_negative_d_max_rejected_by_name():
    with pytest.raises(ValueError, match="d_max"):
        load_scenario('{"d_max_m": -1}')


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="nonsense"):
        load_scenario('{"nonsense": 1}')


def test_duplicate_unit_variants_rejected():
    with pytest.raises(ValueError, match="noise_var"):
        load_scenario('{"noise_var_w": 1e-13, "noise_var_dbm": -96}')
    for doc, named in (({"p_ue_max_dbm": 6, "p_ue_max_w": 1}, "p_ue_max_w / p_ue_max_dbm"),
                       ({"eta_los_db": 1, "eta_los": 1}, "eta_los / eta_los_db"),
                       ({"snr_min_db": 20, "snr_min": 100}, "snr_min / snr_min_db"),
                       ({"subchannel_freqs_hz": [1e9] * 10, "freq_hz": 1e9},
                        "freq_hz / subchannel_freqs_hz")):
        with pytest.raises(ValueError) as err:
            load_scenario(json.dumps(doc))
        assert str(err.value) == f"give only one of {named}"


def test_validate_flags_zero_noise_and_lifted_ue():
    s = Scenario(noise_var=0.0).with_positions()
    msgs = validate(s)
    assert any("noise_var" in m for m in msgs)
    bad = Scenario(ue_positions=((0.0, 1.0, 5.0),) + Scenario().with_positions().ue_positions[1:])
    msgs = validate(bad)
    assert any("z-coordinate" in m for m in msgs)


def test_counts_out_of_range_are_named_before_anything_is_drawn():
    s = Scenario(n_ues=0, n_subchannels=10**30)
    assert validate(s)[:2] == [f"n_ues must be from 1 to {sys.maxsize}",
                               f"n_subchannels must be from 1 to {sys.maxsize}"]
    with pytest.raises(ValueError, match="n_ues must be from 1 to.*n_subchannels"):
        s.with_positions()


def test_serialize_load_identity():
    s = load_scenario('{"rng_seed": 42, "n_ues": 3, "p_ue_max_dbm": 20}')
    assert load_scenario(serialize(s)) == s


def test_sample_positions_inside_disc_and_deterministic():
    pts = sample_positions(7, 200.0, 5)
    assert len(pts) == 5
    for x, y, z in pts:
        assert x * x + y * y <= 200.0 ** 2
        assert z == 0.0
    assert pts == sample_positions(7, 200.0, 5)


def test_sample_positions_mean_radius():
    pts = sample_positions(123, 200.0, 100_000)
    radii = [math.hypot(x, y) for x, y, _ in pts]
    # uniform disc has mean radius 2R/3
    assert np.mean(radii) == pytest.approx(2.0 / 3.0 * 200.0, rel=0.01)


def test_sample_positions_input_checks():
    with pytest.raises(ValueError):
        sample_positions(0, -1.0, 3)
    with pytest.raises(ValueError):
        sample_positions(0, 10.0, 0)


def test_uav_start_band():
    for seed in range(20):
        x, y, z = sample_uav_start(seed)
        assert x * x + y * y <= 200.0 ** 2
        assert 100.0 <= z <= 200.0


@given(st.integers(0, 2**31), st.floats(1.0, 1e4), st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_sampling_reproducible(seed, radius, n):
    a = sample_positions(seed, radius, n)
    b = sample_positions(seed, radius, n)
    assert a == b
    assert all(x * x + y * y <= radius * radius * (1 + 1e-12) for x, y, _ in a)


UNIT_VARIANTS = {"p_ue_max_dbm", "p_uav_max_dbm", "noise_var_dbm", "ici_power_dbm",
                 "eta_los_db", "eta_nlos_db", "snr_min_db", "freq_hz"}


def test_known_keys_cover_serialized_form():
    doc = json.loads(serialize(Scenario().with_positions()))
    assert set(doc) == known_config_keys() - UNIT_VARIANTS
    assert UNIT_VARIANTS < known_config_keys()


def _bumped(value):
    """A value of the same type as a default, different from it."""
    if is_dataclass(value):
        return replace(value, **{f.name: _bumped(getattr(value, f.name))
                                 for f in fields(value)})
    if isinstance(value, str):
        return "mixed"
    if isinstance(value, int):
        return value + 1
    return value * 1.1


def _same_fields(a, b, prefix=""):
    """Names of the fields (inside groups too) where a and b agree."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if is_dataclass(x):
            yield from _same_fields(x, y, f"{f.name}.")
        elif x == y:
            yield prefix + f.name


def test_every_field_round_trips():
    # a field the config schema has no row for comes back as its default
    default = Scenario()
    s = Scenario(**{f.name: _bumped(getattr(default, f.name)) for f in fields(Scenario)
                    if getattr(default, f.name) not in ((), None)}).with_positions(3)
    assert list(_same_fields(s, default)) == []
    assert load_scenario(serialize(s)) == s


def _either(si_key, si, variant_key=None, variant=None):
    """A (key, value) entry giving one schema row in SI or as its variant."""
    entries = [st.tuples(st.just(si_key), si)]
    if variant_key:
        entries.append(st.tuples(st.just(variant_key), variant))
    return st.one_of(*entries)


# value ranges from which every combination loads (eta_los stays below
# eta_nlos, and e_max / slot_len covers hover power, at most 901 W here)
_ENTRIES = [
    _either("n_slots", st.integers(1, 5)),
    _either("slot_len", st.floats(0.5, 2.0)),
    _either("bs_height_m", st.floats(10.0, 50.0)),
    _either("p_ue_max_w", st.floats(1e-3, 1.0), "p_ue_max_dbm", st.floats(0.0, 30.0)),
    _either("p_uav_max_w", st.floats(1e-2, 1.0), "p_uav_max_dbm", st.floats(10.0, 30.0)),
    _either("noise_var_w", st.floats(1e-15, 1e-12), "noise_var_dbm", st.floats(-120.0, -90.0)),
    _either("ici_power_w", st.floats(0.0, 1e-13), "ici_power_dbm", st.floats(-130.0, -100.0)),
    _either("pathloss_exp", st.floats(2.0, 4.0)),
    _either("eta_los", st.floats(1.0, 5.0), "eta_los_db", st.floats(0.0, 6.0)),
    _either("eta_nlos", st.floats(10.0, 1e3), "eta_nlos_db", st.floats(10.0, 30.0)),
    _either("a2g_a", st.floats(1.0, 20.0)),
    _either("a2g_b", st.floats(0.05, 1.0)),
    _either("d_max_m", st.floats(1.0, 50.0)),
    _either("snr_min", st.floats(1.0, 1e3), "snr_min_db", st.floats(0.0, 30.0)),
    _either("snr_min_ue_uav", st.floats(1.0, 1e3)),
    _either("snr_min_uav_bs", st.floats(1.0, 1e3)),
    _either("bcd_eps", st.floats(1e-5, 1e-2)),
    _either("trajectory_eps", st.floats(1e-3, 0.1)),
    _either("fading_model", st.sampled_from(["none", "rayleigh", "rician", "mixed"])),
    _either("rician_k_db", st.floats(-5.0, 15.0)),
    _either("rng_seed", st.integers(0, 2**32)),
    *(_either(key, st.floats(0.8 * v, 1.25 * v)) for key, v in (
        ("prop_delta", 0.012), ("prop_omega", 300.0), ("prop_rotor_radius_m", 0.4),
        ("prop_u_tip", 120.0), ("prop_v0", 4.03), ("prop_d0", 0.6), ("prop_rho", 1.225),
        ("prop_s", 0.05), ("prop_disc_area", 0.503), ("prop_weight", 20.0),
        ("prop_k_factor", 0.1))),
]
_COORD = st.floats(-200.0, 200.0)


@st.composite
def documents(draw):
    n_ues, n_k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # e_max always: the default budget does not cover hover at every propulsion drawn
    doc = {"n_ues": n_ues, "n_subchannels": n_k, "e_max": draw(st.floats(3e3, 6e3))}
    doc.update(draw(entry) for entry in _ENTRIES if draw(st.booleans()))
    freqs = draw(st.sampled_from(["none", "list", "one"]))
    if freqs == "list":
        doc["subchannel_freqs_hz"] = draw(st.lists(st.floats(1e8, 6e9), min_size=n_k,
                                                   max_size=n_k))
    elif freqs == "one":
        doc["freq_hz"] = draw(st.floats(1e8, 6e9))
    if draw(st.booleans()):
        doc["ue_positions"] = draw(st.lists(st.lists(_COORD, min_size=2, max_size=2),
                                            min_size=n_ues, max_size=n_ues))
    if draw(st.booleans()):
        doc["uav_start"] = [draw(_COORD), draw(_COORD), draw(st.floats(60.0, 200.0))]
    return doc


@given(documents())
@settings(max_examples=100, deadline=None)
def test_load_serialize_load_is_a_fixed_point(doc):
    s = load_scenario(json.dumps(doc))
    text = serialize(s)
    assert load_scenario(text) == s
    assert serialize(load_scenario(text)) == text


def test_validate_flags_every_nonfinite_field():
    default = Scenario()
    for f in fields(Scenario):
        value = getattr(default, f.name)
        if is_dataclass(value):
            cases = [(f"{f.name}.{g.name}", {f.name: replace(value, **{g.name: bad})})
                     for g in fields(value) for bad in (math.nan, math.inf, -math.inf)]
        elif isinstance(value, (int, float)):
            cases = [(f.name, {f.name: bad}) for bad in (math.nan, math.inf, -math.inf)]
        else:
            continue
        for name, change in cases:
            assert f"{name} must be finite" in validate(replace(default, **change)), change


def test_validate_flags_nonfinite_positions_and_frequencies():
    s = Scenario(n_ues=1, n_subchannels=2).with_positions()
    s = replace(s, ue_positions=((math.nan, 0.0, 0.0),), subchannel_freqs=(1e9, math.inf),
                uav_start=(0.0, math.nan, 120.0))
    assert {"ue_positions must be finite", "subchannel_freqs must be finite",
            "uav_start must be finite"} <= set(validate(s))


def test_validate_flags_an_energy_budget_below_hover():
    hover = hover_power(Scenario().propulsion)  # 168.5 W at the defaults
    assert validate(Scenario(e_max=hover, slot_len=1.0).with_positions()) == []
    for s in (Scenario(e_max=0.99 * hover), Scenario(slot_len=500.0 / hover * 1.01)):
        assert validate(s.with_positions()) == \
            ["e_max / slot_len must cover hover power (168.5 W)"]


def test_config_numbers_must_be_finite():
    for doc in ('{"d_max_m": NaN}', '{"slot_len": 1e400}', '{"freq_hz": -Infinity}',
                '{"ue_positions": [[NaN, 0]], "n_ues": 1}'):
        with pytest.raises(ValueError, match="expected a finite number"):
            load_scenario(doc)
