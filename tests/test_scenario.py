import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay.scenario import (
    A2GParams,
    Scenario,
    db_to_linear,
    dbm_to_watts,
    known_config_keys,
    linear_to_db,
    load_scenario,
    sample_positions,
    sample_uav_start,
    serialize,
    validate,
    watts_to_dbm,
)


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
    }
    s = load_scenario(json.dumps(doc))
    assert s.noise_var == pytest.approx(dbm_to_watts(-96.0), rel=1e-12)
    assert s.a2g.eta_nlos == pytest.approx(100.0, rel=1e-12)
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


def test_validate_flags_zero_noise_and_lifted_ue():
    s = Scenario(noise_var=0.0).with_positions()
    msgs = validate(s)
    assert any("noise_var" in m for m in msgs)
    bad = Scenario(ue_positions=((0.0, 1.0, 5.0),) + Scenario().with_positions().ue_positions[1:])
    msgs = validate(bad)
    assert any("z-coordinate" in m for m in msgs)


def test_serialize_load_identity():
    s = load_scenario('{"rng_seed": 42, "n_ues": 3, "p_ue_max_dbm": 20}')
    assert load_scenario(serialize(s)) == s


def test_unit_conversions_round_trip():
    for dbm in (-110.0, -96.0, 0.0, 17.0, 24.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)
    for db in (1.0, 15.0, 20.0):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


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


def test_known_keys_cover_serialized_form():
    doc = json.loads(serialize(Scenario().with_positions()))
    assert set(doc) <= known_config_keys()
