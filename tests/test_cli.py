"""End-to-end checks of the command-line front end: file outputs, column
contracts, and exit codes."""

import csv
import json
import math
from types import SimpleNamespace

import pytest

from uavrelay import orchestrator
from uavrelay.cli import EPISODE_COLUMNS, SWEEP_COLUMNS, main
from uavrelay.scenario import load_scenario

GOOD = '{"n_ues": 2, "n_subchannels": 3, "n_slots": 2, "fading_model": "mixed"}'


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(GOOD)
    return path


def test_validate_accepts_a_good_config(config, capsys):
    assert main(["validate", str(config)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_values(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_ues": 2, "d_max_m": -3}')
    assert main(["validate", str(path)]) == 2
    assert "d_max" in capsys.readouterr().err


def test_validate_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_ue": 2}')
    assert main(["validate", str(path)]) == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ('{"n_ues": null}', "n_ues"),
    ('{"n_ues": 2.7}', "n_ues"),
    ('{"p_ue_max_w": [1]}', "p_ue_max_w"),
    ('{"ue_positions": [[1.0]]}', "ue_positions"),
    ('{"n_ues": 1, "ue_positions": [[1.0, 2.0, 0.0, 4.0]]}', "ue_positions"),
    ('{"uav_start": [1.0, 2.0]}', "uav_start"),
    ('{"subchannel_freqs_hz": 5}', "subchannel_freqs_hz"),
    (None, "config.json"),  # a directory where the file should be
    ('{"p_ue_max_dbm": 1e10}', "p_ue_max_dbm"),  # overflows in watts
    ('{"eta_nlos_db": 5000}', "eta_nlos_db"),
    ('{"d_max_m": NaN}', "d_max_m"),
    ('{"slot_len": 1e400}', "slot_len"),  # parses as infinity
    ('{"e_max": 100}', "e_max"),  # below the 168.5 W hover power
    ('{"rng_seed": -1}', "rng_seed"),
    # counts are checked before any position is drawn
    ('{"n_subchannels": 1e300}', "n_subchannels"),
    ('{"n_ues": 0}', "n_ues"),
    ('{"n_ues": -3}', "n_ues"),
    ('{"n_ues": 1e300}', "n_ues"),
])
def test_validate_rejects_malformed_configs(tmp_path, capsys, text, named):
    path = tmp_path / "config.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "invalid" in capsys.readouterr().err


def test_run_writes_episode_and_summary(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0

    with (out / "episode.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == EPISODE_COLUMNS
    assert len(rows) == 2 * 2  # slots x UEs
    for row in rows:
        assert row["mode"] in ("cellular", "relay", "idle")
        ks = [int(k) for k in row["subchannels"].split(";") if k]
        assert all(0 <= k < 3 for k in ks)
        assert (row["mode"] == "idle") == (not ks)
        float(row["rate"]), float(row["objective"])

    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "jmstp"
    assert summary["n_slots"] == 2
    assert len(summary["per_ue_avg_rate"]) == 2
    assert summary["jain"] >= 0.0
    assert summary["pf_utility"] == pytest.approx(
        sum(math.log(r + 0.1) for r in summary["per_ue_avg_rate"]), rel=1e-12)
    assert f"pf utility {summary['pf_utility']:.4f}," in capsys.readouterr().out
    # the exact propulsion curve never exceeds its convex bound
    assert 0.0 < summary["flying_energy_exact"] <= summary["flying_energy"]


def test_run_is_deterministic(config, tmp_path):
    main(["run", str(config), "--out", str(tmp_path / "a")])
    main(["run", str(config), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/episode.csv").read_text() == \
           (tmp_path / "b/episode.csv").read_text()


def test_run_baseline_algorithm_flag(config, tmp_path):
    out = tmp_path / "cell"
    assert main(["run", str(config), "--algorithm", "cellular",
                 "--out", str(out)]) == 0
    with (out / "episode.csv").open() as fh:
        assert all(row["mode"] != "relay" for row in csv.DictReader(fh))


def test_sweep_writes_expected_rows(config, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", str(config), "--axis", "d_max",
                 "--values", "10,20", "--seeds", "1",
                 "--out", str(out)]) == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert len(rows) == 2 * 3  # values x algorithms
    assert {r["algorithm"] for r in rows} == {"jmstp", "random", "cellular"}
    assert {float(r["value"]) for r in rows} == {10.0, 20.0}


def test_sweep_header_equals_the_keys_of_a_sweep_row(config, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", str(config), "--axis", "d_max", "--values", "10",
                 "--seeds", "1", "--out", str(out)]) == 0
    with (out / "sweep.csv").open() as fh:
        header = next(csv.reader(fh))
    row = orchestrator.sweep(load_scenario(GOOD), "d_max", [10.0], n_seeds=1,
                             algorithms=("cellular",))[0]
    assert header == list(row)


def test_sweep_rejects_unknown_axis(config):
    with pytest.raises(SystemExit):
        main(["sweep", str(config), "--axis", "bs_height", "--values", "1"])


def test_sweep_rejects_empty_values(config, capsys):
    assert main(["sweep", str(config), "--axis", "d_max",
                 "--values", " "]) == 2
    assert "values" in capsys.readouterr().err


@pytest.mark.parametrize("axis, value", [("d_max", "-5"), ("p_ue_max", "-1")])
def test_sweep_checks_every_value_before_running(config, tmp_path, capsys,
                                                  monkeypatch, axis, value):
    ran = []
    monkeypatch.setattr(orchestrator, "run_episode",
                        lambda sc, algorithm: ran.append(sc))
    out = tmp_path / "sw"
    assert main(["sweep", str(config), "--axis", axis, f"--values=0.1,{value}",
                 "--seeds", "2", "--out", str(out)]) == 2
    assert f"{axis} must be positive" in capsys.readouterr().err
    assert ran == [] and not (out / "sweep.csv").exists()


def test_sweep_rejects_zero_seeds(config, tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(["sweep", str(config), "--axis", "d_max", "--values", "10",
                 "--seeds", "0", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("fixed", [False, True])
def test_sweep_draws_unset_positions_per_seed(tmp_path, monkeypatch, fixed):
    # positions the config leaves unset are drawn per seed; given ones are kept
    doc = {"n_ues": 2, "n_subchannels": 2, "n_slots": 1}
    if fixed:
        doc.update(ue_positions=[[10.0, 20.0], [-30.0, 5.0]],
                   uav_start=[0.0, 0.0, 120.0])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    seen = []

    def fake_episode(sc, algorithm):
        seen.append(sc)
        return SimpleNamespace(**dict.fromkeys(orchestrator.SWEEP_METRICS, 0.0))

    monkeypatch.setattr(orchestrator, "run_episode", fake_episode)
    assert main(["sweep", str(path), "--axis", "d_max", "--values", "10",
                 "--seeds", "3", "--out", str(tmp_path / "sw")]) == 0
    topologies = {(sc.ue_positions, sc.uav_start) for sc in seen}
    assert [sc.rng_seed for sc in seen] == [0, 1, 2] * len(orchestrator.ALGORITHMS)
    if fixed:
        assert topologies == {(((10.0, 20.0, 0.0), (-30.0, 5.0, 0.0)), (0.0, 0.0, 120.0))}
    else:
        assert len(topologies) == 3


def test_ici_check_prints_both_ratios(capsys):
    assert main(["ici-check"]) == 0
    out = capsys.readouterr().out
    assert "-31.1" in out and "-16.1" in out
    assert "occupancy" in out
