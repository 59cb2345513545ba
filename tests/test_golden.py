"""Golden episode check: per-slot objectives of seeded fading episodes
must stay where the recorded solver put them.

The recorded file holds, for each algorithm and seed, the objective of
every slot of a 5 UE x 10 subchannel, `fading_model="mixed"`,
`d_max=25` m, 10-slot episode.  A change that is meant to move answers
regenerates it with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from uavrelay import Scenario, run_episode

GOLDEN = Path(__file__).with_name("golden_objectives.json")
ALGORITHMS = ("jmstp", "random", "cellular")
SEEDS = (0, 1)
REL_TOL = 1e-4


def scenario(seed: int) -> Scenario:
    return Scenario(n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0,
                    fading_model="mixed", rng_seed=seed).with_positions(seed)


def objectives(algorithm: str, seed: int) -> list[float]:
    return [sol.objective for sol in run_episode(scenario(seed), algorithm).slots]


def key(algorithm: str, seed: int) -> str:
    return f"{algorithm}/seed{seed}"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_slot_objectives_match_golden(algorithm, seed):
    expected = json.loads(GOLDEN.read_text())[key(algorithm, seed)]
    got = objectives(algorithm, seed)
    assert len(got) == len(expected)
    for t, (a, b) in enumerate(zip(got, expected)):
        assert abs(a - b) <= REL_TOL * max(1.0, abs(b)), f"slot {t}: {a} != {b}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    golden = {key(a, s): objectives(a, s) for a in ALGORITHMS for s in SEEDS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
