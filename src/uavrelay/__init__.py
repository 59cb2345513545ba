"""Simulator and optimizer for a single-cell OFDMA uplink assisted by an
amplify-and-forward UAV relay.

Per time slot the solver alternates three blocks until the weighted sum rate
stops improving: swap-matching over transmission modes and subchannels,
successive convex refinement of the UAV position, and a difference-of-concave
power split between the UEs and the relay.  Weights track proportional
fairness across slots.
"""

from .orchestrator import (
    EpisodeLog,
    SlotSolution,
    cluster_scenario,
    dwell_times,
    jmstp_slot,
    paired_bootstrap_lower,
    run_episode,
    sweep,
    validate_solution,
)
from .scenario import (
    A2GParams,
    PropulsionParams,
    Scenario,
    SnrThresholds,
    Tolerances,
    UavState,
    load_scenario,
    sample_positions,
    serialize,
    validate,
)

__all__ = [
    "A2GParams",
    "EpisodeLog",
    "PropulsionParams",
    "Scenario",
    "SlotSolution",
    "SnrThresholds",
    "Tolerances",
    "UavState",
    "cluster_scenario",
    "dwell_times",
    "jmstp_slot",
    "load_scenario",
    "paired_bootstrap_lower",
    "run_episode",
    "sample_positions",
    "serialize",
    "sweep",
    "validate",
    "validate_solution",
]

__version__ = "0.1.0"
