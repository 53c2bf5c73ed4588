"""Golden chaos reports: seeded runs must reproduce their reports exactly.

Seven seeded chaos runs — the plain smoke run, the sequencer and
hybrid-clock engines, a disk-fault run with checkpoints, one overload
run, one seeded rebalance run and the crash-joiner-mid-handoff
handcrafted schedule — are compared key for key against
``data/chaos_golden.json``, together with ``vars()`` of each default
config.  Only the wall-clock keys (``elapsed_s``, ``checks_per_s``)
are left out.  The fixture pins the harness behaviour seed for seed, so
a refactor of the harnesses that changes any schedule, interleaving,
counter or frontier fails here.

Regenerate (only when a harness legitimately changes behaviour) with::

    PYTHONPATH=src python tests/chaos/test_chaos_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosEvent,
    OverloadChaosConfig,
    RebalanceChaosConfig,
    run_chaos,
)

pytestmark = pytest.mark.chaos_smoke

FIXTURE = Path(__file__).parent / "data" / "chaos_golden.json"

WALL_CLOCK_KEYS = ("elapsed_s", "checks_per_s")

CRASH_JOINER_MID_HANDOFF = [
    ChaosEvent(at=1.0, kind="node_join", target=("s0",)),
    ChaosEvent(at=1.15, kind="crash", target=("s0",)),
    ChaosEvent(at=3.0, kind="restart", target=("s0",)),
]

RUNS = {
    "chaos_seed7": lambda: run_chaos(ChaosConfig(seed=7, events=12)),
    "sequencer_seed11": lambda: run_chaos(
        ChaosConfig(seed=11, events=12, stabilization_strategy="sequencer")
    ),
    "hybrid_clock_seed11": lambda: run_chaos(
        ChaosConfig(seed=11, events=12, stabilization_strategy="hybrid_clock")
    ),
    "disk_faults_seed3": lambda: run_chaos(
        ChaosConfig(
            seed=3, events=12, disk_faults=True, checkpoint_interval_s=0.7
        )
    ),
    "overload_seed4": lambda: run_chaos(OverloadChaosConfig(seed=4)),
    "rebalance_seed0": lambda: run_chaos(RebalanceChaosConfig(seed=0)),
    "crash_joiner_mid_handoff": lambda: run_chaos(
        RebalanceChaosConfig(events=3), CRASH_JOINER_MID_HANDOFF
    ),
}

DEFAULT_CONFIGS = {
    "ChaosConfig": ChaosConfig,
    "OverloadChaosConfig": OverloadChaosConfig,
    "RebalanceChaosConfig": RebalanceChaosConfig,
}


def _normalize(value):
    # JSON round-trip turns tuples into lists on both sides alike.
    return json.loads(json.dumps(value))


def _report(name):
    report = RUNS[name]()
    for key in WALL_CLOCK_KEYS:
        report.pop(key, None)
    return _normalize(report)


def _defaults():
    return _normalize({name: vars(cls()) for name, cls in DEFAULT_CONFIGS.items()})


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_golden(golden, name):
    assert _report(name) == golden["reports"][name]


def test_default_configs_match_golden(golden):
    assert _defaults() == golden["default_configs"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    fixture = {
        "reports": {name: _report(name) for name in RUNS},
        "default_configs": _defaults(),
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
