"""Seeded overload chaos: flash crowds and slow nodes against a cluster
running admission control and the closed-loop SLA controller, checked by
invariants 13 (an admitted message is never shed) and 14 (overload
degradation is temporary — the pristine predicate comes back).

``make overload-smoke`` selects these via the ``overload_smoke`` marker.
"""

import pytest

from repro.chaos import OverloadChaosConfig, run_chaos
from repro.chaos.schedule import generate_schedule

pytestmark = pytest.mark.overload_smoke

GROUPS = {
    "az0": ["n00", "n01"],
    "az1": ["n10", "n11"],
    "az2": ["n20", "n21"],
}


def config(tmp_path, **kwargs):
    kwargs.setdefault("trace_dir", str(tmp_path))
    return OverloadChaosConfig(**kwargs)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
def test_seeded_overload_sweep_is_violation_free(tmp_path, seed):
    report = run_chaos(config(tmp_path, seed=seed))
    assert report["violations"] == []
    # Invariant 13: nothing that was admitted was ever shed, and the
    # books balance — every offer is accounted admitted, shed, or queued.
    admission = report["admission"]
    assert admission["admission.admitted_shed"] == 0
    assert admission["admission.offered"] == (
        admission["admission.admitted"]
        + admission["admission.shed"]
        + admission["admission.queue_depth"]
    )
    # Invariant 14: the controllers stepped down under load and walked
    # all the way back to the pristine predicate at quiescence.
    assert report["max_degrade_steps"] >= 1
    assert report["restored"]
    assert report["invariant_checks"] > 0


def test_flash_crowd_fires_and_sheds(tmp_path):
    report = run_chaos(config(tmp_path, seed=0))
    kinds = {kind for _, kind, _ in report["fired"]}
    assert "flash_crowd" in kinds
    assert report["admission"]["admission.shed"] > 0


def test_same_seed_reproduces_the_run(tmp_path):
    first = run_chaos(config(tmp_path, seed=4))
    second = run_chaos(config(tmp_path, seed=4))
    assert first["schedule"] == second["schedule"]
    assert first["fired"] == second["fired"]
    assert first["admission"] == second["admission"]
    assert first["virtual_end_s"] == second["virtual_end_s"]


# ---------------------------------------------------------------------------
# Schedule generation: the new event kinds
# ---------------------------------------------------------------------------


def test_default_budgets_leave_schedules_unchanged():
    # flash_crowds / slow_nodes default to zero, so historical seeds keep
    # generating byte-identical schedules with no overload events.
    for seed in (0, 7, 42):
        schedule = generate_schedule(GROUPS, seed=seed, events=12)
        kinds = {ev.kind for ev in schedule}
        assert "flash_crowd" not in kinds
        assert "slow_node" not in kinds


def test_overload_events_open_and_close_balanced():
    schedule = generate_schedule(
        GROUPS, seed=0, events=20, flash_crowds=2, slow_nodes=2
    )
    kinds = [ev.kind for ev in schedule]
    assert kinds.count("flash_crowd") >= 1
    assert kinds.count("flash_crowd") == kinds.count("flash_end")
    assert kinds.count("slow_node") >= 1
    assert kinds.count("slow_node") == kinds.count("slow_heal")


def test_at_most_one_flash_crowd_active():
    for seed in range(6):
        schedule = generate_schedule(
            GROUPS, seed=seed, events=24, flash_crowds=3
        )
        active = 0
        for ev in schedule:
            if ev.kind == "flash_crowd":
                active += 1
                assert active <= 1
                assert ev.target[0] in GROUPS
            elif ev.kind == "flash_end":
                active -= 1
        assert active == 0


def test_slow_nodes_target_distinct_live_nodes():
    for seed in range(6):
        schedule = generate_schedule(
            GROUPS, seed=seed, events=24, slow_nodes=3
        )
        slowed = set()
        for ev in schedule:
            if ev.kind == "slow_node":
                assert ev.target[0] not in slowed
                slowed.add(ev.target[0])
            elif ev.kind == "slow_heal":
                assert ev.target[0] in slowed
                slowed.discard(ev.target[0])
        assert slowed == set()
