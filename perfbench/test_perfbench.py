"""Self-tests of the benchmark.

Run from the root of a checkout (a few minutes; the ordinary test suite
does not collect this directory)::

    python3 -m pytest perfbench -q

- Layer sensitivity: stretching a layer (each of its spans busy-waits a
  multiple of its own self time) must cut ``stable_msgs_per_s`` by more
  than the metric's bound on the workload the layer leads, and by less
  than the bound on a workload where it is light — the same slowdown is
  a regression on one and within the bound on the other.  A stretch, not a fixed
  cost per call, because a fixed cost tracks how often a layer is
  called rather than how much of the run it takes: ``dropbox-trace``
  calls ``FrontierEngine.reevaluate`` four times as often per second as
  ``ack-storm``, but each call is a twelfth of the work.  The data-plane
  case stretches ``core.dataplane`` alone: ``transport`` also carries
  every control frame, and takes 12-13% of ``ack-storm`` against 16-21%
  of ``dropbox-trace``, too close for one slowdown to split them.
- A ``time.sleep`` in the data plane must move the wall-clock metrics.
- The traced run's layer self times plus GC account for the wall time
  measured outside the trace, and agree with cProfile grouped by module.
- ``predictions.json`` covers exactly the per-layer metrics of
  ``BENCHMARK.json`` and names only declared metrics and workloads.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from workloads import WORKLOADS, SpeedProbe, percentile, run_episode  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
#: Episodes at half length keep each case under a minute.
SCALE = 0.5
PAIRS = 3


def _rates(name: str, **recorder_kwargs):
    """Median stable_msgs_per_s of traced episodes, plain and stretched,
    alternating and divided by host speed as the benchmark does, so
    host-speed drift hits both alike."""
    workload = WORKLOADS[name](1, scale=SCALE)
    probe = SpeedProbe()
    plain, stretched = [], []
    for _ in range(PAIRS):
        for kwargs, out in (({}, plain), (recorder_kwargs, stretched)):
            recorder = layers.Recorder(keep_spans=False, **kwargs)
            with recorder.installed():
                episode = run_episode(workload, recorder.phase, probe=probe)
            assert not episode.violations
            out.append(episode.stable_msgs * probe.factor(episode.probe_s) / episode.run_s)
    return statistics.median(plain), statistics.median(stretched)


@pytest.mark.parametrize(
    "stretch, leads, light",
    [
        ({"core.frontier": 2.5}, "ack-storm", "dropbox-trace"),
        ({"core.dataplane": 3.0}, "dropbox-trace", "ack-storm"),
        ({"core.durability": 10.0}, "sharded-kv", "ack-storm"),
    ],
    ids=["frontier", "dataplane", "durability+storage"],
)
def test_layer_sensitivity(stretch, leads, light):
    drops = {}
    for name in (leads, light):
        plain, stretched = _rates(name, stretch=stretch)
        drops[name] = 1.0 - stretched / plain
    assert drops[leads] > BOUND["stable_msgs_per_s"] > drops[light], drops


def test_sleep_injection_moves_wall_clock_metrics():
    """A sleep costs no CPU time, so only wall-clock metrics can see it."""
    workload = WORKLOADS["ack-storm"](1, scale=SCALE)
    results = {}
    for label, pause in (("plain", {}), ("sleep", {"core.dataplane": 0.002})):
        recorder = layers.Recorder(trace=False, pause=pause)
        with recorder.installed():
            episode = run_episode(workload)
        assert not episode.violations
        results[label] = (
            episode.stable_msgs / episode.run_s,
            percentile(episode.send_call_s, 0.5),
        )
    (rate, call), (slow_rate, slow_call) = results["plain"], results["sleep"]
    assert 1.0 - slow_rate / rate > BOUND["stable_msgs_per_s"], results
    assert slow_call / call - 1.0 > BOUND["send_call_p50_us"], results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_accounts_for_wall_time_and_agrees_with_cprofile(name):
    workload = WORKLOADS[name](1, scale=SCALE)
    recorder = layers.Recorder(keep_spans=True)
    with recorder.installed():
        episode = run_episode(workload, recorder.phase)
    assert recorder.accounting_gap("run", episode.run_s) < layers.ACCOUNTING_TOLERANCE
    # Every span closed, and every child lies inside its parent.
    assert all(end > 0 for end in recorder.span_end)
    for index, parent in enumerate(recorder.span_parent):
        if parent >= 0:
            assert recorder.span_start[parent] <= recorder.span_start[index]
            assert recorder.span_end[index] <= recorder.span_end[parent]

    profiler = layers.PhaseProfiler()
    run_episode(workload, profiler.phase)
    profile = profiler.shares(ROOT / "src")
    traced = recorder.phase_shares("run")
    total = sum(v for k, v in traced.items() if k != "gc")
    gaps = {
        layer: abs(traced[layer] / total - profile[layer])
        for layer in layers.LAYERS if layer != "gc"
    }
    assert max(gaps.values()) < layers.CPROFILE_TOLERANCE, gaps


def test_predictions_cover_the_per_layer_metrics():
    predictions = json.loads((HERE / "predictions.json").read_text())["metrics"]
    assert set(predictions) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(WORKLOADS)
    for name, entry in predictions.items():
        assert entry["moves"] in end_to_end, name
        assert set(entry["on"]) | set(entry["no_change_on"]) <= workloads, name
        assert not set(entry["on"]) & set(entry["no_change_on"]), name
