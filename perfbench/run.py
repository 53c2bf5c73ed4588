#!/usr/bin/env python3
"""The repository benchmark: seeded open-loop workloads, timed on both clocks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ack-storm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run builds and replays one workload (``perfbench/workloads.py``) in
*episodes* until ``--seconds`` of measured wall time have passed (and at
least three episodes ran).  Every episode is a fresh deployment replaying
the same seeded schedule, so its virtual-time outputs must repeat bit for
bit; wall-clock figures are reported as medians over the episodes (the
``send()`` call times are pooled).  Wall-clock figures are divided by
the host-speed factor of ``workloads.SpeedProbe``, so they read as
seconds on an idle host; the raw figures are in the provenance line.
``--workload all`` runs every workload in its own fresh process, one at
a time.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, measured from outside the
program by ``perfbench/layers.py`` (see ``predictions.json`` for the
end-to-end metric and workload each one should move).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``# provenance ...``) records the source, interpreter, host, seed,
episode count and each metric's median and quartiles.  A failed output
check prints ``"correct": false`` and exits 1.  Claims of a gain must
also hold on ``HELD_OUT_SEED``, which is never used while tuning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919
MIN_EPISODES = 3
#: setup_s is the median of at least this many set-ups per run: every
#: episode's, then set-up-only repeats within SETUP_BUDGET_S.
MIN_SETUPS = 25
SETUP_BUDGET_S = 2.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bind_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        _fail(f"no program source at {source}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != source.resolve():
        _fail(f"imported repro from {repro.__file__}, not from {source}")


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    return json.loads(spec_path.read_text())


def vm_kib(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def provenance(args, episodes: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "episodes": episodes,
    }


def check_episodes(episodes) -> List[str]:
    """Every output check, plus bit-identical virtual outputs."""
    problems = []
    for index, episode in enumerate(episodes):
        problems += [f"episode {index}: {v}" for v in episode.violations]
        if episode.virtual != episodes[0].virtual:
            diff = sorted(
                key for key in episode.virtual
                if episode.virtual[key] != episodes[0].virtual.get(key)
            )
            problems.append(f"episode {index}: virtual outputs differ from episode 0: {diff}")
    return problems


def end_to_end(episodes, setups, probe, rss_after_import_kib: int) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric: per episode where each episode
    gives one, a single pooled or once-per-run value otherwise.

    Wall-clock figures are divided by the host-speed factor of the
    ``SpeedProbe`` samples taken while they were measured (the episode's
    for its run phase, the nearest few for each send() call, the two
    around it for each set-up), so they read as seconds on an idle host."""
    from workloads import percentile

    factors = [probe.factor(e.probe_s) for e in episodes]
    calls = [
        c / f
        for e in episodes
        for c, f in zip(e.send_call_s, probe.local_factors(e.probe_s, e.send_probe_index))
    ]
    virtual = episodes[0].virtual
    return {
        "setup_s": [s / probe.factor(around) for s, around in setups],
        "stable_msgs_per_s": [e.stable_msgs * f / e.run_s for e, f in zip(episodes, factors)],
        "send_call_p50_us": [percentile(calls, 0.50) * 1e6],
        "send_call_p99_us": [percentile(calls, 0.99) * 1e6],
        "stable_p50_ms": [virtual["stable_p50_ms"]],
        "stable_p99_ms": [virtual["stable_p99_ms"]],
        "read_wait_p50_ms": [virtual["read_wait_p50_ms"]],
        "read_wait_p99_ms": [virtual["read_wait_p99_ms"]],
        "ctrl_bytes_per_msg": [virtual["ctrl_bytes_per_msg"]],
        "wire_bytes_per_payload_byte": [virtual["wire_bytes_per_payload_byte"]],
        "mem_growth_mb": [(vm_kib("VmHWM") - rss_after_import_kib) / 1024.0],
    }


def raw_wall(episodes, setups, probe) -> Dict[str, object]:
    """The wall-clock figures before host-speed division, for the record."""
    return {
        "host_factor": [probe.factor(e.probe_s) for e in episodes],
        "setup_s": quartiles([s for s, _around in setups]),
        "stable_msgs_per_s": quartiles([e.stable_msgs / e.run_s for e in episodes]),
    }


def measure(workload, seconds: float, probe):
    """Episodes until ``seconds`` of measured time, then extra set-ups."""
    from workloads import run_episode

    episodes, measured = [], 0.0
    while measured < seconds or len(episodes) < MIN_EPISODES:
        episode = run_episode(workload, probe=probe)
        episodes.append(episode)
        measured += episode.run_s
    setups = [(e.setup_s, e.setup_probe_s) for e in episodes]
    spent = 0.0
    while len(setups) < MIN_SETUPS and spent < SETUP_BUDGET_S:
        setups.append(workload.setup_only(probe))
        spent += setups[-1][0]
    return episodes, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = load_spec()
    bind_source()
    from layers import measure_layers
    from workloads import WORKLOADS, SpeedProbe

    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    probe = None if args.trace else SpeedProbe()
    rss_after_import = vm_kib("VmRSS")
    workload = WORKLOADS[args.workload](args.seed)

    raw = {}
    if args.trace:
        episodes, samples = measure_layers(workload, args.seconds, ROOT / "src", HERE / "out")
        declared = spec["per_layer"]
    else:
        episodes, setups = measure(workload, args.seconds, probe)
        samples = end_to_end(episodes, setups, probe, rss_after_import)
        raw = raw_wall(episodes, setups, probe)
        declared = spec["end_to_end"]
    problems = check_episodes(episodes)

    metrics, summary = {}, {}
    for entry in declared:
        values = samples[entry["name"]]
        stats = quartiles(values)
        metrics[entry["name"]] = {"value": stats["median"], "unit": entry["unit"]}
        summary[entry["name"]] = dict(stats, samples=len(values), unit=entry["unit"])
    missing = set(samples) - set(metrics)
    if missing:
        problems.append(f"measured metrics not declared in BENCHMARK.json: {sorted(missing)}")

    record = provenance(args, len(episodes))
    record["metrics"] = summary
    record["raw_wall"] = raw
    record["problems"] = problems
    width = max(len(name) for name in metrics)
    for name, stats in summary.items():
        print(
            f"{name:<{width}}  {stats['median']:>14.6g} {stats['unit']:<8}"
            f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['samples']}"
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("# provenance " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(e.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args, names: List[str]) -> int:
    """Each workload in a fresh process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
