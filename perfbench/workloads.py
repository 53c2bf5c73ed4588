"""The benchmark's three seeded, open-loop workloads.

Each workload draws its whole input schedule from the seed up front and
then hands the program only public calls: ``send`` and ``waitfor`` (plus
the crash and ``restart_node`` of the fault schedule on ``sharded-kv``).
One *episode* builds a fresh simulated deployment (timed as set-up),
replays the schedule to completion in virtual time (timed as the
measured phase) and collects two kinds of output:

- wall-clock figures: set-up seconds, measured-phase seconds and the
  time spent inside every public ``send()`` call (net of GC pauses);
- virtual-time outputs: send->stable and read-wait latencies, byte
  counts and the counters of every node.  The simulator is
  deterministic, so these must repeat bit for bit across episodes of
  one seed — the caller checks that.

Every episode also checks its outputs: each
offered stream is delivered exactly once at every replica, the
benchmark's own latencies agree with the program's
``StabilityInstruments``, and no ``persisted`` claim runs ahead of the
WAL's fsync watermark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import heapq
import math
import random
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.topologies import EC2_SENDER, ec2_topology
from repro.core import (
    ShardedCluster,
    StabilizerCluster,
    StabilizerConfig,
    snapshot_state,
)
from repro.dsl.stdlib import shard_standard_predicates, standard_predicates
from repro.errors import ReproError
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.transport.messages import SyntheticPayload
from repro.workloads.dropbox_trace import synthesize_trace


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclasses.dataclass
class EpisodeResult:
    """What one episode measured; see module docstring."""

    setup_s: float
    run_s: float
    stable_msgs: int
    send_call_s: List[float]
    attempted: int
    failed: int
    #: Virtual-time outputs; identical across episodes of one seed.
    virtual: Dict[str, float]
    #: Node and link counters summed over the deployment.
    counters: Dict[str, float]
    #: Descriptions of failed output checks (empty when all pass).
    violations: List[str]
    #: Wall seconds of program calls the harness timed itself
    #: (``ShardedCluster`` construction, ``restart_node``).
    timed: Dict[str, float]
    #: Critical-path seconds per segment under the headline predicate
    #: (only when the episode ran with the program's tracer on).
    blame: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Wall seconds of each host-speed probe taken during the run, and
    #: of the two taken just before and after the set-up.
    probe_s: List[float] = dataclasses.field(default_factory=list)
    setup_probe_s: List[float] = dataclasses.field(default_factory=list)
    #: For each send() call, how many run-phase probes preceded it.
    send_probe_index: List[int] = dataclasses.field(default_factory=list)
    #: Garbage-collection seconds and collections per generation during
    #: the run phase.
    gc_s: float = 0.0
    gc_collections: List[int] = dataclasses.field(default_factory=lambda: [0, 0, 0])


class Episode:
    """Bookkeeping shared by the workloads: the schedule replay, the
    send->stable and read-wait recorders, delivery accounting and the
    completion event."""

    def __init__(self, sim: Simulator, headline: str):
        self.sim = sim
        self.headline = headline
        self.send_call_s: List[float] = []
        #: Host-speed probe samples of the run phase (see SpeedProbe), and
        #: for each send() how many had been taken when it was called.
        self.probe_s: List[float] = []
        self.send_probe_index: List[int] = []
        # stream (origin, shard) -> seq -> virtual send time
        self.pending_send: Dict[Tuple[str, Optional[int]], Dict[int, float]] = {}
        self.last_seq: Dict[Tuple[str, Optional[int]], int] = {}
        self.stable_latency: List[float] = []
        self.stable_by_stream: Dict[Tuple[str, Optional[int]], List[float]] = {}
        self.read_wait: List[float] = []
        self.payload_bytes = 0
        self.writes = 0
        self.reads = 0
        self.failed_writes = 0
        self.failed_reads = 0
        self.violations: List[str] = []
        # stream -> seqs the origin's send() returned (one per message)
        self.sent_messages: Dict[Tuple[str, Optional[int]], List[int]] = {}
        # (receiver, origin, shard) -> delivered message seqs
        self.delivered: Dict[Tuple[str, str, Optional[int]], set] = {}
        self.outstanding = 0
        self.issued_all = False
        self.done = sim.event()
        self.timed: Dict[str, float] = {}
        self.blame: Dict[str, float] = {}
        #: Seconds of garbage collection during the run phase, and the
        #: collections per generation.
        self.gc_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1

    # -- completion ---------------------------------------------------------
    def _finish_one(self, count: int = 1) -> None:
        self.outstanding -= count
        if self.issued_all and self.outstanding == 0 and not self.done.triggered:
            self.done.succeed()

    def mark_issued_all(self) -> None:
        self.issued_all = True
        self._finish_one(0)

    # -- writes -------------------------------------------------------------
    def send(self, node, size: int, replicas: int, shard=None, **route) -> None:
        """Time one public ``send()``; register its chunks for stability
        and its message for delivery at ``replicas`` other nodes.

        The time excludes garbage collections that ran inside the call:
        on ``ack-storm`` about one send in ninety holds a gen-0
        collection, which put the p99 on the edge between two
        populations (about 200 and 450 us) from run to run.  GC pauses
        are reported on their own (``gc.pause_ms``)."""
        payload = SyntheticPayload(size)
        self.send_probe_index.append(len(self.probe_s))
        gc_before = self.gc_s
        started = time.perf_counter()
        try:
            last = node.send(payload, **route)
        except ReproError:
            last = None
        self.send_call_s.append(time.perf_counter() - started - (self.gc_s - gc_before))
        self.writes += 1
        if last is None:
            self.failed_writes += 1
            return
        self.payload_bytes += size
        stream = (node.name, shard)
        first = self.last_seq.get(stream, 0) + 1
        self.last_seq[stream] = last
        pending = self.pending_send.setdefault(stream, {})
        now = self.sim.now
        for seq in range(first, last + 1):
            pending[seq] = now
        self.sent_messages.setdefault(stream, []).append(last)
        # One stability completion per chunk, one delivery per replica.
        self.outstanding += (last - first + 1) + replicas

    def on_stable(self, origin: str, frontier: int, old: int, shard=None) -> None:
        """The benchmark's frontier monitor at ``origin`` (own stream)."""
        pending = self.pending_send.get((origin, shard))
        if not pending:
            return
        now = self.sim.now
        per_stream = self.stable_by_stream.setdefault((origin, shard), [])
        finished = 0
        for seq in range(max(old, 0) + 1, frontier + 1):
            sent_at = pending.pop(seq, None)
            if sent_at is not None:
                latency = now - sent_at
                self.stable_latency.append(latency)
                per_stream.append(latency)
                finished += 1
        if finished:
            self._finish_one(finished)

    def monitor(self, node, shard_aware: bool = False) -> None:
        name = node.name
        if shard_aware:
            def fn(origin, frontier, old, shard):
                if origin == name:
                    self.on_stable(origin, frontier, old, shard)
        else:
            def fn(origin, frontier, old):
                if origin == name:
                    self.on_stable(origin, frontier, old)
        node.monitor_stability_frontier(self.headline, fn)

    # -- deliveries -----------------------------------------------------------
    def watch_deliveries(self, node, shard_aware: bool = False) -> None:
        name = node.name

        def fn(origin, seq, _payload, _meta, shard=None):
            seen = self.delivered.setdefault((name, origin, shard), set())
            if seq in seen:
                self.violations.append(
                    f"{name} delivered {origin}#{seq} (shard {shard}) twice"
                )
                return
            seen.add(seq)
            self._finish_one()

        node.on_delivery(fn)

    # -- reads ------------------------------------------------------------------
    def read(self, node, seq: int, predicate: str, origin: str,
             timeout_s: float, **route) -> None:
        """A stable read: ``waitfor`` ``origin``'s ``seq`` at ``node``."""
        issued = self.sim.now
        self.reads += 1
        self.outstanding += 1
        try:
            event = node.waitfor(
                seq, predicate, origin=origin, timeout_s=timeout_s, **route
            )
        except ReproError:
            self.failed_reads += 1
            self._finish_one()
            return

        def complete(ev) -> None:
            if ev.ok:
                self.read_wait.append(self.sim.now - issued)
            else:
                self.failed_reads += 1
            self._finish_one()

        event.add_callback(complete)

    # -- wrap-up ----------------------------------------------------------------
    def run(self, deadline: float) -> None:
        """Run until every write is stable, every read answered and every
        delivery made, or until virtual time ``deadline``."""
        gc.callbacks.append(self._on_gc)
        try:
            self.sim.run_until_triggered(self.done, limit=deadline)
        except ReproError:
            pass  # leftovers are counted as failures by the caller
        finally:
            gc.callbacks.remove(self._on_gc)

    def unfinished_writes(self) -> int:
        return sum(len(p) for p in self.pending_send.values())

    def check_deliveries(self, replicas_of: Callable[[str, Optional[int]], List[str]]) -> None:
        for (origin, shard), seqs in self.sent_messages.items():
            expected = set(seqs)
            for replica in replicas_of(origin, shard):
                got = self.delivered.get((replica, origin, shard), set())
                if got != expected:
                    missing = len(expected - got)
                    extra = len(got - expected)
                    self.violations.append(
                        f"{replica} delivered {origin}/shard {shard}: "
                        f"{missing} missing, {extra} never sent"
                    )

    def check_instruments(self, summaries: Dict[Tuple[str, Optional[int]], Dict[str, float]]) -> None:
        """The benchmark's send->stable latencies must match each origin's
        ``stability.summary(headline)``: same count, mean within 1%."""
        for stream, summary in summaries.items():
            mine = self.stable_by_stream.get(stream, [])
            count = int(summary.get("count", 0))
            if count != len(mine):
                self.violations.append(
                    f"{stream}: instruments saw {count} stable samples, "
                    f"benchmark saw {len(mine)}"
                )
                continue
            if count:
                mean = sum(mine) / count
                theirs = summary["sum"] / count
                if abs(theirs - mean) > 0.01 * mean:
                    self.violations.append(
                        f"{stream}: instruments mean {theirs:.6f}s vs "
                        f"benchmark mean {mean:.6f}s"
                    )

    def result(self, setup_s: float, run_s: float, counters, extra_virtual) -> EpisodeResult:
        unfinished = self.unfinished_writes()
        pending_reads = self.reads - len(self.read_wait) - self.failed_reads
        failed = self.failed_writes + unfinished + self.failed_reads + pending_reads
        stable = len(self.stable_latency)
        virtual = {
            "stable_p50_ms": percentile(self.stable_latency, 0.50) * 1e3,
            "stable_p99_ms": percentile(self.stable_latency, 0.99) * 1e3,
            "read_wait_p50_ms": percentile(self.read_wait, 0.50) * 1e3,
            "read_wait_p99_ms": percentile(self.read_wait, 0.99) * 1e3,
            "stable_msgs": float(stable),
            "reads_answered": float(len(self.read_wait)),
            "payload_bytes": float(self.payload_bytes),
            "end_virtual_s": self.sim.now,
            "ctrl_bytes_per_msg": counters.get("strategy.bytes_sent", 0.0) / max(stable, 1),
            "wire_bytes_per_payload_byte": (
                counters.get("link.bytes_sent", 0.0) / max(self.payload_bytes, 1)
            ),
        }
        virtual.update(extra_virtual)
        if self.outstanding and not self.violations and failed == 0:
            self.violations.append(
                f"{self.outstanding} deliveries still outstanding at the deadline"
            )
        return EpisodeResult(
            setup_s=setup_s,
            run_s=run_s,
            stable_msgs=stable,
            send_call_s=self.send_call_s,
            probe_s=self.probe_s,
            send_probe_index=self.send_probe_index,
            attempted=self.writes + self.reads,
            failed=failed,
            virtual=virtual,
            counters=counters,
            violations=self.violations,
            timed=self.timed,
            blame=self.blame,
            gc_s=self.gc_s,
            gc_collections=self.gc_collections,
        )


def _sum_counters(stats_list, net) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for stats in stats_list:
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not key.startswith("frontier_lag."):
                totals[key] = totals.get(key, 0.0) + float(value)
    totals["link.bytes_sent"] = float(sum(l.stats.bytes_sent for l in net.links.values()))
    totals["link.packets_sent"] = float(sum(l.stats.packets_sent for l in net.links.values()))
    totals["link.packets_dropped"] = float(
        sum(l.stats.packets_dropped for l in net.links.values())
    )
    return totals


def _poisson(rng: random.Random, rate: float, until: float) -> List[float]:
    times, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= until:
            return times
        times.append(t)


@contextlib.contextmanager
def untimed_phase(_name: str):
    yield


def run_episode(workload: "Workload", phase=untimed_phase, **kwargs) -> EpisodeResult:
    """One episode, after collecting the previous one's garbage."""
    gc.collect()
    return workload.episode(phase, **kwargs)


class SpeedProbe:
    """A fixed piece of reference work, timed between simulator events.

    The host this benchmark runs on is shared: co-tenants slow every
    instruction by up to half for seconds to minutes at a time, and CPU
    time slows with wall time, so neither clock alone can tell program
    speed from host speed.  The probe is a small discrete-event loop of
    the benchmark's own (heap, slotted objects, closures, a few MB of
    dict lookups; none of it from ``repro``) that a slowdown of the
    host stretches about as much as it stretches the program.  Run at
    most every ``INTERVAL_S`` of wall time from a harness timer, it
    samples host speed through the run phase; its median time, over
    ``NOMINAL_S`` (its time on an idle host), is the host-speed factor
    the wall-clock metrics are divided by.
    """

    INTERVAL_S = 0.02
    #: Virtual seconds between checks of the wall clock.
    TICK_S = 0.005
    #: The probe's time between program events on an idle 2-vCPU x86-64
    #: host under CPython 3.11 (back to back, with warm caches, it takes
    #: about half as long).
    NOMINAL_S = 0.0007
    LOCAL = 4

    def __init__(self):
        self._table = {i: (i, 2 * i, str(i)) for i in range(40_000)}
        self._keys = list(range(0, 40_000, 37))

    def sample(self) -> float:
        """Run the reference work once; its wall seconds."""
        started = time.perf_counter()
        heap, seq, acc = [], 0, 0
        nodes = [_ProbeNode() for _ in range(64)]
        keys, table = self._keys, self._table
        for step in range(400):
            row = table[keys[(step * 131) % len(keys)]]
            node = nodes[step & 63]
            node.items.append(row[1])
            node.cells[step & 7] = row
            seq += 1
            heapq.heappush(heap, (row[0] % 97, seq, node))
            if len(heap) > 32:
                _, _, done = heapq.heappop(heap)
                acc += len(done.items) + (lambda n: len(n.cells))(done)
        return time.perf_counter() - started

    def attach(self, sim: Simulator, samples: List[float]) -> None:
        """Sample during ``sim``'s run into ``samples``; the timer is a
        harness event that touches no program state."""
        last = [time.perf_counter()]

        def tick() -> None:
            if time.perf_counter() - last[0] >= self.INTERVAL_S:
                samples.append(self.sample())
                last[0] = time.perf_counter()
            sim.call_later(self.TICK_S, tick)

        sim.call_later(self.TICK_S, tick)

    def factor(self, samples: List[float]) -> float:
        """Host slowdown relative to an idle host (1.0 = idle): the
        median sample over ``NOMINAL_S``."""
        return statistics.median(samples) / self.NOMINAL_S

    def local_factors(self, samples: List[float], indices: List[int]) -> List[float]:
        """The host-speed factor at each of a run's calls: the median of
        the ``LOCAL`` probes nearest the call (about 80 ms of wall time),
        so a burst of interference is divided out of the calls it hit."""
        half = self.LOCAL // 2
        out, cache = [], {}
        for index in indices:
            if index not in cache:
                lo = max(0, min(index - half, len(samples) - self.LOCAL))
                cache[index] = self.factor(samples[lo:lo + self.LOCAL] or samples)
            out.append(cache[index])
        return out


class _ProbeNode:
    __slots__ = ("items", "cells")

    def __init__(self):
        self.items: List[int] = []
        self.cells: Dict[int, tuple] = {}


class Deployment:
    """One built deployment: simulator, network, cluster and the
    episode bookkeeping the harness attached to it."""

    def __init__(self, sim: Simulator, net, cluster, ep: Episode, tracer):
        self.sim = sim
        self.net = net
        self.cluster = cluster
        self.ep = ep
        self.tracer = tracer
        #: Workload-specific run state (the crash schedule's, for one).
        self.state: dict = {}


class Workload:
    """One seeded workload; :meth:`episode` runs it once.

    Subclasses draw their schedule in ``__init__`` and implement
    :meth:`build` (the timed set-up: topology, cluster, predicates),
    :meth:`schedule` (hand the inputs to the simulator; untimed) and
    :meth:`collect` (checks and counters after the run).
    """

    name = ""
    headline = ""
    DEADLINE_S = 10.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.duration = 0.0

    def build(self, tracer_factory=None) -> Deployment:
        raise NotImplementedError

    def schedule(self, dep: Deployment) -> None:
        raise NotImplementedError

    def collect(self, dep: Deployment) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Run the output checks; return (counters, extra virtual outputs)."""
        raise NotImplementedError

    def episode(self, phase, tracer_factory=None, probe: Optional["SpeedProbe"] = None) -> EpisodeResult:
        """Build (under ``phase("setup")``) and replay (under
        ``phase("run")``) one episode; ``phase`` is a context-manager
        factory the caller uses to trace the two phases.
        ``tracer_factory(sim)``, when given, builds the program's own
        flight-recorder tracer for the deployment.  ``probe``, when
        given, samples host speed during the run phase (its time is
        taken out of ``run_s``)."""
        around = [probe.sample()] if probe is not None else []
        started = time.perf_counter()
        with phase("setup"):
            dep = self.build(tracer_factory)
        setup_s = time.perf_counter() - started
        if probe is not None:
            around.append(probe.sample())
        self.schedule(dep)
        dep.sim.call_at(self.duration, dep.ep.mark_issued_all)
        samples = dep.ep.probe_s
        if probe is not None:
            probe.attach(dep.sim, samples)
        started = time.perf_counter()
        with phase("run"):
            dep.ep.run(self.duration + self.DEADLINE_S)
        run_s = time.perf_counter() - started - sum(samples)
        counters, extra = self.collect(dep)
        if dep.tracer is not None:
            dep.ep.blame = _blame(dep.cluster, self.headline)
        dep.cluster.close()
        result = dep.ep.result(setup_s, run_s, counters, extra)
        result.setup_probe_s = around
        return result

    def setup_only(self, probe: "SpeedProbe") -> Tuple[float, List[float]]:
        """One more set-up, torn down unused: its wall seconds and the
        probe samples taken just before and after it."""
        gc.collect()
        around = [probe.sample()]
        started = time.perf_counter()
        dep = self.build()
        elapsed = time.perf_counter() - started
        around.append(probe.sample())
        dep.cluster.close()
        return elapsed, around


def _blame(cluster, headline: str) -> Dict[str, float]:
    """Sum ``Stabilizer.blame()`` segment seconds over every node."""
    segments: Dict[str, float] = {}
    for node in cluster:
        for attribution in node.blame(keys=[headline]).attributions:
            if attribution.key == headline and attribution.attributed:
                for segment, seconds in attribution.segments.items():
                    segments[segment] = segments.get(segment, 0.0) + seconds
    return segments


def _full_replicas(names: List[str]):
    return lambda origin, _shard: [n for n in names if n != origin]


# ---------------------------------------------------------------------------
# ack-storm
# ---------------------------------------------------------------------------


def _jittered_ec2(jitter_ms: float):
    topo = ec2_topology()
    names = topo.node_names()
    for a in names:
        for b in names:
            if a != b:
                spec = topo.link_spec(a, b)
                topo.set_link(a, b, dataclasses.replace(spec, jitter_ms=jitter_ms))
    return topo


class AckStorm(Workload):
    """Every EC2 node streams small messages while all six Table III
    predicates are evaluated at every node (``control_fanout="all"``);
    reads wait at a random node for another node's latest message."""

    name = "ack-storm"
    headline = "AllWNodes"
    RATE_PER_NODE = 40.0
    READ_RATE = 250.0
    MESSAGE_BYTES = 256
    DURATION_S = 4.0
    JITTER_MS = 2.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.topo = _jittered_ec2(self.JITTER_MS)
        self.names = self.topo.node_names()
        self.duration = self.DURATION_S * scale
        sends = []
        for name in self.names:
            sends += [(t, 0, name) for t in _poisson(self.rng, self.RATE_PER_NODE, self.duration)]
        reads = []
        for t in _poisson(self.rng, self.READ_RATE, self.duration):
            reader = self.rng.choice(self.names)
            origin = self.rng.choice([n for n in self.names if n != reader])
            reads.append((t, 1, reader, origin))
        self.inputs = sorted(sends + reads)
        self.link_seed = self.rng.randrange(1 << 30)

    def build(self, tracer_factory=None) -> Deployment:
        sim = Simulator()
        net = self.topo.build(sim, RngRegistry(self.link_seed))
        config = StabilizerConfig.from_topology(
            self.topo, self.names[0], control_fanout="all"
        )
        tracer = tracer_factory(sim) if tracer_factory else None
        cluster = StabilizerCluster(net, config, tracer=tracer)
        ep = Episode(sim, self.headline)
        groups = self.topo.groups()
        for node in cluster:
            for key, source in standard_predicates(groups, node.name).items():
                node.register_predicate(key, source)
            ep.monitor(node)
            ep.watch_deliveries(node)
        return Deployment(sim, net, cluster, ep, tracer)

    def schedule(self, dep: Deployment) -> None:
        replicas = len(self.names) - 1
        for entry in self.inputs:
            if entry[1] == 0:
                dep.sim.call_at(entry[0], self._send, dep.ep, dep.cluster[entry[2]], replicas)
            else:
                dep.sim.call_at(entry[0], self._read, dep.ep, dep.cluster, entry[2], entry[3])

    def collect(self, dep: Deployment):
        dep.ep.check_deliveries(_full_replicas(self.names))
        dep.ep.check_instruments(
            {(n.name, None): n.stability.summary(self.headline) for n in dep.cluster}
        )
        return _sum_counters([n.stats() for n in dep.cluster], dep.net), {}

    def _send(self, ep: Episode, node, replicas: int) -> None:
        ep.send(node, self.MESSAGE_BYTES, replicas)

    def _read(self, ep: Episode, cluster, reader: str, origin: str) -> None:
        seq = cluster[origin].last_sent_seq()
        if seq:
            ep.read(cluster[reader], seq, self.headline, origin, self.DEADLINE_S)


# ---------------------------------------------------------------------------
# dropbox-trace
# ---------------------------------------------------------------------------


class DropboxTrace(Workload):
    """The paper's Fig. 4 trace replayed from NC-1 on EC2 (the Fig. 5
    set-up); reads wait at NC-1 for one of the last files uploaded."""

    name = "dropbox-trace"
    headline = "AllWNodes"
    TRACE_SCALE = 0.035
    #: The one trace of Fig. 4/5 (``synthesize_trace``'s own seed).  The
    #: benchmark seed jitters its arrival times instead of drawing a new
    #: trace: a new trace redraws the few multi-megabyte files that set
    #: the latency tail, which moved p50 by half across seeds.
    TRACE_SEED = 7
    ARRIVAL_JITTER_S = 0.5
    READ_RATE = 40.0
    RECENT_FILES = 8
    DEADLINE_S = 600.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.topo = ec2_topology()
        self.names = self.topo.node_names()
        records = synthesize_trace(self.TRACE_SCALE * scale, self.TRACE_SEED)
        arrivals = sorted(
            (max(0.0, r.time_s + self.rng.uniform(-1.0, 1.0) * self.ARRIVAL_JITTER_S),
             r.size_bytes)
            for r in records
        )
        self.duration = arrivals[-1][0]
        inputs = [(t, 0, size) for t, size in arrivals]
        for t in _poisson(self.rng, self.READ_RATE, self.duration):
            inputs.append((t, 1, self.rng.randrange(self.RECENT_FILES)))
        self.inputs = sorted(inputs)

    def build(self, tracer_factory=None) -> Deployment:
        sim = Simulator()
        net = self.topo.build(sim, RngRegistry(0))
        config = StabilizerConfig.from_topology(
            self.topo,
            EC2_SENDER,
            control_interval_s=0.01,
            control_batch=64,
            control_fanout="origin",
        )
        tracer = tracer_factory(sim) if tracer_factory else None
        cluster = StabilizerCluster(net, config, tracer=tracer)
        sender = cluster[EC2_SENDER]
        for key, source in standard_predicates(self.topo.groups(), EC2_SENDER).items():
            sender.register_predicate(key, source)
        ep = Episode(sim, self.headline)
        ep.monitor(sender)
        for node in cluster:
            ep.watch_deliveries(node)
        return Deployment(sim, net, cluster, ep, tracer)

    def schedule(self, dep: Deployment) -> None:
        sender = dep.cluster[EC2_SENDER]
        recent: List[int] = []
        replicas = len(self.names) - 1
        for entry in self.inputs:
            if entry[1] == 0:
                dep.sim.call_at(entry[0], self._send, dep.ep, sender, entry[2], replicas, recent)
            else:
                dep.sim.call_at(entry[0], self._read, dep.ep, sender, entry[2], recent)

    def collect(self, dep: Deployment):
        sender = dep.cluster[EC2_SENDER]
        dep.ep.check_deliveries(_full_replicas(self.names))
        dep.ep.check_instruments({(EC2_SENDER, None): sender.stability.summary(self.headline)})
        return _sum_counters([n.stats() for n in dep.cluster], dep.net), {}

    def _send(self, ep: Episode, sender, size: int, replicas: int, recent: List[int]) -> None:
        ep.send(sender, size, replicas)
        recent.append(sender.last_sent_seq())
        del recent[: -self.RECENT_FILES]

    def _read(self, ep: Episode, sender, back: int, recent: List[int]) -> None:
        if recent:
            seq = recent[-1 - back % len(recent)]
            ep.read(sender, seq, self.headline, sender.name, self.DEADLINE_S)


# ---------------------------------------------------------------------------
# sharded-kv
# ---------------------------------------------------------------------------

MAJORITY_PERSISTED = "KTH_MAX(SIZEOF($SHARDWNODES)/2 + 1, $SHARDWNODES.persisted)"


class ShardedKV(Workload):
    """A durable, partially replicated key-value store on EC2 with one
    crash-restart: skewed writes from each key's primary, stable reads
    of recently written keys at a co-owner."""

    name = "sharded-kv"
    headline = "MajorityPersisted"
    JITTER_MS = 2.0
    #: One of the four North Virginia nodes: every region keeps a live
    #: owner while it is down.
    VICTIM = "NV-2"
    SHARDS = 256
    REPLICATION = 3
    KEYS = 20_000
    ZIPF_S = 0.9
    WRITE_RATE = 400.0
    READ_RATE = 400.0
    VALUE_BYTES = 512
    DURATION_S = 6.0
    RECENT_KEYS = 16
    #: Clients stop routing writes and reads to the victim this long
    #: before it crashes, so no operation is stranded on a dead node.
    DRAIN_S = 1.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.topo = _jittered_ec2(self.JITTER_MS)
        self.names = self.topo.node_names()
        self.duration = self.DURATION_S * scale
        self.crash_at = self.duration / 3.0
        self.restart_at = 2.0 * self.duration / 3.0
        self.victim = self.VICTIM
        self.link_seed = self.rng.randrange(1 << 30)
        # Popularity rank i is key "user<i>" on every seed: the seed draws
        # arrivals and picks, not which shards are hot (a reshuffled
        # ranking moved read-wait p50 by a tenth across seeds).
        keys = [f"user{i:05d}" for i in range(self.KEYS)]
        cumulative, total = [], 0.0
        for rank in range(self.KEYS):
            total += 1.0 / (rank + 1) ** self.ZIPF_S
            cumulative.append(total)
        writes = _poisson(self.rng, self.WRITE_RATE, self.duration)
        chosen = self.rng.choices(keys, cum_weights=cumulative, k=len(writes))
        inputs = [(t, 0, key) for t, key in zip(writes, chosen)]
        for t in _poisson(self.rng, self.READ_RATE, self.duration):
            inputs.append((t, 1, self.rng.randrange(self.RECENT_KEYS), self.rng.random()))
        self.inputs = sorted(inputs)

    def build(self, tracer_factory=None) -> Deployment:
        sim = Simulator()
        net = self.topo.build(sim, RngRegistry(self.link_seed))
        predicates = dict(shard_standard_predicates())
        predicates[self.headline] = MAJORITY_PERSISTED
        config = StabilizerConfig.from_topology(
            self.topo,
            self.names[0],
            predicates=predicates,
            shard_count=self.SHARDS,
            shard_replication=self.REPLICATION,
            durability=True,
        )
        tracer = tracer_factory(sim) if tracer_factory else None
        started = time.perf_counter()
        cluster = ShardedCluster(net, config, tracer=tracer)
        build_s = time.perf_counter() - started
        ep = Episode(sim, self.headline)
        ep.timed["sharding.build_s"] = build_s
        for node in cluster:
            ep.monitor(node, shard_aware=True)
            ep.watch_deliveries(node, shard_aware=True)
        return Deployment(sim, net, cluster, ep, tracer)

    def schedule(self, dep: Deployment) -> None:
        dep.state.update(down=False, snapshot=None, crashed_stats=None,
                         crashed_summaries={}, catchup_s=0.0)
        recent: List[str] = []
        latest: Dict[str, Tuple[str, int, int]] = {}
        for entry in self.inputs:
            if entry[1] == 0:
                dep.sim.call_at(entry[0], self._write, dep, entry[2], recent, latest)
            else:
                dep.sim.call_at(entry[0], self._read, dep, entry[2], entry[3], recent, latest)
        dep.sim.call_at(self.crash_at, self._crash, dep)
        dep.sim.call_at(self.restart_at, self._restart, dep)

    def collect(self, dep: Deployment):
        ep, cluster, state = dep.ep, dep.cluster, dep.state
        smap = cluster.shard_map
        ep.check_deliveries(
            lambda origin, shard: [o for o in smap.owners(shard) if o != origin]
        )
        summaries: Dict[Tuple[str, Optional[int]], Dict[str, float]] = {}
        for node in cluster:
            for shard, inner in node.shards.items():
                summary = dict(inner.stability.summary(self.headline))
                before = state["crashed_summaries"].get((node.name, shard))
                if before is not None:
                    summary["count"] = summary.get("count", 0) + before.get("count", 0)
                    summary["sum"] = summary.get("sum", 0.0) + before.get("sum", 0.0)
                if summary.get("count"):
                    summaries[(node.name, shard)] = summary
        ep.check_instruments(summaries)
        self._check_persisted(ep, cluster)
        stats = [n.stats() for n in cluster]
        if state["crashed_stats"] is not None:
            stats.append(state["crashed_stats"])
        counters = _sum_counters(stats, dep.net)
        counters["ack_table_cells"] = float(sum(n.ack_table_cells() for n in cluster))
        return counters, {"catchup_s": state["catchup_s"]}

    # -- schedule actions -------------------------------------------------------
    def _drained(self, now: float, state) -> bool:
        return state["down"] or self.crash_at - self.DRAIN_S <= now < self.restart_at

    def _writer(self, smap, shard: int, now: float, state) -> str:
        """The key's primary, or its next owner while the victim is
        drained or down."""
        primary = smap.primary(shard)
        if primary == self.victim and self._drained(now, state):
            return next(o for o in smap.owners(shard) if o != self.victim)
        return primary

    def _write(self, dep: Deployment, key: str, recent, latest) -> None:
        smap = dep.cluster.shard_map
        shard = smap.shard_of(key)
        writer = self._writer(smap, shard, dep.sim.now, dep.state)
        node = dep.cluster[writer]
        dep.ep.send(node, self.VALUE_BYTES, self.REPLICATION - 1, shard=shard, key=key)
        latest[key] = (writer, shard, node.last_sent_seq(shard=shard))
        if key in recent:
            recent.remove(key)
        recent.append(key)
        del recent[: -self.RECENT_KEYS]

    def _read(self, dep: Deployment, back: int, pick: float, recent, latest) -> None:
        if not recent:
            return
        smap = dep.cluster.shard_map
        key = recent[-1 - back % len(recent)]
        writer, shard, seq = latest[key]
        drained = self._drained(dep.sim.now, dep.state)
        readers = [
            o for o in smap.owners(shard)
            if o != writer and not (drained and o == self.victim)
        ]
        reader = readers[int(pick * len(readers))]
        dep.ep.read(dep.cluster[reader], seq, self.headline, writer, self.DEADLINE_S,
                    shard=shard)

    def _crash(self, dep: Deployment) -> None:
        state = dep.state
        victim = dep.cluster[self.victim]
        state["snapshot"] = snapshot_state(victim)
        state["crashed_stats"] = victim.stats()
        state["crashed_summaries"] = {
            (self.victim, shard): dict(inner.stability.summary(self.headline))
            for shard, inner in victim.shards.items()
        }
        victim.crash()
        dep.cluster.filesystems[self.victim].crash()
        dep.net.crash_node(self.victim)
        state["down"] = True

    def _restart(self, dep: Deployment) -> None:
        cluster, ep, state = dep.cluster, dep.ep, dep.state
        dep.net.recover_node(self.victim)
        # Catch-up target: everything each co-owner had sent by now.
        targets: Dict[Tuple[int, str], int] = {}
        for shard in cluster.shard_map.owned_shards(self.victim):
            for owner in cluster.shard_map.owners(shard):
                if owner != self.victim:
                    sent = cluster[owner].last_sent_seq(shard=shard)
                    if sent:
                        targets[(shard, owner)] = sent
        started = time.perf_counter()
        node = cluster.restart_node(self.victim, state.pop("snapshot"))
        ep.timed["recovery.restart_s"] = time.perf_counter() - started
        state["down"] = False
        restarted_at = ep.sim.now
        for key in list(targets):
            shard, owner = key
            if node.shards[shard].dataplane.highest_received(owner) >= targets[key]:
                del targets[key]

        def caught_up(origin, seq, _payload, _meta, shard):
            target = targets.get((shard, origin))
            if target is not None and seq >= target:
                del targets[(shard, origin)]
                if not targets:
                    state["catchup_s"] = ep.sim.now - restarted_at

        if targets:
            node.on_delivery(caught_up)
        ep.monitor(node, shard_aware=True)
        ep.watch_deliveries(node, shard_aware=True)

    def _check_persisted(self, ep: Episode, cluster) -> None:
        """No node's ``persisted`` cell may exceed its WAL fsync watermark."""
        for node in cluster:
            for shard, inner in node.shards.items():
                persisted = inner.type_id("persisted")
                for origin, table in inner.tables.items():
                    claimed = table.get(inner.local_index, persisted)
                    synced = inner.durability.watermark(origin)
                    if claimed > synced:
                        ep.violations.append(
                            f"{node.name} shard {shard}: persisted {origin}#{claimed} "
                            f"beyond WAL watermark {synced}"
                        )


WORKLOADS = {cls.name: cls for cls in (AckStorm, DropboxTrace, ShardedKV)}
