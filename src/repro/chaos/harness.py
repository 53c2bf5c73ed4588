"""The chaos harness: a cluster under traffic, faults, and invariants.

Every chaos run is one experiment, whatever it stresses:

1. build an AZ topology and a Stabilizer cluster, with an
   :class:`~repro.chaos.invariants.InvariantChecker` monitoring every
   node and one flight recorder shared by every node incarnation;
2. generate the seeded fault schedule
   (:func:`repro.chaos.schedule.generate_schedule`) and drive it:
   *crash* snapshots the victim at the crash instant (the integrated
   system's persistence, Section III-E), crashes it and downs its host;
   *restart* brings the host back, rebuilds the node from the snapshot
   (which triggers peer replay catch-up) and re-arms it;
   *partition*/*heal* cut and restore AZ links;
3. run steady traffic from every live node, guarding a sample of sends
   with release-verified waiters;
4. after the schedule closes, settle until the cluster is quiescent
   (bounded), then run the final checks.

:class:`BaseChaosHarness` is that skeleton; each flavour subclasses it
and fills in hooks.  :class:`ChaosHarness` is the plain flavour: a
3-AZ/6-node cluster with a strict all-remote-nodes predicate, a relaxed
any-remote-node predicate, the stock
:class:`~repro.core.degradation.MaskSuspectedPolicy` at every node and,
by default, WALs on seeded fault-injectable disks.  The overload and
rebalance flavours live in :mod:`repro.chaos.overload` and
:mod:`repro.chaos.rebalance`.

The run is deterministic per seed: schedules, event interleavings and
final frontiers reproduce exactly.  :func:`run_chaos` builds the harness
matching its config's class, runs it and returns the report dict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.chaos.schedule import ChaosEvent, generate_schedule
from repro.core.cluster import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.core.recovery import save_snapshot, snapshot_state
from repro.errors import DiskFaultError
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.obs.tracer import Tracer
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.faultio import MemoryFileSystem
from repro.transport.messages import SyntheticPayload

STRICT_KEY = "all_remote"
RELAXED_KEY = "any_remote"
DURABLE_KEY = "durable_all"

#: Disk faults honest software can survive: clean write errors, torn
#: writes (self-healed by the log), and lost pages after a failed fsync
#: (poison-and-rewrite).  Silent bit rot is deliberately absent — no
#: correct implementation can keep promises about bytes that lie.
CHAOS_DISK_FAULTS = ("fsync_fail", "eio_write", "enospc", "torn_write")


@dataclass(kw_only=True)
class BaseChaosConfig:
    """The knobs every chaos flavour shares.  Each flavour's config
    subclasses this, re-declaring the defaults it tunes differently."""

    seed: int = 0
    azs: int = 3
    nodes_per_az: int = 2
    events: int = 12
    send_interval_s: float = 0.15
    payload_bytes: int = 1024
    failure_timeout_s: float = 1.5
    settle_slice_s: float = 2.0
    max_settle_slices: int = 60
    waiter_every: int = 5
    first_event_at: float = 1.0
    min_gap_s: float = 0.5
    max_gap_s: float = 2.0
    # Flight recorder: on by default — a failing seed must always
    # come with its interleaving.  The ring bounds the cost.
    trace: bool = True
    trace_capacity: int = 65536
    trace_dir: str = "."

    def groups(self) -> Dict[str, List[str]]:
        """Initial members by AZ (what the schedule may fault)."""
        return {
            f"az{a}": [f"n{a}{i}" for i in range(self.nodes_per_az)]
            for a in range(self.azs)
        }


@dataclass(kw_only=True)
class ChaosConfig(BaseChaosConfig):
    """Knobs for one chaos run; defaults give the 3-AZ/6-node experiment."""

    traffic_end_s: Optional[float] = None
    # Deliberately tiny window and frame budgets: partitions and
    # suspensions must close windows and stall streams mid-run, so the
    # stall/resume and reclaim invariants see real traffic.
    window_bytes: Optional[int] = 4 * 1024
    frame_bytes: Optional[int] = 2 * 1024
    frame_delay_ms: float = 2.0
    durability: bool = True
    disk_faults: bool = False
    disk_fault_kinds: Tuple[str, ...] = CHAOS_DISK_FAULTS
    disk_fault_rate: float = 0.3
    checkpoint_interval_s: Optional[float] = None
    durability_batch: int = 8
    durability_interval_s: float = 0.01
    # Which stabilization engine the cluster runs (the invariants are
    # engine-agnostic; make strategy-smoke sweeps all three).
    stabilization_strategy: str = "acktable"
    strategy_params: Optional[dict] = None

    def __post_init__(self):
        self.disk_fault_kinds = tuple(self.disk_fault_kinds)
        self.strategy_params = dict(self.strategy_params or {})


def sum_stats(parts) -> Dict[str, float]:
    """Sum stats dicts key by key."""
    totals: Dict[str, float] = {}
    for stats in parts:
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


class BaseChaosHarness:
    """The shared skeleton; see module docstring.

    ``schedule`` overrides the generated one — handcrafted schedules pin
    down specific interleavings (a crash timed inside a handoff window)
    that seeded randomness only sometimes produces.
    """

    config_class = BaseChaosConfig
    #: Per-flavour constants: send-RNG salt, link latency, dump-file
    #: prefix, and the predicate keys the sampled waiters guard.
    SEND_SALT = 0x5EED
    LINK_LATENCY_MS = 10
    DUMP_PREFIX = "chaos"
    waiter_keys: Tuple[str, ...] = ()

    def __init__(self, config=None, schedule: Optional[List[ChaosEvent]] = None):
        self.config = config or self.config_class()
        self.groups = self.config.groups()
        self.node_names = [n for members in self.groups.values() for n in members]
        self.checker = InvariantChecker()
        self.schedule: List[ChaosEvent] = (
            schedule
            if schedule is not None
            else generate_schedule(
                self.groups,
                seed=self.config.seed,
                events=self.config.events,
                start=self.config.first_event_at,
                min_gap=self.config.min_gap_s,
                max_gap=self.config.max_gap_s,
                **self._schedule_options(),
            )
        )
        self.fired: List[Tuple[float, str, Tuple[str, ...]]] = []
        # node -> crash-instant snapshot; None marks a host that went
        # dark before its process existed (a spare with a queued join).
        self._crashed: Dict[str, Optional[dict]] = {}
        self._send_rng = random.Random(self.config.seed ^ self.SEND_SALT)
        self._waiter_timeouts = 0

        self.topo = Topology()
        for az, members in self.groups.items():
            for name in members:
                self.topo.add_node(name, group=az)
        for name, az in self._spare_hosts().items():
            self.topo.add_node(name, group=az)
        self.topo.set_default(
            NetemSpec(latency_ms=self.LINK_LATENCY_MS, rate_mbit=100)
        )
        # Partition events cut whole AZs, spares included: a spare mid-join
        # can find itself on the wrong side of the cut.
        self.partition_groups = self.topo.groups()
        self.sim = Simulator()
        self.net = self.topo.build(self.sim, RngRegistry(self.config.seed))
        # One flight recorder across the whole cluster (and every node
        # incarnation), stamped with virtual time.  On an invariant
        # failure the checker dumps it next to the test output.
        self.tracer = Tracer(
            clock=self.sim.clock,
            capacity=self.config.trace_capacity,
            enabled=self.config.trace,
        )
        self.checker.flight_recorder = self.tracer
        self.checker.dump_path = (
            Path(self.config.trace_dir)
            / f"{self.DUMP_PREFIX}_failure_{self.config.seed}.trace.json"
        )
        self.cluster = self._build_cluster()
        for node in self.cluster:
            self._arm_node(node)
        self._handlers = self._event_handlers()

    # -- flavour hooks -------------------------------------------------------------
    def _schedule_options(self) -> dict:
        """Extra :func:`generate_schedule` arguments (event budgets)."""
        return {}

    def _spare_hosts(self) -> Dict[str, str]:
        """Provisioned non-member hosts, name -> AZ."""
        return {}

    def _stabilizer_config(
        self, control_interval_s: float = 0.005, **settings
    ) -> StabilizerConfig:
        """The deployment config every flavour builds on; ``settings``
        carry the flavour's predicates and tunables."""
        return StabilizerConfig(
            node_names=self.node_names,
            groups=self.groups,
            local=self.node_names[0],
            control_interval_s=control_interval_s,
            failure_timeout_s=self.config.failure_timeout_s,
            # Channels give up fast so dead-peer reports (not just the
            # heartbeat timer) drive suspicion during the run.
            max_retransmit_attempts=5,
            transport_max_rto_s=1.0,
            **settings,
        )

    def _build_cluster(self):
        raise NotImplementedError

    def _arm_node(self, node) -> None:
        """Wire one (re)built node: degradation policy and monitors."""
        node.set_degradation_policy()
        self.checker.attach(node)

    def _send(self, name: str):
        """Make one send from live ``name``: ``(node, seq, shard)``, or
        None when nothing went out."""
        raise NotImplementedError

    def _send_interval(self, name: str) -> float:
        return self.config.send_interval_s

    def _crash_node(self, name: str, node) -> None:
        node.crash()

    def _restarted(self, node) -> None:
        self._arm_node(node)
        # Invariants 6+7: the recovered WAL must back the restored
        # persisted claims and everything peers ever observed.
        self.checker.check_restart(node)

    def _event_handlers(self) -> Dict[str, Callable[..., None]]:
        """Event kind -> handler, called with the event's target."""
        groups = self.partition_groups
        return {
            "crash": self._crash,
            "restart": self._restart,
            "partition": lambda a, b: self.net.partition(groups[a], groups[b]),
            "heal": lambda *_: self.net.heal(),
        }

    def _before_settle(self) -> None:
        pass

    def _quiescent(self) -> bool:
        return self.checker.all_delivered(list(self.cluster))

    def _final_checks(self) -> None:
        pass

    def _report_extras(self, elapsed_s: float) -> dict:
        return {}

    # -- traffic -----------------------------------------------------------------
    def _traffic_end(self) -> float:
        # traffic_end_s is an optional knob; by default traffic runs
        # until 2 s after the last scheduled event.
        end = getattr(self.config, "traffic_end_s", None)
        return self.schedule[-1].at + 2.0 if end is None else end

    def _start_traffic(self) -> None:
        hosts = self.topo.node_names()
        for i, name in enumerate(hosts):
            # Stagger the first sends so streams do not tick in lockstep.
            offset = self.config.send_interval_s * (i + 1) / len(hosts)
            self.sim.call_later(offset, self._send_tick, name)

    def _payload(self) -> SyntheticPayload:
        return SyntheticPayload(
            self._send_rng.randrange(64, self.config.payload_bytes)
        )

    def _send_tick(self, name: str) -> None:
        if self.sim.now < self._traffic_end():
            self.sim.call_later(self._send_interval(name), self._send_tick, name)
        if name in self._crashed:
            return  # the node is down; its timer idles until restart
        sent = self._send(name)
        if sent is None:
            return
        node, seq, shard = sent
        if seq % self.config.waiter_every == 0:
            for key in self.waiter_keys:
                event = self.checker.guarded_waitfor(
                    node, seq, key, timeout_s=60.0, shard=shard
                )
                event.add_callback(self._count_timeout)

    def _count_timeout(self, event) -> None:
        if event.failed:
            self._waiter_timeouts += 1

    # -- fault execution -----------------------------------------------------------
    def _fire(self, event: ChaosEvent) -> None:
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise ValueError(f"unknown chaos event kind {event.kind!r}")
        handler(*event.target)
        self.fired.append((self.sim.now, event.kind, event.target))
        self.checker.check_tables(self._live_nodes())

    def _crash(self, name: str) -> None:
        node = self.cluster.nodes.get(name)
        if node is None:
            self._crashed[name] = None
        else:
            # The crash-instant snapshot is the paper's persisted state:
            # reclaim waits for *everyone*, so what peers still buffer is
            # a superset of anything this snapshot lacks.
            self._crashed[name] = snapshot_state(node)
            self._crash_node(name, node)
            fs = self.cluster.filesystems.get(name)
            if fs is not None and hasattr(fs, "crash"):
                # The disk loses everything not fsynced — with a torn
                # (injector-random) fraction of the unsynced tail left
                # behind for recovery to truncate.
                fs.crash(torn=True)
        self.net.crash_node(name)

    def _restart(self, name: str) -> None:
        self.net.recover_node(name)
        snapshot = self._crashed.pop(name)
        if snapshot is not None:
            self._restarted(self.cluster.restart_node(name, snapshot))

    def _live_nodes(self):
        return [
            node
            for name, node in self.cluster.nodes.items()
            if name not in self._crashed
        ]

    # -- the run -------------------------------------------------------------------
    def _settle(self, done: Callable[[], bool]) -> int:
        """Run bounded slices until ``done()``; returns the slice count."""
        slices = 0
        while not done() and slices < self.config.max_settle_slices:
            slices += 1
            self.sim.run(until=self.sim.now + self.config.settle_slice_s)
        return slices

    def run(self) -> dict:
        """Execute the schedule under traffic; returns the report dict.

        Raises :class:`~repro.chaos.invariants.InvariantViolation` the
        moment any safety property breaks.
        """
        started = time.perf_counter()
        self._start_traffic()
        for event in self.schedule:
            self.sim.call_at(event.at, self._fire, event)
        # Heartbeats keep the event heap non-empty forever, so run in
        # bounded slices: first to the end of the schedule and traffic,
        # then settle until the cluster is quiescent.
        self.sim.run(until=self._traffic_end() + 0.5)
        self._before_settle()
        self.checker.check_tables(self._live_nodes())
        settle_slices = self._settle(self._quiescent)
        nodes = list(self.cluster)
        self.checker.check_tables(nodes)
        self.checker.check_delivery(nodes)
        self._final_checks()
        return self.report(time.perf_counter() - started, settle_slices)

    def report(self, elapsed_s: float, settle_slices: int) -> dict:
        return {
            "seed": self.config.seed,
            "azs": len(self.groups),
            "schedule": [[ev.at, ev.kind, list(ev.target)] for ev in self.schedule],
            "fired": [[t, kind, list(target)] for t, kind, target in self.fired],
            "virtual_end_s": self.sim.now,
            "settle_slices": settle_slices,
            "waiter_timeouts": self._waiter_timeouts,
            "invariant_checks": self.checker.checks,
            "monitor_events": self.checker.monitor_events,
            "violations": list(self.checker.violations),
            "trace_events": self.tracer.emitted,
            "elapsed_s": elapsed_s,
            **self._report_extras(elapsed_s),
        }

    def _cluster_report(self, elapsed_s: float) -> dict:
        """Report keys of the flavours that total per-node stats."""
        return {
            "messages_sent": self.checker.sent_by_origin(),
            "releases_checked": self.checker.releases_checked,
            "restarts_checked": self.checker.restarts_checked,
            "trace_dropped": self.tracer.dropped,
            "cluster_totals": sum_stats(node.stats() for node in self.cluster),
            "checks_per_s": (
                self.checker.checks / elapsed_s if elapsed_s > 0 else 0.0
            ),
        }

    def close(self) -> None:
        self.cluster.close()


class ChaosHarness(BaseChaosHarness):
    """The plain flavour: crash / restart / partition / heal, plus disk
    faults and periodic checkpoints; see module docstring."""

    config_class = ChaosConfig

    def _schedule_options(self) -> dict:
        return {
            "disk_fault_kinds": (
                self.config.disk_fault_kinds if self.config.disk_faults else ()
            )
        }

    def _build_cluster(self) -> StabilizerCluster:
        predicates = {
            STRICT_KEY: "MIN($ALLWNODES - $MYWNODE)",
            RELAXED_KEY: "MAX($ALLWNODES - $MYWNODE)",
        }
        self.waiter_keys = (STRICT_KEY,)
        if self.config.durability:
            # Released only when every node's WAL has fsynced the bytes —
            # the claim the durability-honesty invariants police.
            predicates[DURABLE_KEY] = "MIN($ALLWNODES.persisted)"
            self.waiter_keys += (DURABLE_KEY,)
        base = self._stabilizer_config(
            predicates=predicates,
            window_bytes=self.config.window_bytes,
            frame_bytes=self.config.frame_bytes,
            frame_delay_ms=self.config.frame_delay_ms,
            durability=self.config.durability,
            durability_group_commit_batch=self.config.durability_batch,
            durability_group_commit_interval_s=self.config.durability_interval_s,
            stabilization_strategy=self.config.stabilization_strategy,
            strategy_params=self.config.strategy_params,
        )
        fs_factory = None
        if self.config.durability:
            # One seeded, fault-injectable filesystem per *host* — it
            # survives process crash-restarts, exactly like a disk.
            def fs_factory(name, _seed=self.config.seed):
                return MemoryFileSystem(
                    seed=(_seed << 8) ^ self.node_names.index(name)
                )

        cluster = StabilizerCluster(
            self.net, base, fs_factory=fs_factory, tracer=self.tracer
        )
        if self.config.checkpoint_interval_s is not None:
            for name in self.node_names:
                self.sim.call_later(
                    self.config.checkpoint_interval_s,
                    self._checkpoint_tick,
                    name,
                )
        self.checkpoints_taken = 0
        self.checkpoint_faults = 0
        return cluster

    def _send(self, name: str):
        node = self.cluster[name]
        seq = node.send(self._payload())
        self.checker.note_sent(name, seq)
        return node, seq, None

    # -- checkpoints ---------------------------------------------------------------
    def _checkpoint_tick(self, name: str) -> None:
        """Periodic snapshot + WAL compaction at ``name`` — written through
        the node's own (fault-injecting) filesystem, so a checkpoint can
        itself hit ENOSPC or a failed fsync and must fail cleanly."""
        self.sim.call_later(
            self.config.checkpoint_interval_s, self._checkpoint_tick, name
        )
        if name in self._crashed:
            return
        node = self.cluster[name]
        fs = self.cluster.filesystems[name]
        try:
            save_snapshot(node, "snapshot.json", fs=fs)
            if node.durability is not None:
                node.durability.checkpoint()
            self.checkpoints_taken += 1
        except DiskFaultError:
            self.checkpoint_faults += 1

    # -- disk faults ---------------------------------------------------------------
    def _event_handlers(self) -> Dict[str, Callable[..., None]]:
        return {
            **super()._event_handlers(),
            "disk_fault": self._disk_fault,
            "disk_heal": self._disk_heal,
        }

    def _disk_fault(self, name: str, fault: str) -> None:
        fs = self.cluster.filesystems.get(name)
        if fs is not None and fs.injector is not None:
            fs.injector.arm(fault, self.config.disk_fault_rate)

    def _disk_heal(self, name: str) -> None:
        fs = self.cluster.filesystems.get(name)
        if fs is not None and fs.injector is not None:
            fs.injector.clear()

    def _report_extras(self, elapsed_s: float) -> dict:
        return {
            "nodes": len(self.node_names),
            "final_frontiers": {
                node.name: {
                    origin: node.get_stability_frontier(STRICT_KEY, origin)
                    for origin in self.node_names
                }
                for node in self.cluster
            },
            "durability": self.config.durability,
            "disk_faults_injected": sum(
                sum(fs.injector.injected.values())
                for fs in self.cluster.filesystems.values()
                if fs is not None and fs.injector is not None
            ),
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_faults": self.checkpoint_faults,
            **self._cluster_report(elapsed_s),
        }


def run_chaos(config=None, schedule: Optional[List[ChaosEvent]] = None) -> dict:
    """Build the harness matching ``config``'s class (a plain
    :class:`ChaosConfig` by default), run it, close it, return the
    report."""
    config = config or ChaosConfig()
    for flavour in BaseChaosHarness.__subclasses__():
        if isinstance(config, flavour.config_class):
            break
    else:
        raise TypeError(f"no chaos harness runs a {type(config).__name__}")
    harness = flavour(config, schedule=schedule)
    try:
        return harness.run()
    finally:
        harness.close()
