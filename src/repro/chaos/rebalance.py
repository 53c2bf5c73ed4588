"""Chaos harness for live shard rebalancing: membership churn under load.

The sharded sibling of :class:`~repro.chaos.harness.ChaosHarness`: a
:class:`~repro.core.sharding.ShardedCluster` under continuous per-shard
traffic, driven by a seeded schedule that — on top of the classic
crash / restart / partition / heal repertoire — exercises the membership
events :func:`~repro.chaos.schedule.generate_schedule` produces when
given spares and a leave budget:

- ``node_join``: a provisioned spare host enters via
  :meth:`~repro.core.rebalance.RebalanceCoordinator.node_join` — freeze,
  drain, state transfer, epoch-bumping cutover, catch-up;
- ``node_leave``: a member decommissions via ``node_leave`` — its shards
  hand off to the successors HRW promotes before it goes;
- ``crash`` of any participant *during* an in-flight handoff: the
  coordinator pauses transfers touching the victim, the cutover waits,
  and the restart (from the crash-instant version-5 snapshot, which
  carries frozen shards and parked transfer blobs) re-drives the
  handoff.

The invariant checker verifies everything the plain harness verifies
plus the rebalance-specific properties: no delivery lost across a
cutover (10), replication factor restored at quiescence (11), and
exactly one owner set per (shard, epoch) (12).

Durability is deliberately **off** here: WAL recovery rebuilds a
contiguous-from-1 persistence watermark, while a rebalance joiner adopts
a mid-stream receive watermark whose prefix it never saw — the two
models compose only once per-shard WAL state is handed off too, which
the transfer protocol does not attempt (the blob carries watermarks and
buffers, not logs).  Durability chaos stays with the plain flavour.
:func:`~repro.chaos.harness.run_chaos` runs this flavour when handed a
:class:`RebalanceChaosConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.chaos.harness import BaseChaosConfig, BaseChaosHarness
from repro.core.rebalance import RebalanceCoordinator
from repro.core.sharding import ShardedCluster
from repro.errors import StabilizerError

#: Per-shard predicate keys: strict (every owner) and relaxed (any owner).
SHARD_STRICT_KEY = "shard_all"
SHARD_RELAXED_KEY = "shard_any"

REBALANCE_PREDICATES = {
    SHARD_STRICT_KEY: "MIN($SHARDWNODES - $MYWNODE)",
    SHARD_RELAXED_KEY: "MAX($SHARDWNODES - $MYWNODE)",
}


@dataclass(kw_only=True)
class RebalanceChaosConfig(BaseChaosConfig):
    """Knobs for one rebalance-chaos run.

    Defaults give a 2-AZ / 4-member cluster with one provisioned spare,
    16 shards at replication 2, one join and up to one leave mixed into
    the fault schedule.
    """

    azs: int = 2
    spares: int = 1
    shard_count: int = 16
    replication: int = 2
    events: int = 8
    max_leaves: int = 1
    send_interval_s: float = 0.1
    payload_bytes: int = 512
    traffic_end_s: Optional[float] = None
    min_gap_s: float = 0.8
    window_bytes: Optional[int] = 8 * 1024
    frame_bytes: Optional[int] = 2 * 1024
    frame_delay_ms: float = 1.0
    control_interval_s: float = 0.005
    drain_timeout_s: float = 2.0
    transfer_timeout_s: float = 2.0
    max_transfer_attempts: int = 8

    def spare_names(self) -> List[str]:
        """Provisioned non-member hosts (what the schedule may join)."""
        return [f"s{i}" for i in range(self.spares)]

    def spare_az(self, index: int) -> str:
        return f"az{index % self.azs}"


class RebalanceChaosHarness(BaseChaosHarness):
    """See module docstring."""

    config_class = RebalanceChaosConfig
    LINK_LATENCY_MS = 5
    DUMP_PREFIX = "rebalance"
    waiter_keys = (SHARD_STRICT_KEY,)
    _frozen_rejections = 0
    _rebalance_slices = 0

    def _schedule_options(self) -> dict:
        return {
            "spare_nodes": self.config.spare_names(),
            "max_leaves": self.config.max_leaves,
            "min_members": max(2, self.config.replication),
        }

    def _spare_hosts(self) -> Dict[str, str]:
        return {
            name: self.config.spare_az(i)
            for i, name in enumerate(self.config.spare_names())
        }

    def _build_cluster(self) -> ShardedCluster:
        base = self._stabilizer_config(
            control_interval_s=self.config.control_interval_s,
            predicates=dict(REBALANCE_PREDICATES),
            shard_count=self.config.shard_count,
            shard_replication=self.config.replication,
            window_bytes=self.config.window_bytes,
            frame_bytes=self.config.frame_bytes,
            frame_delay_ms=self.config.frame_delay_ms,
            durability=False,  # see module docstring
        )
        cluster = ShardedCluster(self.net, base, tracer=self.tracer)
        self.coordinator = RebalanceCoordinator(
            cluster,
            tracer=self.tracer,
            drain_timeout_s=self.config.drain_timeout_s,
            transfer_timeout_s=self.config.transfer_timeout_s,
            max_transfer_attempts=self.config.max_transfer_attempts,
        )
        self.coordinator.on_cutover(self._handle_cutover)
        self.checker.note_owner_map(cluster.shard_map)
        return cluster

    def _arm_node(self, node) -> None:
        self.checker.attach(node)

    # -- cutover wiring ----------------------------------------------------------
    def _handle_cutover(self, plan, watermarks) -> None:
        """Runs synchronously inside the cutover instant: record the
        invariant-10/12 baselines, re-seed table history for the owners
        whose rows were just remapped, and put monitors on the rebuilt
        stacks (moved shards only — untouched stacks keep theirs)."""
        self.checker.note_cutover(plan, watermarks)
        moved = {move.shard_id for move in plan.moves}
        touched = set()
        for move in plan.moves:
            touched.update(move.new)
        for name in touched:
            self.checker.forget_node(name)
        for node in self.cluster:
            self.checker.attach(node, shards=moved)

    # -- traffic -----------------------------------------------------------------
    def _send(self, name: str):
        node = self.cluster.nodes.get(name)
        if node is None:
            return None  # a spare not yet joined, or a member that left
        shards = [
            shard
            for shard in node.shards
            if shard not in node.frozen_shards()
        ]
        if not shards:
            return None  # a joiner whose stacks are all pending transfer
        shard = shards[self._send_rng.randrange(len(shards))]
        try:
            seq = node.send(self._payload(), shard=shard)
        except StabilizerError:
            # Frozen between the pick and the send (handoff raced the
            # tick): the designed routed rejection, not a failure.
            self._frozen_rejections += 1
            return None
        self.checker.note_sent(name, seq, shard=shard)
        return node, seq, shard

    # -- fault execution ---------------------------------------------------------
    def _event_handlers(self) -> Dict[str, Callable[..., None]]:
        # When the coordinator was idle a joiner exists right after
        # node_join (all stacks pending, so attach registers nothing yet
        # — the cutover hook covers its built stacks later).
        return {
            **super()._event_handlers(),
            "node_join": self.coordinator.node_join,
            "node_leave": self.coordinator.node_leave,
        }

    def _crash_node(self, name: str, node) -> None:
        # The crash-instant v5 snapshot carries frozen shards and parked
        # handoff blobs — the handoff resumes from it.
        node.crash()
        self.checker.forget_node(name)

    def _crash(self, name: str) -> None:
        super()._crash(name)
        self.coordinator.node_crashed(name)

    def _restart(self, name: str) -> None:
        super()._restart(name)
        self.coordinator.node_restarted(name)

    # -- the run -----------------------------------------------------------------
    def _before_settle(self) -> None:
        # Let any still-active or queued rebalance finish before judging
        # the end state: the replication invariant is about quiescence.
        self._rebalance_slices = self._settle(lambda: self.coordinator.idle)

    def _final_checks(self) -> None:
        # check_delivery has covered invariant 10; this is invariant 11.
        self.checker.check_replication(self.cluster)

    def _report_extras(self, elapsed_s: float) -> dict:
        history = list(self.coordinator.history)
        return {
            "members_initial": list(self.node_names),
            "spares": self.config.spare_names(),
            "members_final": sorted(self.cluster.nodes),
            "shard_count": self.config.shard_count,
            "replication": self.config.replication,
            "epoch_final": self.cluster.shard_map.epoch,
            "rebalance_slices": self._rebalance_slices,
            "rebalances": history,
            "cutovers_checked": self.checker.cutovers_checked,
            "unsourced_shards": sum(h["unsourced"] for h in history),
            "frozen_rejections": self._frozen_rejections,
            "rebalance_stats": self.coordinator.stats(),
            **self._cluster_report(elapsed_s),
        }

    def close(self) -> None:
        self.coordinator.close()
        super().close()
