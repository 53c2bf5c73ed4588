"""Randomized chaos testing for the fault-tolerance layer.

The paper's central claim is that stability tracking keeps working —
and predicates stay *meaningful* — across WAN failures (Section V).
This package turns that claim into a machine-checked property: a seeded
random schedule of crash / restart / partition / heal events runs
against a live multi-node cluster under continuous traffic, and a set
of safety invariants is asserted after every event and at quiescence:

- frontier values observed by monitors never regress, across predicate
  degradation, recovery, and even node restarts;
- no waiter is released before its predicate actually holds against the
  node's ACK table;
- ACK-table cells only ever advance;
- every message sent before a crash or partition is delivered everywhere
  once the cluster heals and settles;
- with durability on (the default), no node's ``persisted`` claim ever
  exceeds its WAL's fsync watermark, and any persisted claim a peer
  observed survives the claimant's crash-restart — checked under
  injected disk faults (failed fsyncs, torn writes, ENOSPC, EIO);
- under live rebalancing (:mod:`repro.chaos.rebalance`: ``node_join`` /
  ``node_leave`` schedule events against a sharded cluster with a
  :class:`~repro.core.rebalance.RebalanceCoordinator`), no delivery is
  lost across a cutover, every shard's replication factor is restored
  at quiescence, and each (shard, epoch) pair ever has exactly one
  owner set — including crashes landing mid-handoff;
- under overload (:mod:`repro.chaos.overload`: ``flash_crowd`` /
  ``slow_node`` schedule events against a cluster running admission
  control and the closed-loop SLA controller), no admitted message is
  ever shed and every degraded predicate is walked back to its pristine
  definition once load subsides (invariants 13 and 14).

All three modes are flavours of one harness skeleton
(:class:`~repro.chaos.harness.BaseChaosHarness`), and one runner,
:func:`run_chaos`, runs whichever flavour matches its config:
:class:`ChaosConfig`, :class:`OverloadChaosConfig` or
:class:`RebalanceChaosConfig`.  Everything is deterministic per seed: the
same seed reproduces the same schedule, the same event interleaving, and
the same final frontiers.
"""

from repro.chaos.harness import (
    CHAOS_DISK_FAULTS,
    ChaosConfig,
    ChaosHarness,
    run_chaos,
)
from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.overload import OverloadChaosConfig, OverloadChaosHarness
from repro.chaos.rebalance import RebalanceChaosConfig, RebalanceChaosHarness
from repro.chaos.schedule import ChaosEvent, generate_schedule

__all__ = [
    "CHAOS_DISK_FAULTS",
    "ChaosConfig",
    "ChaosEvent",
    "ChaosHarness",
    "InvariantChecker",
    "InvariantViolation",
    "OverloadChaosConfig",
    "OverloadChaosHarness",
    "RebalanceChaosConfig",
    "RebalanceChaosHarness",
    "generate_schedule",
    "run_chaos",
]
