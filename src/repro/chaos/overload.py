"""Overload chaos: flash crowds and slow nodes against the closed loop.

The crash/partition harness (:mod:`repro.chaos.harness`) stresses the
*fault* story; this flavour of it stresses the *load* story.  A 3-AZ
cluster runs with the full overload pipeline engaged at every node — an
:class:`~repro.core.admission.AdmissionController` in front of every
send and an :class:`~repro.core.slacontrol.SlaController` closing the
loop on a strict all-remote predicate — while a seeded schedule mixes
the classic faults with two new event kinds:

- ``flash_crowd`` multiplies one AZ's offered send rate through a
  :class:`~repro.workloads.rates.FlashCrowdShape` ramp (``flash_end``
  ends it);
- ``slow_node`` reshapes one node's links to WAN-storm latency and a
  trickle of bandwidth (``slow_heal`` restores the topology spec).

On top of invariants 1–12, the run continuously audits invariant 13
(admission accounting: nothing admitted is ever shed, offered work is
conserved) and asserts invariant 14 at quiescence (every controller
walked back to the pristine predicate and no local send is left
uncovered).  Deterministic per seed, like every chaos run;
:func:`~repro.chaos.harness.run_chaos` runs it when handed an
:class:`OverloadChaosConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.chaos.harness import BaseChaosConfig, BaseChaosHarness, sum_stats
from repro.chaos.schedule import ChaosEvent
from repro.core.cluster import StabilizerCluster
from repro.core.slacontrol import SlaController
from repro.net.tc import NetemSpec
from repro.workloads.rates import FlashCrowdShape

SLA_KEY = "sla_strict"
SLA_SOURCE = "MIN($ALLWNODES - $MYWNODE)"


@dataclass(kw_only=True)
class OverloadChaosConfig(BaseChaosConfig):
    """Knobs for one overload chaos run (3 AZ × 2 nodes by default)."""

    events: int = 10
    flash_crowds: int = 1
    slow_nodes: int = 1
    send_interval_s: float = 0.1
    payload_bytes: int = 512
    admit_rate_per_s: float = 15.0
    queue_limit: int = 64
    shed_policy: str = "reject_new"
    target_p99_s: float = 0.5
    controller_interval_s: float = 0.2
    controller_cooldown_s: float = 0.6
    healthy_ticks: int = 3
    crowd_multiplier: float = 10.0
    crowd_ramp_s: float = 0.5
    slow_latency_ms: float = 250.0
    slow_rate_mbit: float = 1.0
    waiter_every: int = 7


class OverloadChaosHarness(BaseChaosHarness):
    """See module docstring."""

    config_class = OverloadChaosConfig
    SEND_SALT = 0x0F1A5
    DUMP_PREFIX = "overload"
    waiter_keys = (SLA_KEY,)
    #: The active flash crowd: (AZ name, rate-multiplier shape).
    _crowd: Optional[Tuple[str, FlashCrowdShape]] = None

    def _schedule_options(self) -> dict:
        return {
            "flash_crowds": self.config.flash_crowds,
            "slow_nodes": self.config.slow_nodes,
        }

    def _build_cluster(self) -> StabilizerCluster:
        self.admission: Dict[str, object] = {}
        self.sla: Dict[str, SlaController] = {}
        base = self._stabilizer_config(
            predicates={SLA_KEY: SLA_SOURCE},
            window_bytes=8 * 1024,
            frame_bytes=2 * 1024,
            frame_delay_ms=2.0,
        )
        return StabilizerCluster(self.net, base, tracer=self.tracer)

    def _arm_node(self, node) -> None:
        """Install the full overload pipeline on one (re)built node."""
        super()._arm_node(node)
        controller = node.set_admission(
            rate_per_s=self.config.admit_rate_per_s,
            queue_limit=self.config.queue_limit,
            shed_policy=self.config.shed_policy,
        )
        controller.on_admitted(
            lambda seq, shard, name=node.name: self.checker.note_sent(
                name, seq, shard if shard is not None else 0
            )
        )
        self.admission[node.name] = controller
        self.sla[node.name] = SlaController(
            node,
            SLA_KEY,
            self.config.target_p99_s,
            interval_s=self.config.controller_interval_s,
            cooldown_s=self.config.controller_cooldown_s,
            healthy_ticks=self.config.healthy_ticks,
        )

    # -- traffic -----------------------------------------------------------------
    def _send_interval(self, name: str) -> float:
        multiplier = 1.0
        if self._crowd is not None and name in self.groups[self._crowd[0]]:
            multiplier = self._crowd[1].rate_at(self.sim.now)
        return self.config.send_interval_s / multiplier

    def _send(self, name: str):
        outcome = self.admission[name].submit(self._payload())
        # note_sent rides the on_admitted hook — queued entries count
        # only when the pump actually sends them, shed ones never.
        if outcome.status != "sent":
            return None
        return self.cluster[name], outcome.seq, None

    # -- fault execution -----------------------------------------------------------
    def _event_handlers(self) -> Dict[str, Callable[..., None]]:
        slow = NetemSpec(
            latency_ms=self.config.slow_latency_ms,
            rate_mbit=self.config.slow_rate_mbit,
        )
        return {
            **super()._event_handlers(),
            "flash_crowd": self._flash_crowd,
            "flash_end": self._flash_end,
            "slow_node": lambda name: self._set_link_spec(name, slow),
            "slow_heal": lambda name: self._set_link_spec(name, None),
        }

    def _fire(self, event: ChaosEvent) -> None:
        super()._fire(event)
        self.checker.check_admission(sorted(self.admission.items()))

    def _crash_node(self, name: str, node) -> None:
        self.sla.pop(name).close()
        self.admission.pop(name)  # node.crash() closes it
        node.crash()

    def _restarted(self, node) -> None:
        # A controller may have died mid-degradation; the snapshot
        # then restores a relaxed source.  A restarted node rejoins
        # at strict — the fresh controller owns the walk from here.
        node.change_predicate(SLA_KEY, SLA_SOURCE)
        super()._restarted(node)

    def _flash_crowd(self, az: str) -> None:
        self._crowd = (
            az,
            FlashCrowdShape(
                base_rate=1.0,
                peak_rate=self.config.crowd_multiplier,
                t0=self.sim.now,
                ramp_s=self.config.crowd_ramp_s,
                # Held until the schedule's flash_end clears it.
                hold_s=self._traffic_end(),
                decay_s=self.config.crowd_ramp_s,
            ),
        )

    def _flash_end(self) -> None:
        self._crowd = None

    def _set_link_spec(self, name: str, spec: Optional[NetemSpec]) -> None:
        """Reshape every link touching ``name`` — to ``spec``, or back to
        the topology's own spec when ``spec`` is None."""
        for peer in self.node_names:
            if peer == name:
                continue
            for src, dst in ((name, peer), (peer, name)):
                chosen = spec or self.topo.link_spec(src, dst)
                self.net.link(src, dst).reshape(
                    latency_s=chosen.latency_s,
                    bandwidth_bps=chosen.bandwidth_bps,
                )

    # -- the run -------------------------------------------------------------------
    def _quiescent(self) -> bool:
        # Delivery everywhere, admission queues drained, and the
        # controllers' restore path given enough calm ticks to walk the
        # predicates back to strict.
        if not super()._quiescent():
            return False
        if any(c.queue_depth() for c in self.admission.values()):
            return False
        return all(
            c.restored()
            and c.stabilizer.stability.oldest_pending_age(SLA_KEY) == 0.0
            for c in self.sla.values()
        )

    def _final_checks(self) -> None:
        self.checker.check_admission(sorted(self.admission.items()))
        self.checker.check_sla_restoration(sorted(self.sla.items()))

    def _report_extras(self, elapsed_s: float) -> dict:
        return {
            "nodes": len(self.node_names),
            "admission": sum_stats(c.stats() for c in self.admission.values()),
            "slacontrol": {
                name: ctrl.stats() for name, ctrl in sorted(self.sla.items())
            },
            "max_degrade_steps": max(
                (
                    ctrl.stats()["slacontrol.degrade_steps"]
                    for ctrl in self.sla.values()
                ),
                default=0,
            ),
            "restored": all(c.restored() for c in self.sla.values()),
        }

    def close(self) -> None:
        for controller in self.sla.values():
            controller.close()
        super().close()
