"""Per-layer tracing from outside the program.

:class:`Recorder` patches the public entry points of every layer of
``repro`` (class attributes, restored on exit) and the public callback
registration points (``Simulator.call_at``/``call_later``,
``Host.bind``, ``FifoChannel.on_deliver``), and records one span per
call in memory: name, start, end and parent.  A span's *self time* is
its duration minus the time covered by its child spans and by garbage
collection (seen through ``gc.callbacks``); self times are summed per
layer.  The benchmark's own code runs in the ``harness`` layer, so the
layer self times plus ``gc`` account for the whole traced wall time.

The same patches carry the layer-sensitivity injections of the
benchmark's self-test: *stretching* a layer (every span of the layer
busy-waits a fixed multiple of its own self time, so the layer runs
that much slower wherever it runs) and *pausing* one (a fixed sleep
added to every call of its entry points, with no tracing).
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import importlib
import pstats
import statistics
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Every layer the trace reports, in stack order.
LAYERS = (
    "harness",
    "gc",
    "sim",
    "net",
    "transport",
    "core.dataplane",
    "core.strategy",
    "core.frontier",
    "dsl",
    "core.durability",
    "core.sharding",
    "core.recovery",
    "core.stabilizer",
    "obs",
)

# (module prefix, layer): first match wins.  A prefix matches the module
# itself, its submodules and its ``_``-suffixed siblings
# (``repro.core.strategy`` covers ``repro.core.strategy_hybrid``).
_MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.transport", "transport"),
    ("repro.core.dataplane", "core.dataplane"),
    ("repro.core.controlplane", "core.strategy"),
    ("repro.core.strategy", "core.strategy"),
    ("repro.core.acks", "core.strategy"),
    ("repro.core.frontier", "core.frontier"),
    ("repro.dsl", "dsl"),
    ("repro.core.durability", "core.durability"),
    ("repro.storage", "core.durability"),
    ("repro.core.sharding", "core.sharding"),
    ("repro.core.membership", "core.sharding"),
    ("repro.core.rebalance", "core.sharding"),
    ("repro.core.recovery", "core.recovery"),
    ("repro.obs", "obs"),
    ("repro", "core.stabilizer"),
)


def layer_of_module(module: str, qualname: str = "") -> str:
    """The layer that owns code defined in ``module``."""
    if qualname.startswith("FailureDetector"):
        # Lives in core.membership but is the per-stack liveness timer.
        return "core.stabilizer"
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith((prefix + ".", prefix + "_")):
            return layer
    return "harness"


#: (module, class, method, layer) — the wrapped public entry points.
#: ``None`` takes the layer from the module.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.sim.kernel", "Simulator", "step", None),
    ("repro.net.topology", "Network", "send", None),
    ("repro.net.link", "Link", "transmit", None),
    ("repro.net.host", "Host", "deliver", None),
    ("repro.transport.fifo", "FifoChannel", "send", None),
    ("repro.transport.chunker", "FrameBuilder", "add", None),
    ("repro.transport.chunker", "Reassembler", "feed", None),
    ("repro.core.dataplane", "DataPlane", "send", None),
    ("repro.core.controlplane", "ControlPlane", "flush", None),
    ("repro.core.strategy", "StabilizationStrategy", "on_control_frame", None),
    ("repro.core.strategy", "StabilizationStrategy", "on_remote_deliver", None),
    ("repro.core.frontier", "FrontierEngine", "reevaluate", None),
    ("repro.core.frontier", "FrontierEngine", "add_waiter", None),
    ("repro.dsl.compiler", "CompiledPredicate", "evaluate", None),
    ("repro.dsl.compiler", "PredicateCompiler", "compile", None),
    ("repro.core.durability", "DurabilityManager", "__init__", None),
    ("repro.core.durability", "DurabilityManager", "append", None),
    ("repro.storage.log", "AppendLog", "append", None),
    ("repro.storage.log", "AppendLog", "sync", None),
    ("repro.core.stabilizer", "Stabilizer", "send", None),
    ("repro.core.stabilizer", "Stabilizer", "waitfor", None),
    ("repro.core.sharding", "ShardedStabilizer", "send", None),
    ("repro.core.sharding", "ShardedStabilizer", "waitfor", None),
    ("repro.core.sharding", "ShardedCluster", "restart_node", "core.recovery"),
    ("repro.obs.stability", "StabilityInstruments", "note_send", None),
    ("repro.obs.stability", "StabilityInstruments", "on_advance", None),
)


def _resolve(module: str, cls: str):
    return getattr(importlib.import_module(module), cls)


class Recorder:
    """In-memory span recorder and injector; see module docstring.

    ``stretch`` maps a layer to the multiple of its self time each of its
    spans busy-waits.  ``trace=False`` records nothing and installs only
    the ``pause`` wrappers: layer -> seconds of ``time.sleep`` added to
    every call of the layer's entry points.
    """

    def __init__(self, trace: bool = True, keep_spans: bool = True,
                 stretch: Optional[Dict[str, float]] = None,
                 pause: Optional[Dict[str, float]] = None):
        self.trace = trace
        self.keep_spans = keep_spans and trace
        self.stretch = dict(stretch or {})
        self.pause = dict(pause or {})
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.entry_names: List[str] = []
        self._entry_ids: Dict[str, int] = {}
        self.entry_calls: List[int] = []
        self.entry_self_s: List[float] = []
        # Spans, one slot per call: name id, start, end, parent index.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # Open frames: [span index, start, covered-by-children seconds].
        self._stack: List[list] = []
        self.gc_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0
        self.phase_wall: Dict[str, float] = {}
        self.phase_self: Dict[str, List[float]] = {}
        self.phase_gc: Dict[str, float] = {}
        #: Virtual queueing delay seen by each Link.transmit (seconds).
        self.queue_wait = array("d")
        self.reevaluations = 0
        self.advancing_reevaluations = 0
        self.frontier_advances = 0
        self.replay_s = 0.0
        self._restarting = False
        self._patches: List[Tuple[object, str, object]] = []
        self._callback_ids: Dict[object, Tuple[int, int]] = {}

    # -- bookkeeping ------------------------------------------------------------
    def entry_id(self, name: str) -> int:
        eid = self._entry_ids.get(name)
        if eid is None:
            eid = self._entry_ids[name] = len(self.entry_names)
            self.entry_names.append(name)
            self.entry_calls.append(0)
            self.entry_self_s.append(0.0)
        return eid

    def _callback_ids_for(self, fn) -> Tuple[int, int]:
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None) or func
        ids = self._callback_ids.get(key)
        if ids is None:
            module = getattr(func, "__module__", None) or ""
            qualname = getattr(func, "__qualname__", None) or type(fn).__name__
            layer = layer_of_module(module, qualname)
            ids = (self.entry_id(f"{layer}:{qualname}"), self.layer_index[layer])
            self._callback_ids[key] = ids
        return ids

    def _make_span_wrapper(self, fn, eid: int, lid: int):
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.entry_calls
        entry_self = self.entry_self_s
        keep = self.keep_spans
        factor = self.stretch.get(LAYERS[lid], 0.0)
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )

        def wrapper(*args, **kwargs):
            start = perf()
            if keep:
                index = len(starts)
                names.append(eid)
                starts.append(start)
                ends.append(0.0)
                parents.append(stack[-1][0] if stack else -1)
            else:
                index = -1
            frame = [index, start, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                if factor:
                    until = end + factor * (end - start - frame[2])
                    while end < until:
                        end = perf()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                self_s[lid] += own
                calls[eid] += 1
                entry_self[eid] += own
                if keep:
                    ends[index] = end
                if stack:
                    stack[-1][2] += duration

        return wrapper

    @staticmethod
    def _make_pause_wrapper(fn, nap: float):
        def wrapper(*args, **kwargs):
            time.sleep(nap)
            return fn(*args, **kwargs)

        return wrapper

    def wrap_callback(self, fn):
        """Wrap a callback handed to a registration point in a span of
        the layer that defined it."""
        if fn is None or getattr(fn, "_perfbench_wrapped", False):
            return fn
        eid, lid = self._callback_ids_for(fn)
        wrapper = self._make_span_wrapper(fn, eid, lid)
        wrapper._perfbench_wrapped = True
        return wrapper

    # -- patching -----------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, cls_name, method, layer in ENTRY_POINTS:
            cls = _resolve(module, cls_name)
            original = cls.__dict__[method]
            layer = layer or layer_of_module(module, cls_name)
            if not self.trace:
                if layer in self.pause:
                    self._patch(cls, method, self._make_pause_wrapper(original, self.pause[layer]))
                continue
            eid = self.entry_id(f"{cls_name}.{method}")
            wrapper = self._make_span_wrapper(original, eid, self.layer_index[layer])
            if (cls_name, method) == ("Link", "transmit"):
                wrapper = self._queue_probe(wrapper)
            elif (cls_name, method) == ("FrontierEngine", "reevaluate"):
                wrapper = self._advance_probe(wrapper)
            elif (cls_name, method) == ("ShardedCluster", "restart_node"):
                wrapper = self._restart_probe(wrapper)
            elif (cls_name, method) == ("DurabilityManager", "__init__"):
                wrapper = self._replay_probe(wrapper)
            self._patch(cls, method, wrapper)
        if not self.trace:
            return
        self._patch_registration_points()
        gc.callbacks.append(self._on_gc)

    def _queue_probe(self, wrapper):
        waits = self.queue_wait

        def transmit(link, packet, deliver):
            waits.append(link.queueing_delay())
            return wrapper(link, packet, deliver)

        return transmit

    def _advance_probe(self, wrapper):
        recorder = self

        def reevaluate(engine, *args, **kwargs):
            before = recorder.frontier_advances
            try:
                return wrapper(engine, *args, **kwargs)
            finally:
                recorder.reevaluations += 1
                if recorder.frontier_advances != before:
                    recorder.advancing_reevaluations += 1

        return reevaluate

    def _restart_probe(self, wrapper):
        recorder = self

        def restart_node(cluster, *args, **kwargs):
            recorder._restarting = True
            try:
                return wrapper(cluster, *args, **kwargs)
            finally:
                recorder._restarting = False

        return restart_node

    def _replay_probe(self, wrapper):
        """Time WAL recovery: the DurabilityManager constructions that
        happen inside ``restart_node``."""
        recorder = self

        def init(manager, *args, **kwargs):
            if not recorder._restarting:
                return wrapper(manager, *args, **kwargs)
            started = time.perf_counter()
            try:
                return wrapper(manager, *args, **kwargs)
            finally:
                recorder.replay_s += time.perf_counter() - started

        return init

    def _patch_registration_points(self) -> None:
        recorder = self
        simulator = _resolve("repro.sim.kernel", "Simulator")
        call_at = simulator.__dict__["call_at"]
        call_later = simulator.__dict__["call_later"]
        sim_layer = self.layer_index["sim"]
        # Scheduling is itself a sim entry point: its heap work (and the
        # callback wrapping) lands in ``sim``, as cProfile would put it.
        self._patch(simulator, "call_at", self._make_span_wrapper(
            lambda sim, t, fn, *args: call_at(sim, t, recorder.wrap_callback(fn), *args),
            self.entry_id("Simulator.call_at"), sim_layer))
        self._patch(simulator, "call_later", self._make_span_wrapper(
            lambda sim, d, fn, *args: call_later(sim, d, recorder.wrap_callback(fn), *args),
            self.entry_id("Simulator.call_later"), sim_layer))
        host = _resolve("repro.net.host", "Host")
        bind = host.__dict__["bind"]
        self._patch(host, "bind",
                    lambda h, port, handler: bind(h, port, recorder.wrap_callback(handler)))

        fifo = _resolve("repro.transport.fifo", "FifoChannel")
        self._patch(fifo, "on_deliver", property(
            lambda chan: chan.__dict__.get("_perfbench_on_deliver"),
            lambda chan, fn: chan.__dict__.__setitem__(
                "_perfbench_on_deliver", recorder.wrap_callback(fn)),
        ))

        def counted(fn):
            if fn is None:
                return None

            def on_advance(*args):
                recorder.frontier_advances += 1
                return fn(*args)

            return on_advance

        engine = _resolve("repro.core.frontier", "FrontierEngine")
        self._patch(engine, "on_advance", property(
            lambda eng: eng.__dict__.get("_perfbench_on_advance"),
            lambda eng, fn: eng.__dict__.__setitem__("_perfbench_on_advance", counted(fn)),
        ))

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Recorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if not self._stack:
            return
        pause = time.perf_counter() - self._gc_started
        self.gc_s += pause
        self.gc_collections[info.get("generation", 0)] += 1
        self._stack[-1][2] += pause

    # -- phases -------------------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A root ``harness`` span around one phase of an episode."""
        if not self.trace:
            yield
            return
        before = list(self.self_s)
        gc_before = self.gc_s
        started = time.perf_counter()
        frame = [-1, started, 0.0]
        if self.keep_spans:
            frame[0] = len(self.span_start)
            self.span_name.append(self.entry_id(f"phase:{name}"))
            self.span_start.append(started)
            self.span_end.append(0.0)
            self.span_parent.append(-1)
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - started
            self.self_s[self.layer_index["harness"]] += duration - frame[2]
            if self.keep_spans:
                self.span_end[frame[0]] = end
            self.phase_wall[name] = self.phase_wall.get(name, 0.0) + duration
            acc = self.phase_self.setdefault(name, [0.0] * len(LAYERS))
            for i, value in enumerate(self.self_s):
                acc[i] += value - before[i]
            self.phase_gc[name] = self.phase_gc.get(name, 0.0) + self.gc_s - gc_before

    # -- results --------------------------------------------------------------------
    def phase_shares(self, name: str) -> Dict[str, float]:
        """Self-time share of each layer (and gc) in phase ``name``."""
        wall = self.phase_wall.get(name, 0.0)
        shares = {layer: 0.0 for layer in LAYERS}
        if not wall:
            return shares
        for layer, seconds in zip(LAYERS, self.phase_self.get(name, [])):
            shares[layer] = seconds / wall
        shares["gc"] = self.phase_gc.get(name, 0.0) / wall
        return shares

    def accounting_gap(self, name: str, wall: float) -> float:
        """|layer self times + gc in phase ``name`` - ``wall``| / ``wall``,
        where ``wall`` is the phase's duration timed outside the trace."""
        if not wall:
            return 0.0
        covered = sum(self.phase_self.get(name, [])) + self.phase_gc.get(name, 0.0)
        return abs(covered - wall) / wall

    def calls(self, entry: str) -> int:
        eid = self._entry_ids.get(entry)
        return self.entry_calls[eid] if eid is not None else 0

    def entry_self(self, entry: str) -> float:
        eid = self._entry_ids.get(entry)
        return self.entry_self_s[eid] if eid is not None else 0.0

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans: a names file and four raw arrays
        (``int32`` name ids, ``float64`` starts and ends, ``int32``
        parent indices, native byte order)."""
        path.mkdir(parents=True, exist_ok=True)
        (path / "names.txt").write_text("\n".join(self.entry_names) + "\n")
        for field in ("span_name", "span_start", "span_end", "span_parent"):
            with open(path / f"{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)


_MISSING = object()


class PhaseProfiler:
    """cProfile over the ``run`` phase of an episode, grouped by layer."""

    def __init__(self):
        self.profile = cProfile.Profile()

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if name != "run":
            yield
            return
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def shares(self, source_root: Path) -> Dict[str, float]:
        """Self-time share of each layer.

        A function's layer comes from its module: files under
        ``source_root`` are ``repro.*``, the benchmark's own files are
        ``harness``.  Other code (built-ins, the standard library, the
        DSL's generated predicate functions) belongs to no layer, so its
        self time goes to its callers' layers in proportion to the time
        it spent under each caller.
        """
        stats = pstats.Stats(self.profile).stats
        root = source_root.resolve()
        here = Path(__file__).resolve().parent
        detector_file, detector_lines = _detector_lines()
        by_file: Dict[str, Optional[str]] = {}

        def own_layer(func) -> Optional[str]:
            filename = func[0]
            if filename not in by_file:
                path = Path(filename)
                found = None
                if path.is_absolute() and path.exists():
                    path = path.resolve()
                    if root in path.parents:
                        module = ".".join(path.relative_to(root).with_suffix("").parts)
                        found = layer_of_module(module)
                    elif here in path.parents:
                        found = "harness"
                by_file[filename] = found
            found = by_file[filename]
            if filename == detector_file and func[1] in detector_lines:
                return "core.stabilizer"
            return found

        resolved: Dict[tuple, Dict[str, float]] = {}

        def owners(func, seen=()) -> Dict[str, float]:
            layer = own_layer(func)
            if layer is not None:
                return {layer: 1.0}
            if func in resolved:
                return resolved[func]
            callers = stats[func][4] if func in stats else {}
            weights = {c: e[2] for c, e in callers.items() if c not in seen}
            total = sum(weights.values())
            if not total:
                weights = {c: float(e[1]) for c, e in callers.items() if c not in seen}
                total = sum(weights.values())
            dist: Dict[str, float] = {}
            if not total:
                dist = {"harness": 1.0}
            else:
                for caller, weight in weights.items():
                    for layer, part in owners(caller, seen + (func,)).items():
                        dist[layer] = dist.get(layer, 0.0) + part * weight / total
            resolved[func] = dist
            return dist

        totals = {name: 0.0 for name in LAYERS}
        for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
            for layer, part in owners(func).items():
                totals[layer] += tottime * part
        wall = sum(totals.values())
        return {name: (seconds / wall if wall else 0.0) for name, seconds in totals.items()}


def _detector_lines() -> Tuple[str, range]:
    """Source file and line range of ``FailureDetector`` (cProfile keys
    carry no class name, only file, line and function)."""
    import inspect

    from repro.core.membership import FailureDetector

    lines, first = inspect.getsourcelines(FailureDetector)
    return inspect.getsourcefile(FailureDetector), range(first, first + len(lines))


#: Largest tolerated |layer self times + gc - traced wall| / traced wall.
ACCOUNTING_TOLERANCE = 0.02
#: Largest tolerated difference between a layer's traced self-time share
#: and its cProfile share (module grouping): the two draw the boundary
#: differently where one layer calls another's helpers directly.
CPROFILE_TOLERANCE = 0.08
#: Critical-path sampling of the program's own tracer (1 send in 64).
CRITPATH_SAMPLE_SHIFT = 6


def measure_layers(workload, seconds: float, source_root: Path, out_dir: Path):
    """The traced run: per-layer samples for every ``per_layer`` metric.

    Untraced and traced episodes alternate until ``seconds`` of measured
    time have passed (at least two of each), so host-speed drift hits
    both sides of ``obs.trace_overhead_frac`` alike.  The untraced ones
    also give the wall times of single calls (``restart_node``, cluster
    construction) and the run-phase GC figures.  Then one episode runs with the
    program's own sampled tracer for ``Stabilizer.blame()``, and one
    under cProfile to cross-check the layer shares.  Returns every
    episode (for the output checks) and the metric samples.
    """
    from repro.obs.tracer import Tracer
    from workloads import percentile, run_episode

    recorder = Recorder(trace=True, keep_spans=True)
    untraced, traced = [], []
    measured = 0.0
    while measured < seconds or len(traced) < 2:
        untraced.append(run_episode(workload))
        with recorder.installed():
            traced.append(run_episode(workload, recorder.phase))
        if recorder.keep_spans:
            recorder.write_spans(out_dir / f"spans-{workload.name}-{workload.seed}")
            recorder.keep_spans = False
        measured += untraced[-1].run_s + traced[-1].run_s
    critpath = run_episode(
        workload,
        tracer_factory=lambda sim: Tracer(
            clock=sim.clock, capacity=1 << 18, sample_shift=CRITPATH_SAMPLE_SHIFT
        ),
    )
    profiler = PhaseProfiler()
    profiled = run_episode(workload, profiler.phase)
    profile_shares = profiler.shares(source_root)

    episode = untraced[0]
    counters = episode.counters
    n = len(traced)
    msgs = max(episode.stable_msgs, 1)
    shares = recorder.phase_shares("run")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    untraced_rate = statistics.median([e.stable_msgs / e.run_s for e in untraced])
    traced_rate = statistics.median([e.stable_msgs / e.run_s for e in traced])
    frontier_skipped = (
        counters.get("evaluations_skipped_by_index", 0.0)
        + counters.get("evaluations_skipped_by_shortcircuit", 0.0)
    )
    transport_frames = ratio(recorder.calls("FifoChannel.send"), n)
    blame_total = sum(critpath.blame.values())
    trace_only = {k: v for k, v in shares.items() if k != "gc"}
    trace_total = sum(trace_only.values())
    cprofile_gap = max(
        abs(ratio(trace_only[layer], trace_total) - profile_shares.get(layer, 0.0))
        for layer in trace_only
    )
    route_calls = recorder.calls("ShardedStabilizer.send") + recorder.calls(
        "ShardedStabilizer.waitfor"
    )
    samples = {
        "sim.events_per_msg": ratio(recorder.calls("Simulator.step"), n * msgs),
        "sim.self_share": shares["sim"],
        "net.packets_per_msg": counters["link.packets_sent"] / msgs,
        "net.self_share": shares["net"],
        "net.queue_wait_p99_ms": percentile(list(recorder.queue_wait), 0.99) * 1e3,
        "transport.frames_per_msg": transport_frames / msgs,
        "transport.retransmit_frac": ratio(
            counters.get("transport_retransmissions", 0.0), transport_frames
        ),
        "transport.self_share": shares["transport"],
        "dataplane.msgs_per_frame": ratio(
            counters.get("dataplane.frame_messages", 0.0),
            counters.get("dataplane.frames_sent", 0.0),
        ),
        "dataplane.window_stalls": counters.get("window.stalls", 0.0),
        "dataplane.send_self_us": ratio(
            recorder.entry_self("DataPlane.send"), recorder.calls("DataPlane.send")
        ) * 1e6,
        "dataplane.self_share": shares["core.dataplane"],
        "strategy.frames_per_msg": counters.get("strategy.frames_sent", 0.0) / msgs,
        "strategy.coalesced_frac": ratio(
            counters.get("strategy.acktable.reports_coalesced", 0.0),
            counters.get("strategy.acktable.reports_sent", 0.0),
        ),
        "strategy.self_share": shares["core.strategy"],
        "frontier.evals_per_msg": counters.get("predicate_evaluations", 0.0) / msgs,
        "frontier.skip_frac": ratio(
            frontier_skipped,
            counters.get("predicate_evaluations", 0.0) + frontier_skipped,
        ),
        "frontier.advance_frac": ratio(
            recorder.advancing_reevaluations, recorder.reevaluations
        ),
        "frontier.self_share": shares["core.frontier"],
        "dsl.eval_self_share": shares["dsl"],
        "dsl.compile_ms": ratio(recorder.entry_self("PredicateCompiler.compile"), n) * 1e3,
        "durability.records_per_fsync": ratio(
            counters.get("durability.wal_appends", 0.0),
            counters.get("durability.wal_group_commits", 0.0),
        ),
        "durability.self_share": shares["core.durability"],
        "durability.replay_ms": ratio(recorder.replay_s, n) * 1e3,
        "sharding.route_self_us": ratio(
            recorder.entry_self("ShardedStabilizer.send")
            + recorder.entry_self("ShardedStabilizer.waitfor"),
            route_calls,
        ) * 1e6,
        "sharding.build_ms": statistics.median(
            [e.timed.get("sharding.build_s", 0.0) for e in untraced]
        ) * 1e3,
        "sharding.ack_cells_per_node": ratio(
            counters.get("ack_table_cells", 0.0), len(workload.names)
        ),
        "sharding.self_share": shares["core.sharding"],
        "recovery.restart_ms": statistics.median(
            [e.timed.get("recovery.restart_s", 0.0) for e in untraced]
        ) * 1e3,
        "recovery.replayed_chunks": counters.get("replayed_chunks", 0.0),
        "recovery.catchup_s": episode.virtual.get("catchup_s", 0.0),
        "stabilizer.self_share": shares["core.stabilizer"],
        "obs.self_share": shares["obs"],
        "obs.trace_overhead_frac": 1.0 - ratio(traced_rate, untraced_rate),
        "gc.pause_ms": statistics.median(e.gc_s for e in untraced) * 1e3,
        "gc.gen2_collections": statistics.median(e.gc_collections[2] for e in untraced),
        "harness.self_share": shares["harness"],
        "trace.accounting_gap": recorder.accounting_gap(
            "run", sum(e.run_s for e in traced)
        ),
        "trace.cprofile_gap": cprofile_gap,
    }
    for segment in ("network", "queueing", "fsync", "frontier_eval"):
        samples[f"critpath.{segment}_share"] = ratio(
            critpath.blame.get(segment, 0.0), blame_total
        )
    episodes = untraced + traced + [critpath, profiled]
    if samples["trace.accounting_gap"] > ACCOUNTING_TOLERANCE:
        episodes[0].violations.append(
            f"layer self times + gc miss the traced wall time by "
            f"{samples['trace.accounting_gap']:.1%}"
        )
    return episodes, {name: [value] for name, value in samples.items()}
