"""Per-layer attribution of a traced run, measured from outside ``src/``.

The tracer never edits the simulator.  It patches, in the traced process
only, the public functions where one layer calls into another, and
installs a ``Simulator.dispatch_trace`` hook that swaps each event's
callback for a timing wrapper just before the engine fires it.  Every
patched call and every event callback becomes a span; a span's *self
time* is its duration minus the part its child spans cover, and self
times summed per layer say where the host time went.

Layers are the ``repro`` packages: an event callback or a thread resume
belongs to the package its code lives in.

Spans are aggregated in memory as they close (per-event spans would be
millions); the coarse ones (cells, scenario builds, warm-ups, simulator
runs) are also kept individually and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("sim", "guest", "hypervisor", "core", "workloads", "experiments", "parallel")
OTHER = "other"

#: Public functions wrapped for child spans: (module, class, method, span
#: name, layer).  The span name doubles as the call counter.
BOUNDARIES = (
    ("repro.hypervisor.machine", "Machine", "hyp_send_ipi", "hypervisor.send_ipi", "hypervisor"),
    ("repro.hypervisor.machine", "Machine", "vcpu_context_entered",
     "hypervisor.context_entered", "hypervisor"),
    ("repro.hypervisor.machine", "Machine", "hyp_read_extendability", "core.channel_read", "core"),
    # Downcalls from the hypervisor into the guest kernel: without them,
    # guest work triggered by a context switch would count as hypervisor.
    ("repro.guest.kernel", "GuestKernel", "vcpu_started", "guest.vcpu_started", "guest"),
    ("repro.guest.kernel", "GuestKernel", "vcpu_stopped", "guest.vcpu_stopped", "guest"),
    ("repro.guest.kernel", "GuestKernel", "deliver_irq", "guest.deliver_irq", "guest"),
    ("repro.core.extendability", "VScaleExtension", "recompute", "core.recompute", "core"),
    ("repro.core.balancer", "VScaleBalancer", "freeze", "core.freeze", "core"),
    ("repro.core.balancer", "VScaleBalancer", "unfreeze", "core.unfreeze", "core"),
    ("repro.experiments.setups", "ScenarioBuilder", "build", "experiments.build", "experiments"),
    ("repro.parallel.executor", "ParallelExecutor", "run_cells", "parallel.run_cells", "parallel"),
    ("repro.parallel.executor", "CellSpec", "key", "parallel.key", "parallel"),
    ("repro.parallel.cache", "ResultCache", "put", "parallel.cache_put", "parallel"),
)
#: Scheduler entry points, wrapped on every class of the registry that
#: defines them (the policies override them without calling super()).
SCHEDULER_METHODS = (
    ("schedule", "hypervisor.schedule"),
    ("vcpu_wake", "hypervisor.wake"),
    ("vcpu_block", "hypervisor.block"),
    ("accounting_batch", "hypervisor.accounting_batch"),
)
#: Where a cell starts: the executor's per-cell call, and the host
#: experiment that runs as one call without the executor.
CELL_ENTRIES = (
    ("repro.parallel.executor", "_invoke"),
    ("repro.experiments.decentralization", "run"),
)
#: Spans also kept one by one, for the span file.
KEPT = {"cell", "experiments.build", "experiments.warmup", "experiments.scenario_run",
            "sim.run", "parallel.run_cells", "workload"}


def layer_of_module(module: str | None) -> str:
    """``repro.<package>...`` -> the package, when it is a layer."""
    if module and module.startswith("repro."):
        package = module.split(".", 2)[1]
        if package in LAYERS:
            return package
    return OTHER


def callback_module(fn: Any) -> str | None:
    """The module whose code runs when ``fn`` is called.

    Unwraps ``functools.partial`` and bound methods; a generator resolves
    to the module of its frame (its code's globals), so a thread resume
    is classified by the behaviour that yields, not by the generator
    type.  Other callables fall back to their class's module.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    frame = getattr(fn, "gi_frame", None)
    if frame is not None:
        return frame.f_globals.get("__name__")
    module = getattr(fn, "__module__", None)
    if isinstance(module, str):
        return module
    owner = getattr(fn, "__self__", None)
    return type(owner if owner is not None else fn).__module__


def classify(fn: Any) -> str:
    return layer_of_module(callback_module(fn))


def code_key(fn: Any) -> Any:
    """A long-lived identity for a callback's code, to cache its layer.

    Closures and partials are created per event, so they cannot key a
    cache; the code object (or the class of a callable instance) can.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    code = getattr(fn, "__code__", None)
    return code if code is not None else type(fn)


class SpanClock:
    """Nested spans with self time = duration minus child coverage."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: Open spans: [name, layer, start_ns, child_ns, record_index].
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        #: name -> [calls, total_ns] (total counts a recursive span once
        #: per nesting level, so use it for non-recursive spans only).
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: Individually kept spans: [name, layer, start_ns, end_ns, parent].
        self.records: list[list] = []

    def enter(self, name: str, layer: str) -> None:
        index = -1
        if name in KEPT:
            parent = self._open_record()
            index = len(self.records)
            self.records.append([name, layer, 0, 0, parent])
        start = self.clock()
        if index >= 0:
            self.records[index][2] = start
        self.stack.append([name, layer, start, 0, index])

    def exit(self) -> int:
        end = self.clock()
        name, layer, start, child, index = self.stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        if self.stack:
            self.stack[-1][3] += duration
        if index >= 0:
            self.records[index][3] = end
        return duration

    def _open_record(self) -> int:
        for frame in reversed(self.stack):
            if frame[4] >= 0:
                return frame[4]
        return -1

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def seconds(self, name: str) -> float:
        return self.totals[name][1] / 1e9 if name in self.totals else 0.0


class _TimedBehaviour:
    """Stands in for a thread's behaviour generator; times each resume.

    The guest kernel only ever calls ``send`` on a behaviour.
    """

    __slots__ = ("_gen", "_layer", "_tracer")

    def __init__(self, gen, layer: str, tracer: "LayerTracer"):
        self._gen = gen
        self._layer = layer
        self._tracer = tracer

    def send(self, value):
        tracer = self._tracer
        tracer.spans.enter(tracer.resume_span[self._layer], self._layer)
        try:
            return self._gen.send(value)
        finally:
            tracer.spans.exit()


class LayerTracer:
    """Installs the patches and turns the spans into per-layer metrics."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.spans = SpanClock(clock)
        self.events: dict[str, int] = defaultdict(int)
        self.tick_events = 0
        self.cancelled = 0
        self.resume_span = {layer: f"{layer}.resume" for layer in LAYERS + (OTHER,)}
        self._layer_cache: dict[Any, str] = {}
        self._pending: Any = None
        self._guest_tick: Any = None
        #: Per simulator: [events scheduled, final clock ns].
        self._sims: "weakref.WeakKeyDictionary[Any, list[int]]" = weakref.WeakKeyDictionary()
        self._sim_totals: list[list[int]] = []
        #: Per guest kernel: its timer-interrupt and sent-IPI counter lists
        #: (the kernel itself is not kept alive).
        self._kernel_counters: list[tuple[list, list]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def dispatch_hook(self, sim, event) -> None:
        """``sim.dispatch_trace``: route the callback through ``_timed``."""
        self._pending = event.fn
        event.fn = self._timed

    def _timed(self, *args) -> None:
        fn = self._pending
        key = code_key(fn)
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = self._layer_cache[key] = classify(fn)
        self.events[layer] += 1
        if key is self._guest_tick:
            self.tick_events += 1
        spans = self.spans
        spans.enter("event", layer)
        try:
            fn(*args)
        finally:
            spans.exit()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str, layer: str) -> None:
        original = owner.__dict__[attr]
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spans.enter(name, layer)
            try:
                return original(*args, **kwargs)
            finally:
                spans.exit()

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        import importlib

        from repro.experiments.setups import Scenario
        from repro.guest.kernel import GuestKernel
        from repro.hypervisor.schedulers import base as sched_base
        from repro.sim.engine import Event, Simulator

        for module, cls, method, name, layer in BOUNDARIES:
            owner = getattr(importlib.import_module(module), cls)
            self._wrap(owner, method, name, layer)
        importlib.import_module("repro.hypervisor.schedulers")  # fills the registry
        todo = [sched_base.Scheduler]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for method, name in SCHEDULER_METHODS:
                if method in cls.__dict__:
                    self._wrap(cls, method, name, "hypervisor")
        self._guest_tick = GuestKernel.__dict__["_tick"].__code__
        tracer = self
        spans = self.spans

        sim_init = Simulator.__dict__["__init__"]
        sim_run = Simulator.__dict__["run"]

        def init_simulator(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            sim.dispatch_trace = tracer.dispatch_hook
            state = [0, 0]
            tracer._sims[sim] = state
            tracer._sim_totals.append(state)

        def run_simulator(sim, *args, **kwargs):
            spans.enter("sim.run", "sim")
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                spans.exit()
                state = tracer._sims.get(sim)
                if state is not None:
                    state[0] = sim._seq
                    state[1] = sim.now

        self._patch(Simulator, "__init__", init_simulator)
        self._patch(Simulator, "run", functools.wraps(sim_run)(run_simulator))

        event_cancel = Event.__dict__["cancel"]

        def cancel(event):
            if not event.cancelled:
                tracer.cancelled += 1
            event_cancel(event)

        self._patch(Event, "cancel", cancel)

        kernel_init = GuestKernel.__dict__["__init__"]

        def init_kernel(kernel, *args, **kwargs):
            kernel_init(kernel, *args, **kwargs)
            tracer._kernel_counters.append((kernel.timer_interrupts, kernel.ipi_sent))

        self._patch(GuestKernel, "__init__", init_kernel)

        kernel_spawn = GuestKernel.__dict__["spawn"]

        def spawn(kernel, behavior, *args, **kwargs):
            timed = _TimedBehaviour(behavior, classify(behavior), tracer)
            return kernel_spawn(kernel, timed, *args, **kwargs)

        self._patch(GuestKernel, "spawn", spawn)

        scenario_run = Scenario.__dict__["run"]

        def run_scenario(scenario, until_ns):
            # A scenario's first run from t=0 is its warm-up (the 2 s of
            # background load every NPB/PARSEC/Apache cell simulates
            # before launching its application).
            warmup = scenario.machine.sim.now == 0
            spans.enter("experiments.warmup" if warmup else "experiments.scenario_run",
                        "experiments")
            try:
                return scenario_run(scenario, until_ns)
            finally:
                spans.exit()

        self._patch(Scenario, "run", run_scenario)

        for module, function in CELL_ENTRIES:
            self._wrap(importlib.import_module(module), function, "cell", "experiments")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a traced run whose root span took ``wall_s``."""
        spans = self.spans
        self_s = {layer: spans.self_ns.get(layer, 0) / 1e9 for layer in LAYERS + (OTHER,)}
        ticks = sum(int(c) for counters, _ in self._kernel_counters for c in counters)
        ipis = sum(int(c) for _, counters in self._kernel_counters for c in counters)
        scheduled = sum(state[0] for state in self._sim_totals)
        sim_ns = sum(state[1] for state in self._sim_totals)
        dispatched = sum(self.events.values())
        reads = spans.calls("core.channel_read")
        freezes = spans.calls("core.freeze")
        unfreezes = spans.calls("core.unfreeze")
        warmup = spans.seconds("experiments.warmup")
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS + (OTHER,)}
        out.update({
            "experiments.build_s": spans.seconds("experiments.build"),
            "experiments.warmup_s": warmup,
            "experiments.warmup_frac": warmup / wall_s if wall_s else 0.0,
            "parallel.key_s": spans.seconds("parallel.key"),
            "parallel.cache_put_s": spans.seconds("parallel.cache_put"),
            "guest.events": self.events.get("guest", 0),
            "guest.tick_events": self.tick_events,
            "guest.ticks_total": ticks,
            "guest.tick_fold_ratio": ticks / self.tick_events if self.tick_events else 0.0,
            "guest.ipis_sent": ipis,
            "hypervisor.events": self.events.get("hypervisor", 0),
            "hypervisor.schedule_calls": spans.calls("hypervisor.schedule"),
            "hypervisor.wakes": spans.calls("hypervisor.wake"),
            "hypervisor.context_switches": spans.calls("hypervisor.context_entered"),
            "hypervisor.accounting_s": spans.seconds("hypervisor.accounting_batch"),
            "core.channel_reads": reads,
            "core.recomputes": spans.calls("core.recompute"),
            "core.recompute_s": spans.seconds("core.recompute"),
            "core.freezes": freezes,
            "core.unfreezes": unfreezes,
            "core.reconfig_per_read": (freezes + unfreezes) / reads if reads else 0.0,
            "workloads.resumes": spans.calls("workloads.resume"),
            "sim.events_scheduled": scheduled,
            "sim.events_dispatched": dispatched,
            "sim.events_cancelled": self.cancelled,
            "sim.sim_s": sim_ns / 1e9,
            "sim.ns_per_event": spans.totals["sim.run"][1] / dispatched if dispatched else 0.0,
            "bench.attributed_frac": (sum(self_s[layer] for layer in LAYERS) / wall_s
                                      if wall_s else 0.0),
        })
        return out

    def dump(self, path: str) -> None:
        """Write the individually kept spans and the per-name totals."""
        with open(path, "w") as fh:
            for name, layer, start, end, parent in self.spans.records:
                fh.write(json.dumps({"name": name, "layer": layer, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"totals": {k: v for k, v in self.spans.totals.items()}}) + "\n")
