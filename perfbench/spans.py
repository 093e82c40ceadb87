"""Wall-clock spans around each layer's public entry points.

:func:`install` wraps the entry points listed in :data:`ENTRY_POINTS`
(and every process the simulator starts) so that a :class:`Ledger`
charges host time to layers; :func:`uninstall` puts the originals back.
Nothing inside ``repro`` is edited: the wrappers are applied from here,
to the classes and to every module that imported a wrapped function.

A span's *self time* is its duration minus the time of the spans nested
in it.  A generator entry point is timed once per resume, so a
coroutine parked on a simulated timeout costs nothing while it waits.
The ``sim`` layer is :meth:`Environment.run` itself and therefore gets
the remainder: event dispatch and callbacks outside any other span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Generator, List, Tuple

#: Layer of a generator started as a simulator process, by the file of
#: the module that defined it (first match wins).  Anything else -- the
#: benchmark's own clients and movers, the experiment scaffolding -- is
#: ``workload``.
MODULE_LAYERS = (
    ("repro/sim/", "sim"),
    ("repro/engine/dump.py", "engine.bulk"),
    ("repro/engine/", "engine"),
    ("repro/cluster/", "engine"),
    ("repro/core/propagation.py", "core.propagation"),
    ("repro/core/pipeline.py", "core.pipeline"),
    ("repro/core/watermark.py", "core.pipeline"),
    ("repro/core/scheduler.py", "core.scheduler"),
    ("repro/core/", "core.middleware"),
    ("repro/router/", "router"),
    ("repro/net/", "net"),
    ("repro/obs/", "obs"),
)

#: ``(module, owner, attribute, layer, counter)``: the entry points the
#: traced run wraps.  ``owner`` is a class name in ``module`` or ``None``
#: for a module-level function; ``counter`` (or ``None``) is the ledger
#: count bumped once per call.
ENTRY_POINTS = (
    ("repro.sim.core", "Environment", "run", "sim", None),
    ("repro.router.fleet", "RouterFleet", "submit", "router", None),
    ("repro.router.shard", "RouterShard", "handle", "router", None),
    ("repro.core.middleware", "Middleware", "submit", "core.middleware",
     "core.middleware.submits"),
    ("repro.core.middleware", "Middleware", "migrate", "core.middleware",
     None),
    ("repro.core.scheduler", "MigrationScheduler", "run",
     "core.scheduler", None),
    ("repro.engine.session", "Session", "execute", "engine", None),
    ("repro.engine.instance", "DbmsInstance", "execute", "engine",
     "engine.statements"),
    ("repro.engine.instance", "DbmsInstance", "commit", "engine", None),
    ("repro.engine.sqlmini", None, "parse", "engine.parse", None),
    ("repro.engine.dump", None, "dump", "engine.bulk", None),
    ("repro.engine.dump", None, "restore", "engine.bulk", None),
    ("repro.engine.dump", None, "dump_stream", "engine.bulk", None),
    ("repro.engine.dump", None, "restore_stream", "engine.bulk", None),
    ("repro.engine.dump", None, "watermark_select", "engine.bulk", None),
    ("repro.engine.dump", None, "finalize_indexes", "engine.bulk", None),
    ("repro.core.theory", None, "states_equal", "core.verify", None),
    ("repro.net.network", "Network", "message", "net", None),
    ("repro.net.network", "Network", "round_trip", "net", None),
    ("repro.net.network", "Network", "bulk_transfer", "net",
     "net.chunks_shipped"),
    ("repro.net.network", "Network", "pump_chunks", "net", None),
) + tuple(
    ("repro.obs.trace", "Tracer", name, "obs", "obs.calls")
    for name in ("start", "finish", "phase", "span", "event")
) + tuple(
    ("repro.obs.metrics", "MetricsRegistry", name, "obs", "obs.calls")
    for name in ("counter", "gauge", "histogram", "quantile_histogram",
                 "get", "snapshot", "gauge_value", "absorb")
) + tuple(
    ("repro.obs.metrics", owner, name, "obs", "obs.calls")
    for owner, name in (("Counter", "inc"), ("Gauge", "set"),
                        ("Gauge", "inc"), ("Gauge", "dec"),
                        ("Histogram", "observe"),
                        ("QuantileHistogram", "observe"))
)


class Ledger:
    """Self time and counts per layer, accumulated by nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Sum of every value set on each named gauge (a gauge keeps
        #: only its last value; some are set once per migration).
        self.gauge_totals: Dict[str, float] = defaultdict(float)
        #: Open spans, innermost last: ``[layer, start, nested time]``.
        self._stack: List[List[Any]] = []

    def reset(self) -> None:
        """Forget everything measured so far (open spans stay open)."""
        self.self_s.clear()
        self.counts.clear()
        self.gauge_totals.clear()
        now = self.clock()
        for frame in self._stack:
            frame[1] = now
            frame[2] = 0.0

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def timed_generator(self, generator: Generator, layer: str
                        ) -> Generator:
        """Delegate to ``generator``, timing each resume as one span."""
        send, throw = generator.send, generator.throw
        value: Any = None
        error: Any = None
        while True:
            self.enter(layer)
            try:
                if error is None:
                    target = send(value)
                else:
                    target = throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            try:
                value, error = (yield target), None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded, re-raised inside
                value, error = None, exc

    def total_gauge(self, gauge: Any, value: float) -> None:
        """Hook for ``Gauge.set``: add the value to the gauge's total."""
        self.gauge_totals[gauge.name] += value

    def wrap(self, function: Callable, layer: str,
             counter: Any = None, hook: Any = None) -> Callable:
        """``function`` timed as a span of ``layer``; a generator it
        returns is timed per resume.  ``hook`` (or ``None``) is called
        with the call's arguments before the span opens."""
        enter, exit_, counts = self.enter, self.exit, self.counts
        timed_generator = self.timed_generator

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            if hook is not None:
                hook(*args, **kwargs)
            enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                exit_()
            if type(result) is types.GeneratorType:
                return timed_generator(result, layer)
            return result

        return traced

    def wrap_process(self, process: Callable) -> Callable:
        """``Environment.process`` that times each resume of the new
        process as a span of the layer whose module defined it."""
        timed_code = self.timed_generator.__code__

        @functools.wraps(process)
        def traced(env: Any, generator: Any, name: Any = None) -> Any:
            code = getattr(generator, "gi_code", None)
            if code is None or code is timed_code:
                return process(env, generator, name=name)
            return process(env, self.timed_generator(
                generator, layer_of_file(code.co_filename)),
                name=name or generator.__name__)

        return traced


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to (see :data:`MODULE_LAYERS`)."""
    path = filename.replace("\\", "/")
    for fragment, layer in MODULE_LAYERS:
        if fragment in path:
            return layer
    return "workload"


#: What :func:`install` replaced: ``(holder, attribute, original)``.
Patch = Tuple[Any, str, Any]


def install(ledger: Ledger) -> List[Patch]:
    """Wrap every entry point; returns the patches for :func:`uninstall`.

    A module-level function is also replaced in every ``repro`` module
    that imported it by name, so callers reach the wrapper.
    """
    patches: List[Patch] = []
    for module_name, owner, attribute, layer, counter in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner is not None:
            holder = getattr(module, owner)
            original = holder.__dict__[attribute]
            patches.append((holder, attribute, original))
            hook = (ledger.total_gauge if (owner, attribute)
                    == ("Gauge", "set") else None)
            setattr(holder, attribute, ledger.wrap(original, layer,
                                                   counter, hook))
            continue
        original = getattr(module, attribute)
        wrapped = ledger.wrap(original, layer, counter)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)
    environment = sys.modules["repro.sim.core"].Environment
    patches.append((environment, "process",
                    environment.__dict__["process"]))
    environment.process = ledger.wrap_process(
        environment.__dict__["process"])
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Undo :func:`install`."""
    for holder, attribute, original in reversed(patches):
        setattr(holder, attribute, original)
