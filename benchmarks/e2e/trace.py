"""Span tracing for the end-to-end benchmark, installed only under ``--trace``.

The benchmark records spans *from its own files*: :func:`Tracer.install`
replaces public names of every ``repro.*`` layer with timing wrappers and
nothing in ``src/`` knows about it.  A span carries (id, name, layer,
start, end, parent, op); spans of one benchmark operation share its op id.

Because the DES runs every layer's code inside ``Simulator.step`` — as
generator processes and event callbacks — wrapping entry points alone would
book everything to ``simnet``.  Two extra hooks separate the bodies:

* ``Simulator.spawn`` is wrapped so each process generator is proxied and
  every resume is a span owned by the layer whose file defines the
  generator (``gen.gi_code.co_filename``);
* ``EventBus.bind`` is wrapped so each handler call is a span owned by the
  handler's module, which leaves ``cactus`` with the dispatch cost alone.

A layer's *self time* is its spans' duration minus the part covered by
child spans.  It is accumulated for every span; raw spans are kept only
down to ``keep_depth`` and up to ``max_spans``, whichever allows more,
so a trace file stays a few megabytes however long the pass is.

A name in :data:`TARGETS` that no longer resolves is recorded in
``Tracer.missing`` with a warning; it never raises, so a later change that
deletes a traced name cannot be rejected by its own yardstick.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import warnings
from time import perf_counter

#: The ``repro`` packages that count as layers.  Anything else a span can
#: belong to (the benchmark's own load generators) is booked as ``bench``.
LAYERS = ("numerics", "solvers", "core", "p2psap", "cactus", "simnet",
          "experiments", "campaign", "service")

#: (module, dotted attribute, layer) — plain callables wrapped with a span
#: named after the attribute.  Module-level functions are re-bound in every
#: ``repro.*`` module that imported them by name.
TARGETS = (
    ("repro.experiments.harness", "run_job", "experiments"),
    ("repro.core.environment", "P2PDC.run_to_completion", "core"),
    ("repro.core.programming_model", "TaskContext.p2p_send", "core"),
    ("repro.core.programming_model", "TaskContext.p2p_receive", "core"),
    ("repro.core.programming_model", "TaskContext.p2p_receive_nowait", "core"),
    ("repro.core.programming_model",
     "TaskContext.p2p_receive_latest_nowait", "core"),
    ("repro.solvers.halo", "BlockState.sweep", "solvers"),
    ("repro.solvers.halo", "BlockState.begin_sweep", "solvers"),
    ("repro.solvers.halo", "BlockState.finish_sweep", "solvers"),
    ("repro.solvers.halo", "BlockState.update_ghost_below", "solvers"),
    ("repro.solvers.halo", "BlockState.update_ghost_above", "solvers"),
    ("repro.solvers.halo", "BlockState.export_block", "solvers"),
    ("repro.solvers.termination", "ExactCoordinator.on_diff", "solvers"),
    ("repro.solvers.termination", "StreakCoordinator.on_conv", "solvers"),
    ("repro.solvers.termination", "StreakCoordinator.on_verify_ack",
     "solvers"),
    ("repro.solvers.termination", "StreakCoordinator.on_timeout", "solvers"),
    ("repro.solvers.distributed_richardson", "get_problem", "numerics"),
    ("repro.numerics.kernels", "block_sweep", "numerics"),
    ("repro.numerics.kernels", "jacobi_sweep", "numerics"),
    ("repro.numerics.kernels", "gauss_seidel_sweep", "numerics"),
    ("repro.numerics.kernels", "SweepWorkspace.__init__", "numerics"),
    ("repro.p2psap.socket_api", "P2PSAPSocket.send", "p2psap"),
    ("repro.p2psap.socket_api", "P2PSAPSocket.recv", "p2psap"),
    ("repro.p2psap.socket_api", "P2PSAPSocket.recv_nowait", "p2psap"),
    ("repro.p2psap.socket_api", "P2PSAPSocket.recv_latest_nowait", "p2psap"),
    ("repro.p2psap.socket_api", "P2PSAP.open_session", "p2psap"),
    ("repro.p2psap.data_channel", "DataChannel.reconfigure", "p2psap"),
    ("repro.cactus.microprotocol", "MicroProtocol.init", "cactus"),
    ("repro.cactus.events", "EventBus.raise_event", "cactus"),
    ("repro.cactus.messages", "payload_nbytes", "cactus"),
    ("repro.simnet.kernel", "Simulator.run", "simnet"),
    ("repro.simnet.kernel", "Simulator.step", "simnet"),
    ("repro.simnet.network", "Network.send", "simnet"),
    ("repro.simnet.network", "Link.transmit", "simnet"),
    ("repro.campaign.jobs", "plan_jobs", "campaign"),
    ("repro.campaign.engine", "Campaign.run", "campaign"),
    ("repro.campaign.cache", "ResultCache.load", "campaign"),
    ("repro.campaign.cache", "ResultCache.store", "campaign"),
    ("repro.campaign.driver", "DriverPool.__init__", "campaign"),
    ("repro.campaign.driver", "DriverPool.submit", "campaign"),
    ("repro.campaign.driver", "DriverPool.wait", "campaign"),
    ("repro.campaign.driver", "DriverPool.run_branches", "campaign"),
    ("repro.service.client", "ServiceClient.submit", "service"),
    ("repro.service.client", "ServiceClient.status", "service"),
    ("repro.service.client", "ServiceClient.results", "service"),
    ("repro.service.client", "ServiceClient.iterate", "service"),
    ("repro.service.daemon", "CampaignService.submit", "service"),
    ("repro.service.daemon", "CampaignService.status", "service"),
    ("repro.service.daemon", "CampaignService.results", "service"),
    ("repro.service.daemon", "CampaignService.iterate_bytes", "service"),
    ("repro.service.schema", "submission_to_wire", "service"),
    ("repro.service.schema", "submission_from_wire", "service"),
)

def layer_of_module(module_name):
    """``repro.p2psap.rules`` -> ``p2psap``; anything else -> ``bench``."""
    parts = (module_name or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "bench"


def layer_of_file(filename):
    """Layer owning a source file, from the path below ``repro/``."""
    parts = (filename or "").replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and parts[i + 1] in LAYERS:
            return parts[i + 1]
    return "bench"


class _ThreadState:
    """One thread's span stack and aggregates (merged at report time)."""

    __slots__ = ("stack", "by_name", "spans", "counts", "maxima", "thread")

    def __init__(self, thread_name):
        self.stack = []
        #: name -> [layer, calls, total seconds, self seconds]
        self.by_name = {}
        self.spans = []
        self.counts = {}
        self.maxima = {}
        self.thread = thread_name


class _GeneratorProxy:
    """Stands in for a process generator; every resume is a span."""

    def __init__(self, gen, tracer):
        code = getattr(gen, "gi_code", None)
        self._gen = gen
        qualname = getattr(code, "co_qualname", None) \
            or getattr(code, "co_name", "process")
        layer = layer_of_file(getattr(code, "co_filename", ""))
        self.__name__ = getattr(gen, "__name__", "process")
        self.send = tracer.wrap(gen.send, f"resume:{qualname}", layer)
        self.throw = tracer.wrap(gen.throw, f"resume:{qualname}", layer)

    def close(self):
        return self._gen.close()


class Tracer:
    """Records spans around wrapped callables; off until :meth:`install`."""

    def __init__(self, max_spans=40000, keep_depth=2):
        self.enabled = False
        self.max_spans = max_spans
        self.keep_depth = keep_depth
        #: Names that did not resolve at install time.
        self.missing = []
        #: The benchmark operation spans currently belong to.
        self.op = None
        #: Micro-protocol instances seen by ``MicroProtocol.init``; their
        #: public ``stats_*`` counters are read after the pass.
        self.micros = []
        #: Deployment facts gathered after each ``run_to_completion``.
        self.des = {"max_queue_depth": 0, "dropped": 0}
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._recorded = 0
        self._dropped = 0
        self._installed = False

    # -- per-thread state --------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- spans ---------------------------------------------------------------

    def _enter(self, state, name):
        """Open a span on this thread; returns its frame
        ``[name, start, child seconds, parent frame, span id]``."""
        stack = state.stack
        parent = stack[-1] if stack else None
        span_id = None
        # A span is kept only under a kept parent, so the file holds a
        # consistent tree: always down to keep_depth, deeper while the
        # budget lasts.
        if (parent is None or parent[4] is not None) and (
                len(stack) < self.keep_depth
                or self._recorded < self.max_spans):
            self._recorded += 1
            span_id = next(self._ids)
        else:
            self._dropped += 1
        frame = [name, 0.0, 0.0, parent, span_id]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, state, frame, layer):
        end = perf_counter()
        state.stack.pop()
        name, start, child, parent, span_id = frame
        duration = end - start
        if parent is not None:
            parent[2] += duration
        agg = state.by_name.get(name)
        if agg is None:
            agg = state.by_name[name] = [layer, 0, 0.0, 0.0]
        agg[1] += 1
        agg[2] += duration
        agg[3] += duration - child
        if span_id is not None:
            state.spans.append((
                span_id, name, layer, start, end,
                parent[4] if parent is not None else None, self.op))

    def wrap(self, fn, name, layer, after=None, nesting=False):
        """``fn`` with a span of ``name``/``layer`` around each call.

        ``after(args, result)`` runs once the call returned normally —
        used to read public counters off the objects a call touched.
        ``nesting`` additionally tracks how deep calls of this name nest
        (``maxima()[name]``).
        """
        tracer = self
        local = self._local

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = tracer._state()
            if nesting:
                depth = state.counts.get(name, 0) + 1
                state.counts[name] = depth
                if depth > state.maxima.get(name, 0):
                    state.maxima[name] = depth
            frame = tracer._enter(state, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(state, frame, layer)
                if nesting:
                    state.counts[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextlib.contextmanager
    def span(self, name, layer="bench"):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        state = self._state()
        frame = self._enter(state, name)
        try:
            yield
        finally:
            self._exit(state, frame, layer)

    def count(self, key, amount=1):
        """Add to a named counter of the traced pass (no-op when off)."""
        if self.enabled:
            counts = self._state().counts
            counts[key] = counts.get(key, 0) + amount

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every resolvable target; returns the names that failed."""
        if self._installed:
            return self.missing
        self._installed = True
        # Forked driver workers inherit the patched classes; they must
        # run at full speed (their share is reported from the parent
        # side), so tracing switches itself off in every child.
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._disable)
        afters = {
            "P2PDC.run_to_completion": self._after_run_to_completion,
            "MicroProtocol.init": self._after_micro_init,
            "Link.transmit": self._after_transmit,
        }
        for module_name, dotted, layer in TARGETS:
            resolved = _resolve(module_name, dotted)
            if resolved is None:
                self._missing(module_name, dotted)
                continue
            owner, attr, original = resolved
            wrapped = self.wrap(original, dotted, layer, afters.get(dotted),
                                nesting=dotted == "EventBus.raise_event")
            if "." in dotted:
                setattr(owner, attr, wrapped)
            else:
                _rebind_everywhere(original, attr, wrapped)
        self._install_spawn()
        self._install_bind()
        self.enabled = True
        return self.missing

    def _disable(self):
        self.enabled = False

    def _missing(self, module_name, dotted):
        self.missing.append(dotted)
        warnings.warn(
            f"e2e trace: {module_name}.{dotted} no longer exists; per-layer "
            "metrics that need it are reported as null", RuntimeWarning,
            stacklevel=3)

    def _install_spawn(self):
        resolved = _resolve("repro.simnet.kernel", "Simulator.spawn")
        if resolved is None:
            self._missing("repro.simnet.kernel", "Simulator.spawn")
            return
        owner, attr, original = resolved
        tracer = self

        def spawn(sim, gen, *args, **kwargs):
            if tracer.enabled and hasattr(gen, "send") \
                    and hasattr(gen, "throw"):
                gen = _GeneratorProxy(gen, tracer)
            return original(sim, gen, *args, **kwargs)

        setattr(owner, attr, spawn)

    def _install_bind(self):
        bind = _resolve("repro.cactus.events", "EventBus.bind")
        unbind = _resolve("repro.cactus.events", "EventBus.unbind")
        if bind is None or unbind is None:
            # Wrapping only one of the pair would make unbind miss the
            # wrapped handler, so it is both or neither.
            self._missing("repro.cactus.events", "EventBus.bind")
            self._missing("repro.cactus.events", "EventBus.unbind")
            return
        owner, _attr, original_bind = bind
        _owner, _attr, original_unbind = unbind
        tracer = self

        def traced_bind(bus, event_name, handler, *args, **kwargs):
            if tracer.enabled and callable(handler):
                inner = getattr(handler, "__func__", handler)
                name = getattr(inner, "__qualname__", type(handler).__name__)
                traced = tracer.wrap(
                    handler, f"handler:{name}",
                    layer_of_module(getattr(inner, "__module__", "")))
                traced._e2e_handler = handler
                handler = traced
            return original_bind(bus, event_name, handler, *args, **kwargs)

        def traced_unbind(bus, event_name, handler):
            for bound in bus.handlers_for(event_name):
                if getattr(bound, "_e2e_handler", None) == handler:
                    handler = bound
                    break
            return original_unbind(bus, event_name, handler)

        owner.bind = traced_bind
        owner.unbind = traced_unbind

    # -- readers of public counters ---------------------------------------

    def _after_run_to_completion(self, args, _result):
        env = args[0]
        self.des["max_queue_depth"] = max(
            self.des["max_queue_depth"],
            getattr(getattr(env, "sim", None), "max_queue_depth", 0))
        network = getattr(env, "network", None)
        if network is not None and hasattr(network, "iter_links"):
            self.des["dropped"] += sum(
                getattr(link, "stats_dropped", 0)
                for link in network.iter_links())

    def _after_micro_init(self, args, _result):
        self.micros.append(args[0])

    def _after_transmit(self, args, _result):
        self.count("net_bytes", getattr(args[1], "size_bytes", 0))

    # -- reporting ---------------------------------------------------------

    def by_name(self):
        """Merged ``name -> {layer, calls, total_s, self_s}``."""
        merged = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (layer, calls, total, self_s) in state.by_name.items():
                row = merged.setdefault(
                    name, {"layer": layer, "calls": 0,
                           "total_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
        return merged

    def by_layer(self):
        """Self seconds per layer (``bench`` = the benchmark's own code)."""
        out = {}
        for row in self.by_name().values():
            out[row["layer"]] = out.get(row["layer"], 0.0) + row["self_s"]
        return out

    def counts(self):
        out = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.counts.items():
                out[key] = out.get(key, 0) + value
        return out

    def maxima(self):
        out = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.maxima.items():
                out[key] = max(out.get(key, 0), value)
        return out

    def micro_stat(self, attr):
        """Sum of one public ``stats_*`` counter over every micro-protocol
        initialised while tracing."""
        return sum(getattr(micro, attr, 0) for micro in self.micros)

    def dump(self, path, meta):
        """Write the kept spans and the aggregates as one JSON file.

        Spans are rows of ``columns``; ``name``, ``op`` and ``thread`` are
        indices into the tables of the same name, times are microseconds
        since the first kept span.
        """
        with self._lock:
            states = list(self._states)
        tables = {"name": {}, "op": {}, "thread": {}}

        def index(table, value):
            return tables[table].setdefault(value, len(tables[table]))

        kept = [(span, state.thread) for state in states
                for span in state.spans]
        kept.sort(key=lambda item: item[0][3])
        origin = kept[0][0][3] if kept else 0.0
        rows = [[sid, index("name", name), round((start - origin) * 1e6, 1),
                 round((end - start) * 1e6, 1), parent, index("op", op),
                 index("thread", thread)]
                for (sid, name, _layer, start, end, parent, op), thread
                in kept]
        document = {
            "meta": meta,
            "clock": "time.perf_counter",
            "columns": ["id", "name", "start_us", "duration_us", "parent",
                        "op", "thread"],
            "spans_kept": len(rows),
            "spans_dropped": self._dropped,
            "missing": self.missing,
            "by_layer_self_s": self.by_layer(),
            "by_name": self.by_name(),
            "name": list(tables["name"]),
            "op": list(tables["op"]),
            "thread": list(tables["thread"]),
            "spans": rows,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(document, fh, separators=(",", ":"))


def _resolve(module_name, dotted):
    """``(owner, attribute, original)`` or None when any step is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        return None
    return owner, parts[-1], original


def _rebind_everywhere(original, attr, wrapped):
    """Point every ``repro.*`` module global that is ``original`` at
    ``wrapped`` (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        if module.__dict__.get(attr) is original:
            setattr(module, attr, wrapped)
