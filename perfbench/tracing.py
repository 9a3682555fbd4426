"""Self-time span tracer, attached to repro's layers from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public functions and methods that mark each layer boundary with thin
wrappers that open a span, call the original, and close the span.  A
span's *self time* is its duration minus the time of the wrapped calls
nested inside it, so the self times of one thread never overlap and sum
to the time that thread spent inside any layer (``covered_s``).

Spans live in memory (aggregates always; the first ``max_events`` raw
events for the timeline) and are written once, at exit, as Chrome
trace-event JSON with the aggregates under ``otherData``.  Fleet pool
workers forked from a traced process reset their copy of the tracer and
write their own file when they exit, so a run's per-process files can be
merged afterwards (:func:`read_dir`).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Raw events kept per process for the Chrome timeline; the aggregates
#: (self time, calls, counts) are exact regardless.
MAX_EVENTS = 20_000

#: PowerTrace subclass name -> the supply family its lookups are billed to.
TRACE_KINDS = {
    "StochasticRFTrace": "rf",
    "SolarTrace": "solar",
    "SquareWaveTrace": "square",
    "EmpiricalTrace": "corpus",
}


class Tracer:
    """Per-process span recorder computing exact self times.

    ``clock`` is injectable for tests.  Each thread keeps its own stack
    of open spans; aggregate updates take one lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_events: int = MAX_EVENTS) -> None:
        self.clock = clock
        self.max_events = max_events
        #: Where :meth:`dump` writes (``None``: nowhere).
        self.out_dir: Optional[str] = None
        #: "main" for the process a workload starts, "worker" in forks.
        self.role = "main"
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (open spans included)."""
        self._local = threading.local()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Summed duration of top-level spans, over all threads.
        self.covered_s = 0.0
        self.events: List[tuple] = []
        self.dropped = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> Optional[str]:
        """Name of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def begin(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = self.clock()
        stack = self._stack()
        stack.pop()
        name, start, child_s = frame
        duration = now - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[name] += duration - child_s
            self.calls[name] += 1
            if not stack:
                self.covered_s += duration
            if len(self.events) < self.max_events:
                self.events.append(
                    (name, start, duration, threading.get_ident()))
            else:
                self.dropped += 1

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def snapshot(self) -> dict:
        """The aggregates as plain JSON data."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "role": self.role,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "covered_s": self.covered_s,
                "dropped": self.dropped,
            }

    def chrome_events(self) -> List[dict]:
        pid = os.getpid()
        with self._lock:
            return [
                {"name": name, "ph": "X", "ts": start * 1e6,
                 "dur": duration * 1e6, "pid": pid, "tid": tid}
                for name, start, duration, tid in self.events
            ]

    def write(self, path: str) -> None:
        """Write the Chrome trace (aggregates under ``otherData``)."""
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ms",
                   "otherData": self.snapshot()}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    def dump(self) -> None:
        """Write this process's file into :attr:`out_dir`, if set."""
        if self.out_dir is not None:
            self.write(os.path.join(self.out_dir,
                                    f"trace-{os.getpid()}.json"))


def read_dir(path: str) -> List[dict]:
    """Every per-process trace file under ``path``, parsed."""
    out = []
    for name in sorted(os.listdir(path)):
        if name.startswith("trace-") and name.endswith(".json"):
            with open(os.path.join(path, name)) as fh:
                out.append(json.load(fh))
    return out


def merge(snapshots: List[dict]) -> dict:
    """Sum the aggregates of several snapshots (one per process)."""
    total = {"self_s": defaultdict(float), "calls": defaultdict(int),
             "counts": defaultdict(float)}
    for snap in snapshots:
        for key in total:
            for name, value in snap[key].items():
                total[key][name] += value
    return {key: dict(value) for key, value in total.items()}


# -- attaching to repro --------------------------------------------------------


def _wrap(tracer: Tracer, fn: Callable, layer, after=None) -> Callable:
    """``fn`` inside a span named ``layer`` (a str, or a function of the
    call's positional args); ``after(args, result, nested)`` records
    counts once the call returned, ``nested`` telling whether the caller
    was a span of the same layer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = layer if isinstance(layer, str) else layer(args)
        nested = tracer.parent() == name
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(args, result, nested)
        return result

    return wrapper


def _patch_function(module, attr: str, wrapper: Callable) -> None:
    """Point every loaded repro module's reference to ``module.attr`` at
    ``wrapper`` (``from x import f`` copies the reference at import)."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


def time_calls(module, attr: str, durations: List[float]) -> None:
    """Append the seconds of every call to ``module.attr`` to
    ``durations``: a plain timer, for rounds run without the tracer."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t0)

    _patch_function(module, attr, timed)


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to.

    Call once per process, after ``repro`` is importable.  Forked
    children reset the tracer and dump it into ``tracer.out_dir`` when
    they exit.
    """
    import numpy as np
    import repro.experiments.common as common
    import repro.rad.pipeline as pipeline
    import repro.rad.quantize as quantize
    import repro.sim.fastsim as fastsim
    import repro.fleet.runner as runner
    from repro.fleet.cache import ModelCache
    from repro.fleet.scenario import TraceSpec
    from repro.power.traces import PowerTrace
    from repro.sim.runtime import InferenceRuntime
    from repro.sim.session import SensingSession
    from repro.store.cache import ResultStore
    from repro.study import get_study, study_names

    count = tracer.count

    def counted(name):
        return lambda args, result, nested: count(name)

    def fleet_report(args, report, nested):
        count("fleet.scenarios", len(report.results))
        count("fleet.scenarios_failed", report.failures)
        count("fleet.pooled_runs", int(report.workers > 1))

    def logits_rows(batch: bool):
        def after(args, result, nested):
            if not nested:  # a batch default looping over compute_logits
                count("kernels.logits_rows", len(args[1]) if batch else 1)
        return after

    def table_load(args, table, nested):
        count("store.table_loads")
        count("store.table_hits", int(table is not None))

    for module, attr, layer, after in (
        (common, "prepare_quantized", "fleet.model_prep",
         counted("fleet.model_builds")),
        (common, "make_dataset", "datasets.make", None),
        (runner, "execute_scenario", "fleet.scenario_setup", None),
        (fastsim, "compile_program", "sim.compile",
         counted("sim.programs_compiled")),
        (pipeline, "run_rad", "rad.train", None),
        (quantize, "quantize_model", "rad.quantize", None),
    ):
        _patch_function(module, attr,
                        _wrap(tracer, getattr(module, attr), layer, after))

    methods = [
        (ModelCache, "get", "fleet.model_prep", None),
        (runner.FleetRunner, "prepare_models", "fleet.model_prep", None),
        (runner.FleetRunner, "run", "fleet.parent_wait", fleet_report),
        (fastsim.ProgramCache, "get", "sim.compile", None),
        (fastsim.FastMachine, "run_deferred", "sim.replay",
         counted("sim.inferences")),
        (SensingSession, "run", "sim.session", None),
        (TraceSpec, "build", "power.trace_build", None),
        (ResultStore, "lookup", "store.lookup", None),
        (ResultStore, "put", "store.put", None),
        (ResultStore, "flush", "store.flush", None),
        (ResultStore, "load_table", "store.table_load", table_load),
        (ResultStore, "save_table", "store.table_save", None),
    ]

    def energy_layer(args):
        return "power.energy." + TRACE_KINDS.get(type(args[0]).__name__,
                                                 "other")

    def energy_lookups(batch: bool):
        def after(args, result, nested):
            if not nested:  # a batch default looping over energy
                count("power.energy_lookups",
                      int(np.size(args[1])) if batch else 1)
        return after

    for cls in _subclasses(PowerTrace):
        for attr in ("energy", "energy_batch", "energy_batch_trusted"):
            if attr in vars(cls):
                methods.append((cls, attr, energy_layer,
                                energy_lookups(attr != "energy")))
    for cls in _subclasses(InferenceRuntime):
        for attr in ("compute_logits", "compute_logits_batch"):
            if attr in vars(cls):
                methods.append((cls, attr, "kernels.logits",
                                logits_rows(attr.endswith("batch"))))
    for cls, attr, layer, after in methods:
        setattr(cls, attr, _wrap(tracer, vars(cls)[attr], layer, after))

    # Studies are frozen records whose callables were bound at
    # registration; rebind them on the registry's own instances.
    for name in study_names():
        study = get_study(name)
        for attr, layer in (("collect", "study.collect"),
                            ("render", "study.render")):
            fn = getattr(study, attr)
            if fn is not None:
                object.__setattr__(study, attr, _wrap(tracer, fn, layer))

    multiprocessing.util.register_after_fork(tracer, _after_fork)


def _after_fork(tracer: Tracer) -> None:
    tracer.reset()
    tracer.role = "worker"
    multiprocessing.util.Finalize(None, tracer.dump, exitpriority=10)
