"""Spans around the public calls of each layer, installed from outside ``src/``.

:class:`Tracer` replaces selected functions and methods of the ``repro``
package with thin wrappers that record one span per call: layer name,
start, end, parent span and job id.  Spans stay in flat in-memory arrays
until :meth:`Tracer.write` dumps them; :func:`span_totals` folds them
into per-layer calls, inclusive time and self time.  The wrappers only
observe: they pass arguments and results through untouched, so a traced
run simulates exactly what an untraced one does.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

#: (layer, module, owner class, attributes) of each wrapped call.  An
#: owner of ``None`` means module-level functions, patched wherever a
#: ``repro`` module binds them.
BUILD_TARGETS = (
    ("pipeline.build", "repro.pipeline.offline", None, ("build_controller",)),
    ("models.fit", "repro.models.timing", "ExecutionTimePredictor", ("train",)),
    ("features.profile", "repro.features.profiler", "Profiler", ("profile",)),
    ("features.encode", "repro.features.encoding", "FeatureEncoder", ("fit",)),
    ("programs.instrument", "repro.programs.instrument", "Instrumenter",
     ("instrument",)),
    ("programs.slicer", "repro.programs.slicer", "Slicer", ("slice",)),
    ("programs.certify", "repro.programs.analysis.certify", None,
     ("certify_slice",)),
    ("platform.switch_bench", "repro.platform.switching", "SwitchLatencyModel",
     ("microbenchmark",)),
    ("workloads.inputs", "repro.workloads.base", "InteractiveApp", ("inputs",)),
)

RUN_TARGETS = (
    ("models.predict", "repro.models.timing", "ExecutionTimePredictor",
     ("predict",)),
    ("models.predict", "repro.online.predictor", "OnlineTimePredictor",
     ("predict",)),
    ("models.ladder", "repro.models.dvfs", "DvfsModel",
     ("choose_opp", "components")),
    ("platform.board", "repro.platform.board", "Board",
     ("busy_run", "idle_until", "set_frequency", "set_frequency_free")),
    ("fleet.session_init", "repro.fleet.session", "Session", ("__init__",)),
    ("fleet.session_step", "repro.fleet.session", "Session", ("step",)),
    ("fleet.session_result", "repro.fleet.session", "Session", ("result",)),
    ("fleet.shard", "repro.fleet.shard", None, ("run_shard",)),
    ("fleet.aggregate", "repro.fleet.aggregate", None, ("aggregate_fleet",)),
    ("telemetry.slo_observe", "repro.telemetry.slo", "SloTracker",
     ("observe",)),
    ("telemetry.energy_observe", "repro.telemetry.energy", "EnergyLedger",
     ("observe",)),
)

#: Governor hooks, wrapped on every class in the Governor hierarchy that
#: defines them.
GOVERNOR_HOOKS = (
    ("governors.decide", "decide"),
    ("governors.feedback", "on_job_end"),
    ("governors.timer", "on_timer"),
)

#: Phases a span can belong to.
SETUP, WINDOW = 0, 1


class Tracer:
    """Records spans into flat arrays while its wrappers are installed.

    Attributes:
        task_programs: ids of the workload's task programs; an
            interpreter call on one of them is a ``programs.task`` span.
        slice_programs: ids of the prediction-slice programs
            (``programs.slice`` spans).  Calls on any other program are
            ``programs.other``.
        current_phase: Phase stamped on new spans (SETUP or WINDOW).
        recording: False makes every wrapper a plain pass-through.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.phase = array("b")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._functions: dict = {}
        self.task_programs: set[int] = set()
        self.slice_programs: set[int] = set()
        self.current_phase = SETUP
        self.current_job = -1
        self.jobs_started = 0
        self.recording = True

    # -- span store ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span (nested calls of one layer fold in)."""
        if not self.recording or self._depth[nid]:
            return fn(*args, **kwargs)
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.phase.append(self.current_phase)
        self.end.append(0)
        self._stack.append(index)
        self._depth[nid] = 1
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter_ns()
            self._depth[nid] = 0
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls, attr: str, layer: str) -> None:
        nid = self.name_id(layer)
        raw = cls.__dict__[attr]
        call = self._call
        if isinstance(raw, classmethod):
            fn = raw.__func__

            def wrapped_cm(cls_, *args, **kwargs):
                return call(nid, fn, (cls_,) + args, kwargs)

            self._patch(cls, attr, classmethod(wrapped_cm))
            return

        def wrapped(*args, **kwargs):
            return call(nid, raw, args, kwargs)

        wrapped.__name__ = raw.__name__
        wrapped.__qualname__ = raw.__qualname__
        self._patch(cls, attr, wrapped)

    def _wrap_function(self, module_name: str, attr: str, layer: str) -> None:
        """Wrap a module function in every ``repro`` module that binds it."""
        nid = self.name_id(layer)
        original = getattr(sys.modules[module_name], attr)
        call = self._call

        def wrapped(*args, **kwargs):
            return call(nid, original, args, kwargs)

        wrapped.__name__ = original.__name__
        self._functions[id(wrapped)] = (wrapped, original)
        for module in _repro_modules():
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, wrapped)

    def _wrap_interpreter(self) -> None:
        from repro.programs.interpreter import Interpreter

        task_id = self.name_id("programs.task")
        slice_id = self.name_id("programs.slice")
        other_id = self.name_id("programs.other")
        call = self._call
        for attr in ("execute", "execute_isolated"):
            raw = Interpreter.__dict__[attr]

            def wrapped(self_, program, *args, _raw=raw, **kwargs):
                key = id(program)
                if key in self.task_programs:
                    nid = task_id
                elif key in self.slice_programs:
                    nid = slice_id
                else:
                    nid = other_id
                return call(nid, _raw, (self_, program) + args, kwargs)

            wrapped.__name__ = attr
            self._patch(Interpreter, attr, wrapped)

    def _wrap_step(self) -> None:
        """The runner's step opens a new job id for the spans inside it."""
        from repro.runtime.executor import TaskLoopRunner

        nid = self.name_id("runtime.step")
        raw = TaskLoopRunner.__dict__["step"]
        call = self._call

        def step(runner):
            if not self.recording:
                return raw(runner)
            self.current_job = self.jobs_started
            self.jobs_started += 1
            try:
                return call(nid, raw, (runner,), {})
            finally:
                self.current_job = -1

        self._patch(TaskLoopRunner, "step", step)

    def install(self, targets) -> None:
        """Wrap every call named in ``targets`` (BUILD_TARGETS/RUN_TARGETS)."""
        import importlib

        for layer, module_name, owner, attrs in targets:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if owner is None:
                    self._wrap_function(module_name, attr, layer)
                else:
                    self._wrap_method(getattr(module, owner), attr, layer)

    def install_run(self) -> None:
        """Wrap the run and aggregate layers (interpreter, governors, ...)."""
        self.install(RUN_TARGETS)
        self._wrap_step()
        self._wrap_interpreter()
        for cls in _governor_classes():
            for layer, attr in GOVERNOR_HOOKS:
                if attr in cls.__dict__ and not getattr(
                    cls.__dict__[attr], "__isabstractmethod__", False
                ):
                    self._wrap_method(cls, attr, layer)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first).

        A module imported while the wrappers were installed bound the
        wrapped function under its own name; those bindings are put back
        too.
        """
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for module in _repro_modules():
            for attr, value in list(module.__dict__.items()):
                wrapped, original = self._functions.get(id(value), (None, None))
                if value is wrapped:
                    setattr(module, attr, original)
        self._functions.clear()

    # -- output -------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header plus one binary column per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "start", "end", "parent", "job", "phase")
        header = {
            "names": self.names,
            "columns": [
                {"field": c, "typecode": getattr(self, c).typecode}
                for c in columns
            ],
            "spans": len(self),
            "time_unit": "ns (perf_counter)",
        }
        with open(path, "wb") as out:
            blob = json.dumps(header).encode()
            out.write(len(blob).to_bytes(8, "little"))
            out.write(blob)
            for column in columns:
                getattr(self, column).tofile(out)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _governor_classes():
    """Every class in the Governor hierarchy (governor modules imported)."""
    import importlib
    import pkgutil

    import repro.governors
    from repro.governors.base import Governor

    for info in pkgutil.iter_modules(repro.governors.__path__):
        importlib.import_module(f"repro.governors.{info.name}")
    seen, todo = [], [Governor]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def span_totals(tracer: Tracer) -> dict[tuple[int, str], dict[str, float]]:
    """(phase, layer) -> calls, inclusive ns and self ns.

    Self time is a span's duration minus the durations of its direct
    children; nested calls into the same layer were folded into one span
    at record time, so no interval is counted twice.
    """
    n = len(tracer)
    child = [0] * n
    start, end, parent = tracer.start, tracer.end, tracer.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    totals: dict[tuple[int, str], dict[str, float]] = {}
    names, phase, name = tracer.names, tracer.phase, tracer.name
    for i in range(n):
        key = (phase[i], names[name[i]])
        entry = totals.get(key)
        if entry is None:
            entry = totals[key] = {"calls": 0, "ns": 0, "self_ns": 0}
        dur = end[i] - start[i]
        entry["calls"] += 1
        entry["ns"] += dur
        entry["self_ns"] += dur - child[i]
    return totals
