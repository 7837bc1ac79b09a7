"""Host-side performance observability: phase timers, sampler, profiles.

Everything else in ``repro.telemetry`` observes *simulated* time; this
module observes the **host** — the wall-clock cost of running the
simulator itself.  ROADMAP item 1 targets a >=10x host jobs/sec speedup
of the interpreted hot path, and that arc needs an instrument before it
needs an optimization: phase-scoped accounting says *where* host time
goes (interpreter eval vs feature recording vs predict vs OPP-ladder
evaluation vs switching vs bookkeeping), the statistical sampler says
*which functions* burn it (collapsed-stack flamegraphs, hotspot
tables), and ``host.jobs_per_sec`` gives CI a single gateable
throughput number (``BENCH_host_baseline.json``).

Cost discipline mirrors :class:`~repro.telemetry.events.NullTelemetry`:
the default is the :data:`NO_HOSTPROF` singleton whose ``enabled`` flag
is False, every instrumentation site guards with
``if hostprof.enabled:`` before reading the clock, and the perf bench
proves with tracemalloc that a disabled run allocates nothing in this
module.

Host profiles are **never** part of a deterministic report: wall time
varies run to run, so :class:`ProfileState` snapshots ship in separate
artifacts (``<run>.hostprof.json``, ``<run>.flame.txt``,
``<run>.hotspots.json``, ``<run>.metrics.json``) and merge across fleet
shards and worker processes with :func:`merge_profiles` — the same
fold-together shape as :func:`repro.telemetry.slo.merge_states`.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping

__all__ = [
    "TOP_PHASES",
    "SUB_PHASES",
    "PHASES",
    "ProfileState",
    "merge_profiles",
    "HostProfiler",
    "NullHostProfiler",
    "NO_HOSTPROF",
    "StackSampler",
    "Hotspot",
    "hotspots",
    "render_hotspots",
    "flamegraph_text",
    "component_of",
    "host_metrics",
    "register_host_metrics",
    "render_profile",
    "write_host_profile",
    "best_of",
]

#: Top-level phases: disjoint wall-time slices of a run.  Whatever they
#: do not cover is the executor/fleet bookkeeping overhead, reported as
#: ``host.us_per_job.other``.
TOP_PHASES = ("interp", "governor", "switch", "record", "fleet")

#: Sub-phases nested *inside* ``governor``: the prediction slice run
#: (feature recording), the anchor-model predict, and the OPP-ladder
#: evaluation.  They overlap their parent, never each other.
SUB_PHASES = ("features", "predict", "ladder")

PHASES = TOP_PHASES + SUB_PHASES


# -- profile snapshots ---------------------------------------------------------
@dataclass(frozen=True)
class ProfileState:
    """Serializable, mergeable snapshot of one host profile.

    Like :class:`~repro.telemetry.slo.SloTrackerState` this is the
    transport format of a fleet roll-up: every shard (or worker
    process) profiles its own slice of the work, and the coordinator
    folds the snapshots with :func:`merge_profiles` — concatenation
    semantics, as if one profiler had watched both runs back to back.

    Attributes:
        jobs: Jobs the profiled executor(s) completed.
        wall_s: Host wall-clock seconds inside the profiled region.
        phases: ``phase -> (calls, total_s)`` accounting.  Phases in
            :data:`TOP_PHASES` partition the per-job wall time;
            :data:`SUB_PHASES` re-slice the ``governor`` phase.
        samples: Stack samples the statistical sampler captured.
        stacks: ``collapsed-stack -> count`` (root;...;leaf), the
            flamegraph input.
    """

    jobs: int = 0
    wall_s: float = 0.0
    phases: Mapping[str, tuple[int, float]] = field(default_factory=dict)
    samples: int = 0
    stacks: Mapping[str, int] = field(default_factory=dict)

    @property
    def jobs_per_sec(self) -> float:
        """Host throughput over the profiled region (NaN before data)."""
        if self.jobs == 0 or self.wall_s <= 0.0:
            return float("nan")
        return self.jobs / self.wall_s

    def phase_s(self, phase: str) -> float:
        """Total host seconds recorded for one phase (0 if never hit)."""
        return self.phases.get(phase, (0, 0.0))[1]

    @property
    def accounted_s(self) -> float:
        """Wall time covered by the disjoint top-level phases."""
        return sum(self.phase_s(phase) for phase in TOP_PHASES)

    @property
    def other_s(self) -> float:
        """Unattributed host time (loop bookkeeping, allocator, GC)."""
        return max(self.wall_s - self.accounted_s, 0.0)

    def us_per_job(self, phase: str) -> float:
        """Mean host microseconds per job spent in one phase."""
        if self.jobs == 0:
            return float("nan")
        return self.phase_s(phase) * 1e6 / self.jobs

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "phases": {
                name: [calls, total]
                for name, (calls, total) in sorted(self.phases.items())
            },
            "samples": self.samples,
            "stacks": dict(sorted(self.stacks.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileState":
        return cls(
            jobs=int(data["jobs"]),
            wall_s=float(data["wall_s"]),
            phases={
                name: (int(calls), float(total))
                for name, (calls, total) in data.get("phases", {}).items()
            },
            samples=int(data.get("samples", 0)),
            stacks={
                stack: int(count)
                for stack, count in data.get("stacks", {}).items()
            },
        )


def merge_profiles(first: ProfileState, second: ProfileState) -> ProfileState:
    """Fold two profiles with concatenation semantics.

    The result equals the state one profiler would hold after watching
    ``first``'s run and then ``second``'s: jobs, wall time, per-phase
    accounting, and stack counts all add.
    """
    phases = {
        name: (calls, total) for name, (calls, total) in first.phases.items()
    }
    for name, (calls, total) in second.phases.items():
        have_calls, have_total = phases.get(name, (0, 0.0))
        phases[name] = (have_calls + calls, have_total + total)
    stacks = dict(first.stacks)
    for stack, count in second.stacks.items():
        stacks[stack] = stacks.get(stack, 0) + count
    return ProfileState(
        jobs=first.jobs + second.jobs,
        wall_s=first.wall_s + second.wall_s,
        phases=phases,
        samples=first.samples + second.samples,
        stacks=stacks,
    )


# -- the statistical sampler ---------------------------------------------------
def component_of(module: str, qualname: str = "") -> str:
    """Attribute a frame to a simulator component.

    Modules map by package (``repro.programs.interpreter`` ->
    ``interp``, ``repro.models``/``repro.online`` -> ``predict``, ...);
    frames inside ``repro.programs.expr`` attribute to ``ir`` — their
    qualnames carry the IR op class (``BinOp.evaluate``), which is how
    the hotspot table names individual IR operations.
    """
    if not module.startswith("repro"):
        return "host"
    for prefix, component in _COMPONENT_PREFIXES:
        if module.startswith(prefix):
            return component
    return "repro"


_COMPONENT_PREFIXES = (
    ("repro.programs.interpreter", "interp"),
    ("repro.programs.expr", "ir"),
    ("repro.programs.env", "ir"),
    ("repro.programs", "programs"),
    ("repro.features", "features"),
    ("repro.models", "predict"),
    ("repro.online", "predict"),
    ("repro.governors", "governor"),
    ("repro.platform", "platform"),
    ("repro.runtime", "executor"),
    ("repro.fleet", "fleet"),
    ("repro.telemetry", "telemetry"),
    ("repro.workloads", "workloads"),
    ("repro.pipeline", "pipeline"),
    ("repro.analysis", "analysis"),
)


def _module_of(filename: str) -> str:
    """Dotted module path for a code object's file (best effort)."""
    norm = filename.replace("\\", "/")
    if norm.startswith("<repro.") and norm.endswith(">"):
        # Generated code is compiled under the name of the module that
        # generated it (the interpreter's compiled programs).
        return norm[1:-1]
    marker = "/repro/"
    at = norm.rfind(marker)
    if at >= 0:
        tail = norm[at + len(marker):]
        if tail.endswith(".py"):
            tail = tail[:-3]
        if tail.endswith("/__init__"):
            tail = tail[: -len("/__init__")]
        return "repro." + tail.replace("/", ".")
    stem = norm.rsplit("/", 1)[-1]
    return stem[:-3] if stem.endswith(".py") else (stem or "?")


class StackSampler:
    """Statistical stack sampler on ``sys.setprofile``.

    Every ``interval``-th call event captures the live call stack,
    collapses it to ``root;frame;...;leaf`` form, and counts it.  Calls
    of Python functions and of builtins both count; a builtin has no
    frame, so its sample lands on the Python frame that called it.
    Call-event sampling (rather than a wall-clock timer thread) keeps
    the sampler signal-free and usable inside ``multiprocessing``
    workers; its bias is that call-heavy code is oversampled relative
    to tight loops.  Counting builtin calls is what keeps compiled IR
    programs visible: they call no Python function, only builtins such
    as the ``dict.get`` of each feature-counter bump.  (Calls of types
    such as ``int`` or ``range`` raise no profile event at all, so a
    program without counters is sampled only when it is called.)

    Args:
        interval: Call events per sample (larger = cheaper, coarser).
        max_depth: Frames kept per sample, leaf upward.
    """

    def __init__(self, interval: int = 64, max_depth: int = 48):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = interval
        self.max_depth = max_depth
        self.samples = 0
        self.stacks: dict[str, int] = {}
        self._countdown = interval
        self._labels: dict[object, str] = {}
        self._active = False

    def _label(self, code) -> str:
        label = self._labels.get(code)
        if label is None:
            qualname = getattr(code, "co_qualname", code.co_name)
            label = f"{_module_of(code.co_filename)}:{qualname}"
            self._labels[code] = label
        return label

    def _hook(self, frame, event, arg) -> None:
        if event != "call" and event != "c_call":
            return
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.interval
        parts = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            parts.append(self._label(frame.f_code))
            frame = frame.f_back
            depth += 1
        parts.reverse()
        stack = ";".join(parts)
        self.stacks[stack] = self.stacks.get(stack, 0) + 1
        self.samples += 1

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._countdown = self.interval
        sys.setprofile(self._hook)

    def stop(self) -> None:
        if not self._active:
            return
        sys.setprofile(None)
        self._active = False


# -- the profiler --------------------------------------------------------------
class HostProfiler:
    """Phase-scoped host-time accounting for one profiled run.

    Instrumentation sites read :attr:`clock` before and after a phase
    and call :meth:`add` with the elapsed seconds — always behind an
    ``if hostprof.enabled:`` guard so the :data:`NO_HOSTPROF` default
    costs one attribute read and nothing else.

    Attributes:
        clock: The host clock (``time.perf_counter``); injectable for
            deterministic tests.
        sampler: Optional :class:`StackSampler` driven by
            :meth:`running`.
        enabled: Always True here; :class:`NullHostProfiler` is the
            off switch.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sampler: StackSampler | None = None,
    ):
        self.clock = clock
        self.sampler = sampler
        self._calls: dict[str, int] = {}
        self._totals: dict[str, float] = {}
        self._jobs = 0
        self._wall_s = 0.0

    def add(self, phase: str, elapsed_s: float) -> None:
        """Charge ``elapsed_s`` host seconds to one phase."""
        self._totals[phase] = self._totals.get(phase, 0.0) + elapsed_s
        self._calls[phase] = self._calls.get(phase, 0) + 1

    def job_done(self) -> None:
        """Count one completed job (the jobs/sec denominator)."""
        self._jobs += 1

    @contextmanager
    def running(self):
        """Bracket the profiled region: wall clock + sampler lifetime."""
        if self.sampler is not None:
            self.sampler.start()
        started = self.clock()
        try:
            yield self
        finally:
            self._wall_s += self.clock() - started
            if self.sampler is not None:
                self.sampler.stop()

    def state(self) -> ProfileState:
        """Snapshot the accounting so far (mergeable, serializable)."""
        sampler = self.sampler
        return ProfileState(
            jobs=self._jobs,
            wall_s=self._wall_s,
            phases={
                name: (self._calls[name], self._totals[name])
                for name in self._totals
            },
            samples=sampler.samples if sampler is not None else 0,
            stacks=dict(sampler.stacks) if sampler is not None else {},
        )


class NullHostProfiler:
    """The no-op twin of :class:`HostProfiler` — the zero-cost default.

    ``enabled`` is False, so instrumentation sites skip the clock reads
    entirely; the methods exist (and do nothing) so unguarded calls are
    still safe, and :meth:`state` yields a valid empty profile.
    """

    enabled = False
    clock = staticmethod(time.perf_counter)
    sampler = None

    def add(self, phase: str, elapsed_s: float) -> None:
        pass

    def job_done(self) -> None:
        pass

    @contextmanager
    def running(self):
        yield self

    def state(self) -> ProfileState:
        return ProfileState()


#: Shared disabled profiler; the executor default.  Stateless, so one
#: instance serves every run.
NO_HOSTPROF = NullHostProfiler()


# -- hotspots and flamegraphs --------------------------------------------------
@dataclass(frozen=True)
class Hotspot:
    """One function's share of the sampled host time.

    Attributes:
        label: ``module:qualname`` of the frame.
        component: Simulator component the frame attributes to (see
            :func:`component_of`); IR op frames attribute to ``ir``
            with the op class in the label.
        self_samples: Samples with this frame on top of the stack.
        cum_samples: Samples with this frame anywhere on the stack.
        self_pct: ``self_samples`` as a share of all samples.
    """

    label: str
    component: str
    self_samples: int
    cum_samples: int
    self_pct: float

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "component": self.component,
            "self_samples": self.self_samples,
            "cum_samples": self.cum_samples,
            "self_pct": self.self_pct,
        }


def hotspots(state: ProfileState, top_n: int = 20) -> list[Hotspot]:
    """Top-N hotspot table from a profile's collapsed stacks.

    Self time is the leaf-frame sample count; cumulative time counts a
    frame once per stack it appears on (recursion deduplicated).
    Sorted by self time, ties broken by cumulative then label.
    """
    self_counts: dict[str, int] = {}
    cum_counts: dict[str, int] = {}
    total = 0
    for stack, count in state.stacks.items():
        frames = stack.split(";")
        if not frames:
            continue
        total += count
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for frame in set(frames):
            cum_counts[frame] = cum_counts.get(frame, 0) + count
    rows = [
        Hotspot(
            label=label,
            component=component_of(*label.split(":", 1))
            if ":" in label
            else component_of(label),
            self_samples=count,
            cum_samples=cum_counts[label],
            self_pct=100.0 * count / total if total else 0.0,
        )
        for label, count in self_counts.items()
    ]
    rows.sort(key=lambda h: (-h.self_samples, -h.cum_samples, h.label))
    return rows[:top_n]


def flamegraph_text(state: ProfileState) -> str:
    """The profile's stacks in collapsed-stack (Brendan Gregg) format.

    One ``root;frame;...;leaf count`` line per distinct stack — paste
    into ``flamegraph.pl`` or any collapsed-stack viewer (e.g.
    speedscope) to render the flamegraph.
    """
    lines = [
        f"{stack} {count}" for stack, count in sorted(state.stacks.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_hotspots(rows: list[Hotspot]) -> str:
    """Fixed-width hotspot table (the ``repro profile`` text output)."""
    if not rows:
        return "hotspots: no samples (sampler off or run too short)"
    headers = ("self%", "self", "cum", "component", "function")
    cells = [
        (
            f"{row.self_pct:5.1f}",
            str(row.self_samples),
            str(row.cum_samples),
            row.component,
            row.label,
        )
        for row in rows
    ]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)
    ]
    lines = ["hotspots (statistical, by self samples):"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# -- metrics + artifacts -------------------------------------------------------
def register_host_metrics(registry, state: ProfileState) -> None:
    """Write a profile's headline numbers into a metrics registry.

    Registers ``host.jobs_per_sec`` plus ``host.us_per_job.<phase>``
    for every recorded phase (and ``total``/``other``), so host
    throughput rides the same ``report --gate`` flow as the simulated
    metrics — under the ``host.`` run-name prefix, never mixed into a
    deterministic run's registry.
    """
    registry.counter("host.jobs").inc(state.jobs)
    registry.counter("host.samples").inc(state.samples)
    if state.jobs == 0:
        return
    registry.gauge("host.jobs_per_sec").set(state.jobs_per_sec)
    registry.gauge("host.wall_s").set(state.wall_s)
    registry.gauge("host.us_per_job.total").set(
        state.wall_s * 1e6 / state.jobs
    )
    registry.gauge("host.us_per_job.other").set(
        state.other_s * 1e6 / state.jobs
    )
    for phase in sorted(state.phases):
        registry.gauge(f"host.us_per_job.{phase}").set(state.us_per_job(phase))


def host_metrics(state: ProfileState) -> dict:
    """A profile as a metrics-registry dump (``*.metrics.json`` shape).

    Written as ``host.<run>.metrics.json`` so ``repro report --gate
    BENCH_host_baseline.json --runs host.`` holds host throughput to a
    committed baseline exactly like the SLO gate does simulated
    metrics.
    """
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    register_host_metrics(registry, state)
    return registry.as_dict()


def render_profile(state: ProfileState, title: str = "host profile") -> str:
    """Human-readable phase table + throughput summary."""
    lines = [f"{title}: {state.jobs} jobs in {state.wall_s:.3f}s host time"]
    if state.jobs and state.wall_s > 0:
        lines[0] += f"  ({state.jobs_per_sec:,.0f} jobs/sec)"
    rows = []
    for phase in TOP_PHASES:
        if phase in state.phases:
            rows.append((phase, *state.phases[phase]))
    rows.append(("other", 0, state.other_s))
    for phase in SUB_PHASES:
        if phase in state.phases:
            rows.append((f"governor/{phase}", *state.phases[phase]))
    lines.append(f"{'phase':<18}{'calls':>10}{'total[s]':>12}"
                 f"{'us/job':>10}{'share':>8}")
    for name, calls, total in rows:
        per_job = total * 1e6 / state.jobs if state.jobs else float("nan")
        share = 100.0 * total / state.wall_s if state.wall_s > 0 else 0.0
        lines.append(
            f"{name:<18}{calls:>10}{total:>12.4f}{per_job:>10.1f}"
            f"{share:>7.1f}%"
        )
    if state.samples:
        lines.append(
            f"sampler: {state.samples} stack samples over "
            f"{len(state.stacks)} distinct stacks"
        )
    return "\n".join(lines)


def write_host_profile(
    state: ProfileState,
    directory: pathlib.Path | str,
    run_name: str,
    top_n: int = 30,
) -> list[pathlib.Path]:
    """Write one profile's artifacts into ``directory``; returns paths.

    Four files per run, parallel to :func:`~repro.telemetry.exporters.
    write_run` but host-side (and therefore never byte-stable)::

        <run>.hostprof.json   ProfileState round-trip (merge input)
        <run>.flame.txt       collapsed-stack flamegraph text
        <run>.hotspots.json   top-N hotspot table + phase summary
        <run>.metrics.json    host.* metrics dump (report/gate input)

    Name runs ``host.<...>`` so the metrics file lands under the
    ``host.`` run prefix the CI gate filters on.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(suffix: str, text: str) -> None:
        path = directory / f"{run_name}.{suffix}"
        path.write_text(text)
        written.append(path)

    emit("hostprof.json", json.dumps(state.as_dict(), indent=2) + "\n")
    emit("flame.txt", flamegraph_text(state))
    emit(
        "hotspots.json",
        json.dumps(
            {
                "run": run_name,
                "jobs": state.jobs,
                "wall_s": state.wall_s,
                "jobs_per_sec": (
                    None if state.jobs == 0 or state.wall_s <= 0
                    else state.jobs_per_sec
                ),
                "phases": {
                    name: {"calls": calls, "total_s": total}
                    for name, (calls, total) in sorted(state.phases.items())
                },
                "hotspots": [
                    h.as_dict() for h in hotspots(state, top_n=top_n)
                ],
            },
            indent=2,
        )
        + "\n",
    )
    emit("metrics.json", json.dumps(host_metrics(state), indent=2) + "\n")
    return written


# -- shared measurement methodology --------------------------------------------
def best_of(
    fn: Callable[[], object],
    rounds: int = 5,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Best-of-N wall time of ``fn`` on the host clock, in seconds.

    The one timing loop shared by the perf guards
    (``benchmarks/test_perf.py``) and the profiler CLI, so "the bench
    regressed" and "the profiler says" are claims about the same
    measurement: minimum over rounds (noise-robust), monotonic clock,
    no per-round allocation between the clock reads.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    best = float("inf")
    for _ in range(rounds):
        started = clock()
        fn()
        elapsed = clock() - started
        if elapsed < best:
            best = elapsed
    return best
