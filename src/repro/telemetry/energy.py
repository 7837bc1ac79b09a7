"""Energy attribution: a conservation-checked per-job energy ledger.

The paper's whole evaluation is energy-normalized (56% saving vs. the
performance governor, Fig. 15), yet a run used to observe energy only as
end-of-run scalars.  This module splits the board's exact power-timeline
integral into **per-job x per-phase x per-OPP** cells as the run
executes, with three guarantees:

- **Conservation.**  Every appended power segment flows through the
  board's segment observer into exactly one cell, so the attributed
  cells sum to ``board.energy_j()`` (plus separately-tracked predictor
  overlap) to within float-fold noise — machine-checked at 1e-9 by
  :meth:`EnergyLedger.conservation_error_j`, in the style of the
  decision-attribution sum identity.

- **A live savings estimator.**  Each segment also contributes to an
  embedded *performance-governor counterfactual*: the energy the same
  job stream would have cost pinned at fmax.  Execute segments are
  re-timed cycle-preservingly (busy for ``d * f/fmax`` at full-activity
  fmax power, idle for the remainder); every other segment — predictor
  slices, switches, idles, feedback — maps to fmax idle time, because
  the performance governor runs no predictor and never switches.  The
  normalized saving ``1 - actual/counterfactual`` turns the paper's
  headline number into a continuously observed, gateable metric.  It is
  a first-order model (arrival-driven idle is not re-simulated), which
  is exactly what a live estimator can afford.

- **Mergeable state.**  :class:`EnergyState` is a frozen, picklable
  snapshot whose marginals (phase, OPP residency, counterfactual) add
  across sessions — the same fold-together shape as
  :class:`~repro.telemetry.hostprof.ProfileState` — so fleet shards
  attribute locally and the coordinator rolls up per-tenant joules,
  fleet J/job, and top-K energy-hungry tenants without re-walking any
  timeline.

Phases: ``predict`` (governor decision slice), ``switch`` (DVFS
transition), ``execute`` (job work), ``idle`` (clock-gated waits),
``feedback`` (post-job adaptation work), plus the off-timeline
``predictor_overlap`` bucket for pipelined/parallel predictor placements
whose slice energy overlaps job execution.

Cost discipline matches the rest of the telemetry subsystem: the
default is the :data:`NO_ENERGY_LEDGER` singleton with ``enabled`` set
False, every instrumentation site guards on it, and the perf bench
proves a disabled run allocates nothing here.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.checks import check_number

__all__ = [
    "ENERGY_PHASES",
    "OVERLAP_PHASE",
    "EnergyState",
    "merge_energy",
    "EnergyLedger",
    "NullEnergyLedger",
    "NO_ENERGY_LEDGER",
    "CONSERVATION_TOL_J",
    "energy_metrics",
    "register_energy_metrics",
    "render_energy",
    "render_energy_cells",
    "write_energy_report",
]

#: On-timeline attribution phases, in ledger/report order.
ENERGY_PHASES = ("predict", "switch", "execute", "idle", "feedback")

#: The off-timeline bucket: predictor-slice energy spent on cycles that
#: overlapped job execution (pipelined/parallel placements).  It adds to
#: the run's total energy but corresponds to no timeline segment.
OVERLAP_PHASE = "predictor_overlap"

#: Conservation invariant tolerance: attributed cells must reproduce the
#: board's exact energy integral to within this many joules.
CONSERVATION_TOL_J = 1e-9

#: Timeline tag -> ledger phase for the unambiguous tags.  "predictor"
#: is context-dependent (predict vs feedback) and resolved by the
#: ledger's feedback flag.
_TAG_PHASES = {"job": "execute", "switch": "switch", "idle": "idle"}


@dataclass(frozen=True)
class EnergyState:
    """Serializable, mergeable snapshot of one ledger's attribution.

    The fleet transport format: every marginal is additive, so folding
    two states with :func:`merge_energy` equals the state one ledger
    would hold after watching both runs.  Per-job cells deliberately do
    not ride along — they are live-ledger detail for the CLI; a fleet
    of thousands of sessions rolls up marginals only.

    Attributes:
        jobs: Jobs attributed (``begin_job`` calls).
        total_j: Attributed energy, including predictor overlap.
        overlap_j: The off-timeline predictor-overlap share of
            ``total_j``.
        counterfactual_j: Energy of the embedded performance-governor
            counterfactual over the same segments.
        by_phase: ``phase -> joules`` (on-timeline phases plus
            :data:`OVERLAP_PHASE` when any overlap accrued).
        time_by_phase: ``phase -> seconds`` of timeline residency
            (overlap contributes no time).
        by_opp_mhz: ``freq_mhz -> joules`` OPP-residency marginal.
    """

    jobs: int = 0
    total_j: float = 0.0
    overlap_j: float = 0.0
    counterfactual_j: float = 0.0
    by_phase: Mapping[str, float] = field(default_factory=dict)
    time_by_phase: Mapping[str, float] = field(default_factory=dict)
    by_opp_mhz: Mapping[float, float] = field(default_factory=dict)

    @property
    def savings_frac(self) -> float:
        """Normalized saving vs. the counterfactual (NaN before data)."""
        if self.counterfactual_j <= 0.0:
            return float("nan")
        return 1.0 - self.total_j / self.counterfactual_j

    @property
    def j_per_job(self) -> float:
        """Mean attributed joules per job (NaN before any job)."""
        if self.jobs == 0:
            return float("nan")
        return self.total_j / self.jobs

    def phase_j(self, phase: str) -> float:
        """Attributed joules for one phase (0 if never hit)."""
        return self.by_phase.get(phase, 0.0)

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "total_j": self.total_j,
            "overlap_j": self.overlap_j,
            "counterfactual_j": self.counterfactual_j,
            "by_phase": {k: v for k, v in sorted(self.by_phase.items())},
            "time_by_phase": {
                k: v for k, v in sorted(self.time_by_phase.items())
            },
            # JSON keys are strings; freq in MHz round-trips via float().
            "by_opp_mhz": {
                f"{mhz:g}": joules
                for mhz, joules in sorted(self.by_opp_mhz.items())
            },
        }

    @classmethod
    def from_dict(
        cls, data: object, owner: str = "energy state"
    ) -> "EnergyState":
        """Rebuild a state from :meth:`as_dict`.

        A missing or malformed field raises a one-line ``ValueError``
        naming ``owner`` and the field: ``jobs`` must be an int, and
        every real (map values and OPP keys included) a finite number.
        """
        if not isinstance(data, dict):
            raise ValueError(f"{owner} must be a JSON object, got {data!r}")
        for key in ("jobs", "total_j"):
            if key not in data:
                raise ValueError(f"{owner}: no {key!r} field")

        def real(key: str, value: object) -> float:
            return float(check_number(owner, key, value))

        def reals(key: str) -> dict:
            mapping = data.get(key, {})
            if not isinstance(mapping, dict):
                raise ValueError(
                    f"{owner}: {key} must be a JSON object, got {mapping!r}"
                )
            return {k: real(f"{key}[{k!r}]", v) for k, v in mapping.items()}

        def mhz(key: object) -> float:
            # JSON keys are strings; freq in MHz round-trips via float().
            try:
                key = float(key)
            except (TypeError, ValueError):
                pass
            return real("by_opp_mhz key", key)

        return cls(
            jobs=check_number(owner, "jobs", data["jobs"], count=True),
            total_j=real("total_j", data["total_j"]),
            overlap_j=real("overlap_j", data.get("overlap_j", 0.0)),
            counterfactual_j=real(
                "counterfactual_j", data.get("counterfactual_j", 0.0)
            ),
            by_phase={str(k): v for k, v in reals("by_phase").items()},
            time_by_phase={
                str(k): v for k, v in reals("time_by_phase").items()
            },
            by_opp_mhz={
                mhz(k): v for k, v in reals("by_opp_mhz").items()
            },
        )


def _merge_maps(first: Mapping, second: Mapping) -> dict:
    merged = dict(first)
    for key, value in second.items():
        merged[key] = merged.get(key, 0.0) + value
    return merged


def merge_energy(first: EnergyState, second: EnergyState) -> EnergyState:
    """Fold two energy states with concatenation semantics.

    Every field is additive, so the result equals the state one ledger
    would hold after attributing ``first``'s run and then ``second``'s.
    The fleet coordinator folds session states in canonical (roster
    order, session index) order, which keeps the float sums — and
    therefore the rendered report — bit-identical across shard and
    worker partitionings.
    """
    return EnergyState(
        jobs=first.jobs + second.jobs,
        total_j=first.total_j + second.total_j,
        overlap_j=first.overlap_j + second.overlap_j,
        counterfactual_j=first.counterfactual_j + second.counterfactual_j,
        by_phase=_merge_maps(first.by_phase, second.by_phase),
        time_by_phase=_merge_maps(first.time_by_phase, second.time_by_phase),
        by_opp_mhz=_merge_maps(first.by_opp_mhz, second.by_opp_mhz),
    )


class EnergyLedger:
    """Live per-job x per-phase x per-OPP energy attribution.

    Subscribe it to a board (``board.set_segment_observer(ledger.observe)``)
    and tell it about job boundaries; every power segment then lands in
    exactly one cell.  The executor drives the three context hooks:

    - :meth:`begin_job` before each job's release wait;
    - :meth:`begin_feedback` / :meth:`end_feedback` around post-job
      adaptation work (whose timeline tag, "predictor", is otherwise
      indistinguishable from the decision slice);
    - :meth:`add_overlap` when a pipelined/parallel predictor placement
      accrues off-timeline slice energy.

    Args:
        power: The board's power model (counterfactual pricing).
        opps: The board's OPP table (fmax reference + index -> MHz).

    Attributes:
        enabled: Always True here; :class:`NullEnergyLedger` is the off
            switch.
    """

    enabled = True

    def __init__(self, power, opps):
        self.power = power
        self.opps = opps
        fmax = opps.fmax
        self._fmax_hz = fmax.freq_hz
        self._fmax_busy_w = power.power(fmax, activity=1.0)
        self._fmax_idle_w = power.power(fmax, activity=power.idle_activity)
        self._mhz = tuple(p.freq_mhz for p in opps)
        # (job, phase, opp_index) -> [energy_j, duration_s]
        self._cells: dict[tuple[int, str, int], list[float]] = {}
        self._job = -1
        self._jobs = 0
        self._feedback = False
        self._total_j = 0.0
        self._overlap_j = 0.0
        self._counterfactual_j = 0.0

    # -- executor context hooks ------------------------------------------------
    def begin_job(self, index: int) -> None:
        """Attribute subsequent segments (release wait included) to a job."""
        self._job = index
        self._jobs += 1
        self._feedback = False

    def begin_feedback(self) -> None:
        """Segments tagged "predictor" now mean post-job adaptation."""
        self._feedback = True

    def end_feedback(self) -> None:
        self._feedback = False

    def add_overlap(self, energy_j: float) -> None:
        """Account predictor-slice energy that overlapped job execution."""
        self._overlap_j += energy_j
        self._total_j += energy_j
        cell = self._cell(self._job, OVERLAP_PHASE, self.opps.fmax.index)
        cell[0] += energy_j
        # Overlapped cycles cost the counterfactual nothing: they occupy
        # no wall-clock of their own.

    # -- the board hook --------------------------------------------------------
    def observe(self, segment, opp_index: int) -> None:
        """Attribute one power segment (the board's observer callback)."""
        tag = segment.tag
        phase = _TAG_PHASES.get(tag)
        if phase is None:
            if tag == "predictor":
                phase = "feedback" if self._feedback else "predict"
            else:
                phase = tag or "untagged"
        energy = segment.energy_j
        duration = segment.duration_s
        cell = self._cell(self._job, phase, opp_index)
        cell[0] += energy
        cell[1] += duration
        self._total_j += energy
        if phase == "execute":
            # Cycle-preserving re-timing: the counterfactual runs the
            # same cycles at fmax, busy for d*f/fmax, idle the rest.
            busy_frac = self.opps[opp_index].freq_hz / self._fmax_hz
            self._counterfactual_j += duration * (
                busy_frac * self._fmax_busy_w
                + (1.0 - busy_frac) * self._fmax_idle_w
            )
        else:
            # The performance governor runs no predictor, never
            # switches, and spends this wall-clock idling at fmax.
            self._counterfactual_j += duration * self._fmax_idle_w
        return None

    def _cell(self, job: int, phase: str, opp_index: int) -> list[float]:
        key = (job, phase, opp_index)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [0.0, 0.0]
        return cell

    # -- invariants and views --------------------------------------------------
    @property
    def total_j(self) -> float:
        """Attributed energy so far, predictor overlap included."""
        return self._total_j

    @property
    def overlap_j(self) -> float:
        return self._overlap_j

    @property
    def counterfactual_j(self) -> float:
        return self._counterfactual_j

    @property
    def savings_frac(self) -> float:
        if self._counterfactual_j <= 0.0:
            return float("nan")
        return 1.0 - self._total_j / self._counterfactual_j

    def conservation_error_j(self, board_energy_j: float) -> float:
        """``|attributed - (board integral + overlap)|`` in joules.

        The machine-checked invariant: every timeline segment flowed
        through :meth:`observe` and overlap was added on both sides, so
        this is zero up to float-fold noise.  Callers assert it is at
        most :data:`CONSERVATION_TOL_J`.
        """
        return abs(self._total_j - (board_energy_j + self._overlap_j))

    def check_conservation(self, board) -> float:
        """Assert the invariant against a board; returns the error.

        Raises:
            ValueError: If the attributed total misses the board's
                energy integral by more than :data:`CONSERVATION_TOL_J`.
        """
        error = self.conservation_error_j(board.energy_j())
        if error > CONSERVATION_TOL_J:
            raise ValueError(
                f"energy attribution leaked {error:.3e} J: ledger "
                f"{self._total_j!r} J vs board "
                f"{board.energy_j() + self._overlap_j!r} J"
            )
        return error

    def cells(self) -> dict[tuple[int, str, int], tuple[float, float]]:
        """Per-(job, phase, opp_index) -> (energy_j, duration_s) detail."""
        return {
            key: (energy, duration)
            for key, (energy, duration) in self._cells.items()
        }

    def job_energy_j(self, job: int) -> float:
        """Attributed energy of one job across all phases and OPPs."""
        return sum(
            energy
            for (j, _, _), (energy, _) in self._cells.items()
            if j == job
        )

    def top_jobs(self, top_n: int = 10) -> list[tuple[int, float]]:
        """The ``top_n`` energy-hungriest jobs as (job, joules) pairs."""
        totals: dict[int, float] = {}
        for (job, _, _), (energy, _) in self._cells.items():
            totals[job] = totals.get(job, 0.0) + energy
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top_n]

    def state(self) -> EnergyState:
        """Snapshot the marginals (mergeable, picklable, serializable)."""
        by_phase: dict[str, float] = {}
        time_by_phase: dict[str, float] = {}
        by_opp: dict[float, float] = {}
        for (_, phase, opp_index), (energy, duration) in sorted(
            self._cells.items()
        ):
            by_phase[phase] = by_phase.get(phase, 0.0) + energy
            if phase != OVERLAP_PHASE:
                time_by_phase[phase] = (
                    time_by_phase.get(phase, 0.0) + duration
                )
            mhz = self._mhz[opp_index]
            by_opp[mhz] = by_opp.get(mhz, 0.0) + energy
        return EnergyState(
            jobs=self._jobs,
            total_j=self._total_j,
            overlap_j=self._overlap_j,
            counterfactual_j=self._counterfactual_j,
            by_phase=by_phase,
            time_by_phase=time_by_phase,
            by_opp_mhz=by_opp,
        )


class NullEnergyLedger:
    """The no-op twin of :class:`EnergyLedger` — the zero-cost default.

    ``enabled`` is False, so instrumentation sites skip attribution
    entirely; the methods exist (and do nothing) so unguarded calls are
    still safe, and :meth:`state` yields a valid empty snapshot.
    """

    enabled = False

    def begin_job(self, index: int) -> None:
        pass

    def begin_feedback(self) -> None:
        pass

    def end_feedback(self) -> None:
        pass

    def add_overlap(self, energy_j: float) -> None:
        pass

    def observe(self, segment, opp_index: int) -> None:
        pass

    def conservation_error_j(self, board_energy_j: float) -> float:
        return 0.0

    def state(self) -> EnergyState:
        return EnergyState()


#: Shared disabled ledger; the executor default.  Stateless, so one
#: instance serves every run.
NO_ENERGY_LEDGER = NullEnergyLedger()


# -- metrics ------------------------------------------------------------------
def register_energy_metrics(registry, state: EnergyState) -> None:
    """Write a state's headline numbers into a metrics registry.

    Registers ``energy.*`` so attribution rides the same ``report
    --gate`` flow as the rest of the metrics: ``energy.total_j`` /
    ``energy.j_per_job`` / phase gauges gate lower-is-better (the
    "energy" direction token), ``energy.savings_frac`` gates
    higher-is-better (the "savings" token), counts are neutral.
    """
    registry.counter("energy.jobs").inc(state.jobs)
    registry.gauge("energy.total_j").set(state.total_j)
    registry.gauge("energy.counterfactual_j").set(state.counterfactual_j)
    registry.gauge("energy.predictor_overlap_j").set(state.overlap_j)
    if state.jobs:
        registry.gauge("energy.j_per_job").set(state.j_per_job)
    if not math.isnan(state.savings_frac):
        registry.gauge("energy.savings_frac").set(state.savings_frac)
    for phase, joules in sorted(state.by_phase.items()):
        registry.gauge(f"energy.phase_j[{phase}]").set(joules)
    for mhz, joules in sorted(state.by_opp_mhz.items()):
        registry.gauge(f"energy.opp_j[{mhz:g}]").set(joules)


def energy_metrics(
    state: EnergyState, conservation_error_j: float | None = None
) -> dict:
    """A state as a metrics-registry dump (``*.metrics.json`` shape).

    Written as ``energy.<run>.metrics.json`` so ``repro report --gate
    BENCH_energy_baseline.json --runs energy.`` holds attribution to a
    committed baseline exactly like the SLO gate does.  When the caller
    measured the conservation error against a live board it rides along
    as ``energy.conservation_error_j`` — a gauge the baseline pins at
    (effectively) zero, making the invariant itself gateable.
    """
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    register_energy_metrics(registry, state)
    if conservation_error_j is not None:
        registry.gauge("energy.conservation_error_j").set(
            conservation_error_j
        )
    return registry.as_dict()


# -- renderers ----------------------------------------------------------------
def render_energy(state: EnergyState, title: str = "energy ledger") -> str:
    """Human-readable phase table + savings summary."""
    lines = [
        f"{title}: {state.total_j:.4f} J attributed over {state.jobs} jobs"
    ]
    if state.jobs:
        lines[0] += f"  ({state.j_per_job * 1e3:.2f} mJ/job)"
    lines.append(
        f"{'phase':<18}{'energy[J]':>12}{'time[s]':>10}{'share':>8}"
    )
    phases = list(ENERGY_PHASES)
    if state.phase_j(OVERLAP_PHASE) > 0.0:
        phases.append(OVERLAP_PHASE)
    for phase in phases:
        joules = state.phase_j(phase)
        seconds = state.time_by_phase.get(phase, 0.0)
        share = 100.0 * joules / state.total_j if state.total_j > 0 else 0.0
        lines.append(
            f"{phase:<18}{joules:>12.4f}{seconds:>10.3f}{share:>7.1f}%"
        )
    if state.by_opp_mhz:
        residency = "  ".join(
            f"{mhz:g}MHz={joules:.3f}J"
            for mhz, joules in sorted(state.by_opp_mhz.items())
        )
        lines.append(f"opp residency: {residency}")
    if not math.isnan(state.savings_frac):
        lines.append(
            f"vs performance governor: {state.counterfactual_j:.4f} J "
            f"counterfactual -> {100.0 * state.savings_frac:.1f}% saved"
        )
    return "\n".join(lines)


def render_energy_cells(
    ledger: EnergyLedger, top_n: int = 10
) -> str:
    """Top-N energy-hungriest jobs with their per-phase split."""
    top = ledger.top_jobs(top_n)
    if not top:
        return "energy cells: no jobs attributed"
    cells = ledger.cells()
    lines = [f"top-{len(top)} energy-hungriest jobs:"]
    header = f"{'job':>6}{'total[mJ]':>12}"
    phases = list(ENERGY_PHASES) + [OVERLAP_PHASE]
    present = [
        p for p in phases if any(key[1] == p for key in cells)
    ]
    for phase in present:
        header += f"{phase:>{max(len(phase) + 2, 10)}}"
    lines.append(header)
    for job, total in top:
        row = f"{job:>6}{total * 1e3:>12.3f}"
        for phase in present:
            joules = sum(
                energy
                for (j, p, _), (energy, _) in cells.items()
                if j == job and p == phase
            )
            row += f"{joules * 1e3:>{max(len(phase) + 2, 10)}.3f}"
        lines.append(row)
    lines.append("(per-phase columns in mJ)")
    return "\n".join(lines)


# -- artifacts ----------------------------------------------------------------
def write_energy_report(
    ledger: EnergyLedger,
    directory: pathlib.Path | str,
    run_name: str,
    conservation_error_j: float | None = None,
    top_n: int = 10,
) -> list[pathlib.Path]:
    """Write one run's energy artifacts into ``directory``; returns paths.

    Two files per run, parallel to the host-profile writer::

        <run>.energy.json     EnergyState round-trip + top jobs
        <run>.metrics.json    energy.* metrics dump (report/gate input)

    Name runs ``energy.<...>`` so the metrics file lands under the
    ``energy.`` run prefix the CI gate filters on.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    state = ledger.state()
    written = []

    def emit(suffix: str, text: str) -> None:
        path = directory / f"{run_name}.{suffix}"
        path.write_text(text)
        written.append(path)

    payload = {
        "run": run_name,
        "state": state.as_dict(),
        "savings_frac": (
            None if math.isnan(state.savings_frac) else state.savings_frac
        ),
        "conservation_error_j": conservation_error_j,
        "top_jobs": [
            {"job": job, "energy_j": joules}
            for job, joules in ledger.top_jobs(top_n)
        ],
    }
    emit("energy.json", json.dumps(payload, indent=2) + "\n")
    emit(
        "metrics.json",
        json.dumps(
            energy_metrics(state, conservation_error_j), indent=2
        )
        + "\n",
    )
    return written
