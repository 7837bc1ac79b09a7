"""Declarative SLOs: error budgets, multi-window burn rates, alerts.

The paper's value proposition *is* an SLO — meet the per-job response
budget (deadline-miss rate comparable to peak performance) while
minimizing energy — so the watchdog plane states that objective
declaratively and holds every run to it while the run is still going.

The model is the SRE one, translated to per-job events:

- A :class:`SloSpec` maps each completed job to good/bad via a *signal*
  (deadline miss, slack below a floor, energy above a cap, prediction
  under-estimate beyond a tolerance) and declares the *objective*: the
  fraction of bad jobs the service is allowed (e.g. 0.02 = at most 2%
  of jobs may miss).
- The **error budget** is the allowance itself.  After ``n`` jobs the
  budget is ``objective * n`` bad jobs; :attr:`SloTracker.budget_consumed`
  is the fraction of it already spent (>1 means the objective is blown
  for the run so far).
- The **burn rate** over a window is ``(bad / window) / objective`` —
  how many times faster than allowed the budget is being spent.  1.0
  exactly exhausts the budget; 10x exhausts it in a tenth of the run.
- Alerts use **multi-window** evaluation (the SRE fast+slow pattern):
  every :class:`BurnWindow` of a spec must simultaneously exceed its
  threshold.  The long window proves the problem is sustained, the
  short window proves it is still happening, so a transient spike
  neither fires (short recovers) nor masks a real regression (long
  remembers).

Everything here is plain Python and allocation-light: one ring buffer
of booleans per window, O(1) per job.  The consumer is
:mod:`repro.telemetry.watch`, which feeds trackers from the live
telemetry stream; specs round-trip through JSON so suites can be
committed next to a workload.  See ``docs/slo_watchdog.md``.
"""

from __future__ import annotations

import functools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Any, NamedTuple, Sequence

from repro.checks import check_number

__all__ = [
    "SIGNALS",
    "JobObservation",
    "BurnWindow",
    "SloSpec",
    "SloAlert",
    "SloStatus",
    "SloTracker",
    "SloTrackerState",
    "merge_states",
    "fold_state",
    "default_slos",
    "specs_from_json",
]

#: Signals a spec may classify jobs with, and what "bad" means for each.
SIGNALS = (
    "deadline_miss",   # bad: the job finished after its deadline
    "slack_below",     # bad: slack_s < threshold (the tight tail)
    "energy_above",    # bad: the job's energy > threshold joules
    "under_estimate",  # bad: relative residual > threshold (model too slow)
)


class JobObservation(NamedTuple):
    """One completed job as the SLO plane sees it.

    A named tuple rather than a frozen dataclass: one is built per job
    per observer, and a tuple builds in a fraction of the time.

    Attributes:
        index: Job number, 0-based.
        t_s: Completion time on the simulated clock.
        missed: Whether the deadline was missed.
        slack_s: Deadline minus completion (negative on a miss).
        energy_j: Energy this job consumed (NaN when unknown).
        residual_rel: Signed relative prediction residual
            ``(observed - predicted) / predicted`` (NaN when the
            governor does not predict).
        switch_time_s: DVFS switch time charged to this job.
    """

    index: int
    t_s: float
    missed: bool
    slack_s: float
    energy_j: float = float("nan")
    residual_rel: float = float("nan")
    switch_time_s: float = 0.0


@dataclass(frozen=True)
class BurnWindow:
    """One alerting window: ``jobs`` lookback, ``max_burn_rate`` trigger."""

    jobs: int
    max_burn_rate: float

    def __post_init__(self) -> None:
        check_number("burn window", "jobs", self.jobs, count=True)
        check_number("burn window", "max_burn_rate", self.max_burn_rate)
        if self.jobs < 1:
            raise ValueError(
                f"burn window: jobs must cover >= 1 job, got {self.jobs}"
            )
        if self.max_burn_rate <= 0:
            raise ValueError(
                "burn window: max_burn_rate must be positive, "
                f"got {self.max_burn_rate}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "BurnWindow":
        """Read a window from its JSON object.

        Raises ``ValueError`` naming the field for anything but an
        object holding an int ``jobs`` and a finite ``max_burn_rate``.
        """
        if not isinstance(data, dict) or set(data) != {"jobs", "max_burn_rate"}:
            raise ValueError(
                "a burn window must be an object with exactly 'jobs' and "
                f"'max_burn_rate', got {data!r}"
            )
        rate = check_number("burn window", "max_burn_rate", data["max_burn_rate"])
        return cls(jobs=data["jobs"], max_burn_rate=float(rate))


@dataclass(frozen=True)
class SloSpec:
    """One declared objective over the per-job stream.

    Attributes:
        name: Stable identifier (used in alerts, metrics, baselines).
        signal: One of :data:`SIGNALS`.
        objective: Allowed bad-job fraction, in (0, 1).
        threshold: Signal cutoff (min slack seconds for ``slack_below``,
            max joules for ``energy_above``, max relative residual for
            ``under_estimate``; unused by ``deadline_miss``).
        windows: Burn-rate windows that must ALL exceed their trigger
            for an alert to fire.  Ordered long -> short by convention.
        severity: ``"page"`` (urgent, arms the fallback) or ``"ticket"``.
        description: Human-readable intent, shown in alerts.
    """

    name: str
    signal: str
    objective: float
    threshold: float = 0.0
    windows: tuple[BurnWindow, ...] = (
        BurnWindow(jobs=40, max_burn_rate=2.0),
        BurnWindow(jobs=10, max_burn_rate=5.0),
    )
    severity: str = "page"
    description: str = ""

    def __post_init__(self) -> None:
        owner = f"SLO spec {self.name!r}"
        if self.signal not in SIGNALS:
            raise ValueError(
                f"{owner}: unknown signal {self.signal!r}; "
                f"expected one of {SIGNALS}"
            )
        for key in ("objective", "threshold"):
            check_number(owner, key, getattr(self, key))
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"{owner}: objective must be in (0, 1), got {self.objective}"
            )
        if not self.windows:
            raise ValueError(f"{owner}: a spec needs at least one burn window")
        # Burn rates are keyed by window length ("w<jobs>").
        lengths = [window.jobs for window in self.windows]
        for jobs in lengths:
            if lengths.count(jobs) > 1:
                raise ValueError(
                    f"{owner}: two burn windows of {jobs} jobs; each "
                    "window needs its own length"
                )
        if self.severity not in ("page", "ticket"):
            raise ValueError(
                f"{owner}: severity must be 'page' or 'ticket', "
                f"got {self.severity!r}"
            )

    def is_bad(self, obs: JobObservation) -> bool | None:
        """Classify one job; None when the signal is unobservable."""
        if self.signal == "deadline_miss":
            return obs.missed
        if self.signal == "slack_below":
            return obs.slack_s < self.threshold
        if self.signal == "energy_above":
            if math.isnan(obs.energy_j):
                return None
            return obs.energy_j > self.threshold
        # under_estimate
        if math.isnan(obs.residual_rel):
            return None
        return obs.residual_rel > self.threshold

    @classmethod
    def from_dict(cls, data: dict) -> "SloSpec":
        """Read a spec from its JSON object (the dataclass fields, with
        ``windows`` a list of burn-window objects).

        Raises ``ValueError`` naming the spec and the field for a
        missing name, signal, objective or windows, an unknown field, a
        window that is not an object of an int and a finite number, or
        a real that is not a finite number.
        """
        if not isinstance(data, dict):
            raise ValueError(f"an SLO spec must be a JSON object, got {data!r}")
        if "name" not in data:
            raise ValueError(f"SLO spec has no 'name' field: {data!r}")
        owner = f"SLO spec {data['name']!r}"
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"{owner}: unknown field(s) {unknown}")
        for key in ("signal", "objective", "windows"):
            if key not in data:
                raise ValueError(f"{owner}: no {key!r} field")
        if not isinstance(data["windows"], list):
            raise ValueError(
                f"{owner}: windows must be a list, got {data['windows']!r}"
            )
        try:
            windows = tuple(BurnWindow.from_dict(w) for w in data["windows"])
        except ValueError as error:
            raise ValueError(f"{owner}: {error}") from None
        reals = {
            key: float(check_number(owner, key, data[key]))
            for key in ("objective", "threshold")
            if key in data
        }
        return cls(
            name=str(data["name"]),
            signal=str(data["signal"]),
            windows=windows,
            severity=str(data.get("severity", "page")),
            description=str(data.get("description", "")),
            **reals,
        )


@dataclass(frozen=True)
class SloAlert:
    """A burn-rate violation: every window of a spec is over its trigger.

    Attributes:
        spec_name: Which :class:`SloSpec` fired.
        severity: The spec's severity at fire time.
        t_s: Simulated time of the triggering job's completion.
        job_index: The triggering job.
        burn_rates: Burn rate per window, keyed ``"w<jobs>"``.
        budget_consumed: Fraction of the run's error budget spent so far.
        message: One-line human summary.
    """

    spec_name: str
    severity: str
    t_s: float
    job_index: int
    burn_rates: dict[str, float] = field(default_factory=dict)
    budget_consumed: float = 0.0
    message: str = ""

    def as_dict(self) -> dict:
        return {
            "spec_name": self.spec_name,
            "severity": self.severity,
            "t_s": self.t_s,
            "job_index": self.job_index,
            "burn_rates": dict(self.burn_rates),
            "budget_consumed": self.budget_consumed,
            "message": self.message,
        }


@dataclass(frozen=True)
class SloStatus:
    """One tracker's instantaneous view (dashboard row).

    Attributes:
        spec: The spec being tracked.
        jobs: Jobs classified so far (unobservable jobs excluded).
        bad: Bad jobs so far.
        budget_consumed: Fraction of the error budget spent.
        burn_rates: Current burn rate per window, keyed ``"w<jobs>"``.
        firing: Whether the alert condition currently holds.
        alerts: Alerts raised so far.
    """

    spec: SloSpec
    jobs: int
    bad: int
    budget_consumed: float
    burn_rates: dict[str, float]
    firing: bool
    alerts: int


@dataclass(frozen=True)
class SloTrackerState:
    """Picklable, mergeable snapshot of one tracker's accounting.

    This is the transport format of the fleet roll-up: every shard (or
    worker process) tracks its own streams, snapshots them, and the
    coordinator folds the snapshots together with **concatenation
    semantics** — ``merge_states(a, b)`` is exactly the state a single
    tracker would hold after seeing ``a``'s stream followed by ``b``'s.
    That identity is exact for the windowed burn rates and the error
    budget, because each ring stores the last ``window`` classifications
    of its stream and the last ``window`` of a concatenation is a suffix
    of the concatenated rings.  Alert *histories* do not concatenate
    (an alert is a path property of one stream), so merged states carry
    the union of alerts fired on the constituent streams.

    Attributes:
        spec: The objective the streams were classified against.
        jobs: Jobs classified (unobservable jobs excluded).
        bad: Bad jobs.
        rings: Per-window classification tails, oldest first; ring ``i``
            holds at most ``spec.windows[i].jobs`` entries.
        alerts: Alerts raised on the constituent stream(s).
    """

    spec: SloSpec
    jobs: int
    bad: int
    rings: tuple[tuple[bool, ...], ...]
    alerts: tuple[SloAlert, ...] = ()

    def __post_init__(self) -> None:
        if len(self.rings) != len(self.spec.windows):
            raise ValueError(
                f"state has {len(self.rings)} rings for "
                f"{len(self.spec.windows)} windows"
            )
        for ring, window in zip(self.rings, self.spec.windows):
            if len(ring) > window.jobs:
                raise ValueError(
                    f"ring of {len(ring)} entries exceeds its "
                    f"{window.jobs}-job window"
                )

    @property
    def budget_consumed(self) -> float:
        """Bad jobs over the budget the objective grants the stream."""
        if self.jobs == 0:
            return 0.0
        return self.bad / (self.spec.objective * self.jobs)

    def burn_rates(self) -> dict[str, float]:
        """Burn rate per window (0 until a window has data)."""
        rates = {}
        for window, ring in zip(self.spec.windows, self.rings):
            key = f"w{window.jobs}"
            if not ring:
                rates[key] = 0.0
            else:
                rates[key] = (sum(ring) / len(ring)) / self.spec.objective
        return rates

    @property
    def exceeding(self) -> bool:
        """Whether every window currently exceeds its burn-rate trigger.

        The static (order-free) half of the alert condition: a merged
        fleet state "is alerting" when its combined tails burn every
        window too fast, even though no single stream fired.
        """
        return all(
            ring and (sum(ring) / len(ring)) / self.spec.objective
            > window.max_burn_rate
            for window, ring in zip(self.spec.windows, self.rings)
        )


def merge_states(
    first: SloTrackerState, *rest: SloTrackerState
) -> SloTrackerState:
    """Fold tracker states with concatenation semantics, in one pass.

    The result equals the state of one tracker that observed each
    state's stream in turn (exactly, for jobs/bad/rings — see
    :class:`SloTrackerState`), which is what folding them two at a time
    gives: each window's tail is a suffix of the concatenated rings.
    Every state must track the same spec.
    """
    spec = first.spec
    for state in rest:
        if state.spec is not spec and state.spec != spec:
            raise ValueError(
                f"cannot merge states of different specs "
                f"({spec.name!r} vs {state.spec.name!r})"
            )
    states = (first, *rest)
    jobs = bad = 0
    for state in states:
        jobs += state.jobs
        bad += state.bad
    return SloTrackerState(
        spec=spec,
        jobs=jobs,
        bad=bad,
        rings=tuple(
            _tail([state.rings[i] for state in states], window.jobs)
            for i, window in enumerate(spec.windows)
        ),
        alerts=tuple(alert for state in states for alert in state.alerts),
    )


def _tail(rings: list[tuple[bool, ...]], size: int) -> tuple[bool, ...]:
    """The last ``size`` entries of the rings, concatenated in order."""
    parts = []
    held = 0
    for ring in reversed(rings):
        parts.append(ring)
        held += len(ring)
        if held >= size:
            break
    parts.reverse()
    return tuple(chain.from_iterable(parts))[-size:]


class SloTracker:
    """Streams one spec's error-budget accounting and burn-rate alarms.

    An alert fires on the *rising edge* of the all-windows condition and
    re-arms only after the condition clears, so a sustained violation
    produces one alert, not one per job.  No alert fires before the
    stream has filled the shortest window, so the short windows judge
    real data.

    Args:
        spec: The objective to hold the stream to.
    """

    def __init__(self, spec: SloSpec):
        self.spec = spec
        lengths = [w.jobs for w in spec.windows]
        self.min_jobs = min(lengths)
        self._rings = [deque(maxlen=n) for n in lengths]
        self._bad_in_ring = [0] * len(spec.windows)
        # (ring index, ring, length cap, burn-rate trigger) per window:
        # fixed by the spec, read on every observed job.
        self._windows = tuple(
            (i, ring, ring.maxlen, window.max_burn_rate)
            for i, (ring, window) in enumerate(zip(self._rings, spec.windows))
        )
        self.jobs = 0
        self.bad = 0
        self.alerts: list[SloAlert] = []
        self._firing = False

    def _window_key(self, window: BurnWindow) -> str:
        return f"w{window.jobs}"

    def burn_rates(self) -> dict[str, float]:
        """Current burn rate per window (0 until a window has data)."""
        rates = {}
        for window, ring, bad in zip(
            self.spec.windows, self._rings, self._bad_in_ring
        ):
            if not ring:
                rates[self._window_key(window)] = 0.0
            else:
                rates[self._window_key(window)] = (
                    bad / len(ring)
                ) / self.spec.objective
        return rates

    @property
    def budget_consumed(self) -> float:
        """Bad jobs over the budget the objective grants the run so far."""
        if self.jobs == 0:
            return 0.0
        return self.bad / (self.spec.objective * self.jobs)

    def observe(self, obs: JobObservation) -> SloAlert | None:
        """Fold one job in; returns a newly-fired alert, if any."""
        spec = self.spec
        bad = spec.is_bad(obs)
        if bad is None:
            return None
        flag = int(bad)
        self.jobs += 1
        self.bad += flag
        # Over budget when every window burns faster than its trigger
        # (and enough jobs were classified to trust the short windows).
        over = self.jobs >= self.min_jobs
        counts = self._bad_in_ring
        objective = spec.objective
        for i, ring, maxlen, max_burn_rate in self._windows:
            if len(ring) == maxlen:
                counts[i] -= int(ring[0])
            ring.append(bad)
            counts[i] += flag
            if over and not (
                (counts[i] / len(ring)) / objective > max_burn_rate
            ):
                over = False
        if not over:
            self._firing = False
            return None
        if self._firing:
            return None  # still the same sustained violation
        self._firing = True
        alert = _alert(spec, obs, self.burn_rates(), self.bad, self.jobs)
        self.alerts.append(alert)
        return alert

    def state(self) -> SloTrackerState:
        """Snapshot this tracker's mergeable accounting state."""
        return SloTrackerState(
            spec=self.spec,
            jobs=self.jobs,
            bad=self.bad,
            rings=tuple(map(tuple, self._rings)),
            alerts=tuple(self.alerts),
        )

    def status(self) -> SloStatus:
        return SloStatus(
            spec=self.spec,
            jobs=self.jobs,
            bad=self.bad,
            budget_consumed=self.budget_consumed,
            burn_rates=self.burn_rates(),
            firing=self._firing,
            alerts=len(self.alerts),
        )


def _alert(
    spec: SloSpec,
    obs: JobObservation,
    rates: dict[str, float],
    bad: int,
    jobs: int,
) -> SloAlert:
    """The alert ``obs`` fires, after ``bad`` of ``jobs`` classified jobs
    (``jobs`` >= 1) and at burn ``rates``."""
    budget_consumed = bad / (spec.objective * jobs)
    worst = max(rates.values())
    return SloAlert(
        spec_name=spec.name,
        severity=spec.severity,
        t_s=obs.t_s,
        job_index=obs.index,
        burn_rates=rates,
        budget_consumed=budget_consumed,
        message=(
            f"{spec.name}: burning error budget {worst:.1f}x too "
            f"fast ({bad}/{jobs} bad jobs, "
            f"{100 * budget_consumed:.0f}% of budget spent)"
        ),
    )


def fold_state(
    spec: SloSpec, observations: Sequence[JobObservation]
) -> SloTrackerState:
    """The state a fresh :class:`SloTracker` holds after observing
    ``observations`` in order, without a tracker.

    The fleet rolls each finished session up through here.  The stream
    is classified once; the bad count in a window after the ``j``-th
    classified job is a difference of prefix counts, so each job's alert
    test (the tracker's rising edge of "every window over its trigger,
    and at least the shortest window's jobs classified") costs one
    subtraction per window.
    """
    flags = list(map(spec.is_bad, observations))
    if None in flags:
        # The tracker skips an unobservable job.
        observations = [
            obs for obs, flag in zip(observations, flags) if flag is not None
        ]
        flags = [flag for flag in flags if flag is not None]
    jobs = len(flags)
    # prefix[j]: bad jobs among the first j classified.
    prefix = list(accumulate(map(int, flags), initial=0))
    windows = spec.windows
    alerts = []
    min_jobs = min(window.jobs for window in windows)
    if jobs >= min_jobs:
        objective = spec.objective
        firing = False
        for j in range(min_jobs, jobs + 1):
            bad_now = prefix[j]
            for window in windows:
                n = min(window.jobs, j)
                if not (
                    ((bad_now - prefix[j - n]) / n) / objective
                    > window.max_burn_rate
                ):
                    firing = False
                    break
            else:
                if not firing:
                    firing = True
                    rates = {}
                    for window in windows:
                        n = min(window.jobs, j)
                        rates[f"w{window.jobs}"] = (
                            (bad_now - prefix[j - n]) / n
                        ) / objective
                    alerts.append(
                        _alert(spec, observations[j - 1], rates, bad_now, j)
                    )
    return SloTrackerState(
        spec=spec,
        jobs=jobs,
        bad=prefix[-1],
        rings=tuple(tuple(flags[-window.jobs:]) for window in windows),
        alerts=tuple(alerts),
    )


@functools.lru_cache(maxsize=64)
def default_slos(
    budget_s: float | None = None,
    max_energy_per_job_j: float | None = None,
    miss_objective: float = 0.02,
) -> tuple[SloSpec, ...]:
    """The stock SLO suite for an interactive run.

    Memoized: specs are immutable, so callers with equal arguments (every
    session of a fleet tenant) share one suite.

    Args:
        budget_s: The task's per-job budget; enables the slack-floor SLO
            (tight tail) at 5% of the budget.
        max_energy_per_job_j: Per-job energy cap; enables the energy SLO.
        miss_objective: Allowed deadline-miss fraction (paper Fig. 15
            holds the predictive governor near peak-performance rates).
    """
    specs = [
        SloSpec(
            name="deadline-miss-rate",
            signal="deadline_miss",
            objective=miss_objective,
            description=(
                "jobs must meet the response-time budget at a rate "
                "comparable to peak performance (PAPER.md §1)"
            ),
        ),
        SloSpec(
            name="prediction-under-estimate",
            signal="under_estimate",
            objective=0.10,
            threshold=0.10,
            severity="ticket",
            windows=(
                BurnWindow(jobs=40, max_burn_rate=2.0),
                BurnWindow(jobs=10, max_burn_rate=4.0),
            ),
            description=(
                "the model may under-predict by >10% on at most 10% of "
                "jobs — sustained under-estimation precedes miss storms"
            ),
        ),
    ]
    if budget_s is not None:
        specs.append(
            SloSpec(
                name="p95-slack",
                signal="slack_below",
                objective=0.05,
                threshold=0.05 * budget_s,
                severity="ticket",
                description=(
                    "at most 5% of jobs may finish with less than 5% of "
                    "the budget to spare (the p95 tight tail)"
                ),
            )
        )
    if max_energy_per_job_j is not None:
        specs.append(
            SloSpec(
                name="energy-per-job",
                signal="energy_above",
                objective=0.10,
                threshold=max_energy_per_job_j,
                severity="ticket",
                description="per-job energy stays under the declared cap",
            )
        )
    return tuple(specs)


def specs_from_json(text: str) -> tuple[SloSpec, ...]:
    """Parse a spec suite (the ``repro watch --slo FILE`` format): a JSON
    array of objects holding the :class:`SloSpec` fields, each window an
    object of ``jobs`` and ``max_burn_rate``.

    Raises ``ValueError`` for text that is not JSON, a top level that is
    not an array, or a spec that :meth:`SloSpec.from_dict` rejects.
    """
    data: Any = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("SLO file must be a JSON array of spec objects")
    return tuple(SloSpec.from_dict(item) for item in data)
