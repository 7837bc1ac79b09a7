"""The run-matrix planner: baseline plus one-offs over a scenario grid.

An ablation matrix is the cross product of three axes:

- **workloads** — which benchmark the governor is driving;
- **scenarios** — the environment the run happens in (budget tightness,
  timing-jitter magnitude, mid-run drift);
- **variants** — which components are switched off: always the
  all-components-on ``baseline``, one ``no-<component>`` variant per
  registered component, and (opt-in) ``no-a+no-b`` pairwise variants.

Planning is pure: :func:`plan_matrix` produces a frozen, picklable,
JSON-round-trippable :class:`AblationPlan` whose cells enumerate in one
canonical order.  Execution (:mod:`repro.ablation.runner`) derives every
random stream from the cell's *path* (root seed, workload, scenario) —
never from the variant, so baseline and variants replay identical jobs,
jitter, and switch draws and per-job deltas are paired; and never from
the worker, so results are byte-identical for every worker count.

Each variant carries a *fingerprint*: a digest of the merged
(pipeline, adaptive) configs it runs with.  Pairwise combinations whose
merged configs collapse onto an already-planned variant (disabling AIMD
adaptation on top of a zero margin changes nothing, for example) are
dropped at planning time rather than burned as duplicate compute, so a
plan never contains two variants with the same fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from repro.ablation.registry import component_names, configs_without
from repro.workloads.registry import app_names

__all__ = [
    "DEFAULT_SCENARIOS",
    "AblationPlan",
    "CellPlan",
    "Scenario",
    "Variant",
    "plan_matrix",
]


@dataclass(frozen=True)
class Scenario:
    """One environment the matrix replays every variant in.

    Attributes:
        name: Stable identifier (enters seed paths and reports).
        budget_scale: Multiplier on the workload's nominal per-job
            budget — below 1.0 tightens deadlines.
        jitter_sigma: Log-normal timing-noise sigma for the run board.
        drift_factor: Workload slowdown factor applied mid-run
            (1.0 = no drift).
        drift_at_frac: Fraction of the run's span at which the drift
            step lands.
    """

    name: str
    budget_scale: float = 1.0
    jitter_sigma: float = 0.02
    drift_factor: float = 1.0
    drift_at_frac: float = 0.5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.budget_scale <= 0:
            raise ValueError(f"budget_scale must be > 0, got {self.budget_scale}")
        if self.jitter_sigma < 0:
            raise ValueError(f"jitter_sigma must be >= 0, got {self.jitter_sigma}")
        if self.drift_factor <= 0:
            raise ValueError(f"drift_factor must be > 0, got {self.drift_factor}")
        if not 0.0 <= self.drift_at_frac <= 1.0:
            raise ValueError(
                f"drift_at_frac must be in [0, 1], got {self.drift_at_frac}"
            )


#: The grid the acceptance evidence was tuned on: a nominal cell, a
#: heavy-jitter cell (where margins and asymmetry earn their keep), and
#: a mid-run drift cell (where recalibration and fallback earn theirs).
DEFAULT_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(name="nominal"),
    Scenario(name="jitter", jitter_sigma=0.10),
    Scenario(name="drift", drift_factor=1.4),
)


@dataclass(frozen=True)
class Variant:
    """One config point of the matrix.

    Attributes:
        name: ``baseline``, ``no-<component>``, or ``no-a+no-b``.
        disabled: Registered component names switched off, in registry
            order (empty for the baseline).
        fingerprint: Digest of the merged (pipeline, adaptive) configs —
            two variants with equal fingerprints would run identical
            code, so a plan never contains both.
    """

    name: str
    disabled: tuple[str, ...] = ()
    fingerprint: str = ""

    @property
    def is_baseline(self) -> bool:
        return not self.disabled


@dataclass(frozen=True)
class CellPlan:
    """One unit of execution: (workload, scenario, variant).

    Self-contained and picklable — a worker process can run a cell from
    this object alone.  ``seed`` is the matrix root seed; the runner
    derives each stream from ``(seed, "ablate", workload, scenario,
    purpose)``, deliberately excluding the variant and the worker.
    """

    workload: str
    scenario: Scenario
    variant: Variant
    seed: int
    n_jobs: int
    profile_jobs: int
    switch_samples: int


@dataclass(frozen=True)
class AblationPlan:
    """The full planned matrix, in canonical execution order.

    Attributes:
        workloads: Benchmark names, in requested order.
        scenarios: Scenario grid, in requested order.
        variants: ``baseline`` first, then one-offs in registry order,
            then any pairwise variants.
        seed: Root seed for every derived stream.
        n_jobs: Jobs per cell.
        profile_jobs: Offline profiling sample size per controller.
        switch_samples: Switch-microbenchmark samples per OPP pair.
    """

    workloads: tuple[str, ...]
    scenarios: tuple[Scenario, ...]
    variants: tuple[Variant, ...]
    seed: int
    n_jobs: int
    profile_jobs: int
    switch_samples: int
    dropped_duplicates: tuple[str, ...] = field(default=())

    @property
    def cells(self) -> tuple[CellPlan, ...]:
        """Every cell, in canonical (workload, scenario, variant) order."""
        return tuple(
            CellPlan(
                workload=workload,
                scenario=scenario,
                variant=variant,
                seed=self.seed,
                n_jobs=self.n_jobs,
                profile_jobs=self.profile_jobs,
                switch_samples=self.switch_samples,
            )
            for workload in self.workloads
            for scenario in self.scenarios
            for variant in self.variants
        )

    def to_json(self) -> str:
        """Canonical JSON rendering (round-trips via :meth:`from_json`)."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AblationPlan":
        raw = json.loads(text)
        return cls(
            workloads=tuple(raw["workloads"]),
            scenarios=tuple(
                Scenario(**scenario) for scenario in raw["scenarios"]
            ),
            variants=tuple(
                Variant(
                    name=variant["name"],
                    disabled=tuple(variant["disabled"]),
                    fingerprint=variant["fingerprint"],
                )
                for variant in raw["variants"]
            ),
            seed=raw["seed"],
            n_jobs=raw["n_jobs"],
            profile_jobs=raw["profile_jobs"],
            switch_samples=raw["switch_samples"],
            dropped_duplicates=tuple(raw.get("dropped_duplicates", ())),
        )


def _fingerprint(
    disabled: Sequence[str], profile_jobs: int, switch_samples: int
) -> str:
    """Digest of the merged configs a variant would run with."""
    from repro.ablation.registry import baseline_pipeline

    pipeline, adaptive = configs_without(
        disabled,
        pipeline=baseline_pipeline(
            n_profile_jobs=profile_jobs, switch_samples=switch_samples
        ),
    )
    rendered = json.dumps(
        {"pipeline": asdict(pipeline), "adaptive": asdict(adaptive)},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha1(rendered.encode()).hexdigest()[:12]


def _registry_order(names: Iterable[str]) -> tuple[str, ...]:
    order = {name: i for i, name in enumerate(component_names())}
    return tuple(sorted(names, key=order.__getitem__))


def plan_matrix(
    workloads: Sequence[str],
    seed: int = 42,
    components: Sequence[str] | None = None,
    scenarios: Sequence[Scenario] | None = None,
    pairwise: bool = False,
    n_jobs: int = 150,
    profile_jobs: int = 60,
    switch_samples: int = 40,
) -> AblationPlan:
    """Plan the ablation matrix.

    Args:
        workloads: Benchmark names (validated against the registry).
        seed: Root seed; the only entropy source for the whole matrix.
        components: Components to ablate; all registered by default.
        scenarios: Scenario grid; :data:`DEFAULT_SCENARIOS` by default.
        pairwise: Also plan every two-component-off combination (those
            whose merged configs duplicate an earlier variant are
            dropped, and recorded in ``dropped_duplicates``).
        n_jobs: Jobs per cell.
        profile_jobs: Profiling sample size for each trained controller.
        switch_samples: Switch-microbenchmark samples per OPP pair.

    Raises:
        KeyError: Unknown workload or component name.
        ValueError: Empty workloads, duplicate names, or bad sizes.
    """
    if not workloads:
        raise ValueError("at least one workload is required")
    if len(set(workloads)) != len(workloads):
        raise ValueError(f"duplicate workloads: {list(workloads)}")
    known_apps = set(app_names())
    for workload in workloads:
        if workload not in known_apps:
            raise KeyError(
                f"unknown app {workload!r}; available: "
                + ", ".join(sorted(known_apps))
            )
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if profile_jobs < 2:
        raise ValueError(f"profile_jobs must be >= 2, got {profile_jobs}")
    if switch_samples < 1:
        raise ValueError(f"switch_samples must be >= 1, got {switch_samples}")

    chosen = (
        _registry_order(set(components))
        if components is not None
        else component_names()
    )
    if components is not None:
        if not chosen:
            raise ValueError("at least one component is required")
        if len(set(components)) != len(tuple(components)):
            raise ValueError(f"duplicate components: {list(components)}")

    scenario_grid = (
        tuple(scenarios) if scenarios is not None else DEFAULT_SCENARIOS
    )
    if not scenario_grid:
        raise ValueError("at least one scenario is required")
    if len({s.name for s in scenario_grid}) != len(scenario_grid):
        raise ValueError(
            f"duplicate scenario names: {[s.name for s in scenario_grid]}"
        )

    def build(disabled: tuple[str, ...]) -> Variant:
        name = (
            "baseline"
            if not disabled
            else "+".join(f"no-{component}" for component in disabled)
        )
        return Variant(
            name=name,
            disabled=disabled,
            fingerprint=_fingerprint(disabled, profile_jobs, switch_samples),
        )

    variants: list[Variant] = [build(())]
    seen = {variants[0].fingerprint: variants[0].name}
    dropped: list[str] = []
    singles = [build((component,)) for component in chosen]
    pairs = (
        [build(pair) for pair in combinations(chosen, 2)] if pairwise else []
    )
    for variant in singles + pairs:
        if variant.fingerprint in seen:
            dropped.append(
                f"{variant.name} (== {seen[variant.fingerprint]})"
            )
            continue
        seen[variant.fingerprint] = variant.name
        variants.append(variant)

    return AblationPlan(
        workloads=tuple(workloads),
        scenarios=scenario_grid,
        variants=tuple(variants),
        seed=seed,
        n_jobs=n_jobs,
        profile_jobs=profile_jobs,
        switch_samples=switch_samples,
        dropped_duplicates=tuple(dropped),
    )
