"""The component registry: every togglable mechanism as declared data.

An ablation is only trustworthy when "component off" means exactly one
thing everywhere it is used — in the run matrix, in the benchmarks, in
the docs.  This module is that single enumeration.  Each
:class:`Component` names one control-plane mechanism and carries the
config overrides that disable it:

``pipeline_off``
    Field overrides applied to the offline
    :class:`~repro.pipeline.config.PipelineConfig` (they change what the
    trained controller looks like, so each distinct pipeline config
    trains its own controller).
``adaptive_off``
    Field overrides applied to the online
    :class:`~repro.governors.adaptive.AdaptiveConfig` (they change the
    run-time loop only; the controller is shared with the baseline).

The ablation *baseline* is the full mechanism set: paper-default
pipeline knobs plus an :class:`AdaptiveConfig` with the certificate
bound-skip armed (the one mechanism the historical adaptive path left
off by default).  Variants are produced by merging one or more
components' off-overrides onto that baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro.governors.adaptive import AdaptiveConfig
from repro.pipeline.config import PipelineConfig
from repro.platform.opp import (
    OppTable,
    default_xu3_a15_table,
    default_xu3_a7_table,
)
from repro.platform.power import (
    PowerModel,
    default_a15_power_model,
    default_a7_power_model,
)

__all__ = [
    "Component",
    "COMPONENTS",
    "Platform",
    "PLATFORMS",
    "baseline_adaptive",
    "baseline_pipeline",
    "batch_governor",
    "component_names",
    "configs_without",
    "get_component",
]


@dataclass(frozen=True)
class Component:
    """One togglable mechanism and the overrides that switch it off.

    Attributes:
        name: Stable identifier (CLI ``--components``, metric names,
            variant names all use it).
        title: Short human-readable label for tables.
        summary: One sentence on what the mechanism buys — shown in the
            ranked report so a reader does not need the source.
        pipeline_off: ``(field, value)`` overrides on the baseline
            :class:`PipelineConfig` when this component is disabled.
        adaptive_off: ``(field, value)`` overrides on the baseline
            :class:`AdaptiveConfig` when this component is disabled.
        adaptive_post: Optional transform applied *after* all static
            overrides merged — for off-states that are relative to the
            merged config rather than absolute values (the AIMD freeze
            pins floor/ceiling to whatever the merged initial margin
            is, so it composes with the margin-off component).
    """

    name: str
    title: str
    summary: str
    pipeline_off: tuple[tuple[str, object], ...] = ()
    adaptive_off: tuple[tuple[str, object], ...] = ()
    adaptive_post: Callable[[AdaptiveConfig], AdaptiveConfig] | None = None


#: Every registered mechanism, in report order.  The off-state semantics
#: live here and nowhere else.
COMPONENTS: tuple[Component, ...] = (
    Component(
        name="asymmetric_loss",
        title="asymmetric loss",
        summary=(
            "Penalize under-prediction alpha-fold during training and "
            "weight under-predicted samples in the online RLS update "
            "(paper §3.3/Fig. 20); off = symmetric least squares."
        ),
        pipeline_off=(("alpha", 1.0),),
        adaptive_off=(("under_weight", 1.0),),
    ),
    Component(
        name="safety_margin",
        title="safety margin",
        summary=(
            "Inflate predictions by a safety margin before picking a "
            "frequency (paper §3.4); off = margin pinned to zero, "
            "offline and online."
        ),
        pipeline_off=(("margin", 0.0),),
        adaptive_off=(
            ("margin_initial", 0.0),
            ("margin_floor", 0.0),
            ("margin_ceiling", 0.0),
        ),
    ),
    Component(
        name="slicing",
        title="program slicing",
        summary=(
            "Predict from a dependence-pruned slice instead of "
            "re-running the whole program (paper §3.2); off = the "
            "predictor executes the full instrumented program "
            "(certification downgraded to warn: the full body need not "
            "pass the slice purity rule)."
        ),
        pipeline_off=(("slice_mode", "full"), ("certify", "warn")),
    ),
    Component(
        name="recalibration",
        title="online recalibration",
        summary=(
            "Fold observed residuals back into the anchor models with "
            "weighted RLS; off = offline coefficients frozen for the "
            "whole run."
        ),
        adaptive_off=(("recalibrate", False),),
    ),
    Component(
        name="bound_skip",
        title="certifier bound-skip",
        summary=(
            "Use the slice certificate's worst-case cost bound in the "
            "decision path: skip the slice (pin fmax) when even the "
            "bound cannot fit, and keep its unspent remainder reserved; "
            "off = the certificate is ignored at run time."
        ),
        adaptive_off=(("bound_skip", False),),
    ),
    Component(
        name="aimd_margin",
        title="AIMD margin adaptation",
        summary=(
            "Widen the margin multiplicatively on misses and decay it "
            "while compliant; off = margin frozen at its initial value "
            "(the paper's fixed 10% on the baseline)."
        ),
        adaptive_post=lambda cfg: replace(
            cfg,
            margin_floor=cfg.margin_initial,
            margin_ceiling=cfg.margin_initial,
        ),
    ),
    Component(
        name="fallback",
        title="fallback arming",
        summary=(
            "Arm the drift detector's deadline-safe fallback mode; off "
            "= prediction keeps driving through detected drift."
        ),
        adaptive_off=(("fallback_armed", False),),
    ),
)

_BY_NAME = {component.name: component for component in COMPONENTS}


def component_names() -> tuple[str, ...]:
    """Registered component names, in report order."""
    return tuple(component.name for component in COMPONENTS)


def get_component(name: str) -> Component:
    """Look a component up by name.

    Raises:
        KeyError: With the valid names, when ``name`` is unknown.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown component {name!r}; registered: "
            f"{', '.join(component_names())}"
        ) from None


def baseline_pipeline(
    n_profile_jobs: int = 60, switch_samples: int = 40
) -> PipelineConfig:
    """The all-components-on offline configuration.

    Paper defaults, sized down for the matrix (controllers are trained
    once per distinct pipeline config and shared across scenarios).
    """
    return PipelineConfig(
        n_profile_jobs=n_profile_jobs, switch_samples=switch_samples
    )


def baseline_adaptive() -> AdaptiveConfig:
    """The all-components-on online configuration.

    ``bound_skip=True`` arms the one mechanism the historical adaptive
    path left off, so the ablation can measure it rather than report a
    structural zero.
    """
    return AdaptiveConfig(bound_skip=True)


def configs_without(
    disabled: Iterable[str],
    pipeline: PipelineConfig | None = None,
    adaptive: AdaptiveConfig | None = None,
) -> tuple[PipelineConfig, AdaptiveConfig]:
    """Baseline configs with the named components switched off.

    Overrides merge in registry order, so pairwise variants are
    deterministic regardless of the order callers name components in.

    Raises:
        KeyError: When a name is not registered.
    """
    pipeline = pipeline if pipeline is not None else baseline_pipeline()
    adaptive = adaptive if adaptive is not None else baseline_adaptive()
    wanted = set(disabled)
    for name in wanted:
        get_component(name)  # validate before mutating anything
    for component in COMPONENTS:
        if component.name not in wanted:
            continue
        if component.pipeline_off:
            pipeline = replace(pipeline, **dict(component.pipeline_off))
        if component.adaptive_off:
            adaptive = replace(adaptive, **dict(component.adaptive_off))
    for component in COMPONENTS:
        if component.name in wanted and component.adaptive_post is not None:
            adaptive = component.adaptive_post(adaptive)
    return pipeline, adaptive


def batch_governor(batch_size: int) -> str:
    """Governor name for the §7 batched-prediction variant.

    The one enumeration the benchmarks share with
    :data:`~repro.analysis.harness.GOVERNOR_NAMES`'s
    ``prediction-batch<N>`` convention.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    return f"prediction-batch{batch_size}"


@dataclass(frozen=True)
class Platform:
    """A simulated platform the ablations (and benchmarks) can target."""

    name: str
    opps: Callable[[], OppTable]
    power: Callable[[], PowerModel]


#: The two XU3 clusters the paper evaluates on.  Benchmarks that ablate
#: "which cluster" draw the models from here so platform identity is
#: declared once.
PLATFORMS: dict[str, Platform] = {
    "a7": Platform(
        name="a7",
        opps=default_xu3_a7_table,
        power=default_a7_power_model,
    ),
    "a15": Platform(
        name="a15",
        opps=default_xu3_a15_table,
        power=default_a15_power_model,
    ),
}
