"""Tenant specs: the service classes a fleet is made of.

A tenant is a population of identical sessions — same workload, same
governor, same deadline budget, same traffic shape, same objective.
The spec is a frozen declaration that round-trips through JSON, so a
committed fleet file fully determines a simulation (together with the
root seed); everything runtime-ish (boards, governors, trackers) is
built per session from the spec by :mod:`repro.fleet.session`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.harness import check_governor
from repro.fleet.arrivals import (
    ArrivalProcess,
    PeriodicArrivals,
    arrival_from_dict,
)
from repro.workloads.registry import app_names

__all__ = ["TenantSpec", "tenants_to_json", "tenants_from_json"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's service class.

    Attributes:
        name: Stable identifier (keys seeds, roll-ups, reports).
        app: Workload name from the registry (``repro list``).
        governor: Governor name (:data:`repro.analysis.harness.GOVERNOR_NAMES`).
        sessions: How many sessions of this tenant the fleet runs.
        jobs_per_session: Jobs in each session's stream.
        budget_scale: Deadline budget as a multiple of the app default
            (0.8 = a tenant that bought a tighter SLO).
        arrival: The release process shaping this tenant's traffic.
        miss_objective: Allowed deadline-miss fraction for the tenant's
            page-severity SLO.
        jitter_sigma: Timing-noise level for this tenant's sessions.
        drift_factor: Optional mid-session execution-time slowdown
            (> 1 engages :class:`repro.online.inject.StepDriftJitter`).
        drift_at_frac: Where the drift step lands, as a fraction of the
            session's nominal length.
    """

    name: str
    app: str
    governor: str = "prediction"
    sessions: int = 1
    jobs_per_session: int = 40
    budget_scale: float = 1.0
    arrival: ArrivalProcess = field(default_factory=PeriodicArrivals)
    miss_objective: float = 0.02
    jitter_sigma: float = 0.02
    drift_factor: float | None = None
    drift_at_frac: float = 0.5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")
        if self.app not in app_names():
            raise ValueError(
                f"tenant {self.name!r}: unknown workload {self.app!r}"
            )
        check_governor(self.governor)
        if self.sessions < 1:
            raise ValueError(
                f"tenant {self.name!r} needs >= 1 session, got {self.sessions}"
            )
        if self.jobs_per_session < 1:
            raise ValueError(
                f"tenant {self.name!r} needs >= 1 job per session, "
                f"got {self.jobs_per_session}"
            )
        if self.budget_scale <= 0:
            raise ValueError(
                f"budget_scale must be positive, got {self.budget_scale}"
            )
        if not 0.0 < self.miss_objective < 1.0:
            raise ValueError(
                f"miss_objective must be in (0, 1), got {self.miss_objective}"
            )
        if self.jitter_sigma < 0:
            raise ValueError(
                f"jitter_sigma must be non-negative, got {self.jitter_sigma}"
            )
        if self.drift_factor is not None and self.drift_factor <= 0:
            raise ValueError(
                f"drift_factor must be positive, got {self.drift_factor}"
            )
        if not 0.0 < self.drift_at_frac < 1.0:
            raise ValueError(
                f"drift_at_frac must be inside (0, 1), got {self.drift_at_frac}"
            )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "app": self.app,
            "governor": self.governor,
            "sessions": self.sessions,
            "jobs_per_session": self.jobs_per_session,
            "budget_scale": self.budget_scale,
            "arrival": self.arrival.as_dict(),
            "miss_objective": self.miss_objective,
            "jitter_sigma": self.jitter_sigma,
            "drift_factor": self.drift_factor,
            "drift_at_frac": self.drift_at_frac,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        return cls(
            name=str(data["name"]),
            app=str(data["app"]),
            governor=str(data.get("governor", "prediction")),
            sessions=int(data.get("sessions", 1)),
            jobs_per_session=int(data.get("jobs_per_session", 40)),
            budget_scale=float(data.get("budget_scale", 1.0)),
            arrival=(
                arrival_from_dict(data["arrival"])
                if "arrival" in data
                else PeriodicArrivals()
            ),
            miss_objective=float(data.get("miss_objective", 0.02)),
            jitter_sigma=float(data.get("jitter_sigma", 0.02)),
            drift_factor=(
                None
                if data.get("drift_factor") is None
                else float(data["drift_factor"])
            ),
            drift_at_frac=float(data.get("drift_at_frac", 0.5)),
        )


def tenants_to_json(tenants: tuple[TenantSpec, ...] | list[TenantSpec]) -> str:
    """Serialize a tenant roster (the ``fleet run --spec FILE`` format)."""
    return json.dumps([t.as_dict() for t in tenants], indent=2)


def tenants_from_json(text: str) -> tuple[TenantSpec, ...]:
    """Parse a roster written by :func:`tenants_to_json`."""
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("fleet spec must be a non-empty JSON array of tenants")
    tenants = tuple(TenantSpec.from_dict(item) for item in data)
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    return tenants
