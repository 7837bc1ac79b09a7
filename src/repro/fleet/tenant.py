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
from repro.checks import check_number
from repro.fleet.arrivals import (
    ArrivalProcess,
    PeriodicArrivals,
    arrival_from_dict,
)
from repro.workloads.registry import app_names

__all__ = ["TenantSpec", "tenants_to_json", "tenants_from_json"]

#: The spec's real-valued fields (``drift_factor`` may also be None).
_REALS = (
    "budget_scale",
    "miss_objective",
    "jitter_sigma",
    "drift_factor",
    "drift_at_frac",
)


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
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"tenant needs a non-empty name, got {self.name!r}"
            )
        owner = f"tenant {self.name!r}"
        for key in ("app", "governor"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(
                    f"{owner}: {key} must be a string, "
                    f"got {getattr(self, key)!r}"
                )
        if self.app not in app_names():
            raise ValueError(f"{owner}: unknown workload {self.app!r}")
        check_governor(self.governor)
        for key in ("sessions", "jobs_per_session"):
            check_number(owner, key, getattr(self, key), count=True)
        for key in _REALS:
            if not (key == "drift_factor" and self.drift_factor is None):
                check_number(owner, key, getattr(self, key))
        if self.sessions < 1:
            raise ValueError(
                f"{owner} needs >= 1 session, got {self.sessions}"
            )
        if self.jobs_per_session < 1:
            raise ValueError(
                f"{owner} needs >= 1 job per session, "
                f"got {self.jobs_per_session}"
            )
        if self.budget_scale <= 0:
            raise ValueError(
                f"{owner}: budget_scale must be positive, "
                f"got {self.budget_scale}"
            )
        if not 0.0 < self.miss_objective < 1.0:
            raise ValueError(
                f"{owner}: miss_objective must be in (0, 1), "
                f"got {self.miss_objective}"
            )
        if self.jitter_sigma < 0:
            raise ValueError(
                f"{owner}: jitter_sigma must be non-negative, "
                f"got {self.jitter_sigma}"
            )
        if self.drift_factor is not None and self.drift_factor <= 0:
            raise ValueError(
                f"{owner}: drift_factor must be positive, "
                f"got {self.drift_factor}"
            )
        if not 0.0 < self.drift_at_frac < 1.0:
            raise ValueError(
                f"{owner}: drift_at_frac must be inside (0, 1), "
                f"got {self.drift_at_frac}"
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
        """Rebuild a spec from :meth:`as_dict` output.

        Raises ``ValueError`` naming the tenant and the field for a
        missing name or app, an unknown field, a count that is not an
        int, or a real that is not a finite number.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a tenant must be a JSON object, got {data!r}")
        if "name" not in data:
            raise ValueError(f"tenant has no 'name' field: {data!r}")
        owner = f"tenant {data['name']!r}"
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"{owner}: unknown field(s) {unknown}")
        if "app" not in data:
            raise ValueError(f"{owner}: no 'app' field")
        reals = {
            key: float(check_number(owner, key, data[key]))
            for key in _REALS
            if key in data and not (key == "drift_factor" and data[key] is None)
        }
        arrival = PeriodicArrivals()
        if "arrival" in data:
            try:
                arrival = arrival_from_dict(data["arrival"])
            except ValueError as error:
                raise ValueError(f"{owner}: {error}") from None
        fields = {
            key: data[key]
            for key in ("name", "app", "governor", "sessions", "jobs_per_session")
            if key in data
        }
        return cls(**fields, **reals, arrival=arrival)


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
