"""Tenant specs: validation and reading the JSON roster format."""

import dataclasses
import json

import pytest

from repro.fleet.arrivals import BurstyArrivals, PeriodicArrivals
from repro.fleet.tenant import TenantSpec, tenants_from_json


def as_json_object(spec: TenantSpec) -> dict:
    """``spec`` in the roster format: its fields, the arrival's kind too."""
    arrival = {"kind": spec.arrival.kind, **dataclasses.asdict(spec.arrival)}
    return dataclasses.asdict(spec) | {"arrival": arrival}


class TestValidation:
    def test_defaults_are_valid(self):
        spec = TenantSpec(name="video", app="sha")
        assert spec.governor == "prediction"
        assert spec.arrival == PeriodicArrivals()

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("name", "", "non-empty name"),
            ("app", "nope", "unknown workload"),
            ("governor", "nope", "unknown governor"),
            ("sessions", 0, "session"),
            ("jobs_per_session", 0, "job per session"),
            ("budget_scale", 0.0, "budget_scale"),
            ("miss_objective", 1.0, "miss_objective"),
            ("jitter_sigma", -0.1, "jitter_sigma"),
            ("drift_factor", -2.0, "drift_factor"),
            ("drift_at_frac", 1.0, "drift_at_frac"),
            # Counts are ints (not bools), reals finite numbers.
            ("app", 5, "'t': app must be a string"),
            ("sessions", 2.5, "'t': sessions must be an int"),
            ("jobs_per_session", True, "'t': jobs_per_session must be an int"),
            ("budget_scale", float("nan"), "'t': budget_scale must be a finite"),
            ("jitter_sigma", None, "'t': jitter_sigma must be a finite"),
            ("drift_factor", float("inf"), "'t': drift_factor must be a finite"),
        ],
    )
    def test_rejects_bad_fields(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TenantSpec(**{"name": "t", "app": "sha", field: value})


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        spec = TenantSpec(
            name="video",
            app="rijndael",
            governor="adaptive",
            sessions=12,
            jobs_per_session=33,
            budget_scale=0.8,
            arrival=BurstyArrivals(burst_factor=5.0),
            miss_objective=0.05,
            jitter_sigma=0.03,
            drift_factor=1.4,
            drift_at_frac=0.25,
        )
        assert TenantSpec.from_dict(as_json_object(spec)) == spec

    def test_roster_round_trip(self):
        roster = (
            TenantSpec(name="a", app="sha"),
            TenantSpec(name="b", app="sha", drift_factor=2.0),
        )
        text = json.dumps([as_json_object(spec) for spec in roster])
        assert tenants_from_json(text) == roster

    def test_duplicate_names_rejected(self):
        roster = (
            TenantSpec(name="a", app="sha"),
            TenantSpec(name="a", app="rijndael"),
        )
        with pytest.raises(ValueError, match="unique"):
            tenants_from_json(
                json.dumps([as_json_object(spec) for spec in roster])
            )

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            tenants_from_json("[]")
