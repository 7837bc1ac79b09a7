"""Per-session result digests of a mixed fleet, pinned exactly.

Runs ``run_fleet`` (one worker, energy attribution on, seed 7) over a
small copy of the benchmark's ``fleet-mix`` roster: the seven light
apps under ``prediction``, ``adaptive``, ``interactive``, ``pid`` and
``performance``, Poisson, bursty and diurnal arrivals in turn, the
``adaptive-rijndael`` tenant drifting 1.5x, 2 sessions of 10 jobs each.

One digest per :class:`~repro.fleet.session.SessionResult` covers every
field: the slack tuple, each SLO state with its spec, rings and alerts
(burn rates and messages included), and the energy state with its maps
in key order.  A second digest pins the aggregated report's JSON.  A
change to the fleet's host-side code that moves one bit of a session's
accounting, a float fold's order or a map's key order fails here.

To re-record after an intended behaviour change, print
``_session_digests(outcome)`` and ``_digest(outcome.report.to_json())``
and replace ``SESSION_DIGESTS`` and ``REPORT_DIGEST``.
"""

import hashlib
from itertools import product

import pytest

from repro.fleet.arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals
from repro.fleet.coordinator import FleetSpec, run_fleet
from repro.fleet.tenant import TenantSpec

LIGHT_APPS = ("2048", "curseofwar", "ldecode", "rijndael", "sha", "uzbl", "xpilot")
GOVERNORS = ("prediction", "adaptive", "interactive", "pid", "performance")
DRIFT_TENANT = "adaptive-rijndael"
SESSIONS = 2
JOBS = 10
SEED = 7

# "tenant/index" -> first 16 hex digits of _digest(repr(SessionResult)).
SESSION_DIGESTS = {
    "prediction-2048/0": "d0ffab38b4506b28",
    "prediction-2048/1": "3b0a22944eca55e6",
    "adaptive-2048/0": "27fd4db3a3abda80",
    "adaptive-2048/1": "e1b178c2fde2e88f",
    "interactive-2048/0": "5e167e5311ff0de8",
    "interactive-2048/1": "d81260c1f43d01bc",
    "pid-2048/0": "f09fce00cbb34194",
    "pid-2048/1": "c97f6cba44888060",
    "performance-2048/0": "d2ed76b05c422323",
    "performance-2048/1": "30732b1629e8fb5c",
    "prediction-curseofwar/0": "d16e9dc980ff5e66",
    "prediction-curseofwar/1": "18ee6ec7dd1b80db",
    "adaptive-curseofwar/0": "6f67b4ed0bf62305",
    "adaptive-curseofwar/1": "09729a43ca6879bf",
    "interactive-curseofwar/0": "9ccd60cbd8cd080a",
    "interactive-curseofwar/1": "4d91a59dedafd4fd",
    "pid-curseofwar/0": "41e54859f777986e",
    "pid-curseofwar/1": "3c4ad22799a326d4",
    "performance-curseofwar/0": "0dcd99b00514aafe",
    "performance-curseofwar/1": "0bfed97488a70ba6",
    "prediction-ldecode/0": "1f87148d1ffefa53",
    "prediction-ldecode/1": "7227b5df8f264e0e",
    "adaptive-ldecode/0": "6363a0311aeb819a",
    "adaptive-ldecode/1": "4baba2d78e674ae2",
    "interactive-ldecode/0": "838f68323ac65ed9",
    "interactive-ldecode/1": "d2eb9834a2a3dc3a",
    "pid-ldecode/0": "585f58e46f3329f5",
    "pid-ldecode/1": "fa20fae43978d8bf",
    "performance-ldecode/0": "5c6f29f2f954d8ea",
    "performance-ldecode/1": "a50bb65e2d8f5148",
    "prediction-rijndael/0": "814e6927ec33004b",
    "prediction-rijndael/1": "64fbb42306882236",
    "adaptive-rijndael/0": "c2eb39bc2be06f12",
    "adaptive-rijndael/1": "3d66090b51c5c72f",
    "interactive-rijndael/0": "41a2e9dbc34d666c",
    "interactive-rijndael/1": "7727ef26492e6fb0",
    "pid-rijndael/0": "7afee55d0c9e0255",
    "pid-rijndael/1": "1663ffa67344b673",
    "performance-rijndael/0": "f839240a153e8a7e",
    "performance-rijndael/1": "7ff21d580c5e5ecd",
    "prediction-sha/0": "63485bfc874a7245",
    "prediction-sha/1": "b42bb9c8c10e45ee",
    "adaptive-sha/0": "fa1187e12f6096ba",
    "adaptive-sha/1": "2ff5582d27598cfc",
    "interactive-sha/0": "71b5d6f28a980b0e",
    "interactive-sha/1": "d30409bf22efc3fc",
    "pid-sha/0": "7b04805fd6ecef4e",
    "pid-sha/1": "ed6c0c08ee88bc09",
    "performance-sha/0": "4cbf4d40e1d30cea",
    "performance-sha/1": "26d31586922947c9",
    "prediction-uzbl/0": "c9619055a16fa322",
    "prediction-uzbl/1": "786b76fc56323aa8",
    "adaptive-uzbl/0": "3b8f0a29ce48ae46",
    "adaptive-uzbl/1": "73fff997a336ae67",
    "interactive-uzbl/0": "ddd8de8d6572f470",
    "interactive-uzbl/1": "94af63a29e2bca22",
    "pid-uzbl/0": "7122a766cda88638",
    "pid-uzbl/1": "5f6f2f7623afefd7",
    "performance-uzbl/0": "37e885befc24342c",
    "performance-uzbl/1": "1fbbc6ba2d0e0978",
    "prediction-xpilot/0": "8c6d091f2a98504f",
    "prediction-xpilot/1": "fd3872cecd692c4b",
    "adaptive-xpilot/0": "ca64c2577fc3de45",
    "adaptive-xpilot/1": "5822aeb66897a5c8",
    "interactive-xpilot/0": "679281f0ee6adfc9",
    "interactive-xpilot/1": "fc4641850c5cb5ed",
    "pid-xpilot/0": "98efd2c0b2d62290",
    "pid-xpilot/1": "d1ec49f89a8eb972",
    "performance-xpilot/0": "39d38c2b0f17274d",
    "performance-xpilot/1": "b872d23877fe07c8",
}

REPORT_DIGEST = "2814b6180e0fcfd4"


def _roster() -> tuple[TenantSpec, ...]:
    arrivals = (PoissonArrivals(), BurstyArrivals(), DiurnalArrivals())
    return tuple(
        TenantSpec(
            name=f"{governor}-{app}",
            app=app,
            governor=governor,
            sessions=SESSIONS,
            jobs_per_session=JOBS,
            arrival=arrivals[i % len(arrivals)],
            drift_factor=1.5 if f"{governor}-{app}" == DRIFT_TENANT else None,
        )
        for i, (app, governor) in enumerate(product(LIGHT_APPS, GOVERNORS))
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _session_digests(outcome) -> dict[str, str]:
    return {
        f"{result.tenant}/{result.index}": _digest(repr(result))
        for shard in outcome.shard_results
        for result in shard.sessions
    }


@pytest.fixture(scope="module")
def outcome():
    return run_fleet(
        FleetSpec(tenants=_roster(), seed=SEED, energy=True), workers=1
    )


def test_every_session_result_matches_recorded_digest(outcome):
    assert _session_digests(outcome) == SESSION_DIGESTS


def test_report_json_matches_recorded_digest(outcome):
    assert _digest(outcome.report.to_json()) == REPORT_DIGEST


def test_roster_covers_what_the_digests_pin(outcome):
    """Rows that saw no alert, no drift or no ledger would pin none of
    those paths."""
    sessions = [s for shard in outcome.shard_results for s in shard.sessions]
    assert len(sessions) == len(LIGHT_APPS) * len(GOVERNORS) * SESSIONS
    assert all(s.energy_state is not None for s in sessions)
    assert any(state.alerts for s in sessions for state in s.slo_states)
    drifting = [s for s in sessions if s.tenant == DRIFT_TENANT]
    assert drifting and all(s.jobs == JOBS for s in drifting)
