"""Per-job decision digests of the prediction-based governors.

Pins the simulated outcome of every job (chosen OPP, end time and
cumulative energy) for the predictive, adaptive (default and with
``bound_skip``) and batch governors, on short rijndael and sha streams,
under every predictor placement, with overhead charging on and off.
The streams drift (see ``DRIFT``), so the decisions cover every audit
mode: plain, certified, bound-skip, predict and fallback.  A change to
the per-job prediction step that moves one bit of a decision, a jitter
draw or an energy segment shows up as a digest mismatch.

A second digest pins the prediction values behind the decisions: every
job's predicted time and every audit record's effective budget, margin,
mode and slice features, for the ``prediction`` governor on all eight apps (sequential
placement, overheads charged).  A change that moves the last bit of a
predicted time or an effective budget without flipping an OPP fails it.

A third digest pins the baseline governors (the stock Linux family,
PID and the oracle) on the same drifting streams, with overhead charging
on and off, and with between-job idling on for ``performance`` and
``interactive``; these governors ignore the placement, so their rows run
sequential only.  On those streams conservative never switches, nor do
ondemand and interactive on sha, so the load-following governors also
run an undrifted 2048 stream, where each of them switches
(``SWITCHING_GOVERNORS`` on ``SWITCHING_APP``).

To re-record a row after an intended behaviour change, print
``_digest(...)`` for it and replace its entry in ``DIGESTS``.  The batch
governor's pipelined and parallel rows were re-recorded when those
placements started honouring batching (the slice runs on batch heads
only, with the batch margin); every other row is unchanged since it was
first recorded.
"""

import hashlib
import zlib

import pytest

from repro.analysis.harness import Lab, seeded_board
from repro.governors.adaptive import AdaptiveConfig, AdaptiveGovernor
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.telemetry.events import Telemetry
from repro.workloads.registry import app_names

N_JOBS = 24
APPS = ("rijndael", "sha")
GOVERNORS = (
    "prediction",
    "adaptive",
    "adaptive-bound-skip",
    "prediction-batch4",
)
BASELINE_GOVERNORS = (
    "performance",
    "powersave",
    "ondemand",
    "conservative",
    "interactive",
    "pid",
    "oracle",
)
IDLING_GOVERNORS = ("performance", "interactive")
# Baseline governors that follow the load, and the undrifted app whose
# stream makes each of them switch.
SWITCHING_GOVERNORS = ("ondemand", "conservative", "interactive")
SWITCHING_APP = "2048"
# Step drift (factor, start as a fraction of the stream): rijndael drifts
# late and mildly (adaptive falls back), sha early and hard (jobs queue
# up, so the certified pre-flight pins fmax without slicing).
DRIFT = {"rijndael": (1.6, 0.4), "sha": (2.0, 0.1)}

# "app governor placement charging" -> first 16 hex digits of _digest.
DIGESTS = {
    "rijndael prediction sequential charged": "af1b384c84a0f98b",
    "rijndael prediction sequential free": "d212f06eb352e45a",
    "rijndael prediction pipelined charged": "d315fa931ca5a5ae",
    "rijndael prediction pipelined free": "bd282895081a3f4a",
    "rijndael prediction parallel charged": "501872ad291a72d1",
    "rijndael prediction parallel free": "bd282895081a3f4a",
    "rijndael adaptive sequential charged": "4b471a2e87c0cccf",
    "rijndael adaptive sequential free": "390cc161fcd84191",
    "rijndael adaptive pipelined charged": "4b471a2e87c0cccf",
    "rijndael adaptive pipelined free": "390cc161fcd84191",
    "rijndael adaptive parallel charged": "4b471a2e87c0cccf",
    "rijndael adaptive parallel free": "390cc161fcd84191",
    "rijndael adaptive-bound-skip sequential charged": "25bead3f3cc7c117",
    "rijndael adaptive-bound-skip sequential free": "8c5b15acff2fa5ff",
    "rijndael adaptive-bound-skip pipelined charged": "25bead3f3cc7c117",
    "rijndael adaptive-bound-skip pipelined free": "8c5b15acff2fa5ff",
    "rijndael adaptive-bound-skip parallel charged": "25bead3f3cc7c117",
    "rijndael adaptive-bound-skip parallel free": "8c5b15acff2fa5ff",
    "rijndael prediction-batch4 sequential charged": "5b678935f2557ced",
    "rijndael prediction-batch4 sequential free": "7e045b79cf2fcb00",
    "rijndael prediction-batch4 pipelined charged": "0d8ebbd21caa9cdf",
    "rijndael prediction-batch4 pipelined free": "0d44c11d0c3afc05",
    "rijndael prediction-batch4 parallel charged": "adfe6ac8f6a28627",
    "rijndael prediction-batch4 parallel free": "0d44c11d0c3afc05",
    "sha prediction sequential charged": "fa25e2a5224f9bf6",
    "sha prediction sequential free": "8e03c0659af07722",
    "sha prediction pipelined charged": "1da10977f413d1d4",
    "sha prediction pipelined free": "a2168ae5249e39a0",
    "sha prediction parallel charged": "c7dd97c635a83225",
    "sha prediction parallel free": "a2168ae5249e39a0",
    "sha adaptive sequential charged": "d6d49d3662bc2241",
    "sha adaptive sequential free": "3c8537e4873175e0",
    "sha adaptive pipelined charged": "d6d49d3662bc2241",
    "sha adaptive pipelined free": "3c8537e4873175e0",
    "sha adaptive parallel charged": "d6d49d3662bc2241",
    "sha adaptive parallel free": "3c8537e4873175e0",
    "sha adaptive-bound-skip sequential charged": "8221c4b84fb1afb8",
    "sha adaptive-bound-skip sequential free": "42310b0350bc94b1",
    "sha adaptive-bound-skip pipelined charged": "8221c4b84fb1afb8",
    "sha adaptive-bound-skip pipelined free": "42310b0350bc94b1",
    "sha adaptive-bound-skip parallel charged": "8221c4b84fb1afb8",
    "sha adaptive-bound-skip parallel free": "42310b0350bc94b1",
    "sha prediction-batch4 sequential charged": "179917867f5442ea",
    "sha prediction-batch4 sequential free": "4fc8d29b2410aa4c",
    "sha prediction-batch4 pipelined charged": "4303a8ba637dd1ac",
    "sha prediction-batch4 pipelined free": "074ab3bcb76c2d9a",
    "sha prediction-batch4 parallel charged": "6781d3ba85b0cf73",
    "sha prediction-batch4 parallel free": "074ab3bcb76c2d9a",
}

# app -> first 16 hex digits of _prediction_digest.
PREDICTION_DIGESTS = {
    "2048": "97762ca3cbde63d3",
    "curseofwar": "6156d9ea66b33503",
    "ldecode": "35ef652d2d1316cc",
    "pocketsphinx": "272104034d59d61d",
    "rijndael": "f51082d5c0fa060e",
    "sha": "0f35d9bde3aa2924",
    "uzbl": "1d1d4c535ec8d988",
    "xpilot": "a3075b69b641fbe6",
}

# "app governor charging" (plus " idle" with idling on) -> first 16 hex
# digits of _digest, sequential placement.
BASELINE_DIGESTS = {
    "rijndael performance charged": "6b4c4d67b86b072f",
    "rijndael performance charged idle": "2c8045d706251c55",
    "rijndael performance free": "6b4c4d67b86b072f",
    "rijndael performance free idle": "f72a555b4570b1f3",
    "rijndael powersave charged": "82cf745395c00dea",
    "rijndael powersave free": "82cf745395c00dea",
    "rijndael ondemand charged": "3b39fbafbf476e2c",
    "rijndael ondemand free": "99e9efd4b36fa782",
    "rijndael conservative charged": "1882e1cf9da8b936",
    "rijndael conservative free": "1882e1cf9da8b936",
    "rijndael interactive charged": "1d325f0a7c7b060d",
    "rijndael interactive charged idle": "2ac4284e0dfc34b4",
    "rijndael interactive free": "1d0c3dd27e291b0c",
    "rijndael interactive free idle": "539bed593b7b2542",
    "rijndael pid charged": "7f23abdf59692479",
    "rijndael pid free": "fabb92dd9360283d",
    "rijndael oracle charged": "fd08f4b02097e3df",
    "rijndael oracle free": "5e4460180345fd4f",
    "sha performance charged": "29edbcb158b2ad25",
    "sha performance charged idle": "490a88347207ed68",
    "sha performance free": "29edbcb158b2ad25",
    "sha performance free idle": "1b6a7c5775e6a568",
    "sha powersave charged": "05a5b9ad09a85924",
    "sha powersave free": "05a5b9ad09a85924",
    "sha ondemand charged": "db8e9a09139ac38e",
    "sha ondemand free": "db8e9a09139ac38e",
    "sha conservative charged": "f9814ff84e09128d",
    "sha conservative free": "f9814ff84e09128d",
    "sha interactive charged": "1b08a013e3c20b1c",
    "sha interactive charged idle": "43b0d53b470ceb74",
    "sha interactive free": "1b08a013e3c20b1c",
    "sha interactive free idle": "beac7738e3c31400",
    "sha pid charged": "6089c772797e41d0",
    "sha pid free": "dd5a34bbf299867d",
    "sha oracle charged": "793eb30e2852786a",
    "sha oracle free": "725b6516e5db499a",
    "2048 ondemand charged": "fbe15c8da2256b3c",
    "2048 ondemand free": "62f9abbdd9f8018f",
    "2048 conservative charged": "414b5fdce80580c9",
    "2048 conservative free": "2337b09a4687a756",
    "2048 interactive charged": "18171df566a7d01b",
    "2048 interactive free": "ffed6ef151d40b1a",
}


@pytest.fixture(scope="module")
def lab():
    return Lab(switch_samples=30)


def _governor(lab, name, app):
    if name == "adaptive-bound-skip":
        return AdaptiveGovernor.from_controller(
            lab.controller(app),
            config=AdaptiveConfig(bound_skip=True),
            interpreter=lab.interpreter,
        )
    return lab.make_governor(name, app)


def _runner(lab, app, governor_name, placement, charge, idle=False):
    """A telemetry-on runner over the app's ``N_JOBS``-job stream, with
    the app's ``DRIFT`` step (no drift for apps without an entry)."""
    seed = zlib.crc32(f"digest|{app}|{governor_name}".encode())
    budget = lab.app(app).task.budget_s
    factor, start = DRIFT.get(app, (1.0, 0.0))
    board = seeded_board(
        lab.opps,
        lab.power,
        lab.jitter_sigma,
        seed,
        seed,
        drift=(factor, start * N_JOBS * budget),
    )
    return TaskLoopRunner(
        board=board,
        task=lab.app(app).task,
        governor=_governor(lab, governor_name, app),
        inputs=lab.app(app).inputs(N_JOBS, seed=lab.seed),
        interpreter=lab.interpreter,
        placement=placement,
        charge_predictor=charge,
        charge_switch=charge,
        idle=idle,
        telemetry=Telemetry(),
    )


def _digest(lab, app, governor_name, placement, charge, idle=False):
    """sha256 over (opp_mhz, end_s, cumulative energy) of every job."""
    runner = _runner(lab, app, governor_name, placement, charge, idle)
    rows = []
    while (record := runner.step()) is not None:
        rows.append(
            (record.opp_mhz, record.end_s, runner.result().energy_j)
        )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _prediction_digest(lab, app):
    """sha256 over every job's predicted time and every audit record's
    (job, effective budget, margin, mode, slice features), ``prediction``
    governor, sequential placement, overheads charged."""
    runner = _runner(
        lab, app, "prediction", PredictorPlacement.SEQUENTIAL, True
    )
    predicted = [record.predicted_time_s for record in runner.run().jobs]
    audited = [
        (
            d.job_index,
            d.effective_budget_s,
            d.margin,
            d.mode,
            tuple(d.features.items()),
        )
        for d in runner.telemetry.decisions
    ]
    return hashlib.sha256(repr((predicted, audited)).encode()).hexdigest()


@pytest.mark.parametrize("charge", (True, False), ids=("charged", "free"))
@pytest.mark.parametrize("placement", PredictorPlacement, ids=lambda p: p.value)
@pytest.mark.parametrize("governor_name", GOVERNORS)
@pytest.mark.parametrize("app", APPS)
def test_decisions_match_recorded_digest(
    lab, app, governor_name, placement, charge
):
    key = f"{app} {governor_name} {placement.value} " + (
        "charged" if charge else "free"
    )
    digest = _digest(lab, app, governor_name, placement, charge)
    assert digest[:16] == DIGESTS[key]


@pytest.mark.parametrize("app", app_names())
def test_prediction_values_match_recorded_digest(lab, app):
    assert _prediction_digest(lab, app)[:16] == PREDICTION_DIGESTS[app]


def _baseline_rows():
    for app in APPS:
        for name in BASELINE_GOVERNORS:
            for charge in ("charged", "free"):
                yield f"{app} {name} {charge}"
                if name in IDLING_GOVERNORS:
                    yield f"{app} {name} {charge} idle"
    yield from _switching_rows()


def _switching_rows():
    for name in SWITCHING_GOVERNORS:
        for charge in ("charged", "free"):
            yield f"{SWITCHING_APP} {name} {charge}"


@pytest.mark.parametrize("key", tuple(_baseline_rows()))
def test_baseline_decisions_match_recorded_digest(lab, key):
    app, governor_name, charge, *idle = key.split()
    digest = _digest(
        lab,
        app,
        governor_name,
        PredictorPlacement.SEQUENTIAL,
        charge == "charged",
        idle=bool(idle),
    )
    assert digest[:16] == BASELINE_DIGESTS[key]


@pytest.mark.parametrize("key", tuple(_switching_rows()))
def test_switching_rows_switch(lab, key):
    """A row whose governor never switches would pin none of its
    thresholds."""
    app, governor_name, charge = key.split()
    runner = _runner(
        lab,
        app,
        governor_name,
        PredictorPlacement.SEQUENTIAL,
        charge == "charged",
    )
    assert runner.run().switch_count >= 1
