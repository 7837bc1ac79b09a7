"""Per-job decision digests of the prediction-based governors.

Pins the simulated outcome of every job (chosen OPP, end time and
cumulative energy) for the predictive, adaptive (default and with
``bound_skip``) and batch governors, on short rijndael and sha streams,
under every predictor placement, with overhead charging on and off.
The streams drift (see ``DRIFT``), so the decisions cover every audit
mode: plain, certified, bound-skip, predict and fallback.  A change to
the per-job prediction step that moves one bit of a decision, a jitter
draw or an energy segment shows up as a digest mismatch.

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
from repro.telemetry import Telemetry

N_JOBS = 24
APPS = ("rijndael", "sha")
GOVERNORS = (
    "prediction",
    "adaptive",
    "adaptive-bound-skip",
    "prediction-batch4",
)
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


def _digest(lab, app, governor_name, placement, charge):
    """sha256 over (opp_mhz, end_s, cumulative energy) of every job."""
    seed = zlib.crc32(f"digest|{app}|{governor_name}".encode())
    budget = lab.app(app).task.budget_s
    factor, start = DRIFT[app]
    board = seeded_board(
        lab.opps,
        lab.power,
        lab.jitter_sigma,
        seed,
        seed,
        drift=(factor, start * N_JOBS * budget),
    )
    runner = TaskLoopRunner(
        board=board,
        task=lab.app(app).task,
        governor=_governor(lab, governor_name, app),
        inputs=lab.app(app).inputs(N_JOBS, seed=lab.seed),
        interpreter=lab.interpreter,
        placement=placement,
        charge_predictor=charge,
        charge_switch=charge,
        telemetry=Telemetry(),
    )
    rows = []
    while (record := runner.step()) is not None:
        rows.append(
            (record.opp_mhz, record.end_s, runner.result().energy_j)
        )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


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
