"""What a run imports.

Every package ``__init__`` holds only its docstring, so importing one
module loads that module and what it names, not its whole package.  On
the run path, a module that only a rare branch needs (a baseline
governor, the drift injector, the audit schema and the provenance
engine of a traced run, another app) is imported by that branch, once,
when the branch is set up; no import statement runs per job.  Each
check runs in a fresh interpreter, where nothing was imported yet.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = Path(repro.__file__).resolve().parents[1]

#: Modules a ``prediction`` run of pocketsphinx, built through ``Lab``
#: with telemetry off, never uses.
UNUSED_BY_A_PREDICTION_RUN = (
    "repro.analysis.render",
    "repro.governors.adaptive",
    "repro.governors.batch",
    "repro.governors.conservative",
    "repro.governors.interactive",
    "repro.governors.ondemand",
    "repro.governors.oracle",
    "repro.governors.pid",
    "repro.governors.powersave",
    "repro.models.linear",
    "repro.models.metrics",
    "repro.online",
    "repro.online.drift",
    "repro.online.inject",
    "repro.online.predictor",
    "repro.online.recalibrate",
    "repro.online.residuals",
    "repro.pipeline.persist",
    "repro.platform.biglittle",
    "repro.programs.serialize",
    "repro.runtime.multitask",
    "repro.telemetry.audit",
    "repro.telemetry.exporters",
    "repro.telemetry.openmetrics",
    "repro.telemetry.provenance",
    "repro.telemetry.report",
    "repro.telemetry.slo",
    "repro.telemetry.watch",
    "repro.workloads.curseofwar",
    "repro.workloads.game2048",
    "repro.workloads.ldecode",
    "repro.workloads.rijndael",
    "repro.workloads.sha",
    "repro.workloads.uzbl",
    "repro.workloads.xpilot",
)

#: Builds pocketsphinx's ``prediction`` runner through ``Lab``, runs it
#: with telemetry off and then on, and reports the ``repro`` modules
#: loaded and the ``repro`` import statements run while jobs stepped
#: (each runner's ``start`` binds what its run needs first).
_SCRIPT = """
import builtins, json, sys
from repro.analysis.harness import Lab
from repro.runtime.executor import TaskLoopRunner
from repro.telemetry.events import Telemetry

lab = Lab(switch_samples=10)
app = lab.app("pocketsphinx")
stepped = []
real_import = builtins.__import__

def counting_import(name, *args, **kwargs):
    if name.startswith("repro"):
        stepped.append(name)
    return real_import(name, *args, **kwargs)

def run(telemetry):
    runner = TaskLoopRunner(
        board=lab.make_board(1),
        task=app.task,
        governor=lab.make_governor("prediction", "pocketsphinx"),
        inputs=app.inputs(4, seed=7),
        interpreter=lab.interpreter,
        telemetry=telemetry,
    )
    runner.start()
    stepped.clear()
    builtins.__import__ = counting_import
    try:
        while runner.step() is not None:
            pass
    finally:
        builtins.__import__ = real_import
    return list(stepped)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

report = {"off": run(None), "modules_off": loaded()}
telemetry = Telemetry()
report["on"] = run(telemetry)
report["modules_on"] = loaded()
report["decisions"] = len(telemetry.decisions)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def fresh_run():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_inits_hold_no_import_statement():
    inits = sorted((SRC_DIR / "repro").rglob("__init__.py"))
    assert len(inits) == 16
    offenders = [
        f"{path.relative_to(SRC_DIR)}:{node.lineno}"
        for path in inits
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not offenders


def test_prediction_run_loads_only_what_it_uses(fresh_run):
    loaded = set(fresh_run["modules_off"])
    assert "repro.governors.predictive" in loaded
    assert "repro.workloads.pocketsphinx" in loaded
    assert loaded.isdisjoint(UNUSED_BY_A_PREDICTION_RUN), sorted(
        loaded.intersection(UNUSED_BY_A_PREDICTION_RUN)
    )


def test_traced_run_binds_audit_and_provenance_at_start(fresh_run):
    loaded = set(fresh_run["modules_on"])
    assert {"repro.telemetry.audit", "repro.telemetry.provenance"} <= loaded
    assert fresh_run["decisions"] == 4


@pytest.mark.parametrize("telemetry", ["off", "on"])
def test_no_import_statement_runs_per_job(fresh_run, telemetry):
    assert fresh_run[telemetry] == []
