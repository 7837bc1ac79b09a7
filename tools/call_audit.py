"""Call-trace audit: which ``src/`` functions does a command reach?

Runs every command surface of the repository under one call-recording
hook, then the tier-1 suite under the same hook, and sorts each
function defined under ``src/`` into one of three groups:

- ``command``: a command surface calls it;
- ``tests``: only the tier-1 suite calls it;
- ``nothing``: neither does.

The command surfaces are every command of ``.github/workflows/ci.yml``
(with ``--workers 1``: CI already proves that results do not depend on
the worker count, and pool workers exit without running ``atexit``),
``repro all --output DIR``, the ten ``examples/*.py``, the code blocks
of ``docs/tutorial.md``, ``perfbench/run.py`` on its three workloads at
``--size tiny`` with ``--trace 0`` and ``--trace 1``, ``pytest
benchmarks``, one run of each documented subcommand and flag that CI
does not pass, and one run of each governor name ``Lab`` accepts.

Usage, from the repository root::

    python tools/call_audit.py [OUT_DIR]

OUT_DIR (default ``call-audit-out``) receives ``call_audit.json`` (each
function with its group), ``call_audit.txt`` (the functions no command
reaches, by file), the hook's raw records and the runs' working files.
The last line printed is the summary.  A run takes about 7 minutes on
a 2-vCPU host, tier-1 under the hook about 2 of them, so it is not a
CI step.

How the hook sees every call:

- A ``sitecustomize.py`` that the audit writes and puts first on
  ``PYTHONPATH`` reaches every Python subprocess.  When
  ``CALL_AUDIT_OUT`` names an output prefix, it installs a
  ``sys.setprofile`` and ``threading.setprofile`` hook that records the
  code object of every call, and writes the ``src/`` ones at exit.
- ``repro profile``'s stack sampler installs its own profile hook.  The
  audit's ``sys.setprofile`` chains such a hook behind the recorder
  (``sys.getprofile`` still returns it), so the recorder keeps seeing
  every call, and the sampler's hook is recorded when it runs.  Code
  that the sampler's hook calls itself is not visible to any profile
  hook.
- A pytest plugin re-installs the hook before each test phase, in case
  a test replaced it.
- A recorded code object matches its ``def`` by file and
  ``co_firstlineno``, which is the line of the first decorator.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

HOOK = '''\
"""Call-recording hook of tools/call_audit.py (see its docstring)."""
import atexit
import os
import sys
import threading

_OUT = os.environ.get("CALL_AUDIT_OUT")
_SRC = {src!r}

if _OUT:
    _seen = set()
    _add = _seen.add
    _foreign = None
    _real_setprofile = sys.setprofile

    def _record(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _chained(frame, event, arg):
        if event == "call":
            _add(frame.f_code)
        hook = _foreign
        if hook is not None:
            _add(getattr(hook, "__code__", None))
            hook(frame, event, arg)

    def install():
        _real_setprofile(_record if _foreign is None else _chained)
        threading.setprofile(_record)

    def setprofile(hook):
        global _foreign
        _foreign = hook
        install()

    def getprofile():
        return _foreign

    def _dump():
        _real_setprofile(None)
        threading.setprofile(None)
        names = sorted(
            {{
                f"{{code.co_filename}}:{{code.co_firstlineno}}"
                for code in list(_seen)
                if code is not None and code.co_filename.startswith(_SRC)
            }}
        )
        with open(f"{{_OUT}}.{{os.getpid()}}.txt", "w") as out:
            out.write("\\n".join(names) + "\\n")

    sys.setprofile = setprofile
    sys.getprofile = getprofile
    install()
    atexit.register(_dump)
'''

PLUGIN = '''\
"""pytest plugin of tools/call_audit.py: re-install the hook per test."""
import pytest
import sitecustomize


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sitecustomize.install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    sitecustomize.install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    sitecustomize.install()
'''

TUTORIAL = '''\
import re, sys
from pathlib import Path

namespace = {}
text = Path(sys.argv[1]).read_text()
for i, block in enumerate(re.findall(r"```python\\n(.*?)```", text, flags=re.S)):
    exec(compile(block, f"tutorial-block-{i}", "exec"), namespace)
'''

SAVE_CONTROLLERS = '''\
from repro.analysis.harness import Lab
from repro.pipeline.persist import save_controller

lab = Lab()
for app in ("sha", "rijndael", "2048"):
    save_controller(lab.controller(app), f"ctrl-{app}.json")
'''

IMPORT_EVERY_MODULE = '''\
import importlib, pkgutil, repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
'''

#: ``repro watch --slo FILE``: one spec of each signal.
SLO_SPECS = [
    {"name": "misses", "signal": "deadline_miss", "objective": 0.05,
     "windows": [{"jobs": 20, "max_burn_rate": 2.0}]},
    {"name": "slack", "signal": "slack_below", "objective": 0.5,
     "threshold": 0.001, "severity": "ticket",
     "windows": [{"jobs": 10, "max_burn_rate": 1.5}]},
    {"name": "error", "signal": "under_estimate", "objective": 0.2,
     "threshold": 0.1, "windows": [{"jobs": 10, "max_burn_rate": 1.5}]},
]

#: ``repro fleet run --spec FILE``: one tenant per arrival process.
FLEET_SPEC = [
    {"name": "steady", "app": "sha", "sessions": 2, "jobs_per_session": 8,
     "arrival": {"kind": "periodic"}},
    {"name": "poisson", "app": "2048", "sessions": 2, "jobs_per_session": 8,
     "arrival": {"kind": "poisson"}, "drift_factor": 1.5},
    {"name": "bursty", "app": "sha", "governor": "interactive", "sessions": 2,
     "jobs_per_session": 8, "arrival": {"kind": "bursty"}},
    {"name": "diurnal", "app": "rijndael", "governor": "pid", "sessions": 2,
     "jobs_per_session": 8, "budget_scale": 0.9,
     "arrival": {"kind": "diurnal"}},
]

GOVERNORS = (
    "performance", "powersave", "ondemand", "conservative", "interactive",
    "pid", "prediction", "adaptive", "oracle", "prediction-batch8",
)
APPS = ("2048", "curseofwar", "ldecode", "pocketsphinx", "rijndael", "sha",
        "uzbl", "xpilot")


def _repro(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def command_surfaces() -> list[list[str]]:
    """Every command surface, in an order where each finds its inputs."""
    bench = lambda name: str(ROOT / f"BENCH_{name}_baseline.json")  # noqa: E731
    ci = [
        # telemetry
        _repro("drift", "--app", "sha", "--jobs", "80", "--trace", "trace-out"),
        _repro("report", "trace-out"),
        # gate
        _repro("watch", "rijndael", "--jobs", "120", "--quiet",
               "--trace", "slo-trace"),
        _repro("watch", "2048", "--jobs", "120", "--quiet",
               "--trace", "slo-trace"),
        _repro("report", "slo-trace", "--gate", bench("slo"), "--runs",
               "watch.", "--output", "slo-gate-diff.txt"),
        # profile
        _repro("profile", "rijndael", "--jobs", "3000", "--sample-interval",
               "0", "--out", "host-prof"),
        _repro("profile", "pocketsphinx", "--jobs", "500", "--sample-interval",
               "0", "--out", "host-prof"),
        _repro("report", "host-prof", "--gate", bench("host"), "--runs",
               "host.", "--output", "host-gate-diff.txt"),
        _repro("report", "host-prof", "--openmetrics",
               "host-prof/host.metrics.prom"),
        *(
            _repro("profile", app, "--jobs", "50", "--out", "host-prof-all")
            for app in APPS
        ),
        [sys.executable, "-m", "pytest", str(ROOT / "perfbench"), "-q",
         "-p", "no:cacheprovider"],
        # fleet
        _repro("fleet", "run", "--sessions", "200", "--jobs", "10",
               "--shards", "4", "--workers", "1", "--seed", "7", "--energy",
               "--name", "smoke", "--trace", "fleet-trace",
               "--output", "fleet-trace/report.txt"),
        _repro("fleet", "run", "--sessions", "200", "--jobs", "10",
               "--shards", "1", "--seed", "7", "--energy", "--name", "smoke",
               "--trace", "fleet-check", "--output", "fleet-check/report.txt"),
        _repro("report", "fleet-trace", "--gate", bench("slo"), "--runs",
               "fleet.smoke", "--output", "fleet-gate-diff.txt"),
        _repro("fleet", "run", "--sessions", "200", "--jobs", "10",
               "--shards", "4", "--workers", "1", "--seed", "7", "--energy",
               "--governor", "adaptive", "--drift-tenant", "rijndael",
               "--arrival", "bursty", "--name", "adaptive", "--trace",
               "fleet-adaptive-trace", "--output",
               "fleet-adaptive-trace/report.txt"),
        _repro("fleet", "run", "--sessions", "200", "--jobs", "10",
               "--shards", "1", "--seed", "7", "--energy", "--governor",
               "adaptive", "--drift-tenant", "rijndael", "--arrival",
               "bursty", "--name", "adaptive", "--trace",
               "fleet-adaptive-check", "--output",
               "fleet-adaptive-check/report.txt"),
        _repro("report", "fleet-adaptive-trace", "--gate", bench("slo"),
               "--runs", "fleet.adaptive", "--output",
               "fleet-adaptive-gate-diff.txt"),
        # energy
        _repro("energy", "rijndael", "--jobs", "120", "--trace",
               "energy-trace"),
        _repro("energy", "sha", "--jobs", "120", "--trace", "energy-trace"),
        _repro("report", "energy-trace", "--gate", bench("energy"), "--runs",
               "energy.", "--output", "energy-gate-diff.txt"),
        _repro("report", "energy-trace", "--openmetrics",
               "energy-trace/energy.metrics.prom"),
        # ablate
        _repro("ablate", "run", "--workloads", "rijndael,2048", "--seed", "7",
               "--workers", "1", "--out", "ablate-out", "--json", "--csv",
               "--markdown"),
        _repro("ablate", "run", "--workloads", "rijndael,2048", "--seed", "7",
               "--workers", "1", "--out", "ablate-check"),
        _repro("report", "ablate-out", "--gate", bench("ablate"), "--runs",
               "ablate.", "--output", "ablate-gate-diff.txt"),
        # provenance
        [sys.executable, "-c", SAVE_CONTROLLERS],
        _repro("explain", "trace-out"),
        _repro("replay", "trace-out", "ctrl-sha.json", "--run",
               "drift.sha.prediction"),
        _repro("replay", "trace-out", "ctrl-sha.json", "--run",
               "drift.sha.adaptive"),
        _repro("watch", "rijndael", "--jobs", "100", "--quiet", "--trace",
               "prov-rijndael"),
        _repro("watch", "2048", "--jobs", "100", "--quiet", "--trace",
               "prov-2048"),
        _repro("watch", "rijndael", "--jobs", "100", "--quiet", "--governor",
               "adaptive", "--trace", "prov-drift-base"),
        _repro("watch", "rijndael", "--jobs", "100", "--quiet", "--governor",
               "adaptive", "--drift", "1.5", "--trace", "prov-drift-shifted"),
        _repro("replay", "prov-rijndael", "ctrl-rijndael.json"),
        _repro("replay", "prov-2048", "ctrl-2048.json"),
        _repro("replay", "prov-drift-base", "ctrl-rijndael.json"),
        _repro("replay", "prov-drift-shifted", "ctrl-rijndael.json"),
        _repro("diff-decisions", "prov-drift-base", "prov-drift-shifted",
               "--output", "divergence-report.txt"),
        # static-analysis (one interpreter: module import runs the same
        # functions in any order)
        [sys.executable, "-c", IMPORT_EVERY_MODULE],
        _repro("check", "--all-workloads", "--strict", "--output",
               "slice-diagnostics.json"),
        _repro("lint", "--all-workloads", "--strict", "--output",
               "lint-diagnostics.json", "--trace", "lint-trace"),
        _repro("report", "lint-trace", "--gate", bench("lint"), "--runs",
               "lint.", "--output", "lint-gate-diff.txt"),
    ]
    shipped = [
        _repro("all", "--output", "all-out"),
        *(
            [sys.executable, str(path)]
            for path in sorted((ROOT / "examples").glob("*.py"))
        ),
        [sys.executable, "-c", TUTORIAL, str(ROOT / "docs" / "tutorial.md")],
        *(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             workload, "--size", "tiny", "--seconds", "2", "--trace", trace]
            for workload in ("eval-light", "eval-heavy", "fleet-mix")
            for trace in ("0", "1")
        ),
        [sys.executable, "-m", "pytest", str(ROOT / "benchmarks"), "-q",
         "-p", "no:cacheprovider"],
    ]
    flags = [
        _repro("list"),
        _repro("--help"),
        _repro("fleet", "report", "fleet-trace/fleet_report.json"),
        _repro("fleet", "report", "fleet-trace/fleet_report.json",
               "--markdown"),
        _repro("fleet", "run", "--sessions", "6", "--jobs", "6", "--profile",
               "--trace", "fleet-prof", "--name", "prof"),
        _repro("fleet", "run", "--spec", "fleet-spec.json", "--json",
               "--energy"),
        _repro("fleet", "run", "--sessions", "4", "--jobs", "6", "--arrival",
               "bursty", "--drift-tenant", "sha", "--apps", "sha,2048",
               "--markdown", "--fail-on-page"),
        _repro("report", "prov-drift-base", "prov-drift-shifted"),
        _repro("report", "slo-trace", "--make-baseline", "baseline.json",
               "--tolerance", "0.1"),
        _repro("report", "ctrl-sha.json"),
        _repro("ablate", "report", "ablate-out", "--json", "--csv",
               "--markdown"),
        _repro("watch", "sha", "--jobs", "60", "--slo", "slo-specs.json",
               "--max-energy-j", "0.001", "--refresh", "20"),
        # The drift pages, so the armed fallback engages.
        _repro("watch", "rijndael", "--jobs", "100", "--quiet", "--governor",
               "adaptive", "--drift", "1.5", "--arm-fallback"),
        _repro("replay", "prov-rijndael", "ctrl-rijndael.json", "--beta",
               "ctrl-rijndael.json", "--margin", "0.2", "--budget", "0.05",
               "--json", "--output", "replay.json"),
        _repro("explain", "prov-rijndael", "--job", "3"),
        _repro("explain", "prov-rijndael", "--job", "3", "--json"),
        _repro("explain", "prov-rijndael", "--json"),
        _repro("diff-decisions", "prov-drift-base", "prov-drift-shifted",
               "--json"),
        _repro("profile", "sha", "--jobs", "60", "--json",
               "--out", "prof-sampled"),
        *(
            _repro("watch", "sha", "--jobs", "30", "--quiet", "--governor",
                   governor, "--trace", "governors")
            for governor in GOVERNORS
        ),
        _repro("report", "governors"),
    ]
    return ci + shipped + flags


def run_phase(label: str, commands: list[list[str]], out: Path, env: dict,
              cwd: Path) -> list[dict]:
    """Run each command with the hook writing under ``out/raw/label``."""
    raw = out / "raw" / label
    raw.mkdir(parents=True, exist_ok=True)
    env = dict(env, CALL_AUDIT_OUT=str(raw / "calls"))
    runs = []
    for argv in commands:
        started = time.time()
        proc = subprocess.run(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        shown = " ".join(
            "<script>" if "\n" in arg else arg for arg in argv[1:]
        )
        runs.append({
            "command": shown,
            "exit": proc.returncode,
            "seconds": round(time.time() - started, 1),
        })
        if proc.returncode:
            runs[-1]["stderr_tail"] = proc.stderr[-400:]
        print(f"[{label}] exit {proc.returncode:3d} "
              f"{runs[-1]['seconds']:6.1f}s  {shown}", flush=True)
    return runs


def read_calls(directory: Path) -> set[tuple[str, int]]:
    seen = set()
    for path in directory.glob("calls.*.txt"):
        for line in path.read_text().splitlines():
            if line:
                filename, _, lineno = line.rpartition(":")
                seen.add((filename, int(lineno)))
    return seen


def inventory() -> list[dict]:
    """Every ``def`` under ``src/``, keyed as its code object's
    ``(co_filename, co_firstlineno)``."""
    functions = []

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                qualname = f"{prefix}{child.name}"
                functions.append({
                    "file": str(path.relative_to(ROOT)),
                    "line": first,
                    "qualname": qualname,
                    "lines": child.end_lineno - first + 1,
                    "key": (str(path), first),
                })
                visit(child, path, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return functions


def main(argv: list[str]) -> int:
    out = Path(argv[0] if argv else "call-audit-out").resolve()
    if out.exists():
        shutil.rmtree(out)
    work = out / "work"
    work.mkdir(parents=True)
    hook_dir = out / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK.format(src=str(SRC) + "/"))
    (hook_dir / "call_audit_plugin.py").write_text(PLUGIN)
    (work / "slo-specs.json").write_text(json.dumps(SLO_SPECS))
    (work / "fleet-spec.json").write_text(json.dumps(FLEET_SPEC))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]),
        PYTHONDONTWRITEBYTECODE="1",
    )

    started = time.time()
    commands = run_phase("commands", command_surfaces(), out, env, work)
    tests = run_phase(
        "tests",
        [[sys.executable, "-m", "pytest", "-q", "-p", "call_audit_plugin",
          "-p", "no:cacheprovider"]],
        out, env, ROOT,
    )
    by_commands = read_calls(out / "raw" / "commands")
    by_tests = read_calls(out / "raw" / "tests")

    functions = inventory()
    groups = {"command": [], "tests": [], "nothing": []}
    for function in functions:
        key = function.pop("key")
        if key in by_commands:
            function["reached"] = "command"
        elif key in by_tests:
            function["reached"] = "tests"
        else:
            function["reached"] = "nothing"
        groups[function["reached"]].append(function)

    summary = {
        "functions": len(functions),
        "lines": sum(f["lines"] for f in functions),
        **{
            group: {"functions": len(members),
                    "lines": sum(f["lines"] for f in members)}
            for group, members in groups.items()
        },
        "seconds": round(time.time() - started),
    }
    (out / "call_audit.json").write_text(json.dumps(
        {"summary": summary, "runs": commands + tests,
         "functions": functions},
        indent=1,
    ) + "\n")
    lines = []
    for group in ("tests", "nothing"):
        lines.append(f"== reached by {group if group == 'nothing' else 'tests only'}"
                     f": {summary[group]['functions']} functions, "
                     f"{summary[group]['lines']} lines")
        lines += [
            f"{f['file']}:{f['line']}  {f['qualname']}  ({f['lines']} lines)"
            for f in groups[group]
        ]
        lines.append("")
    (out / "call_audit.txt").write_text("\n".join(lines))
    failed = [run["command"] for run in commands + tests if run["exit"]]
    if failed:
        print(f"{len(failed)} run(s) exited non-zero under the hook:")
        for command in failed:
            print(f"  {command}")
    print(
        f"functions {summary['functions']}; reached by commands "
        f"{summary['command']['functions']}; by tests only "
        f"{summary['tests']['functions']} ({summary['tests']['lines']} lines); "
        f"by nothing {summary['nothing']['functions']} "
        f"({summary['nothing']['lines']} lines) -> {out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
