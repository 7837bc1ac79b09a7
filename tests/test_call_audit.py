"""Tests of tools/call_audit.py, the call-trace audit.

Its verdict, that no command reaches a function, is only as good as
three things checked here: the recording hook sees every call a
subprocess makes (in threads, behind a program's own profile hook,
across pytest's test phases), the inventory keys each ``def`` the way
the interpreter keys its code object, and the command surfaces cover
every ``repro`` command CI runs, every governor name and every app.
"""

import importlib.util
import inspect
import os
import shlex
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from repro.analysis.harness import GOVERNOR_NAMES, check_governor
from repro.workloads.registry import app_names

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"

_spec = importlib.util.spec_from_file_location(
    "call_audit", ROOT / "tools" / "call_audit.py"
)
call_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_audit)


# -- the hook -----------------------------------------------------------------
def run_hooked(tmp_path, script, *, record=True, argv=("-c",)):
    """Run ``python <argv> script`` with the audit's hook on ``PYTHONPATH``;
    return the ``src/`` calls it recorded as ``(file, first line)``."""
    hook = tmp_path / "hook"
    hook.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(
        call_audit.HOOK.format(src=str(call_audit.SRC) + "/")
    )
    (hook / "call_audit_plugin.py").write_text(call_audit.PLUGIN)
    raw = tmp_path / "raw"
    raw.mkdir(exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook), str(call_audit.SRC)]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    env.pop("CALL_AUDIT_OUT", None)
    if record:
        env["CALL_AUDIT_OUT"] = str(raw / "calls")
    proc = subprocess.run(
        [sys.executable, *argv, script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return call_audit.read_calls(raw)


def key(function):
    code = function.__code__
    return (code.co_filename, code.co_firstlineno)


def test_hook_records_src_calls_and_nothing_else(tmp_path):
    from repro.platform.opp import default_xu3_a7_table

    calls = run_hooked(tmp_path, textwrap.dedent("""
        import json
        from repro.platform.opp import default_xu3_a7_table
        default_xu3_a7_table()
        json.dumps({"a": 1})
    """))
    assert key(default_xu3_a7_table) in calls
    assert all(f.startswith(str(call_audit.SRC) + "/") for f, _ in calls)


def test_hook_is_inert_without_an_output_prefix(tmp_path):
    calls = run_hooked(tmp_path, textwrap.dedent("""
        import sys
        assert sys.getprofile() is None
        assert type(sys.setprofile).__name__ == "builtin_function_or_method"
        from repro.platform.opp import default_xu3_a7_table
        default_xu3_a7_table()
    """), record=False)
    assert calls == set()
    assert not list((tmp_path / "raw").iterdir())


def test_hook_records_calls_made_in_threads(tmp_path):
    from repro.platform.power import default_a15_power_model

    calls = run_hooked(tmp_path, textwrap.dedent("""
        import threading
        from repro.platform.power import default_a15_power_model
        thread = threading.Thread(target=default_a15_power_model)
        thread.start()
        thread.join()
    """))
    assert key(default_a15_power_model) in calls


def test_a_programs_own_profile_hook_is_chained_behind_the_recorder(
    tmp_path,
):
    from repro.platform.opp import default_xu3_a7_table

    calls = run_hooked(tmp_path, textwrap.dedent("""
        import sys
        seen = []
        def foreign(frame, event, arg):
            seen.append(event)
        sys.setprofile(foreign)
        assert sys.getprofile() is foreign
        from repro.platform.opp import default_xu3_a7_table
        default_xu3_a7_table()
        sys.setprofile(None)
        assert sys.getprofile() is None
        assert "call" in seen
    """))
    assert key(default_xu3_a7_table) in calls


def test_the_stack_samplers_hook_is_recorded(tmp_path):
    """``repro profile`` replaces the profile hook with its sampler's;
    the calls made under it and the sampler's hook itself still count."""
    from repro.platform.opp import default_xu3_a7_table
    from repro.telemetry.hostprof import StackSampler

    calls = run_hooked(tmp_path, textwrap.dedent("""
        from repro.platform.opp import default_xu3_a7_table
        from repro.telemetry.hostprof import StackSampler
        sampler = StackSampler(interval=1)
        sampler.start()
        default_xu3_a7_table()
        sampler.stop()
        assert sampler.samples > 0
    """))
    assert key(StackSampler._hook) in calls
    assert key(default_xu3_a7_table) in calls


def test_the_plugin_reinstalls_a_hook_a_test_removed(tmp_path):
    from repro.platform.opp import default_xu3_a7_table

    (tmp_path / "test_removes_hook.py").write_text(textwrap.dedent("""
        import sitecustomize

        def test_removes_the_hook():
            sitecustomize._real_setprofile(None)

        def test_calls_src():
            from repro.platform.opp import default_xu3_a7_table
            default_xu3_a7_table()
    """))
    calls = run_hooked(
        tmp_path, "test_removes_hook.py",
        argv=("-m", "pytest", "-q", "-p", "call_audit_plugin",
              "-p", "no:cacheprovider"),
    )
    assert key(default_xu3_a7_table) in calls


def test_read_calls_unions_every_process(tmp_path):
    (tmp_path / "calls.11.txt").write_text("/a/b.py:3\n/a/c:d.py:7\n")
    (tmp_path / "calls.12.txt").write_text("/a/b.py:3\n\n/a/b.py:9\n")
    (tmp_path / "other.txt").write_text("/a/x.py:1\n")
    assert call_audit.read_calls(tmp_path) == {
        ("/a/b.py", 3), ("/a/c:d.py", 7), ("/a/b.py", 9),
    }


# -- the inventory ------------------------------------------------------------
def _function_codes(code):
    """Every function code object nested in ``code``: class bodies,
    lambdas and comprehensions excluded."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and not (
                const.co_name.startswith("<")
            ):
                yield const
            yield from _function_codes(const)


def test_inventory_keys_each_def_as_its_code_object():
    """Same keys, same qualified names, for every function under src/."""
    compiled = {}
    for path in sorted(call_audit.SRC.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in _function_codes(module):
            compiled[(code.co_filename, code.co_firstlineno)] = (
                code.co_qualname
            )
    inventory = {f["key"]: f["qualname"] for f in call_audit.inventory()}
    assert len(inventory) > 900
    assert inventory == compiled


def test_inventory_records_name_span_and_file(tmp_path, monkeypatch):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    module = src / "pkg" / "mod.py"
    module.write_text(textwrap.dedent("""\
        def outer():
            def inner():
                return 1
            return inner


        class Box:
            @property
            def size(self):
                return 2

            async def fetch(self):
                return 3
    """))
    monkeypatch.setattr(call_audit, "ROOT", tmp_path)
    monkeypatch.setattr(call_audit, "SRC", src)
    assert call_audit.inventory() == [
        {"file": "src/pkg/mod.py", "line": 1, "qualname": "outer",
         "lines": 4, "key": (str(module), 1)},
        {"file": "src/pkg/mod.py", "line": 2,
         "qualname": "outer.<locals>.inner", "lines": 2,
         "key": (str(module), 2)},
        {"file": "src/pkg/mod.py", "line": 8, "qualname": "Box.size",
         "lines": 3, "key": (str(module), 8)},
        {"file": "src/pkg/mod.py", "line": 12, "qualname": "Box.fetch",
         "lines": 2, "key": (str(module), 12)},
    ]


# -- the surfaces -------------------------------------------------------------
def ci_repro_commands():
    """The argument lists of every ``python -m repro`` command in CI."""
    lines = CI.read_text().splitlines()
    commands = []
    for i, line in enumerate(lines):
        head, sep, rest = line.partition("run:")
        if not sep or head.strip() not in ("", "-"):
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            block.append(body.strip())
        if rest.strip() == ">":
            scripts = [" ".join(block)]
        elif rest.strip() == "|":
            scripts = "\n".join(block).replace("\\\n", " ").splitlines()
        else:
            scripts = [rest]
        for script in scripts:
            _, found, args = script.partition("python -m repro ")
            if found and not script.startswith("#"):
                commands.append(shlex.split(args.partition("||")[0]))
    return commands


def _normalised(args):
    """CI's worker count is 1 in the audit, and a gate baseline is named
    by its path from wherever the command runs."""
    out = []
    for before, arg in zip([None, *args], args):
        if before == "--workers":
            arg = "1"
        elif arg.endswith("_baseline.json"):
            arg = Path(arg).name
        out.append(arg)
    return out


def audit_repro_commands():
    return [
        _normalised(argv[3:])
        for argv in call_audit.command_surfaces()
        if argv[1:3] == ["-m", "repro"]
    ]


CI_COMMANDS = ci_repro_commands()


def test_ci_has_repro_commands_to_check():
    assert len(CI_COMMANDS) >= 30
    assert ["fleet", "run"] in [args[:2] for args in CI_COMMANDS]


@pytest.mark.parametrize(
    "args", CI_COMMANDS, ids=[" ".join(args) for args in CI_COMMANDS]
)
def test_every_ci_command_is_a_surface(args):
    """A CI loop's ``$app`` stands for any one app."""
    expected = _normalised(args)
    assert any(
        len(command) == len(expected)
        and all(
            want.startswith("$") or want == got
            for want, got in zip(expected, command)
        )
        for command in audit_repro_commands()
    ), f"the audit does not run: repro {' '.join(args)}"


def test_surfaces_run_every_governor_name_lab_accepts():
    for name in call_audit.GOVERNORS:
        check_governor(name)
    assert set(call_audit.GOVERNORS) == {*GOVERNOR_NAMES, "prediction-batch8"}
    watched = {
        args[args.index("--governor") + 1]
        for args in audit_repro_commands()
        if args[0] == "watch" and "--governor" in args
    }
    assert watched >= set(call_audit.GOVERNORS)


def test_surfaces_profile_every_app():
    assert sorted(call_audit.APPS) == sorted(app_names())
    profiled = {
        args[1] for args in audit_repro_commands() if args[0] == "profile"
    }
    assert profiled >= set(app_names())


def test_surfaces_name_files_that_exist():
    examples = sorted((ROOT / "examples").glob("*.py"))
    surfaces = call_audit.command_surfaces()
    assert len(examples) == 10
    assert [[sys.executable, str(path)] for path in examples] == [
        argv for argv in surfaces if argv[1:2] and argv[1].startswith(
            str(ROOT / "examples")
        )
    ]
    paths = [
        arg for argv in surfaces for arg in argv[1:]
        if arg.startswith(str(ROOT))
    ]
    assert paths
    for path in paths:
        assert Path(path).exists(), path
