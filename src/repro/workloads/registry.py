"""Workload registry: name -> application factory.

The eight benchmarks of the paper's Table 2, in its order.  Each lives
in its own module, imported only when that app is built.
"""

from __future__ import annotations

from importlib import import_module

from repro.workloads.base import InteractiveApp

__all__ = ["APP_MODULES", "app_names", "get_app", "all_apps"]

#: App name -> the ``repro.workloads`` module whose ``make_app`` builds it.
APP_MODULES: dict[str, str] = {
    "2048": "game2048",
    "curseofwar": "curseofwar",
    "ldecode": "ldecode",
    "pocketsphinx": "pocketsphinx",
    "rijndael": "rijndael",
    "sha": "sha",
    "uzbl": "uzbl",
    "xpilot": "xpilot",
}


def app_names() -> list[str]:
    """Benchmark names in Table-2 order."""
    return list(APP_MODULES)


def get_app(name: str) -> InteractiveApp:
    """Build one benchmark by name, importing only its module.

    Raises:
        KeyError: For unknown names, listing the valid ones.
    """
    try:
        module = APP_MODULES[name]
    except KeyError:
        raise KeyError(
            f"unknown app {name!r}; available: {', '.join(APP_MODULES)}"
        ) from None
    return import_module(f"repro.workloads.{module}").make_app()


def all_apps() -> list[InteractiveApp]:
    """All eight benchmarks, freshly constructed."""
    return [get_app(name) for name in APP_MODULES]
