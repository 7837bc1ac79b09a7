"""Value checks shared by the JSON loaders (fleet rosters and reports,
SLO suites, saved controllers, gate baselines)."""

from __future__ import annotations

import math

__all__ = ["check_number"]


def check_number(
    owner: str, key: str, value: object, count: bool = False
) -> int | float:
    """Return ``value`` if it is a finite int or float, else raise.

    With ``count`` it must be an int.  A bool is neither.  The
    ``ValueError`` names ``owner`` and ``key``.
    """
    kinds = int if count else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or not math.isfinite(value)
    ):
        what = "an int" if count else "a finite number"
        raise ValueError(f"{owner}: {key} must be {what}, got {value!r}")
    return value
