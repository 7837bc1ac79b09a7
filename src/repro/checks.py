"""Value checks shared by the JSON loaders (fleet rosters and reports,
SLO suites, saved controllers, gate baselines)."""

from __future__ import annotations

import math

__all__ = ["check_number"]


def check_number(
    owner: str, key: str, value: object, count: bool = False
) -> int | float:
    """Return ``value`` if it is a finite int or float, else raise.

    With ``count`` it must be an int, of any size.  A bool is neither,
    and an int too large for a float is not a finite number.  The
    ``ValueError`` names ``owner`` and ``key``.
    """
    kinds = int if count else (int, float)
    valid = isinstance(value, kinds) and not isinstance(value, bool)
    if valid and not count:
        try:
            valid = math.isfinite(value)
        except OverflowError:
            valid = False
    if not valid:
        what = "an int" if count else "a finite number"
        raise ValueError(f"{owner}: {key} must be {what}, got {value!r}")
    return value
