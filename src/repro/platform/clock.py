"""Virtual time.

Everything in the simulation runs against a :class:`VirtualClock`; nothing
reads the wall clock.  This makes every experiment exactly reproducible and
lets a multi-minute interactive session simulate in milliseconds.
"""

from __future__ import annotations

from math import inf

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing simulated clock, in seconds.

    Attributes:
        now: Current simulated time in seconds.  A plain attribute, since
            the platform reads it several times per job; only
            :meth:`advance` moves it.
    """

    def __init__(self, start_s: float = 0.0):
        if not 0.0 <= start_s < inf:
            raise ValueError(
                "VirtualClock: start_s must be a finite number >= 0, "
                f"got {start_s!r}"
            )
        self.now = start_s

    def advance(self, duration_s: float) -> float:
        """Move time forward by ``duration_s`` seconds; returns the new time.

        Raises:
            ValueError: If ``duration_s`` is negative — simulated time never
                runs backwards — or not finite.
        """
        if not 0.0 <= duration_s < inf:
            raise ValueError(
                "VirtualClock.advance: duration_s must be a finite number "
                f">= 0, got {duration_s!r}"
            )
        self.now += duration_s
        return self.now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.6f}s)"
