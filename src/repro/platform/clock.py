"""Virtual time.

Everything in the simulation runs against a :class:`VirtualClock`; nothing
reads the wall clock.  This makes every experiment exactly reproducible and
lets a multi-minute interactive session simulate in milliseconds.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing simulated clock, in seconds.

    Attributes:
        now: Current simulated time in seconds.  A plain attribute, since
            the platform reads it several times per job; only
            :meth:`advance` moves it.
    """

    def __init__(self, start_s: float = 0.0):
        if start_s < 0:
            raise ValueError(f"start time must be non-negative, got {start_s}")
        self.now = start_s

    def advance(self, duration_s: float) -> float:
        """Move time forward by ``duration_s`` seconds; returns the new time.

        Raises:
            ValueError: If ``duration_s`` is negative — simulated time never
                runs backwards.
        """
        if duration_s < 0:
            raise ValueError(f"cannot advance by negative time {duration_s}")
        self.now += duration_s
        return self.now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.6f}s)"
