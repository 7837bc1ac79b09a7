"""The power segments a board hands its segment observer, kept for
assertions."""

from typing import NamedTuple


class Segment(NamedTuple):
    """One observer call's arguments."""

    start_s: float
    end_s: float
    power_w: float
    tag: str
    opp_index: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def energy_j(self) -> float:
        """Priced as the board prices it."""
        return self.power_w * (self.end_s - self.start_s)


def record_segments(board) -> list[Segment]:
    """Observe ``board``; the returned list fills as segments run."""
    segments: list[Segment] = []
    board.set_segment_observer(
        lambda *fields: segments.append(Segment(*fields))
    )
    return segments
