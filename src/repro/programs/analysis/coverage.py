"""Feature-coverage check: does the slice compute what the model reads?

The trained anchor models assign non-zero β weights to a subset of the
instrumented feature sites; the slicer is supposed to keep exactly the
code that produces those features.  A site the model needs but the slice
never counts silently predicts from a zero feature — the model's output
is garbage with no runtime error to betray it.  That makes a coverage
gap an error-severity finding, unlike the advisory "extra site" case
(harmless: an uncounted-on-purpose feature costs a little slice time).
"""

from __future__ import annotations

from repro.programs.analysis.diagnostics import Diagnostic
from repro.programs.ir import Hint, If, IndirectCall, Loop, Stmt, walk

__all__ = ["counted_sites", "coverage_diagnostics"]

_COUNTED_NODES = (If, Loop, IndirectCall, Hint)


def counted_sites(root: Stmt) -> frozenset[str]:
    """Feature-site labels the tree actually counts when executed."""
    return frozenset(
        node.site
        for node in walk(root)
        if isinstance(node, _COUNTED_NODES) and node.counted
    )


def coverage_diagnostics(
    root: Stmt,
    needed_sites: frozenset[str],
    program_name: str = "",
) -> tuple[frozenset[str], list[Diagnostic]]:
    """Cross-reference counted sites against the model's needed sites.

    Returns the covered set (counted ∩ needed) and the findings.
    """
    counted = counted_sites(root)
    diagnostics = [
        Diagnostic(
            pass_name="coverage",
            severity="error",
            site=site,
            message=(
                f"model has a non-zero coefficient on feature site "
                f"{site!r} but the slice never counts it; predictions "
                "would silently use a zero feature"
            ),
            program=program_name,
        )
        for site in sorted(needed_sites - counted)
    ]
    diagnostics += [
        Diagnostic(
            pass_name="coverage",
            severity="info",
            site=site,
            message=(
                f"slice counts feature site {site!r} the model does not "
                "read; the counter costs slice time for nothing"
            ),
            program=program_name,
        )
        for site in sorted(counted - needed_sites)
    ]
    return counted & needed_sites, diagnostics
