"""Analysis: the experiment workbench, renderers, and figure modules."""

from repro.analysis.harness import GOVERNOR_NAMES, Lab, default_n_jobs
from repro.analysis.render import format_bar, format_heatmap, format_table

__all__ = [
    "GOVERNOR_NAMES",
    "Lab",
    "default_n_jobs",
    "format_bar",
    "format_heatmap",
    "format_table",
]
