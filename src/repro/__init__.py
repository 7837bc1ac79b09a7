"""repro — Prediction-guided performance-energy trade-off for interactive applications.

A full Python reproduction of Lo, Song & Suh, MICRO 2015: an automated
framework that, given an annotated interactive task, generates a
prediction-based DVFS controller — control-flow feature instrumentation,
program slicing, an asymmetric-Lasso execution-time model, and a
frequency selector that just meets response-time deadlines — plus the
simulated ODROID-XU3-like platform, the baseline governors, the eight
benchmark workloads, and the harness regenerating every table and figure
of the paper's evaluation.

Quick tour::

    from repro.pipeline.offline import build_controller
    from repro.workloads.registry import get_app

    controller = build_controller(get_app("ldecode"))
    governor = controller.governor()          # deploy-ready DVFS policy

    from repro.analysis.harness import Lab
    lab = Lab()
    result = lab.run("ldecode", "prediction")  # simulate 250 frames
    print(lab.normalized_energy(result, "ldecode"), result.miss_rate)

Or from a shell: ``python -m repro fig15``.

Every package ``__init__`` holds only its docstring: import each name
from the module that defines it, so a run loads only what it uses.
"""

__version__ = "1.0.0"
