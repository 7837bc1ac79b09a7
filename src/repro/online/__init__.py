"""Online adaptation: keep the deployed predictive governor honest.

The offline pipeline (paper Fig. 13) trains once; this package closes
the loop at run time — drift detection, incremental recalibration of
the execution-time model, and the adaptive safety margin.  The
:class:`~repro.governors.adaptive.AdaptiveGovernor` composes these
pieces over the frozen predictive governor.
"""
