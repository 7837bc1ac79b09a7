"""Simulated hardware platform substrate.

The paper evaluates on an ODROID-XU3 development board (Samsung Exynos 5422,
Cortex-A7 cluster).  This package provides a faithful software stand-in:

- :mod:`repro.platform.opp` — discrete operating points (frequency/voltage).
- :mod:`repro.platform.power` — CMOS dynamic + leakage power model.
- :mod:`repro.platform.switching` — DVFS switch latency model and the
  microbenchmark that produces the 95th-percentile switch-time table (Fig. 11).
- :mod:`repro.platform.cpu` — execution-time model ``t = T_mem + N_dep / f``.
- :mod:`repro.platform.jitter` — seeded timing-noise models.
- :mod:`repro.platform.board` — the stateful facade tying it all together;
  its exact integral of power over simulated time is the energy the
  INA231 sensors measure.
"""
