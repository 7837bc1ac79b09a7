"""Ablation observatory: which control-plane components actually matter.

The reproduction's governor stack is a pile of load-bearing mechanisms
(asymmetric loss, safety margin, program slicing, online recalibration,
certifier bound-skip, AIMD margin adaptation, fallback arming).  This
package turns "we believe component X matters" into ranked, CI-gated,
regenerable evidence:

- :mod:`repro.ablation.registry` — each togglable mechanism as declared
  data: the config overrides that switch it *off*.
- :mod:`repro.ablation.planner` — the baseline-plus-one-off (and opt-in
  pairwise) run matrix over a workloads × scenarios grid.
- :mod:`repro.ablation.runner` — deterministic, multiprocess execution
  of the matrix (fleet-style crc32 path seeding: results are
  byte-identical for every worker count).
- :mod:`repro.ablation.score` — per-variant deltas vs. baseline with
  bootstrap confidence intervals, decision-provenance explanations, and
  the ranked component-importance table.
- :mod:`repro.ablation.emit` — JSON/CSV/markdown artifacts plus the
  gateable ``ablate.*`` metrics file for ``repro report --gate``.
- :mod:`repro.ablation.cli` — the ``repro ablate run`` / ``repro ablate
  report`` commands.
"""
