"""Static analysis over the task IR: the slice certifier.

A generic forward/backward dataflow engine over the structured statement
tree (:mod:`~repro.programs.analysis.dataflow`) with concrete passes on
top — reaching definitions, liveness, side effects, feature coverage,
interval abstract interpretation with static cost bounds, and the
approximation-hazard linter — orchestrated by
:func:`~repro.programs.analysis.certify.certify_slice` into a
:class:`~repro.programs.analysis.certify.SliceCertificate`.
"""
