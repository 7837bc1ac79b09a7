"""One module per reproduced table/figure.

Every module exposes ``run(lab, ...) -> <Result dataclass>`` and
``render(result) -> str``.  The benchmark harness under ``benchmarks/``
calls these; so can users, directly.
"""
