"""Per-artifact benchmark tests: one ``bench_*.py`` module per table/figure of the paper.

Plain ``pytest`` does not collect them; run them with
``python -m pytest -q benchmarks/bench_*.py --benchmark-disable``.
"""
