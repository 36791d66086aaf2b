"""Table harnesses — one module per reproduced table (DESIGN.md §4).

The demo paper has no numbered tables; these reproduce the §4
demonstration-plan claims and the §2.1/§2.2/§3.3 system claims as
tables. Each module exposes ``run(spark, ...) -> pandas.DataFrame``
returning exactly the rows recorded in EXPERIMENTS.md, runs standalone
as ``spark-submit jobs/run_table.py <1-7> [scale]`` and has a
pytest-benchmark in ``benchmarks/``.
"""
