"""spark-submit entrypoint for the paper's tables T1–T7.

Usage: ``spark-submit jobs/run_table.py <table> [scale]`` with ``<table>``
one of 1–7 — prints the table rows recorded in EXPERIMENTS.md. The
default scale is 0.05, except 0.008 for T5 and 0.25 for T6. Logic lives
in ``repro.tables.table<N>_*`` so tests and benchmarks drive the
identical code.
"""
import importlib
import os
import sys

from pyspark.sql import SparkSession

# table → (module under repro.tables, default scale)
TABLES = {
    "1": ("table1_datasets", 0.05),
    "2": ("table2_param_sweep", 0.05),
    "3": ("table3_cache", 0.05),
    "4": ("table4_vs_baseline", 0.05),
    "5": ("table5_wind", 0.008),
    "6": ("table6_covid", 0.25),
    "7": ("table7_santander", 0.05),
}


def main() -> None:
    if len(sys.argv) < 2 or sys.argv[1] not in TABLES:
        print(__doc__)
        sys.exit(2)
    name, default_scale = TABLES[sys.argv[1]]
    table = importlib.import_module(f"repro.tables.{name}")
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else default_scale
    spark = (
        SparkSession.builder.master(os.environ.get("SPARK_MASTER", "local[*]")).appName(name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    result = table.run(spark, scale=scale)
    for df in result if isinstance(result, tuple) else (result,):
        print(df.to_string(index=False))
    if name == "table2_param_sweep":
        print("directions_ok:", table.direction_ok(result))
    if name == "table7_santander":
        print("paper_patterns:", table.contains_paper_patterns(result))
    spark.stop()


if __name__ == "__main__":
    main()
