"""Write one §3.2 CSV bundle (data.csv, location.csv, attribute.csv)
with the program's synthetic generators, plus ``reference.npz`` for the
output checks: the readings as a sensors × ticks matrix and each
sensor's evolving timestamps.

Evolving timestamps follow the paper's definition (§2.1): normalise and
segment the series with the program's numpy kernels
(``normalize_series``, ``segment_series``), then a tick evolves when the
smoothed value moved by more than ε since the previous tick.

Run as its own process, so that generating the data never counts toward
the memory peak of the process that uploads it:

    python3 perfbench/bundle.py <generator> <scale> <seed> <epsilon> <tolerance> <out_dir>
"""
from __future__ import annotations

import sys

import numpy as np


class PandasFrames:
    """Stands in for a SparkSession: the generators build their
    relations with ``createDataFrame(pdf, schema=...)``, and this
    returns the pandas frame unchanged, so no JVM is started."""

    def createDataFrame(self, pdf, schema=None):  # noqa: N802 - Spark's name
        return pdf


def evolving_ticks(values: np.ndarray, epsilon: float, tolerance: float) -> np.ndarray:
    from repro.core.segmentation import normalize_series, segment_series

    smoothed = segment_series(normalize_series(values), tolerance)
    return np.flatnonzero(np.abs(np.diff(smoothed)) > epsilon) + 1


def write_bundle(generator: str, scale: float, seed: int, epsilon: float, tolerance: float,
                 out_dir: str) -> None:
    from repro.smartcity import generator as gen
    from repro.smartcity.schema import write_csv_bundle

    d = getattr(gen, generator)(PandasFrames(), scale=scale, seed=seed)
    write_csv_bundle(out_dir, d.readings, d.locations, d.attributes, d.start,
                     d.interval_minutes)
    matrix = d.readings.pivot(index="sensor_id", columns="t", values="value").sort_index()
    values = matrix.to_numpy(float)
    evolving = [evolving_ticks(v, epsilon, tolerance) for v in values]
    np.savez(
        f"{out_dir}/reference.npz",
        ids=matrix.index.to_numpy(str),
        values=values,
        evolving=np.concatenate(evolving),
        evolving_counts=np.array([len(e) for e in evolving]),
    )


if __name__ == "__main__":
    kind, scale, seed, epsilon, tolerance, out = sys.argv[1:]
    write_bundle(kind, float(scale), int(seed), float(epsilon), float(tolerance), out)
