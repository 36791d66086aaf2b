"""The benchmark's workloads and the closed-loop analyst session that
drives :class:`repro.server.api.MiscelaApi` through them.

One client sends the next request only after the previous reply, like
the demo's single analyst. Set-up ends with two cold ``mine`` calls
and one round (see below), untimed, because the JVM keeps compiling
through the first ones. The measured phase of a run is then

1. a ``mine`` that misses the cache (Spark cache cleared, cache entry
   invalidated first);
2. rounds of short calls until the run's ``--seconds`` have passed since
   the phase began, and at least ``min_rounds`` of them. A round is
   ``hits`` ``mine`` calls served from the cache and ``clicks``
   ``correlated_sensors`` calls, interleaved, then one
   ``timeseries_payload`` chart view;
3. ``UPLOADS`` times: a re-``upload`` of the other generated bundle
   under the same name, then a ``mine`` left to the cache, whose CAPs
   are checked against the data just uploaded (the stale-cache probe).

See NOTES.md for why each workload exists.
"""
from __future__ import annotations

import gc
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from perfbench.checks import Reference, cap_set, count_bad, fingerprint
from perfbench.probes import JobCounter, host_probe_s, persisted_rdds


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # function of repro.smartcity.generator
    scale: float
    eta_meters: float
    psi: int
    hits: int  # per round: `hits` cache hits and `clicks` clicks, then one chart view
    clicks: int
    min_rounds: int  # rounds the measured phase makes even when its time is spent


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="interactive-session",
            generator="santander",
            scale=0.05,
            eta_meters=800.0,
            psi=12,
            hits=3,
            clicks=3,
            min_rounds=1,
        ),
        Workload(
            name="china6-wide",
            generator="china6",
            scale=0.006,
            eta_meters=70_000.0,
            psi=8,
            hits=1,
            clicks=1,
            min_rounds=5,
        ),
    )
}

DATASET = "city"
CLICKED = 16  # sensors the clicks and chart views cycle through
WARM_MINES = 2  # cold mines in set-up; the JVM is still compiling after the first
UPLOADS = 3  # re-uploads, each followed by the stale-cache probe, closing the measured phase
# Metrics whose calls run in the Python driver only; see ``Session.host``.
HOST_SCALED = ("mine_hit_s", "click_ms")


def base_params(w: Workload):
    """The T3/T7 parameters (ε=0.05, μ=3, tolerance 0.02,
    ``max_sensors=5``) with the workload's η and ψ."""
    from repro.core.types import MiscelaParams

    return MiscelaParams(epsilon=0.05, eta_meters=w.eta_meters, mu=3, psi=w.psi,
                         segment_tolerance=0.02, max_sensors=5)


def expected_clicks(caps, sensor: str) -> dict[str, list[str]]:
    correlated: dict[str, set[str]] = defaultdict(set)
    for cap in caps:
        if sensor in cap.sensors:
            for other in cap.sensors:
                if other != sensor:
                    correlated[other].update(cap.attributes)
    return {s: sorted(a) for s, a in sorted(correlated.items())}


def settle() -> None:
    """Move every object alive now out of the garbage collector's reach.
    The harness's own long-lived objects (references, CAP lists it keeps
    for checking) would otherwise be walked by each full collection that
    a timed call triggers, and billed to that call."""
    gc.collect()
    gc.freeze()


class BundleData:
    """What one generated bundle holds: the locations, the raw series and
    the evolving timestamps per sensor (``reference.npz``, see bundle.py)."""

    def __init__(self, directory: Path, eta_meters: float):
        self.directory = directory
        self.locations = pd.read_csv(directory / "location.csv", dtype={"id": str}).rename(
            columns={"id": "sensor_id"})
        with np.load(directory / "reference.npz") as z:
            ids = z["ids"].tolist()
            values = z["values"]
            evolving = np.split(z["evolving"], np.cumsum(z["evolving_counts"])[:-1])
        self.series = dict(zip(ids, values))
        self.n_ticks = values.shape[1]
        self.n_records = values.size
        self.reference = Reference(
            self.locations,
            {s: frozenset(e.tolist()) for s, e in zip(ids, evolving)},
            eta_meters,
        )


class Session:
    """The closed-loop analyst: runs operations, times them, checks
    every answer and keeps the samples."""

    def __init__(self, spark, workload: Workload, bundles: list[Path], root: Path):
        from repro.server.api import MiscelaApi

        self.spark = spark
        self.w = workload
        self.api = MiscelaApi(spark, root)
        self.base = base_params(workload)
        self.data = [BundleData(b, workload.eta_meters) for b in bundles]
        self.version = 0
        self.jobs = JobCounter(spark)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.host: list[float] = []  # host_probe_s() before each HOST_SCALED call
        self.counts: dict[str, list[int]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.stale_mines = 0
        self.fingerprints: dict[int, tuple[int, str]] = {}  # bundle → (n_caps, sha256)
        self._verdicts: dict[tuple[str, int], tuple[int, str | None]] = {}
        ids = sorted(self.data[0].series)
        self.click_ids = ids[:: max(1, len(ids) // CLICKED)][:CLICKED]

    # ---- bookkeeping -------------------------------------------------
    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {self.w.name}: {what}", file=sys.stderr)

    def _op(self, metric: str | None, fn, *args):
        """Run one timed operation; ``None`` when it raised."""
        self.attempted += 1
        if metric in HOST_SCALED:
            self.host.append(host_probe_s())
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the run keeps going and reports it
            self._fail(f"{fn.__name__}: {exc!r}")
            return None
        if metric:
            self.samples[metric].append(time.perf_counter() - t0)
        return out

    def verdict(self, caps, fp: str) -> tuple[int, str | None]:
        """``count_bad`` against the current bundle, once per distinct list."""
        key = (fp, self.version)
        if key not in self._verdicts:
            self._verdicts[key] = count_bad(caps, self.data[self.version].reference, self.base)
        return self._verdicts[key]

    def accept(self, caps, fp: str) -> bool:
        """A CAP list that ``mine`` computed for the current bundle: it must
        pass the definition check and equal every earlier list of the same
        bundle."""
        bad, first = self.verdict(caps, fp)
        if bad:
            self._fail(f"mine: {bad} of {len(caps)} CAPs break the definition, e.g. {first}")
            return False
        seen = self.fingerprints.setdefault(self.version, (len(caps), fp))
        if seen != (len(caps), fp):
            self._fail(f"CAPs {fp} differ from an earlier mine of the same data {seen}")
        return True

    # ---- operations --------------------------------------------------
    def upload(self, version: int, metric: str | None = "upload_s") -> None:
        d = self.data[version]
        out = self._op(metric, self.api.upload, DATASET, d.directory)
        self.version = version
        if out is None:
            return
        want_chunks = -(-d.n_records // 10_000)
        if out["n_records"] != d.n_records or out["n_chunks"] != want_chunks:
            self._fail(f"upload returned {out}, expected {d.n_records} records "
                       f"in {want_chunks} chunks")

    def mine_cold(self, metric: str | None = "mine_cold_s"):
        """A ``mine`` that misses every cache; returns its CAPs when they
        pass the checks."""
        self.spark.catalog.clearCache()
        self.api.cache.invalidate(DATASET, self.base)
        with self.jobs.group() as jobs:
            r = self._op(metric, self.api.mine, DATASET, self.base)
        self.counts["spark.jobs"].append(jobs["jobs"])
        self.counts["spark.tasks"].append(jobs["tasks"])
        self.counts["spark.persisted_rdds"].append(persisted_rdds(self.spark))
        if r is None:
            return None
        if r.from_cache:
            self._fail("cold mine was served from the cache")
            return None
        return r.caps if self.accept(r.caps, fingerprint(r.caps)) else None

    def mine_hit(self, want: tuple[int, frozenset]) -> None:
        """``want``: the miss's CAP count and :func:`cap_set`."""
        r = self._op("mine_hit_s", self.api.mine, DATASET, self.base)
        if r is None:
            return
        if not r.from_cache:
            self._fail("repeated mine missed the cache")
        elif len(r.caps) != want[0] or cap_set(r.caps) != want[1]:
            self._fail("cache hit returned other CAPs than the miss")

    def click(self, sensor: str, want: dict) -> None:
        got = self._op("click_ms", self.api.correlated_sensors, DATASET, self.base, sensor)
        if got is not None and got != want:
            self._fail(f"correlated_sensors({sensor}) disagrees with the CAP list")

    def view(self, sensors: list[str], t_min: int, t_max: int) -> None:
        got = self._op("timeseries_ms", self.api.timeseries_payload, DATASET, sensors,
                       t_min, t_max)
        if got is None:
            return
        d = self.data[self.version]
        for s in sensors:
            want = d.series[s][t_min : t_max + 1]
            pts = got["series"].get(s, [])
            ts = [p["t"] for p in pts]
            vals = np.array([np.nan if p["value"] is None else p["value"] for p in pts])
            if ts != list(range(t_min, t_max + 1)) or not np.allclose(
                vals, want, equal_nan=True, rtol=0, atol=1e-9
            ):
                self._fail(f"timeseries_payload({s}, {t_min}..{t_max}) disagrees with data.csv")
                return

    def stale_probe(self) -> None:
        """After a re-upload, a ``mine`` must reflect the new data. At the
        seed the cache serves the CAPs of the bundle uploaded before
        (ROADMAP 4a): a list equal to another bundle's recorded CAPs and
        wrong for the current one is counted as a stale mine
        (``cache.stale_mines``), not as a failed operation. Any other list
        is checked like a cold mine's."""
        r = self._op(None, self.api.mine, DATASET, self.base)
        if r is None:
            return
        fp = fingerprint(r.caps)
        others = {f for v, (_, f) in self.fingerprints.items() if v != self.version}
        if fp in others and self.verdict(r.caps, fp)[0]:
            self.stale_mines += 1
        else:
            self.accept(r.caps, fp)

    # ---- the session -------------------------------------------------
    def round(self, k: int, want: tuple | None, clicks: dict | None) -> None:
        """The ``k``-th round of short calls (see the module's docstring)."""
        ids = self.click_ids
        sensors = [ids[(k * self.w.clicks + j) % len(ids)] for j in range(max(2, self.w.clicks))]
        if want is not None:
            for j in range(max(self.w.hits, self.w.clicks)):
                if j < self.w.hits:
                    self.mine_hit(want)
                if j < self.w.clicks:
                    self.click(sensors[j], clicks[sensors[j]])
        n = self.data[self.version].n_ticks
        t_min = (k * 97) % max(1, n - 168)
        self.view(sensors[:2], t_min, t_min + 167)

    def expect(self, metric: str | None = "mine_cold_s"):
        """A cold mine, and what the hits and clicks that follow must return."""
        caps = self.mine_cold(metric)
        if caps is None:
            return None, None
        return (len(caps), cap_set(caps)), {s: expected_clicks(caps, s) for s in self.click_ids}

    def warm_up(self) -> None:
        """Set-up, untimed: an upload, WARM_MINES cold mines, one round."""
        self.upload(0, metric=None)
        for _ in range(WARM_MINES):
            want, clicks = self.expect(metric=None)
        self.round(0, want, clicks)
        self.samples.clear()
        self.host.clear()
        self.counts.clear()
        settle()

    def run(self, seconds: float) -> int:
        """The measured phase (see the module's docstring); returns the
        number of rounds."""
        t0 = time.perf_counter()
        want, clicks = self.expect()
        settle()
        k = 0
        while k < self.w.min_rounds or time.perf_counter() - t0 < seconds:
            self.round(k, want, clicks)
            k += 1
        for _ in range(UPLOADS):
            self.upload(1 - self.version)
            self.stale_probe()
        return k


def summary(values: list[float]) -> dict:
    """Trimmed mean, median, quartiles, minimum and count of one metric's
    samples. The trimmed mean leaves out the fastest and the slowest
    fifth of the samples (rounded to the nearest whole number)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    cut = (2 * len(values) + 5) // 10
    kept = sorted(values)[cut : len(values) - cut]
    return {"trimmed": statistics.fmean(kept), "median": statistics.median(values), "q1": q1,
            "q3": q3, "min": min(values), "n": len(values)}
