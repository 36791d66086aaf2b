"""The traced run: per-layer times and counts, taken from outside the
program.

Spans are recorded here, around calls into each layer's public
functions. Two passes produce them:

* the *stage pass* calls the mining stages one by one, materialising
  each result (persist + count), so a span's time is that stage's work,
  and runs ``search_component`` per component on the driver for the
  kernel time and ``SearchStats``;
* the *API pass* runs one cold ``MiscelaApi.mine`` with the calls it
  makes wrapped in spans, next to the program's own timing buckets, so
  the time no span covers shows as ``trace.unaccounted_s``. Untraced
  cold mines just before and after it give ``trace.overhead_s``.

A function a later version of the program no longer has leaves its
metrics ``null`` ("absent") instead of failing the run.
"""
from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from perfbench.checks import cap_set
from perfbench.probes import jvm_peak_rss_mb, jvm_pid, persisted_rdds
from perfbench.workloads import DATASET

# name → unit of every per-layer metric, in report order
PER_LAYER = {
    "ingest.upload_s": "s", "ingest.chunks": "count", "ingest.records": "count",
    "datasets.save_s": "s", "datasets.load_s": "s",
    "segmentation.smooth_s": "s", "segmentation.rows": "count",
    "segmentation.kernel_ms_per_series": "ms",
    "evolving.extract_s": "s", "evolving.rows": "count",
    "evolving.active_s": "s", "evolving.active_sensors": "count",
    "spatial.neighbor_edges_s": "s", "spatial.edges": "count",
    "coevolution.pair_supports_s": "s", "coevolution.coev_edges": "count",
    "coevolution.useful_ratio": "ratio",
    "components.s": "s", "components.count": "count", "components.largest": "count",
    "search.kernel_s": "s", "search.nodes_expanded": "count",
    "search.support_evaluations": "count", "search.pruned_by_support": "count",
    "search.emitted": "count", "search.hit_max_sensors": "count", "search.emit_ratio": "ratio",
    "miscela.segment_and_extract_s": "s", "miscela.spatial_join_s": "s",
    "miscela.search_s": "s", "miscela.collect_s": "s", "miscela.caps": "count",
    "cache.get_s": "s", "cache.put_s": "s", "cache.doc_bytes": "bytes",
    "cache.hits": "count", "cache.misses": "count", "cache.stale_mines": "count",
    "spark.session_start_s": "s", "spark.jobs": "count", "spark.tasks": "count",
    "spark.persisted_rdds": "count", "spark.persisted_rdds_per_mine": "count",
    "spark.jvm_peak_rss_mb": "MB",
    "session.error_rate": "ratio",
    "trace.unaccounted_s": "s", "trace.overhead_s": "s",
}

KERNEL_SAMPLE = 12  # series timed through the segmentation kernel


class Tracer:
    """Spans in memory: (name, start, end, parent)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((name, t0, time.perf_counter(), parent))

    def total(self, name: str) -> float | None:
        hits = [end - start for n, start, end, _ in self.spans if n == name]
        return sum(hits) if hits else None

    def children(self, name: str) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent == name)


def lookup(module: str, name: str):
    """``module.name``, or None when the program no longer has it."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


@contextmanager
def wrapped(tracer: Tracer, owner, attr: str, span: str, after=None):
    """Replace ``owner.attr`` by a spanned version for the block;
    ``after`` may replace its result. Nothing happens when it is absent."""
    original = getattr(owner, attr, None)
    if original is None:
        yield
        return

    def call(*args, **kwargs):
        with tracer.span(span):
            result = original(*args, **kwargs)
        return after(result) if after else result

    setattr(owner, attr, call)
    try:
        yield
    finally:
        if hasattr(type(owner), attr):  # a method: drop the instance attribute
            delattr(owner, attr)
        else:  # a module attribute
            setattr(owner, attr, original)


class TimedCollect:
    """Stands in for the mined CAP DataFrame so its ``collect()`` is a span."""

    def __init__(self, df, tracer: Tracer):
        self._df, self._tracer = df, tracer

    def collect(self):
        with self._tracer.span("caps.collect"):
            return self._df.collect()

    def __getattr__(self, name):
        return getattr(self._df, name)


def materialise(tracer: Tracer, span: str, build):
    """Run ``build()`` and persist + count its DataFrame inside the span."""
    with tracer.span(span):
        df = build().persist()
        rows = df.count()
    return df, rows


def stage_pass(session, tracer: Tracer, out: dict) -> None:
    """Steps 1–4 called one by one from outside the program."""
    from pyspark.sql import functions as F

    spark, params = session.spark, session.base
    smooth = lookup("repro.core.segmentation", "smooth_readings")
    extract = lookup("repro.core.evolving", "extract_evolving")
    active_fn = lookup("repro.core.evolving", "active_sensors")
    edges_fn = lookup("repro.core.spatial", "neighbor_edges")
    coev_fn = lookup("repro.core.coevolution", "coevolving_edges")
    comp_fn = lookup("repro.core.components", "connected_components")
    search_fn = lookup("repro.core.search", "search_component")
    normalize = lookup("repro.core.segmentation", "normalize_series")
    segment = lookup("repro.core.segmentation", "segment_series")
    persisted = []

    with tracer.span("datasets.load"):
        readings, locations, _ = session.api.store.load(spark, DATASET)
        readings = readings.persist()
        readings.count()
    persisted.append(readings)
    out["datasets.load_s"] = tracer.total("datasets.load")

    if normalize and segment:
        ids = sorted(session.data[session.version].series)
        step = max(1, len(ids) // KERNEL_SAMPLE)
        per_series = []
        for s in ids[::step][:KERNEL_SAMPLE]:
            v = session.data[session.version].series[s]
            t0 = time.perf_counter()
            segment(normalize(v), params.segment_tolerance)
            per_series.append((time.perf_counter() - t0) * 1000)
        out["segmentation.kernel_ms_per_series"] = statistics.median(per_series)

    if not (smooth and extract):
        return
    smoothed, out["segmentation.rows"] = materialise(
        tracer, "segmentation.smooth", lambda: smooth(readings, params.segment_tolerance))
    evolving, out["evolving.rows"] = materialise(
        tracer, "evolving.extract", lambda: extract(smoothed, params.epsilon))
    persisted += [smoothed, evolving]
    out["segmentation.smooth_s"] = tracer.total("segmentation.smooth")
    out["evolving.extract_s"] = tracer.total("evolving.extract")
    if not (active_fn and edges_fn and coev_fn):
        return
    active, out["evolving.active_sensors"] = materialise(
        tracer, "evolving.active", lambda: active_fn(evolving, params.psi))
    live = locations.join(active, on="sensor_id")
    edges, out["spatial.edges"] = materialise(
        tracer, "spatial.neighbor_edges", lambda: edges_fn(live, params.eta_meters))
    coev, out["coevolution.coev_edges"] = materialise(
        tracer, "coevolution.pair_supports",
        lambda: coev_fn(evolving, edges, params.psi, same_direction=params.same_direction))
    persisted += [active, edges, coev]
    out["evolving.active_s"] = tracer.total("evolving.active")
    out["spatial.neighbor_edges_s"] = tracer.total("spatial.neighbor_edges")
    out["coevolution.pair_supports_s"] = tracer.total("coevolution.pair_supports")
    if out["spatial.edges"]:
        out["coevolution.useful_ratio"] = out["coevolution.coev_edges"] / out["spatial.edges"]

    if comp_fn:
        nodes = (coev.select(F.col("src").alias("sensor_id"))
                 .union(coev.select(F.col("dst").alias("sensor_id"))).distinct())
        comps, _ = materialise(tracer, "components", lambda: comp_fn(nodes, coev))
        persisted.append(comps)
        out["components.s"] = tracer.total("components")
        groups: dict[str, list[str]] = {}
        for r in comps.select("sensor_id", "component").collect():
            groups.setdefault(r["component"], []).append(r["sensor_id"])
        out["components.count"] = len(groups)
        out["components.largest"] = max((len(m) for m in groups.values()), default=0)
        if search_fn:
            edge_list = [(r["src"], r["dst"]) for r in coev.select("src", "dst").collect()]
            _search_kernel(session, search_fn, evolving, edge_list, groups, tracer, out)
    for df in persisted:
        df.unpersist()


def _search_kernel(session, search_fn, evolving, edge_list, groups, tracer, out) -> None:
    from pyspark.sql import functions as F

    from repro.core.types import SearchStats

    epos, eneg = {}, {}
    for r in evolving.groupBy("sensor_id").agg(
        F.collect_list(F.when(F.col("direction") == 1, F.col("t"))).alias("p"),
        F.collect_list(F.when(F.col("direction") == -1, F.col("t"))).alias("m"),
    ).collect():
        epos[r["sensor_id"]] = frozenset(int(t) for t in r["p"])
        eneg[r["sensor_id"]] = frozenset(int(t) for t in r["m"])
    attribute = dict(zip(session.data[session.version].locations["sensor_id"],
                         session.data[session.version].locations["attribute"]))
    adjacency: dict[str, set] = {}
    for a, b in edge_list:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    total = SearchStats()
    with tracer.span("search.kernel"):
        for comp, members in sorted(groups.items()):
            _, stats = search_fn(
                {s: attribute[s] for s in members},
                {s: adjacency.get(s, set()) for s in members},
                {s: epos.get(s, frozenset()) for s in members},
                {s: eneg.get(s, frozenset()) for s in members},
                session.base, component=comp)
            total.merge(stats)
    out["search.kernel_s"] = tracer.total("search.kernel")
    for field in ("nodes_expanded", "support_evaluations", "pruned_by_support", "emitted",
                  "hit_max_sensors"):
        out[f"search.{field}"] = getattr(total, field)
    if total.nodes_expanded:
        out["search.emit_ratio"] = total.emitted / total.nodes_expanded


def api_pass(session, tracer: Tracer, out: dict) -> float:
    """One cold ``mine`` with its calls spanned; returns its elapsed time."""
    api_module = importlib.import_module("repro.server.api")
    api = session.api

    def spanned_collect(artifacts):
        if hasattr(artifacts, "caps"):
            artifacts.caps = TimedCollect(artifacts.caps, tracer)
        return artifacts

    session.spark.catalog.clearCache()
    api.cache.invalidate(DATASET, session.base)
    with (
        wrapped(tracer, api.cache, "get", "cache.get"),
        wrapped(tracer, api.cache, "put", "cache.put"),
        wrapped(tracer, api.store, "load", "store.load"),
        wrapped(tracer, api_module, "rows_to_caps", "rows_to_caps"),
        wrapped(tracer, api_module, "mine_caps", "mine_caps", after=spanned_collect),
        tracer.span("api.mine"),
    ):
        r = api.mine(DATASET, session.base)
    elapsed = tracer.total("api.mine")

    buckets = dict(r.timings)
    for key in ("segment_and_extract_s", "spatial_join_s", "search_s"):
        out[f"miscela.{key}"] = buckets.get(key)
    collect = [tracer.total("caps.collect"), tracer.total("rows_to_caps")]
    if all(v is not None for v in collect):
        out["miscela.collect_s"] = sum(collect)
    out["miscela.caps"] = len(r.caps)
    out["cache.put_s"] = tracer.total("cache.put")
    inside = tracer.total("mine_caps")
    unaccounted = elapsed - tracer.children("api.mine")
    if inside is not None:
        unaccounted += inside - sum(buckets.values())
    out["trace.unaccounted_s"] = unaccounted

    print(f"reconciliation {session.w.name}: mine {elapsed:.3f} s")
    for name in ("cache.get", "store.load", "mine_caps", "caps.collect", "rows_to_caps",
                 "cache.put"):
        v = tracer.total(name)
        print(f"  span {name:14s} {'absent' if v is None else f'{v:.3f} s'}")
    for key, v in buckets.items():
        print(f"    bucket {key:22s} {v:.3f} s")
    print(f"  outside the program's buckets {elapsed - sum(buckets.values()):.3f} s")
    print(f"  unaccounted (in no span or bucket) {unaccounted:.3f} s")
    return elapsed


def cache_doc_bytes(session) -> int | None:
    docs = Path(session.api.store.root) / "docs" / "cap_results"
    sizes = [p.stat().st_size for p in docs.glob("*.json")]
    return max(sizes) if sizes else None


def traced_run(session, session_start_s: float) -> dict:
    tracer = Tracer()
    out: dict = {name: None for name in PER_LAYER}
    out["spark.session_start_s"] = session_start_s
    api = session.api

    with wrapped(tracer, api.store, "save", "datasets.save"), tracer.span("ingest.upload"):
        session.upload(0, metric=None)
    out["ingest.upload_s"] = tracer.total("ingest.upload")
    out["datasets.save_s"] = tracer.total("datasets.save")
    d = session.data[0]
    out["ingest.records"] = d.n_records
    meta = api.store.docs.get("datasets", DATASET) or {}
    out["ingest.chunks"] = meta.get("meta", {}).get("n_chunks")

    rdds0 = persisted_rdds(session.spark)
    session.mine_cold(metric=None)  # warm-up
    session.mine_cold(metric="untraced")
    out["spark.jobs"] = session.counts["spark.jobs"][-1]
    out["spark.tasks"] = session.counts["spark.tasks"][-1]

    # the traced mine sits between two untraced ones, so the JVM's
    # warming over the three does not show as tracing overhead
    traced = api_pass(session, tracer, out)
    session.counts["spark.persisted_rdds"].append(persisted_rdds(session.spark))
    session.mine_cold(metric="untraced")
    untraced = session.samples.pop("untraced", [])
    if len(untraced) == 2:
        out["trace.overhead_s"] = traced - statistics.mean(untraced)
    after = session.counts["spark.persisted_rdds"]
    out["spark.persisted_rdds"] = after[-1]
    out["spark.persisted_rdds_per_mine"] = (after[-1] - rdds0) / len(after)
    print(f"persisted RDDs after each mine: {after}")

    cached = api.cache.get(DATASET, session.base) or []
    want = (len(cached), cap_set(cached))
    with wrapped(tracer, api.cache, "get", "cache.get.hit"):
        session.mine_hit(want)
    out["cache.get_s"] = tracer.total("cache.get.hit")
    out["cache.doc_bytes"] = cache_doc_bytes(session)

    session.spark.catalog.clearCache()
    stage_pass(session, tracer, out)

    session.upload(1, metric=None)
    session.stale_probe()
    out["cache.stale_mines"] = session.stale_mines
    out["cache.hits"] = getattr(api.cache, "hits", None)
    out["cache.misses"] = getattr(api.cache, "misses", None)
    out["session.error_rate"] = session.failed / max(1, session.attempted)
    out["spark.jvm_peak_rss_mb"] = jvm_peak_rss_mb(jvm_pid(session.spark))
    return {name: {"value": _plain(out[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def _plain(v):
    if v is None:
        return None
    if isinstance(v, (np.integer, int)):
        return int(v)
    return float(v)
