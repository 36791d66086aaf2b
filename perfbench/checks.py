"""Output checks for the benchmark: every CAP a ``mine`` call returns is
tested against the paper's definition (§2.1), independently of how the
program found it.

A CAP passes when
* its support, recomputed as the size of the intersection of its
  sensors' evolving-timestamp sets, equals the reported value and is
  at least ψ;
* its sensors form one connected graph under "haversine distance < η",
  computed here with numpy from the ``location`` rows;
* its attribute set is exactly the sensors' attributes and has 2..μ
  members;
* it has 2..``max_sensors`` sensors.

The evolving sets come from ``bundle.py``: the program's numpy
segmentation kernel and the paper's ε rule applied to the generated
series, so the program's Spark evolving stage is checked too.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pandas as pd

EARTH_RADIUS_M = 6_371_000.0  # the radius the program defines η-distance with


def haversine_matrix(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Pairwise great-circle distances in meters."""
    la, lo = np.radians(lat), np.radians(lon)
    dlat = la[:, None] - la[None, :]
    dlon = lo[:, None] - lo[None, :]
    a = np.sin(dlat / 2) ** 2 + np.cos(la[:, None]) * np.cos(la[None, :]) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


class Reference:
    """What one dataset version says a CAP must satisfy."""

    def __init__(self, locations: pd.DataFrame, evolving: dict[str, frozenset],
                 eta_meters: float):
        ids = locations["sensor_id"].tolist()
        self.attribute = dict(zip(ids, locations["attribute"]))
        dist = haversine_matrix(locations["lat"].to_numpy(float), locations["lon"].to_numpy(float))
        near = dist < eta_meters
        self.neighbors = {
            s: {ids[j] for j in np.flatnonzero(near[i]) if j != i} for i, s in enumerate(ids)
        }
        self.evolving = evolving

    def support(self, sensors) -> int:
        return len(frozenset.intersection(*(self.evolving.get(s, frozenset()) for s in sensors)))

    def connected(self, sensors) -> bool:
        inside = set(sensors)
        seen, todo = {sensors[0]}, [sensors[0]]
        while todo:
            for w in self.neighbors.get(todo.pop(), ()):
                if w in inside and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen == inside

    def violations(self, cap, params) -> list[str]:
        """Reasons ``cap`` breaks the definition (empty when it holds)."""
        out = []
        sensors = cap.sensors
        if not 2 <= len(sensors) <= params.max_sensors:
            out.append(f"{len(sensors)} sensors")
        if any(s not in self.attribute for s in sensors):
            return out + ["unknown sensor"]
        attrs = sorted({self.attribute[s] for s in sensors})
        if list(cap.attributes) != attrs:
            out.append("attributes differ from the sensors' attributes")
        if not 2 <= len(attrs) <= params.mu:
            out.append(f"{len(attrs)} attributes")
        sup = self.support(sensors)
        if sup != cap.support:
            out.append(f"support {cap.support} reported, {sup} recomputed")
        if sup < params.psi:
            out.append(f"support {sup} < psi {params.psi}")
        if not self.connected(sensors):
            out.append("sensors not eta-connected")
        return out


def count_bad(caps, reference: Reference, params) -> tuple[int, str | None]:
    """Number of CAPs that break the definition, and the first reason."""
    bad, first = 0, None
    for cap in caps:
        why = reference.violations(cap, params)
        if why:
            bad += 1
            first = first or f"{cap.sensors}: {'; '.join(why)}"
    return bad, first


def cap_key(caps) -> list:
    """Canonical, component-free form of a CAP list: sorted
    ``[sensors, attributes, support]`` triples."""
    return sorted([list(c.sensors), list(c.attributes), int(c.support)] for c in caps)


def fingerprint(caps) -> str:
    """sha256 of the canonical CAP list (see :func:`cap_key`)."""
    blob = json.dumps(cap_key(caps), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def cap_set(caps) -> frozenset:
    """Component-free set form of a CAP list. Two lists of distinct CAPs
    hold the same CAPs when their lengths and sets are equal; cheaper
    than :func:`fingerprint` on the driver for repeated checks."""
    return frozenset((tuple(c.sensors), tuple(c.attributes), int(c.support)) for c in caps)
