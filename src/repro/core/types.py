"""Shared datatypes for CAP mining.

The paper's four user-facing parameters (§2.1) — evolving rate ε,
distance threshold η, max CAP attributes μ, minimum support ψ — live in
:class:`MiscelaParams` together with the two implementation knobs that
the demo paper leaves unspecified (segmentation tolerance, pattern-size
safety bound). A discovered pattern is a :class:`CAP`.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields


@dataclass(frozen=True)
class MiscelaParams:
    """User parameters of CAP mining (paper §2.1).

    Attributes
    ----------
    epsilon:
        Evolving rate ε, in *normalized* measurement units (each sensor
        series is min-max scaled to [0,1] first). A timestamp evolves iff
        the smoothed series changes by more than ε since the previous
        timestamp. Larger ε ⇒ fewer evolving timestamps per sensor, but
        the surviving ones are strong moves that tend to be shared, so
        the paper notes #CAPs *grows* with ε for its datasets.
    eta_meters:
        Distance threshold η in meters; two sensors are neighbors iff
        their haversine distance is below η.
    mu:
        Maximum number of distinct attributes in a CAP (μ ≥ 2).
    psi:
        Minimum support ψ: a sensor set qualifies iff all its sensors
        evolve together at ≥ ψ timestamps.
    segment_tolerance:
        Max absolute residual (normalized units) allowed between a
        segment and its least-squares line. 0 disables smoothing.
    max_sensors:
        Safety bound on CAP size in sensors (the attribute bound μ does
        not bound sensor count — many sensors may share one attribute).
        Searches report how often the bound pruned, never silently.
    same_direction:
        If True, a timestamp counts toward support only when every
        sensor in the set moves with the same sign; default False
        matches the paper's loose "increase/decrease at the same
        timestamp" co-evolution.
    """

    epsilon: float = 0.05
    eta_meters: float = 800.0
    mu: int = 3
    psi: int = 10
    segment_tolerance: float = 0.05
    max_sensors: int = 6
    same_direction: bool = False

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.eta_meters <= 0:
            raise ValueError(f"eta_meters must be > 0, got {self.eta_meters}")
        if self.mu < 2:
            raise ValueError(f"mu must be >= 2 (CAPs are cross-attribute), got {self.mu}")
        if self.psi < 1:
            raise ValueError(f"psi must be >= 1, got {self.psi}")
        if self.max_sensors < 2:
            raise ValueError(f"max_sensors must be >= 2, got {self.max_sensors}")
        if self.segment_tolerance < 0:
            raise ValueError(f"segment_tolerance must be >= 0, got {self.segment_tolerance}")

    def cache_key(self, dataset_name: str) -> str:
        """Stable content hash of (dataset, parameters) — the cache key
        of paper §3.3 ("name of the dataset, parameters, and CAPs")."""
        blob = json.dumps(
            {"dataset": dataset_name, **asdict(self)}, sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:32]


@dataclass(frozen=True)
class CAP:
    """One correlated attribute pattern: a spatially connected sensor
    set covering ≥ 2 attributes whose members co-evolve ≥ ψ times.

    ``sensors``/``attributes`` are stored sorted so two CAPs over the
    same sets compare equal regardless of discovery order.
    """

    sensors: tuple[str, ...]
    attributes: tuple[str, ...]
    support: int
    component: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensors", tuple(sorted(self.sensors)))
        object.__setattr__(self, "attributes", tuple(sorted(set(self.attributes))))

    @property
    def size(self) -> int:
        return len(self.sensors)

    def to_doc(self) -> dict:
        """JSON-document form (paper §3.4: 'its format is JSON')."""
        return {
            "sensors": list(self.sensors),
            "attributes": list(self.attributes),
            "support": self.support,
            "component": self.component,
        }

    @staticmethod
    def from_doc(doc: dict) -> "CAP":
        return CAP(
            sensors=tuple(doc["sensors"]),
            attributes=tuple(doc["attributes"]),
            support=int(doc["support"]),
            component=str(doc.get("component", "")),
        )


@dataclass
class SearchStats:
    """Instrumentation shared by MISCELA and the baseline (Table 4).

    ``support_evaluations`` counts the extensions within μ, each of
    which intersects the running support state with one more sensor.
    """

    support_evaluations: int = 0
    nodes_expanded: int = 0
    pruned_by_support: int = 0
    pruned_by_mu: int = 0
    hit_max_sensors: int = 0
    emitted: int = 0

    def merge(self, other: "SearchStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
