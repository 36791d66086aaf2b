"""Step 4 of MISCELA: the CAP search (paper §2.2 step 4).

"For each set of spatially close sensors, we search for CAPs. We
recursively conduct the CAP search with gradually expanding spatially
close sensors according to a tree structure."

The tree structure is a connected-vertex-set enumeration over the
co-evolving η-neighbor graph: starting from each root sensor (in sorted
order), sets grow one neighbor at a time; a *forbidden* set makes each
connected set reachable along exactly one path, so no pattern is found
twice. Two prunings make it MISCELA rather than brute force, both sound
because support and attribute count are monotone along every path:

* **support pruning** — the support of a superset can only shrink
  (intersection of evolving-timestamp sets), so a candidate below ψ
  kills its whole subtree;
* **μ pruning** — attributes only accumulate, so a candidate exceeding
  μ attributes kills its subtree.

The kernel :func:`search_component` is pure Python: each node carries
the intersection of its members' :func:`evolving_keys`, whose size is
its support. :func:`repro.core.miscela.mine_caps` calls it on the
driver once per spatial component.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.types import CAP, MiscelaParams, SearchStats


def evolving_keys(
    sensor: str,
    epos: Mapping[str, frozenset],
    eneg: Mapping[str, frozenset],
    same_direction: bool,
) -> frozenset:
    """The keys at which ``sensor`` evolves: its evolving timestamps, or
    ``(timestamp, ±1)`` pairs when ``same_direction`` is set, so that
    two sensors share a key only when they move the same way. A sensor
    missing from ``epos`` / ``eneg`` never evolves."""
    none = frozenset()
    up, down = epos.get(sensor, none), eneg.get(sensor, none)
    if same_direction:
        return frozenset((t, 1) for t in up) | frozenset((t, -1) for t in down)
    return up | down


def support(
    members: tuple[str, ...],
    epos: Mapping[str, frozenset],
    eneg: Mapping[str, frozenset],
    same_direction: bool,
) -> int:
    """Support of a sensor set from scratch: the number of timestamps
    at which all of its sensors evolve (paper §2.1), i.e. the size of
    the intersection of their :func:`evolving_keys`. The one definition
    behind the pairwise supports, the search's running intersection and
    the brute-force oracle."""
    if not members:
        return 0
    return len(frozenset.intersection(
        *[evolving_keys(s, epos, eneg, same_direction) for s in members]))


def search_component(
    attributes: Mapping[str, str],
    adjacency: Mapping[str, Iterable[str]],
    epos: Mapping[str, frozenset],
    eneg: Mapping[str, frozenset],
    params: MiscelaParams,
    component: str = "",
    prune_support: bool = True,
) -> tuple[list[CAP], SearchStats]:
    """Find every CAP inside one spatially connected component.

    Parameters
    ----------
    attributes:
        sensor_id → attribute name for every sensor in the component.
    adjacency:
        η-neighbor adjacency restricted to co-evolving edges (pairwise
        support ≥ ψ); only edges inside the component.
    epos / eneg:
        sensor_id → frozenset of timestamps with increasing /
        decreasing evolving timestamps.
    prune_support:
        True = MISCELA (support pruning at ψ); False = the Table-4
        baseline: a pruning floor of 0, so the search expands the full
        lattice (bounded by μ and ``max_sensors``); emission still
        needs support ≥ ψ.

    Returns the CAP list and :class:`SearchStats` instrumentation.
    """
    stats = SearchStats()
    caps: list[CAP] = []
    sensors = sorted(attributes)
    members = set(sensors)
    adj = {s: sorted(members.intersection(adjacency.get(s, ()))) for s in sensors}
    keys = {s: evolving_keys(s, epos, eneg, params.same_direction) for s in sensors}
    floor = params.psi if prune_support else 0

    def grow(sub: list[str], attrs: set[str], state: frozenset, forbidden: set[str], root: str):
        stats.nodes_expanded += 1
        if len(sub) >= 2 and len(attrs) >= 2 and len(state) >= params.psi:
            stats.emitted += 1
            caps.append(
                CAP(sensors=tuple(sub), attributes=tuple(attrs), support=len(state), component=component)
            )
        if len(sub) >= params.max_sensors:
            # any neighbor we could still add counts as a bound hit
            if any(
                w > root and w not in forbidden and w not in sub
                for s in sub
                for w in adj[s]
            ):
                stats.hit_max_sensors += 1
            return
        candidates = sorted(
            {w for s in sub for w in adj[s] if w > root and w not in forbidden}
            - set(sub)
        )
        local_forbidden = set(forbidden)
        for w in candidates:
            new_attrs = attrs | {attributes[w]}
            if len(new_attrs) > params.mu:
                stats.pruned_by_mu += 1
                local_forbidden.add(w)
                continue
            new_state = state & keys[w]
            stats.support_evaluations += 1
            if len(new_state) < floor:
                stats.pruned_by_support += 1
                local_forbidden.add(w)
                continue
            grow(sub + [w], new_attrs, new_state, set(local_forbidden), root)
            local_forbidden.add(w)

    for root in sensors:
        grow([root], {attributes[root]}, keys[root], set(), root)
    return caps, stats


def brute_force_caps(
    attributes: Mapping[str, str],
    adjacency: Mapping[str, Iterable[str]],
    epos: Mapping[str, frozenset],
    eneg: Mapping[str, frozenset],
    params: MiscelaParams,
    component: str = "",
) -> list[CAP]:
    """Exponential reference: test oracle for :func:`search_component`.

    Enumerates *every* subset of the component up to ``max_sensors``,
    keeps those that are connected in ``adjacency``, have 2..μ distinct
    attributes, ≥ 2 sensors, and support ≥ ψ. Only usable on tiny
    components (tests).
    """
    from itertools import combinations

    sensors = sorted(attributes)
    adj = {s: set(adjacency.get(s, ())) for s in sensors}

    def connected(sub: tuple[str, ...]) -> bool:
        todo, seen = [sub[0]], {sub[0]}
        inside = set(sub)
        while todo:
            for w in adj[todo.pop()]:
                if w in inside and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(inside)

    out = []
    for k in range(2, min(params.max_sensors, len(sensors)) + 1):
        for sub in combinations(sensors, k):
            attrs = {attributes[s] for s in sub}
            if not (2 <= len(attrs) <= params.mu):
                continue
            if not connected(sub):
                continue
            sup = support(sub, epos, eneg, params.same_direction)
            if sup >= params.psi:
                out.append(CAP(sensors=sub, attributes=tuple(attrs), support=sup, component=component))
    return out
