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

The kernel :func:`search_component` is pure Python over frozensets of
timestamps; :func:`repro.core.miscela.mine_caps` calls it on the driver
once per spatial component.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.types import CAP, MiscelaParams, SearchStats


def support(
    members: tuple[str, ...],
    epos: Mapping[str, frozenset],
    eneg: Mapping[str, frozenset],
    same_direction: bool,
) -> int:
    """Support of a sensor set from scratch: the number of timestamps
    at which all of its sensors evolve (paper §2.1). The one definition
    behind the pairwise supports, the unpruned baseline and the
    brute-force oracle; a sensor missing from ``epos`` / ``eneg`` never
    evolves."""
    none = frozenset()
    if same_direction:
        p = frozenset.intersection(*[epos.get(s, none) for s in members]) if members else none
        m = frozenset.intersection(*[eneg.get(s, none) for s in members]) if members else none
        return len(p) + len(m)
    alls = [epos.get(s, none) | eneg.get(s, none) for s in members]
    return len(frozenset.intersection(*alls)) if alls else 0


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
        True = MISCELA (anti-monotone pruning); False = the Table-4
        baseline, which expands the full lattice (bounded by μ and
        ``max_sensors``) and evaluates support only on emission.

    Returns the CAP list and :class:`SearchStats` instrumentation.
    """
    stats = SearchStats()
    caps: list[CAP] = []
    sensors = sorted(attributes)
    adj = {s: sorted(set(adjacency.get(s, ())) & set(sensors)) for s in sensors}
    eall = {s: epos.get(s, frozenset()) | eneg.get(s, frozenset()) for s in sensors}
    same_dir = params.same_direction

    def state_of(sensor: str):
        """Running intersection state for a single sensor."""
        if same_dir:
            return (epos.get(sensor, frozenset()), eneg.get(sensor, frozenset()))
        return eall[sensor]

    def extend_state(state, sensor: str):
        if same_dir:
            return (state[0] & epos.get(sensor, frozenset()), state[1] & eneg.get(sensor, frozenset()))
        return state & eall[sensor]

    def support_of(state) -> int:
        return (len(state[0]) + len(state[1])) if same_dir else len(state)

    def grow(sub: list[str], attrs: set[str], state, forbidden: set[str], root: str):
        stats.nodes_expanded += 1
        if len(sub) >= 2 and len(attrs) >= 2:
            sup = support_of(state) if prune_support else support(tuple(sub), epos, eneg, same_dir)
            if not prune_support:
                stats.support_evaluations += 1
            if sup >= params.psi:
                stats.emitted += 1
                caps.append(
                    CAP(sensors=tuple(sub), attributes=tuple(attrs), support=sup, component=component)
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
            if prune_support:
                new_state = extend_state(state, w)
                stats.support_evaluations += 1
                if support_of(new_state) < params.psi:
                    stats.pruned_by_support += 1
                    local_forbidden.add(w)
                    continue
            else:
                new_state = None
            grow(sub + [w], new_attrs, new_state, set(local_forbidden), root)
            local_forbidden.add(w)

    for root in sensors:
        grow([root], {attributes[root]}, state_of(root) if prune_support else None, set(), root)
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
