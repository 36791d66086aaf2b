"""Unit tests for the CAP search kernel: fuzzing against the
exponential brute-force oracle, pruning soundness, and instrumentation."""
import pytest

from repro.core.search import brute_force_caps, search_component, support
from repro.core.types import CAP, MiscelaParams, SearchStats
from tests.helpers import random_graph_instance

# a tiny fixed instance used by several tests:
#   s1(tempA) — s2(traffic) — s3(tempB? no: attr temp) chain, s4 isolated
ATTRS = {"s1": "temp", "s2": "traffic", "s3": "temp", "s4": "light"}
ADJ = {"s1": {"s2"}, "s2": {"s1", "s3"}, "s3": {"s2"}, "s4": set()}
EPOS = {
    "s1": frozenset({1, 2, 3, 4, 5}),
    "s2": frozenset({1, 2, 3, 4}),
    "s3": frozenset({1, 2}),
    "s4": frozenset({1, 2, 3}),
}
ENEG = {s: frozenset() for s in ATTRS}


def _params(**kw):
    defaults = dict(epsilon=0.05, eta_meters=500, mu=3, psi=2, max_sensors=6)
    defaults.update(kw)
    return MiscelaParams(**defaults)


def _as_set(caps):
    return {(c.sensors, c.attributes, c.support) for c in caps}


class TestSupportHelper:
    def test_any_direction_is_intersection(self):
        assert support(("s1", "s2"), EPOS, ENEG, False) == 4
        assert support(("s1", "s2", "s3"), EPOS, ENEG, False) == 2

    def test_same_direction_splits_signs(self):
        epos = {"a": frozenset({1, 2}), "b": frozenset({1})}
        eneg = {"a": frozenset({3}), "b": frozenset({2, 3})}
        # same-sign common ticks: +{1}, -{3} → 2; any-direction: {1,2,3} → 3
        assert support(("a", "b"), epos, eneg, True) == 2
        assert support(("a", "b"), epos, eneg, False) == 3


class TestSearchFixedInstance:
    def test_finds_expected_caps(self):
        caps, _ = search_component(ATTRS, ADJ, EPOS, ENEG, _params(psi=2))
        assert _as_set(caps) == {
            (("s1", "s2"), ("temp", "traffic"), 4),
            (("s1", "s2", "s3"), ("temp", "traffic"), 2),
            (("s2", "s3"), ("temp", "traffic"), 2),
        }

    def test_psi_filters(self):
        caps, _ = search_component(ATTRS, ADJ, EPOS, ENEG, _params(psi=3))
        assert _as_set(caps) == {(("s1", "s2"), ("temp", "traffic"), 4)}

    def test_single_attribute_sets_never_emitted(self):
        # s1–s2–s3 includes the temp-temp pair s1,s3 but they are not
        # adjacent; make them adjacent and check the pure-temp pair is
        # still suppressed (CAPs need ≥ 2 attributes)
        adj = {k: set(v) for k, v in ADJ.items()}
        adj["s1"].add("s3")
        adj["s3"].add("s1")
        caps, _ = search_component(ATTRS, adj, EPOS, ENEG, _params(psi=1))
        assert all(len(c.attributes) >= 2 for c in caps)
        assert (("s1", "s3")) not in [c.sensors for c in caps]

    def test_isolated_sensor_never_appears(self):
        caps, _ = search_component(ATTRS, ADJ, EPOS, ENEG, _params(psi=1))
        assert all("s4" not in c.sensors for c in caps)

    def test_component_tag_propagates(self):
        caps, _ = search_component(ATTRS, ADJ, EPOS, ENEG, _params(), component="comp7")
        assert caps and all(c.component == "comp7" for c in caps)

    def test_mu_two_limits_attribute_count(self):
        attrs = {"s1": "a", "s2": "b", "s3": "c"}
        adj = {"s1": {"s2"}, "s2": {"s1", "s3"}, "s3": {"s2"}}
        e = {s: frozenset({1, 2, 3}) for s in attrs}
        zero = {s: frozenset() for s in attrs}
        caps, stats = search_component(attrs, adj, e, zero, _params(mu=2, psi=1))
        assert all(len(c.attributes) <= 2 for c in caps)
        assert stats.pruned_by_mu > 0

    def test_max_sensors_bound_reported(self):
        attrs = {f"s{i}": ("x" if i % 2 else "y") for i in range(5)}
        adj = {f"s{i}": {f"s{j}" for j in range(5) if j != i} for i in range(5)}
        e = {s: frozenset(range(10)) for s in attrs}
        zero = {s: frozenset() for s in attrs}
        caps, stats = search_component(attrs, adj, e, zero, _params(max_sensors=2, psi=1))
        assert max(c.size for c in caps) == 2
        assert stats.hit_max_sensors > 0


class TestFuzzAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_match(self, seed):
        attrs, adj, epos, eneg = random_graph_instance(seed)
        p = _params(psi=3, mu=3, max_sensors=4)
        caps, _ = search_component(attrs, adj, epos, eneg, p)
        want = brute_force_caps(attrs, adj, epos, eneg, p)
        assert _as_set(caps) == _as_set(want)

    @pytest.mark.parametrize("seed", range(10))
    def test_same_direction_instances_match(self, seed):
        attrs, adj, epos, eneg = random_graph_instance(seed + 100)
        p = _params(psi=2, mu=3, max_sensors=4, same_direction=True)
        caps, _ = search_component(attrs, adj, epos, eneg, p)
        want = brute_force_caps(attrs, adj, epos, eneg, p)
        assert _as_set(caps) == _as_set(want)

    @pytest.mark.parametrize("seed", range(10))
    def test_no_duplicate_patterns(self, seed):
        attrs, adj, epos, eneg = random_graph_instance(seed, n=9, edge_prob=0.6)
        caps, _ = search_component(attrs, adj, epos, eneg, _params(psi=1, max_sensors=4))
        assert len(caps) == len({c.sensors for c in caps})

    @pytest.mark.parametrize(
        ("seed", "same_direction"),
        [pytest.param(seed, False, id=str(seed)) for seed in range(8)]
        + [pytest.param(seed, True, id=f"{seed}-same_direction") for seed in range(8)],
    )
    def test_unpruned_baseline_identical_output(self, seed, same_direction):
        attrs, adj, epos, eneg = random_graph_instance(seed + 50)
        p = _params(psi=3, max_sensors=4, same_direction=same_direction)
        pruned, s1 = search_component(attrs, adj, epos, eneg, p, prune_support=True)
        unpruned, s2 = search_component(attrs, adj, epos, eneg, p, prune_support=False)
        assert _as_set(pruned) == _as_set(unpruned)
        # pruning explores at most as many nodes as the full lattice
        assert s1.nodes_expanded <= s2.nodes_expanded


class TestCountersPinned:
    """Exact ``SearchStats`` on fixed inputs: every counter of the pruned
    search, and the enumeration counters of the unpruned one."""

    RANDOM = dict(seed=7, n=9, n_attrs=4, edge_prob=0.5)

    def _random_stats(self, prune_support):
        attrs, adj, epos, eneg = random_graph_instance(**self.RANDOM)
        p = _params(psi=2, mu=2, max_sensors=4)
        return search_component(attrs, adj, epos, eneg, p, prune_support=prune_support)[1]

    def test_fixed_instance_pruned(self):
        _, stats = search_component(ATTRS, ADJ, EPOS, ENEG, _params(psi=2))
        assert stats == SearchStats(support_evaluations=3, nodes_expanded=7, pruned_by_support=0,
                                    pruned_by_mu=0, hit_max_sensors=0, emitted=3)

    def test_random_instance_pruned(self):
        assert self._random_stats(True) == SearchStats(
            support_evaluations=78, nodes_expanded=55, pruned_by_support=32,
            pruned_by_mu=45, hit_max_sensors=6, emitted=39)

    def test_fixed_instance_unpruned(self):
        _, stats = search_component(ATTRS, ADJ, EPOS, ENEG, _params(psi=2), prune_support=False)
        assert (stats.nodes_expanded, stats.pruned_by_mu, stats.hit_max_sensors,
                stats.emitted) == (7, 0, 0, 3)

    def test_random_instance_unpruned(self):
        stats = self._random_stats(False)
        assert (stats.nodes_expanded, stats.pruned_by_mu, stats.hit_max_sensors,
                stats.emitted) == (102, 50, 29, 39)


class TestMonotonicity:
    """The paper's §2.1 parameter-direction claims at kernel level."""

    @pytest.mark.parametrize("seed", range(5))
    def test_psi_monotone(self, seed):
        attrs, adj, epos, eneg = random_graph_instance(seed, n=9, edge_prob=0.5)
        counts = [
            len(search_component(attrs, adj, epos, eneg, _params(psi=psi, max_sensors=4))[0])
            for psi in (1, 3, 5)
        ]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_mu_monotone(self, seed):
        attrs, adj, epos, eneg = random_graph_instance(seed, n=9, n_attrs=4, edge_prob=0.5)
        counts = [
            len(search_component(attrs, adj, epos, eneg, _params(mu=mu, psi=2, max_sensors=4))[0])
            for mu in (2, 3, 4)
        ]
        assert counts == sorted(counts)


class TestEdgeCases:
    def test_empty_component(self):
        caps, stats = search_component({}, {}, {}, {}, _params())
        assert caps == [] and stats.emitted == 0

    def test_single_sensor(self):
        caps, _ = search_component({"s": "temp"}, {"s": set()},
                                   {"s": frozenset({1})}, {"s": frozenset()}, _params())
        assert caps == []

    def test_pair_same_attribute_not_emitted(self):
        attrs = {"a": "temp", "b": "temp"}
        adj = {"a": {"b"}, "b": {"a"}}
        e = {s: frozenset({1, 2, 3}) for s in attrs}
        caps, _ = search_component(attrs, adj, e, {s: frozenset() for s in attrs}, _params(psi=1))
        assert caps == []

    def test_sensor_missing_from_evolving_maps(self):
        attrs = {"a": "x", "b": "y"}
        adj = {"a": {"b"}, "b": {"a"}}
        caps, _ = search_component(attrs, adj, {}, {}, _params(psi=1))
        assert caps == []
