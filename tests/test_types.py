"""Unit tests for repro.core.types: parameter validation, cache keys,
CAP canonicalization, and search-stats accounting."""
import dataclasses

import pytest

from repro.core.types import CAP, MiscelaParams, SearchStats


class TestMiscelaParamsValidation:
    def test_defaults_are_valid(self):
        p = MiscelaParams()
        assert p.epsilon > 0 and p.psi >= 1 and p.mu >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.1},
            {"eta_meters": 0.0},
            {"eta_meters": -5.0},
            {"mu": 1},
            {"mu": 0},
            {"psi": 0},
            {"psi": -3},
            {"max_sensors": 1},
            {"segment_tolerance": -0.01},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            MiscelaParams(**kwargs)

    def test_epsilon_zero_allowed(self):
        # ε=0 means every nonzero change evolves (threshold is strict >)
        assert MiscelaParams(epsilon=0.0).epsilon == 0.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MiscelaParams().epsilon = 0.2  # type: ignore[misc]


class TestCacheKey:
    def test_same_inputs_same_key(self):
        assert MiscelaParams().cache_key("d") == MiscelaParams().cache_key("d")

    def test_different_dataset_different_key(self):
        p = MiscelaParams()
        assert p.cache_key("a") != p.cache_key("b")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epsilon", 0.07),
            ("eta_meters", 123.0),
            ("mu", 4),
            ("psi", 99),
            ("segment_tolerance", 0.11),
            ("max_sensors", 5),
            ("same_direction", True),
        ],
    )
    def test_every_parameter_affects_key(self, field, value):
        base = MiscelaParams()
        changed = dataclasses.replace(base, **{field: value})
        assert base.cache_key("d") != changed.cache_key("d")

    def test_key_is_hexish_and_stable_length(self):
        k = MiscelaParams().cache_key("d")
        assert len(k) == 32
        int(k, 16)  # parses as hex


class TestCAP:
    def test_sensors_and_attributes_sorted_deduped(self):
        c = CAP(sensors=("b", "a"), attributes=("x", "x", "y"), support=3)
        assert c.sensors == ("a", "b")
        assert c.attributes == ("x", "y")

    def test_equality_ignores_order(self):
        c1 = CAP(sensors=("b", "a"), attributes=("y", "x"), support=3)
        c2 = CAP(sensors=("a", "b"), attributes=("x", "y"), support=3)
        assert c1 == c2

    def test_size(self):
        assert CAP(sensors=("a", "b", "c"), attributes=("x", "y"), support=1).size == 3

    def test_doc_roundtrip(self):
        c = CAP(sensors=("a", "b"), attributes=("x", "y"), support=7, component="a")
        assert CAP.from_doc(c.to_doc()) == c

    def test_from_doc_defaults_component(self):
        c = CAP.from_doc({"sensors": ["a", "b"], "attributes": ["x", "y"], "support": 1})
        assert c.component == ""

    def test_hashable(self):
        assert len({CAP(("a", "b"), ("x", "y"), 1), CAP(("b", "a"), ("y", "x"), 1)}) == 1


class TestSearchStats:
    def test_merge_sums_all_counters(self):
        a = SearchStats(support_evaluations=1, nodes_expanded=2, pruned_by_support=3,
                        pruned_by_mu=4, hit_max_sensors=5, emitted=6)
        b = SearchStats(support_evaluations=10, nodes_expanded=20, pruned_by_support=30,
                        pruned_by_mu=40, hit_max_sensors=50, emitted=60)
        a.merge(b)
        assert (a.support_evaluations, a.nodes_expanded, a.pruned_by_support,
                a.pruned_by_mu, a.hit_max_sensors, a.emitted) == (11, 22, 33, 44, 55, 66)

    def test_defaults_zero(self):
        s = SearchStats()
        assert all(getattr(s, f.name) == 0 for f in dataclasses.fields(s))
