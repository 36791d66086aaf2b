"""Integration tests for the table harnesses at unit-test scale: every
EXPERIMENTS.md shape claim must hold on a fast configuration, so a
regression in any stage breaks here before it breaks the benchmarks."""
import pytest

from repro.tables import (
    table1_datasets,
    table2_param_sweep,
    table3_cache,
    table4_vs_baseline,
    table5_wind,
    table6_covid,
    table7_santander,
)


class TestTable1:
    def test_inventory_rows(self, spark):
        df = table1_datasets.run(spark, scale=0.01)
        assert list(df["dataset"]) == ["santander", "china6", "china13", "covid19"]
        assert (df["records"] == df["sensors"] * df["ticks"]).all()
        assert df.loc[df["dataset"] == "covid19", "sensors"].iloc[0] == 12
        assert (df["paper_records"] > df["records"]).all()  # we run scaled down
        assert (df["null_frac"] > 0).all()


class TestTable2:
    @pytest.fixture(scope="class")
    def sweep(self, spark):
        return table2_param_sweep.run(
            spark,
            scale=0.015,
            sweeps={"psi": [4, 16], "eta_meters": [300.0, 2000.0],
                    "mu": [2, 4], "epsilon": [0.05, 0.3]},
        )

    def test_directions_hold(self, sweep):
        assert all(table2_param_sweep.direction_ok(sweep).values())

    def test_sweep_covers_all_params(self, sweep):
        assert set(sweep["param"]) == {"psi", "eta_meters", "mu", "epsilon"}

    def test_caps_found_at_permissive_settings(self, sweep):
        assert sweep[(sweep["param"] == "psi") & (sweep["value"] == 4)]["n_caps"].iloc[0] > 0


class TestTable3:
    def test_cache_speedup(self, spark, tmp_path):
        df = table3_cache.run(spark, scale=0.015, psis=(6,), root=str(tmp_path))
        row = df[df["psi"] == 6].iloc[0]
        assert row["warm_s"] < row["cold_s"]
        assert row["speedup"] > 10
        assert row["store_s"] < row["cold_s"]


class TestTable4:
    def test_pruning_never_does_more_work(self, spark):
        df = table4_vs_baseline.run(spark, scale=0.015, psis=(8, 16))
        assert (df["miscela_nodes"] <= df["noprune_nodes"]).all()
        assert (df["noprune_nodes"] <= df["naive_nodes"]).all()
        assert (df["miscela_nodes"] < df["naive_nodes"]).any()


class TestTable5:
    def test_east_west_beats_north_south(self, spark):
        df = table5_wind.run(spark, scale=0.003).set_index("orientation")
        ew, ns = df.loc["east_west"], df.loc["north_south"]
        assert ew["mean_support"] > 5 * max(ns["mean_support"], 0.01)
        assert ew["coevolving_frac"] > ns["coevolving_frac"]
        assert df.loc["same_station", "mean_support"] >= ew["mean_support"] * 0.5


class TestTable6:
    @pytest.fixture(scope="class")
    def covid_tables(self, spark):
        return table6_covid.run(spark, scale=0.12)

    def test_non_o3_levels_drop(self, covid_tables):
        levels, _ = covid_tables
        non_o3 = levels[levels["attribute"] != "O3"]
        assert (non_o3["after"] < non_o3["before"]).all()

    def test_cap_patterns_collapse(self, covid_tables):
        _, caps = covid_tables
        by = caps.set_index("period")
        assert by.loc["after", "n_caps"] < by.loc["before", "n_caps"]
        assert by.loc["before", "n_caps"] > 0


class TestTable7:
    def test_paper_example_patterns_found(self, spark):
        df = table7_santander.run(spark, scale=0.015)
        found = table7_santander.contains_paper_patterns(df)
        assert found["temperature+traffic"] and found["light+temperature"]
        assert (df["n_caps"] > 0).all()
