"""Smoke tests for the experiment harness at a tiny quick configuration.

The full-scale runs live under benchmarks/; these just prove every module
produces a well-formed table with the expected columns.
"""

import pytest

from repro.experiments import (
    fig04_motivation,
    fig09_breakdown,
    fig10_updates,
    fig11_speedup,
    fig12_utilization,
    fig13_scalability,
    fig14_energy,
    fig15_stack_depth,
    fig16_cache,
    fig18_lambda_beta,
    fig19_skew,
    preprocessing,
    table03_datasets,
    table04_area,
)
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentTable,
    WorkloadCache,
    geometric_mean,
)

TINY = ExperimentConfig(
    scale=0.1,
    cores=4,
    dataset_names=("AZ",),
    algorithm_names=("sssp",),
)


@pytest.fixture(scope="module")
def cache():
    return WorkloadCache(TINY)


def check(table):
    assert isinstance(table, ExperimentTable)
    assert table.rows, f"{table.experiment_id} produced no rows"
    for row in table.rows:
        assert len(row) == len(table.headers)
    assert table.render()
    return table


class TestHarnessModules:
    def test_fig4a(self, cache):
        check(fig04_motivation.run_utilization(TINY, cache))

    def test_fig4b(self, cache):
        table = check(fig04_motivation.run_thread_scaling(TINY, cache))
        assert table.column("cores")[0] == 1

    def test_fig4c(self, cache):
        check(fig04_motivation.run_round_activity(TINY, cache, dataset="AZ"))

    def test_fig4d(self, cache):
        table = check(fig04_motivation.run_top_k_paths(TINY, cache))
        for row in table.rows:
            assert all(0.0 <= r <= 1.0 for r in row[1:])

    def test_fig9(self, cache):
        table = check(fig09_breakdown.run(TINY, cache))
        assert set(table.column("system")) == {
            "ligra-o",
            "depgraph-s",
            "depgraph-h",
        }

    def test_fig10(self, cache):
        table = check(fig10_updates.run(TINY, cache))
        # normalization anchor: ligra-o column is exactly 1
        assert all(row[2] == 1.0 for row in table.rows)

    def test_fig11(self, cache):
        table = check(fig11_speedup.run(TINY, cache))
        assert table.rows[-1][0] == "geomean"
        contribution = fig11_speedup.hub_contribution(table)
        assert -1.0 <= contribution <= 1.0

    def test_fig12(self, cache):
        check(fig12_utilization.run(TINY, cache, algorithm="sssp"))

    def test_fig13(self, cache):
        table = check(
            fig13_scalability.run(TINY, cache, dataset="AZ", algorithm="sssp")
        )
        assert table.column("cores") == [2, 4]  # always two core counts

    def test_fig14(self, cache):
        table = check(fig14_energy.run(TINY, cache, dataset="AZ", algorithm="sssp"))
        totals = dict(zip(table.column("system"), table.column("total_norm")))
        assert totals["hats"] == pytest.approx(1.0)

    def test_fig15(self, cache):
        table = check(fig15_stack_depth.run(TINY, cache, dataset="AZ"))
        assert table.column("stack_depth") == [2, 5, 10, 20, 40]

    def test_fig16a(self, cache):
        check(fig16_cache.run_llc_size(TINY, cache, dataset="AZ", algorithm="sssp"))

    def test_fig16b(self, cache):
        table = check(
            fig16_cache.run_llc_policy(TINY, cache, dataset="AZ", algorithm="sssp")
        )
        assert set(table.column("policy")) == {"lru", "drrip", "grasp"}

    def test_fig17(self, cache):
        check(fig16_cache.run_l2_size(TINY, cache, dataset="AZ", algorithm="sssp"))

    def test_fig18(self, cache):
        check(fig18_lambda_beta.run(TINY, cache, dataset="AZ"))

    def test_fig19(self):
        table = check(fig19_skew.run(TINY, algorithm="sssp"))
        assert table.column("alpha") == [1.8, 1.9, 2.0, 2.1, 2.2]

    def test_table3(self, cache):
        check(table03_datasets.run(TINY, cache))

    def test_table4(self):
        table = check(table04_area.run())
        assert len(table.rows) == 4

    def test_preprocessing(self, cache):
        check(preprocessing.run(TINY, cache))


class TestCommonHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 2.0]) == pytest.approx(2.0)

    def test_cache_memoizes(self, cache):
        a = cache.result("ligra-o", "AZ", "sssp")
        b = cache.result("ligra-o", "AZ", "sssp")
        assert a is b

    def test_cache_distinguishes_options(self, cache):
        a = cache.result("depgraph-h", "AZ", "sssp", stack_depth=5)
        b = cache.result("depgraph-h", "AZ", "sssp", stack_depth=10)
        assert a is not b

    def test_quick_config(self):
        q = ExperimentConfig().quick()
        assert q.scale <= 0.2
        assert len(q.dataset_names) == 2

    def test_table_column(self):
        t = ExperimentTable("x", "t", ["a", "b"])
        t.add(1, 2)
        t.add(3, 4)
        assert t.column("b") == [2, 4]
        with pytest.raises(ValueError):
            t.column("missing")
