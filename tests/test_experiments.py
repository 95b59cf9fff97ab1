"""Tests for the experiment harness (small-scale, reduced suite)."""

import pytest

from repro.config import SimPointConfig
from repro.experiments import paper_data
from repro.experiments.common import ExperimentRunner, experiment_machine
from repro.experiments import (
    ablations,
    fig1_barrier_counts,
    fig3_ipc_trace,
    fig4_perfect_warmup,
    fig6_cross_validation,
    fig8_relative_scaling,
    fig9_speedups,
    table3_barrierpoints,
)
from repro.errors import ConfigError


def _blas_threads_of_worker(_):
    """Pool task: the worker's OpenBLAS thread counts."""
    from repro.util.blas import blas_threads

    return blas_threads()


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(
        scale=0.15,
        benchmarks=("npb-is", "npb-ft"),
        simpoint=SimPointConfig(max_k=12, kmeans_restarts=2),
    )


class TestCommon:
    def test_experiment_machine(self):
        assert experiment_machine(8).num_cores == 8
        assert experiment_machine(32).num_cores == 32
        with pytest.raises(ConfigError):
            experiment_machine(16)

    def test_pool_workers_pin_blas_threads(self):
        """A pool of N workers on N cores adds no BLAS threads."""
        from repro.experiments.common import FanoutTask, FaultTolerantFanout
        from repro.util.blas import blas_threads, usable_cores

        parent = blas_threads()
        if not parent:
            pytest.skip("no OpenBLAS loaded")
        fanout = FaultTolerantFanout(fn=_blas_threads_of_worker, workers=2)
        results = fanout.run([FanoutTask(key="blas", label="blas", args=(0,))])
        share = min(min(parent), max(1, usable_cores() // 2))
        assert results["blas"] and set(results["blas"]) == {share}

    def test_pool_worker_init_never_raises_blas_threads(self):
        """A worker whose OpenBLAS already runs one thread stays at one.

        ``OPENBLAS_NUM_THREADS=1`` or a small affinity mask leaves the
        library below the worker's share of the cores; the initializer
        must not grow it.
        """
        from repro.experiments.common import _worker_init
        from repro.faults import mark_process_sacrificial
        from repro.util.blas import blas_threads, set_blas_threads

        parent = blas_threads()
        if not parent:
            pytest.skip("no OpenBLAS loaded")
        set_blas_threads(1)
        try:
            _worker_init(1)  # a one-worker share is every usable core
            assert set(blas_threads()) == {1}
        finally:
            mark_process_sacrificial(False)
            set_blas_threads(max(parent))

    def test_memoization(self, runner):
        first = runner.full("npb-is", 8)
        assert runner.full("npb-is", 8) is first
        prof = runner.profiles("npb-is", 8)
        assert runner.profiles("npb-is", 8) is prof
        sel = runner.selection("npb-is", 8)
        assert runner.selection("npb-is", 8) is sel


class TestFig1(object):
    def test_counts_match_paper(self, runner):
        rows = fig1_barrier_counts.compute(runner)
        for row in rows:
            assert row["barriers_8"] == paper_data.BARRIER_COUNTS[
                row["benchmark"]]
            assert row["invariant"]

    def test_render(self, runner):
        out = fig1_barrier_counts.run(runner)
        assert "Fig. 1" in out and "npb-is" in out


class TestFig3:
    def test_series_shapes(self, runner):
        data = fig3_ipc_trace.compute(runner)
        n = runner.workload("npb-ft", 32).num_regions
        assert data["actual_ipc"].shape == (n,)
        assert data["reconstructed_ipc"].shape == (n,)
        assert data["correlation"] > 0.5

    def test_render(self, runner):
        out = fig3_ipc_trace.run(runner)
        assert "IPC" in out and "barrierpoint" in out


class TestFig4:
    def test_errors_reasonable(self, runner):
        data = fig4_perfect_warmup.compute(runner)
        assert data["avg_error"] < 25.0
        assert data["max_error"] >= data["avg_error"]
        assert len(data["rows"]) == 4  # 2 benchmarks x 2 core counts

    def test_render_mentions_paper(self, runner):
        out = fig4_perfect_warmup.run(runner)
        assert "paper: 0.6%" in out


class TestFig6:
    def test_transfer_cells_present(self, runner):
        rows = fig6_cross_validation.compute(runner)
        for row in rows:
            assert set(row["cells"]) == {(8, 8), (8, 32), (32, 8), (32, 32)}

    def test_render(self, runner):
        assert "cross-validation" in fig6_cross_validation.run(runner)


class TestFig8:
    def test_predicted_close_to_actual(self, runner):
        rows = fig8_relative_scaling.compute(runner)
        for row in rows:
            assert row["actual"] > 0
            assert row["predicted"] == pytest.approx(row["actual"],
                                                     rel=0.35)


class TestFig9:
    def test_aggregates(self, runner):
        data = fig9_speedups.compute(runner)
        assert data["max_parallel"] >= data["hmean_parallel"]
        assert data["min_parallel"] <= data["hmean_parallel"]
        for row in data["rows"]:
            assert row["parallel"] >= row["serial"] * 0.99

    def test_render(self, runner):
        assert "harmonic-mean" in fig9_speedups.run(runner)


class TestTable3:
    def test_structure(self, runner):
        rows = table3_barrierpoints.compute(runner)
        for row in rows:
            assert row["num_barriers"] == paper_data.BARRIER_COUNTS[
                row["benchmark"]]
            assert row["num_significant"] + row["num_insignificant"] >= 1
            assert 0 <= row["insig_total_weight"] < 0.1

    def test_render(self, runner):
        assert "Table III" in table3_barrierpoints.run(runner)


class TestAblations:
    def test_thread_combining(self, runner):
        rows = ablations.compute_thread_combining(runner)
        assert {r["benchmark"] for r in rows} == set(runner.benchmarks)

    def test_significant_only(self, runner):
        rows = ablations.compute_significant_only(runner)
        for row in rows:
            assert row["serial_significant"] >= row["serial_all"] * 0.99
            assert row["coverage_pct"] > 90.0

    def test_render(self, runner):
        assert "Ablation" in ablations.run(runner)
