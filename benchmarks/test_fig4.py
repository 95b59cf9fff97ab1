"""Benchmark: regenerate Fig. 4 perfect-warmup accuracy (paper: BarrierPoint, ISPASS 2014).

Prints the regenerated table and checks it against its golden under
benchmarks/results/ (see conftest.py).
Timing measures the experiment's analysis cost on top of the shared,
memoized profiling/simulation passes.
"""

from repro.experiments import fig4_perfect_warmup as experiment


def test_fig4(benchmark, runner, record_table):
    output = benchmark.pedantic(
        lambda: experiment.run(runner), rounds=1, iterations=1
    )
    assert output.strip()
    record_table("fig4", output)
