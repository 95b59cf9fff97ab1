"""Benchmark: regenerate Fig. 5 maxK/method sweep (paper: BarrierPoint, ISPASS 2014).

Prints the regenerated table and checks it against its golden under
benchmarks/results/ (see conftest.py).
Timing measures the experiment's analysis cost on top of the shared,
memoized profiling/simulation passes.
"""

from repro.experiments import fig5_maxk_methods as experiment


def test_fig5(benchmark, runner, record_table):
    output = benchmark.pedantic(
        lambda: experiment.run(runner), rounds=1, iterations=1
    )
    assert output.strip()
    record_table("fig5", output)
