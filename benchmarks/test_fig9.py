"""Benchmark: regenerate Fig. 9 simulation speedups (paper: BarrierPoint, ISPASS 2014).

Prints the regenerated table and checks it against its golden under
benchmarks/results/ (see conftest.py).
Timing measures the experiment's analysis cost on top of the shared,
memoized profiling/simulation passes.
"""

from repro.experiments import fig9_speedups as experiment


def test_fig9(benchmark, runner, record_table):
    output = benchmark.pedantic(
        lambda: experiment.run(runner), rounds=1, iterations=1
    )
    assert output.strip()
    record_table("fig9", output)
