"""Benchmark: regenerate Table III barrierpoints (paper: BarrierPoint, ISPASS 2014).

Prints the regenerated table and checks it against its golden under
benchmarks/results/ (see conftest.py).
Timing measures the experiment's analysis cost on top of the shared,
memoized profiling/simulation passes.
"""

from repro.experiments import table3_barrierpoints as experiment


def test_table3(benchmark, runner, record_table):
    output = benchmark.pedantic(
        lambda: experiment.run(runner), rounds=1, iterations=1
    )
    assert output.strip()
    record_table("table3", output)
