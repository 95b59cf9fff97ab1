"""Tests for the micro-benchmark timing helpers."""

import json

import pytest

from repro.util.timing import BenchmarkReport, PhaseTiming, time_call


class TestTimeCall:
    def test_returns_value_and_positive_time(self):
        result = time_call(lambda: sum(range(1000)))
        assert result.value == sum(range(1000))
        assert result.seconds > 0.0

    def test_best_of_repeats(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        result = time_call(fn, repeat=3)
        assert len(calls) == 3
        assert result.value == 3  # last call's value

class TestPhaseTiming:
    def test_speedup(self):
        record = PhaseTiming("w", "p", fast_seconds=0.5, reference_seconds=2.0)
        assert record.speedup == pytest.approx(4.0)

    def test_zero_fast_time_is_inf(self):
        record = PhaseTiming("w", "p", fast_seconds=0.0, reference_seconds=1.0)
        assert record.speedup == float("inf")


class TestBenchmarkReport:
    def _report(self):
        report = BenchmarkReport(scale=0.5)
        report.add("a", "profile", 1.0, 4.0)
        report.add("a", "full_run", 2.0, 4.0)
        report.add("b", "profile", 1.0, 2.0)
        report.add("b", "barrierpoint_replay", 1.0, 1.0)
        return report

    def test_combined_speedup_pools_seconds(self):
        report = self._report()
        # (4+4+2) / (1+2+1) over profile+full_run
        assert report.combined_speedup(("profile", "full_run")) == \
            pytest.approx(2.5)

    def test_combined_speedup_subset(self):
        report = self._report()
        assert report.combined_speedup(("barrierpoint_replay",)) == \
            pytest.approx(1.0)

    def test_write_report(self, tmp_path):
        report = self._report()
        path = tmp_path / "BENCH_perf.json"
        payload = report.write(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["scale"] == 0.5
        assert len(on_disk["records"]) == 4
        assert on_disk["combined"]["profile+full_run"] == pytest.approx(2.5)
        for record in on_disk["records"]:
            assert set(record) == {"workload", "phase", "fast_seconds",
                                   "reference_seconds", "speedup"}

    def test_records_deterministically_ordered(self, tmp_path):
        # Same measurements, different insertion orders -> identical files.
        a = BenchmarkReport(scale=0.5)
        a.add("w2", "profile", 1.0, 2.0)
        a.add("w1", "full_run", 1.0, 2.0)
        a.add("w1", "profile", 1.0, 2.0)
        b = BenchmarkReport(scale=0.5)
        b.add("w1", "profile", 1.0, 2.0)
        b.add("w1", "full_run", 1.0, 2.0)
        b.add("w2", "profile", 1.0, 2.0)
        a.write(tmp_path / "a.json")
        b.write(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_text() == \
            (tmp_path / "b.json").read_text()
        keys = [
            (r["workload"], r["phase"])
            for r in json.loads((tmp_path / "a.json").read_text())["records"]
        ]
        assert keys == sorted(keys)

    def test_write_appends_trajectory(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        first = self._report().write(path)
        assert len(first["trajectory"]) == 1
        second = self._report().write(path)
        assert len(second["trajectory"]) == 2
        on_disk = json.loads(path.read_text())
        assert on_disk["trajectory"][0]["combined"] == \
            first["trajectory"][0]["combined"]

    def test_write_keeps_older_entries_as_written(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        older = {"scale": 0.5, "combined": {"py": {"all_phases": 3.0}}}
        path.write_text(json.dumps({"trajectory": [older]}))
        payload = self._report().write(path)
        assert payload["trajectory"][0] == older
        assert payload["trajectory"][1]["combined"] == payload["combined"]

    def test_write_survives_corrupt_previous_file(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text("{not json")
        payload = self._report().write(path)
        assert len(payload["trajectory"]) == 1
