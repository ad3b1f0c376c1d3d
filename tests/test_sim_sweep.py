"""Tests for the suite sweep helpers."""

import pytest

from repro.errors import SimulationError
from repro.sim.sweep import run_one, run_suite, suite_summary


class TestRunOne:
    def test_returns_named_result(self):
        result = run_one("gzip", "pid", instructions=300_000)
        assert result.benchmark == "gzip"
        assert result.policy == "pid"

    def test_history_flag(self):
        result = run_one("gzip", "none", instructions=300_000,
                         record_history=True)
        assert result.history is not None


class TestRunSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return run_suite(
            policies=("pid",),
            benchmarks=("gzip", "mesa"),
            instructions=300_000,
        )

    def test_includes_baseline(self, results):
        assert ("gzip", "none") in results
        assert ("mesa", "none") in results

    def test_all_pairs_present(self, results):
        assert set(results) == {
            ("gzip", "none"), ("gzip", "pid"),
            ("mesa", "none"), ("mesa", "pid"),
        }

    def test_baseline_not_duplicated(self):
        results = run_suite(
            policies=("none", "pid"),
            benchmarks=("gzip",),
            instructions=200_000,
        )
        assert len(results) == 2

    def test_summary_statistics(self, results):
        summary = suite_summary(results, "pid")
        assert 0.0 < summary["mean_relative_ipc"] <= 1.0 + 1e-9
        assert summary["mean_emergency_fraction"] == 0.0

    def test_summary_of_absent_policy_is_zero(self, results):
        summary = suite_summary(results, "toggle1")
        assert summary["mean_relative_ipc"] == 0.0


class TestInstructionValidation:
    """Regression: bad budgets used to reach the engine unchecked."""

    @pytest.mark.parametrize("bad", [0, -1, -2_000_000, 0.0])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(SimulationError, match="positive"):
            run_one("gzip", "none", instructions=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SimulationError, match="positive finite"):
            run_one("gzip", "none", instructions=bad)

    def test_fractional_rejected(self):
        with pytest.raises(SimulationError, match="whole number"):
            run_one("gzip", "none", instructions=1000.5)

    def test_non_numeric_rejected(self):
        with pytest.raises(SimulationError, match="number"):
            run_one("gzip", "none", instructions="lots")

    def test_integral_float_accepted(self):
        result = run_one("gzip", "none", instructions=200_000.0)
        assert result.instructions > 0

    def test_run_suite_validates_before_any_run(self):
        with pytest.raises(SimulationError):
            run_suite(policies=("pid",), benchmarks=("gzip",),
                      instructions=-5)

    def test_default_is_an_int(self):
        from repro.sim.sweep import DEFAULT_INSTRUCTIONS
        assert isinstance(DEFAULT_INSTRUCTIONS, int)


class TestLocalOnly:
    """Sweeps run locally; ``set_default_cluster`` accepts only None."""

    def test_set_default_cluster_accepts_only_none(self):
        from repro.errors import ConfigError
        from repro.sim.parallel import set_default_cluster

        set_default_cluster(None)
        for value in ("127.0.0.1:9000", object(), 0, False):
            with pytest.raises(ConfigError, match="cluster"):
                set_default_cluster(value)

