"""Smoke + correctness tests for the experiment drivers.

Static experiments are checked for exact content; dynamic ones run at
quick budgets and are checked for structure and the key qualitative
outcome each one exists to demonstrate.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import (
    calibration_fast_engine,
    figure1_control_loop,
    figure2_package,
    figure3_network_simplification,
    table1_duality,
    table2_config,
    table3_rc,
    validation_grid,
    validation_grid_convergence,
)
from repro.experiments.reporting import ExperimentResult, ascii_chart, format_table
from repro.errors import ExperimentError


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1.5, "b": "x"}, {"a": 20.25, "b": "yy"}]
        text = format_table(rows, (("a", "A", ".2f"), ("b", "B", None)))
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "20.25" in lines[3]

    def test_format_table_missing_key_dash(self):
        text = format_table([{"a": 1}], (("a", "A", None), ("b", "B", None)))
        assert "-" in text.splitlines()[-1]

    def test_empty_table_rejected(self):
        with pytest.raises(ExperimentError):
            format_table([], (("a", "A", None),))

    def test_ascii_chart_renders_all_series(self):
        chart = ascii_chart({"up": [0, 1, 2, 3], "down": [3, 2, 1, 0]},
                            height=5, width=20)
        assert "*" in chart and "o" in chart
        assert "up" in chart and "down" in chart

    def test_ascii_chart_constant_series(self):
        chart = ascii_chart({"flat": [5.0, 5.0, 5.0]}, height=4, width=10)
        assert "flat" in chart

    def test_ascii_heatmap_shades_gradient(self):
        import numpy as np

        from repro.experiments.reporting import ascii_heatmap

        field = np.linspace(100.0, 102.0, 16).reshape(4, 4)
        rendered = ascii_heatmap(field, low=100.0, high=102.0)
        assert "@" in rendered  # hottest shade present
        assert " " in rendered  # coolest shade present
        assert "100.00" in rendered and "102.00" in rendered

    def test_ascii_heatmap_downsamples_large_fields(self):
        import numpy as np

        from repro.experiments.reporting import ascii_heatmap

        field = np.full((200, 200), 101.0)
        rendered = ascii_heatmap(field, max_size=20, legend=False)
        assert len(rendered.splitlines()) <= 40

    def test_ascii_heatmap_rejects_1d(self):
        from repro.experiments.reporting import ascii_heatmap

        with pytest.raises(ExperimentError):
            ascii_heatmap([1.0, 2.0, 3.0])

    def test_experiment_result_str(self):
        result = ExperimentResult("T0", "demo", [{"a": 1}], "body", notes="n")
        text = str(result)
        assert "T0" in text and "demo" in text and "body" in text and "n" in text


class TestStaticExperiments:
    def test_table1_has_five_rows(self):
        assert len(table1_duality.run().rows) == 5

    def test_table2_mentions_ruu_and_l2(self):
        text = table2_config.run().text
        assert "80-RUU" in text
        assert "2 MB" in text

    def test_table3_chip_row(self):
        rows = table3_rc.run().rows
        assert rows[-1]["structure"] == "chip"
        assert rows[-1]["r_k_per_w"] == pytest.approx(0.34)
        # Block RCs in the paper's range.
        for row in rows[:-1]:
            assert 10e-6 < row["rc_seconds"] < 1000e-6

    def test_figure2_reproduces_worked_example(self):
        result = figure2_package.run(duration_s=400.0)
        row = result.rows[0]
        assert row["steady_die_c"] == pytest.approx(77.0)
        assert row["simulated_die_c"] == pytest.approx(77.0, abs=0.5)

    def test_figure3_simplification_error_small(self):
        result = figure3_network_simplification.run()
        assert result.extras["worst_deviation_k"] < 0.1

    def test_all_experiments_registered(self):
        assert len(ALL_EXPERIMENTS) == 38

    def test_all_experiments_importable_with_run(self):
        import importlib

        for name in ALL_EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.run), name


class TestDynamicExperiments:
    def test_figure1_pid_controls_step(self):
        result = figure1_control_loop.run(samples=600)
        row = result.rows[0]
        assert not row["emergency"]
        assert row["overshoot_k"] < 0.1
        assert abs(row["final_temp_c"] - row["setpoint_c"]) < 0.05

    def test_calibration_quick(self):
        # Quick mode uses a short warmup, so the full-duty IPC is still
        # partially cold and the error bound is loose; the benchmark
        # harness asserts the tight full-budget calibration.
        result = calibration_fast_engine.run(quick=True)
        assert result.extras["worst_error"] < 0.35
        for row in result.rows:
            assert 0.0 < row["detailed_relative"] <= 1.0 + 1e-9

    @pytest.mark.parametrize("quick", [True, False])
    def test_grid_convergence_caption_matches_rows(self, quick):
        # The V3 caption says the mesh shift falls at every refinement.
        result = validation_grid_convergence.run(quick=quick)
        assert "'vs prev grid' falls monotonically" in result.notes
        shifts = [row["vs_prev_k"] for row in result.rows[1:]]
        assert len(shifts) >= 2
        assert all(b < a for a, b in zip(shifts, shifts[1:])), shifts

    @pytest.mark.parametrize("quick", [True, False])
    def test_grid_validation_caption_matches_rows(self, quick):
        # The V1 caption gives the steady gap's range over the
        # convergence rows and says it stays below the 2 K headroom.
        result = validation_grid.run(quick=quick)
        gaps = [row["steady_dev_k"] for row in result.extras["convergence"]]
        assert len(gaps) >= 2
        assert f"{min(gaps):.4f}-{max(gaps):.4f} K" in result.notes
        assert "below the 2 K headroom" in result.notes
        assert max(gaps) < 2.0
        assert "mesh-stable" not in result.notes
