"""Tests for the command-line interfaces."""

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main


class TestReproCLI:
    def test_list(self, capsys):
        assert repro_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out
        assert "pid" in out

    def test_run(self, capsys):
        code = repro_main(
            ["run", "gzip", "--policy", "pid", "--instructions", "300000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "emergency cycles" in out
        assert "% of non-DTM IPC" in out

    def test_run_none_policy_skips_baseline(self, capsys):
        code = repro_main(
            ["run", "gzip", "--policy", "none", "--instructions", "200000"]
        )
        assert code == 0
        assert "% of non-DTM IPC" not in capsys.readouterr().out

    def test_compare(self, capsys):
        code = repro_main(
            ["compare", "gzip", "--policies", "pid", "--instructions", "200000"]
        )
        assert code == 0
        assert "pid" in capsys.readouterr().out

    def test_unknown_benchmark_errors(self):
        with pytest.raises(Exception):
            repro_main(["run", "linpack"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            repro_main(["run", "gzip", "--policy", "lqr"])


class TestMulticoreCLI:
    def test_run_multicore(self, capsys):
        code = repro_main(
            [
                "run", "gcc,gzip", "--cores", "2", "--policy", "pid",
                "--coordinator", "proportional",
                "--instructions", "300000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "core  benchmark" in out
        assert "gzip" in out
        assert "coordinator_demotions" in out

    def test_coordinator_requires_multiple_cores(self, capsys):
        code = repro_main(
            ["run", "gcc", "--coordinator", "proportional"]
        )
        assert code == 2
        assert "--coordinator" in capsys.readouterr().err

    def test_setpoint_rejected_with_cores(self, capsys):
        code = repro_main(
            [
                "run", "gcc,gzip", "--cores", "2",
                "--policy", "pid", "--setpoint", "81.0",
            ]
        )
        assert code == 2

    def test_multicore_trace_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "chip.jsonl"
        code = repro_main(
            [
                "run", "gcc,gzip", "--cores", "2", "--policy", "pid",
                "--instructions", "300000",
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert repro_main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "samples:" in out


class TestExperimentsCLI:
    def test_list(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table3_rc" in out
        assert "validation_grid" in out

    def test_run_one_static(self, capsys):
        assert experiments_main(["table1_duality"]) == 0
        assert "Thermal resistance" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["table99"])


class TestCompareResilienceCLI:
    def test_checkpoint_then_resume(self, capsys, tmp_path):
        journal = tmp_path / "compare.ckpt.jsonl"
        argv = [
            "compare", "gzip", "--policies", "pid",
            "--instructions", "200000", "--checkpoint", str(journal),
        ]
        assert repro_main(argv) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        # Resuming re-runs nothing and prints the identical table.
        assert repro_main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_failed_policy_prints_failed_row(self, capsys, monkeypatch):
        import repro.sim.parallel as parallel_module

        real = parallel_module._execute

        def failing(spec, telemetry):
            if spec.policy == "pid":
                raise RuntimeError("injected")
            return real(spec, telemetry)

        monkeypatch.setattr(parallel_module, "_execute", failing)
        code = repro_main(
            [
                "compare", "gzip", "--policies", "pid", "toggle1",
                "--instructions", "200000", "--retries", "0", "--strict",
            ]
        )
        assert code == 1  # strict: aggregated error on stderr
        assert "failed permanently" in capsys.readouterr().err
        code = repro_main(
            [
                "compare", "gzip", "--policies", "pid", "toggle1",
                "--instructions", "200000", "--timeout", "300",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2  # non-strict: FAILED row, distinct exit code
        assert "FAILED (error: RuntimeError)" in out
        assert "toggle1" in out

    def test_resume_without_checkpoint_rejected(self, capsys):
        # argparse-level rejection: a clean usage error, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            repro_main(
                [
                    "compare", "gzip", "--policies", "pid",
                    "--instructions", "200000", "--resume",
                ]
            )
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err


class TestExperimentsResilienceCLI:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            experiments_main(["--resume", "table1_duality"])

    def test_checkpoint_flag_installs_default_options(self, tmp_path):
        from repro.sim.parallel import (
            get_default_sweep_options,
            set_default_sweep_options,
        )

        journal = tmp_path / "exp.ckpt.jsonl"
        try:
            assert experiments_main(
                ["--checkpoint", str(journal), "--list"]
            ) == 0
            options = get_default_sweep_options()
            assert options is not None
            assert options.resume  # shared journals need append mode
            assert str(options.checkpoint_path) == str(journal)
        finally:
            set_default_sweep_options(None)
