"""Tests for the coordinated multicore simulation engine."""

import numpy as np
import pytest

from repro.config import FailsafeConfig, TelemetryConfig
from repro.errors import SimulationError
from repro.faults import FaultSchedule, FaultWindow
from repro.multicore import (
    MulticoreEngine,
    MulticoreFloorplan,
    MulticoreRunResult,
    ThermalBudgetCoordinator,
)
from repro.telemetry import Telemetry

MIX = ("gcc", "gzip", "art", "mesa")
BUDGET = 200_000


class TestConstruction:
    def test_profile_names_accepted(self):
        engine = MulticoreEngine(MIX)
        assert engine.n_cores == 4
        assert [p.name for p in engine.profiles] == list(MIX)

    def test_needs_profiles(self):
        with pytest.raises(SimulationError):
            MulticoreEngine([])

    def test_policy_count_must_match(self):
        with pytest.raises(SimulationError):
            MulticoreEngine(MIX, policy=["pid", "pid"])

    def test_floorplan_core_count_must_match(self):
        tiling = MulticoreFloorplan.tile(n_cores=2)
        with pytest.raises(SimulationError):
            MulticoreEngine(MIX, floorplan=tiling)

    def test_coordinator_core_count_must_match(self):
        with pytest.raises(SimulationError):
            MulticoreEngine(
                MIX, coordinator=ThermalBudgetCoordinator(2)
            )

    def test_per_core_policy_labels(self):
        engine = MulticoreEngine(
            ("gcc", "gzip"), policy=["pid", "agi"]
        )
        assert engine.policy_label == "pid+agi"
        assert engine.policies[0].name == "pid"
        assert engine.policies[1].name == "agi"


class TestRun:
    @pytest.fixture(scope="class")
    def baseline(self):
        return MulticoreEngine(MIX, policy="none").run(
            instructions=BUDGET
        )

    def test_result_shape(self, baseline):
        assert isinstance(baseline, MulticoreRunResult)
        assert baseline.n_cores == 4
        assert baseline.benchmarks == MIX
        assert baseline.coordinator == ""
        assert baseline.cycles > 0
        assert baseline.throughput > 0
        for index, core in enumerate(baseline.cores):
            assert core.core == index
            assert core.instructions >= BUDGET
        assert baseline.core(2).benchmark == "art"
        with pytest.raises(KeyError):
            baseline.core(9)

    def test_unmanaged_runs_full_duty(self, baseline):
        for core in baseline.cores:
            assert core.engaged_fraction == 0.0
            assert core.demoted_samples == 0

    def test_managed_cuts_emergencies(self, baseline):
        managed = MulticoreEngine(MIX, policy="pid").run(
            instructions=BUDGET
        )
        assert (
            managed.emergency_fraction <= baseline.emergency_fraction
        )
        assert 0.0 < managed.relative_throughput(baseline) <= 1.0 + 1e-9

    def test_deterministic(self):
        first = MulticoreEngine(MIX, policy="pid", seed=3).run(
            instructions=BUDGET
        )
        second = MulticoreEngine(MIX, policy="pid", seed=3).run(
            instructions=BUDGET
        )
        assert first.throughput == second.throughput
        assert first.emergency_fraction == second.emergency_fraction
        for a, b in zip(first.cores, second.cores):
            assert a.instructions == b.instructions
            assert a.max_temperature == b.max_temperature

    def test_seed_changes_run(self):
        first = MulticoreEngine(MIX, policy="pid", seed=0).run(
            instructions=BUDGET
        )
        second = MulticoreEngine(MIX, policy="pid", seed=1).run(
            instructions=BUDGET
        )
        assert first.throughput != second.throughput

    def test_bad_instructions_rejected(self):
        engine = MulticoreEngine(("gzip",))
        with pytest.raises(SimulationError):
            engine.run(instructions=0)

    @pytest.mark.parametrize(
        "instructions", [float("nan"), float("inf"), 0, -1]
    )
    def test_non_finite_or_non_positive_budget_is_typed(self, instructions):
        engine = MulticoreEngine(("gcc", "gzip"))
        with pytest.raises(
            SimulationError, match="positive finite count"
        ):
            engine.run(instructions=instructions)
        assert engine.managers[0].samples == 0  # rejected before a step


class TestCoordinatedRun:
    def test_coordinator_stats_in_extra(self):
        result = MulticoreEngine(
            MIX, policy="pid", coordinator="proportional"
        ).run(instructions=BUDGET)
        assert result.coordinator == "proportional"
        assert "coordinator_demotions" in result.extra
        assert "coordinator_budget_samples" in result.extra

    def test_tight_budget_cuts_throughput(self):
        free = MulticoreEngine(MIX, policy="none").run(
            instructions=BUDGET
        )
        squeezed = MulticoreEngine(
            MIX,
            policy="none",
            coordinator=ThermalBudgetCoordinator(
                4, strategy="proportional", duty_budget=1.0
            ),
        ).run(instructions=BUDGET)
        assert squeezed.relative_throughput(free) < 0.9

    def test_demotion_counts_samples(self):
        # A demotion threshold below the idle temperature demotes
        # every core immediately and keeps them demoted.
        result = MulticoreEngine(
            MIX,
            policy="none",
            coordinator=ThermalBudgetCoordinator(
                4,
                demote_temperature=99.0,
                demote_trigger_samples=1,
                rearm_samples=10_000,
            ),
        ).run(instructions=50_000)
        assert result.extra["coordinator_demotions"] == 4.0
        for core in result.cores:
            assert core.demoted_samples > 0


class TestTelemetryAndFaults:
    def test_disabled_telemetry_bit_identical(self):
        silent = MulticoreEngine(MIX, policy="pid").run(
            instructions=BUDGET
        )
        telemetry = Telemetry(TelemetryConfig())
        observed = MulticoreEngine(
            MIX, policy="pid", telemetry=telemetry
        ).run(instructions=BUDGET)
        assert silent.cycles == observed.cycles
        assert silent.throughput == observed.throughput
        assert silent.emergency_fraction == observed.emergency_fraction
        assert silent.mean_chip_power == observed.mean_chip_power
        for a, b in zip(silent.cores, observed.cores):
            assert a.instructions == b.instructions
            assert a.max_temperature == b.max_temperature
            assert a.mean_temperature == b.mean_temperature

    def test_trace_meta_and_records(self):
        telemetry = Telemetry(TelemetryConfig())
        MulticoreEngine(
            ("gcc", "gzip"), policy="pid", coordinator="hottest",
            telemetry=telemetry,
        ).run(instructions=BUDGET)
        assert telemetry.meta["n_cores"] == 2
        assert telemetry.meta["core_benchmarks"] == ["gcc", "gzip"]
        assert telemetry.meta["coordinator"] == "hottest"
        records = telemetry.trace.records()
        assert records
        assert len(records[0].block_temps) == 2  # per-core maxima

    def test_fault_events_tagged_with_core(self):
        telemetry = Telemetry(TelemetryConfig())
        schedule = FaultSchedule(0, dropout_rate=0.2)
        MulticoreEngine(
            ("gcc", "gzip"),
            policy="pid",
            fault_schedules={1: schedule},
            failsafe=FailsafeConfig(),
            telemetry=telemetry,
        ).run(instructions=100_000)
        faults = [
            e for e in telemetry.trace.events if e.kind == "fault"
        ]
        assert faults
        assert all(e.data["core"] == 1 for e in faults)

    def test_failsafe_guard_tags_core(self):
        telemetry = Telemetry(TelemetryConfig())
        # Rail core 0's sensor high: its watchdog must trip.
        schedule = FaultSchedule(
            0,
            sensor_stuck_windows=(FaultWindow(10, 10_000, value=120.0),),
        )
        result = MulticoreEngine(
            ("gcc", "gzip"),
            policy="pid",
            fault_schedules={0: schedule},
            failsafe=FailsafeConfig(),
            telemetry=telemetry,
        ).run(instructions=100_000)
        transitions = [
            e
            for e in telemetry.trace.events
            if e.kind == "failsafe_transition"
        ]
        assert transitions
        assert all(e.data["core"] == 0 for e in transitions)
        assert result.cores[0].extra["failsafe_engagements"] > 0
        assert "failsafe_engagements" in result.cores[1].extra
