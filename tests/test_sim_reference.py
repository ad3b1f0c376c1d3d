"""Bit-identity guard: the fused fast-engine kernel vs the pinned reference.

Every optimization in :meth:`repro.sim.fast.FastEngine._run` (prebuilt
phase activity arrays, no-copy state views, the fused
``advance_from`` thermal call, the single dual-threshold
``fractions_above`` pass, preallocated history buffers) must be a pure
strength reduction.  These tests assert *exact* float equality -- not
approximate closeness -- between the fused engine and
:class:`tests.fast_reference.ReferenceFastEngine`, which pins the
original per-sample body verbatim.

The one intentional difference is also locked down here: the reference
carries the pre-fix cycle-budget bug (warmup consumed its own
``max_cycles`` allowance on top of the measurement budget), while the
fused engine charges warmup and measurement against a single shared
budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtm.policies import make_policy
from repro.errors import SimulationError
from repro.power.leakage import LeakageModel
from repro.sim.fast import FastEngine
from repro.telemetry.core import Telemetry
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.workloads.profiles import get_profile
from tests.fast_reference import ReferenceFastEngine

SCALAR_FIELDS = (
    "benchmark",
    "policy",
    "cycles",
    "instructions",
    "emergency_fraction",
    "stress_fraction",
    "mean_chip_power",
    "max_chip_power",
    "energy_joules",
    "engaged_fraction",
    "interrupt_events",
    "interrupt_stall_cycles",
)
DICT_FIELDS = (
    "block_emergency_fraction",
    "block_stress_fraction",
    "mean_block_temperature",
    "max_block_temperature",
    "extra",
)
HISTORY_FIELDS = (
    "max_temp",
    "duty",
    "chip_power",
    "block_temps",
    "block_powers",
    "block_emergency",
    "block_stress",
)


def build(cls, benchmark, policy, seed=0, **kwargs):
    floorplan = kwargs.pop("floorplan", None) or Floorplan.default()
    return cls(
        get_profile(benchmark),
        policy=make_policy(policy, floorplan),
        floorplan=floorplan,
        seed=seed,
        **kwargs,
    )


def assert_identical(fused, reference):
    """Exact (bit-level) equality of two RunResults."""
    for field in SCALAR_FIELDS:
        assert getattr(fused, field) == getattr(reference, field), field
    for field in DICT_FIELDS:
        assert getattr(fused, field) == getattr(reference, field), field
    if reference.history is None:
        assert fused.history is None
    else:
        assert fused.history is not None
        for field in HISTORY_FIELDS:
            a = getattr(fused.history, field)
            b = getattr(reference.history, field)
            assert a.shape == b.shape, field
            assert np.array_equal(a, b), field


class TestFusedKernelBitIdentity:
    # ("bench", not "benchmark": pytest-benchmark claims that fixture name)
    @pytest.mark.parametrize("bench", ["gcc", "gzip", "art"])
    @pytest.mark.parametrize("policy", ["none", "toggle1", "pid"])
    def test_matrix(self, bench, policy):
        for seed in (0, 7):
            fused = build(FastEngine, bench, policy, seed=seed)
            reference = build(ReferenceFastEngine, bench, policy, seed=seed)
            assert_identical(fused.run(400_000), reference.run(400_000))

    def test_with_history(self):
        fused = build(FastEngine, "gcc", "pid", seed=3, record_history=True)
        reference = build(
            ReferenceFastEngine, "gcc", "pid", seed=3, record_history=True
        )
        assert_identical(fused.run(600_000), reference.run(600_000))

    def test_with_leakage(self):
        leakage = LeakageModel()
        fused = build(FastEngine, "gcc", "pi", seed=1, leakage=leakage)
        reference = build(
            ReferenceFastEngine, "gcc", "pi", seed=1, leakage=leakage
        )
        assert_identical(fused.run(400_000), reference.run(400_000))

    def test_with_monitored_blocks(self):
        monitored = ("regfile", "int_exec")
        fused = build(FastEngine, "gcc", "pid", monitored_blocks=monitored)
        reference = build(
            ReferenceFastEngine, "gcc", "pid", monitored_blocks=monitored
        )
        assert_identical(fused.run(400_000), reference.run(400_000))

    def test_with_warmup(self):
        fused = build(FastEngine, "gzip", "pid", seed=2)
        reference = build(ReferenceFastEngine, "gzip", "pid", seed=2)
        assert_identical(
            fused.run(300_000, warmup_instructions=100_000),
            reference.run(300_000, warmup_instructions=100_000),
        )

    def test_with_telemetry(self):
        fused = build(FastEngine, "gcc", "pid", telemetry=Telemetry())
        reference = build(
            ReferenceFastEngine, "gcc", "pid", telemetry=Telemetry()
        )
        a, b = fused.run(300_000), reference.run(300_000)
        assert_identical(a, b)
        assert fused.telemetry.trace.emitted == reference.telemetry.trace.emitted
        assert (
            fused.telemetry.metrics.snapshot()["engine.max_temperature_c"]
            == reference.telemetry.metrics.snapshot()["engine.max_temperature_c"]
        )


class TestCycleBudgetFix:
    """Warmup and measurement now share one ``max_cycles`` budget."""

    def test_budget_covers_warmup_plus_measurement(self):
        engine = build(FastEngine, "gcc", "none", seed=0)
        budget = 400_000
        result = engine.run(
            instructions=10**12,  # never reached: budget-limited run
            max_cycles=budget,
            warmup_instructions=50_000,
        )
        sample = engine.dtm_config.sampling_interval
        total_cycles = engine.manager.samples * sample  # includes warmup
        assert total_cycles <= budget
        assert result.cycles < total_cycles  # warmup actually happened

    def test_reference_overruns_budget_by_warmup(self):
        """The pinned reference keeps the old double-budget behaviour."""
        budget = 400_000
        fused = build(FastEngine, "gcc", "none", seed=0)
        fused.run(10**12, max_cycles=budget, warmup_instructions=50_000)
        reference = build(ReferenceFastEngine, "gcc", "none", seed=0)
        reference.run(10**12, max_cycles=budget, warmup_instructions=50_000)
        sample = fused.dtm_config.sampling_interval
        assert fused.manager.samples * sample <= budget
        assert reference.manager.samples * sample > budget

    def test_budget_exhausted_during_warmup_raises(self):
        engine = build(FastEngine, "gcc", "none", seed=0)
        with pytest.raises(SimulationError, match="warmup"):
            engine.run(
                instructions=10**12,
                max_cycles=10_000,
                warmup_instructions=10**12,
            )

    def test_unlimited_runs_unaffected(self):
        """Runs that never exhaust their budget are bit-identical."""
        fused = build(FastEngine, "gzip", "pid", seed=4)
        reference = build(ReferenceFastEngine, "gzip", "pid", seed=4)
        assert_identical(
            fused.run(300_000, warmup_instructions=60_000),
            reference.run(300_000, warmup_instructions=60_000),
        )


class TestReadOnlyViews:
    """Hot-path no-copy views stay immutable from the outside."""

    def test_thermal_view_matches_and_rejects_writes(self):
        model = LumpedThermalModel(Floorplan.default())
        view = model.temperatures_view
        assert np.array_equal(view, model.temperatures)
        with pytest.raises(ValueError):
            view[0] = 0.0

    def test_thermal_view_tracks_advances(self):
        model = LumpedThermalModel(Floorplan.default())
        powers = np.full(len(model.floorplan.blocks), 5.0)
        before = model.temperatures_view.copy()
        model.advance(powers, 100_000)
        after = model.temperatures_view
        assert not np.array_equal(before, after)
        assert np.array_equal(after, model.temperatures)
        with pytest.raises(ValueError):
            after[0] = 0.0

    def test_advance_from_preserves_start_snapshot(self):
        model = LumpedThermalModel(Floorplan.default())
        powers = np.full(len(model.floorplan.blocks), 5.0)
        start = model.temperatures_view
        frozen = start.copy()
        end, steady = model.advance_from(start, powers, 100_000)
        assert np.array_equal(start, frozen)  # rebind, not overwrite
        assert np.array_equal(end, model.temperatures)
        assert np.array_equal(steady, model.steady_state(powers))

    def test_power_peaks_view_matches_and_rejects_writes(self):
        from repro.power.wattch import PowerModel

        model = PowerModel(Floorplan.default())
        view = model.peaks_view
        assert np.array_equal(view, model.peaks)
        assert view is model.peaks_view  # cached, no per-read allocation
        with pytest.raises(ValueError):
            view[0] = 0.0

    def test_public_copies_stay_defensive(self):
        model = LumpedThermalModel(Floorplan.default())
        copy = model.temperatures
        copy[0] = -1000.0
        assert model.temperatures[0] != -1000.0


class TestFractionsAbove:
    """The fused dual-threshold pass equals per-threshold calls exactly."""

    def test_matches_single_threshold_kernel(self):
        model = LumpedThermalModel(Floorplan.default())
        rng = np.random.default_rng(11)
        n = len(model.floorplan.blocks)
        for _ in range(50):
            start = 60.0 + 50.0 * rng.random(n)
            steady = 60.0 + 50.0 * rng.random(n)
            duration = float(10.0 ** rng.uniform(-6, -2))
            thresholds = tuple(60.0 + 50.0 * rng.random(2))
            fused = model.fractions_above(start, steady, duration, thresholds)
            for row, threshold in enumerate(thresholds):
                single = model.fraction_above(start, steady, duration, threshold)
                assert np.array_equal(fused[row], single), threshold

    def test_steady_equal_threshold_lane(self):
        """steady == threshold must not divide by zero or mis-classify."""
        model = LumpedThermalModel(Floorplan.default())
        n = len(model.floorplan.blocks)
        threshold = 100.0
        start = np.full(n, 90.0)
        steady = np.full(n, threshold)  # approaches but never crosses
        fraction = model.fractions_above(start, steady, 1e-3, (threshold,))
        assert np.all(fraction == 0.0)
        start_above = np.full(n, 110.0)  # cooling toward the threshold
        fraction = model.fractions_above(start_above, steady, 1e-3, (threshold,))
        assert np.all(fraction == 1.0)
