"""The pinned, unfused fast-engine kernel (bit-identity reference).

:class:`ReferenceFastEngine` preserves the original per-sample body of
the fast engine's sample loop exactly as it stood before the
fused-kernel optimization:

* a fresh ``np.array(phase.activity_vector(...))`` tuple rebuild per
  sample;
* defensive ``.copy()`` property reads of the thermal state and power
  peaks on every access;
* a separate :meth:`~repro.thermal.lumped.LumpedThermalModel.steady_state`
  solve alongside every
  :meth:`~repro.thermal.lumped.LumpedThermalModel.advance`;
* two independent single-threshold crossing-time passes (emergency +
  stress thresholds) through the private :func:`_fractions_above`
  below, a copy of the module-level
  :func:`repro.thermal.lumped.fractions_above` body as it stood before
  the classify-first rewrite;
* list-of-tuples history accumulation with a final ``np.vstack``.

It exists for two reasons:

1. **bit-identity tests** (``tests/test_sim_reference.py``) assert that
   the fused kernel produces *exactly* the same :class:`RunResult` for
   the same seeds -- every optimization in the fused path must be a
   pure strength reduction, not a numerical change;
2. **the kernel benchmark** (``benchmarks/test_bench_parallel.py``)
   measures the fused engine's samples/sec against this pinned
   implementation, so the speedup claim is anchored to a fixed
   baseline rather than to whatever the previous commit happened to
   contain.

One deliberate behavioural difference is documented and tested: the
reference engine carries the pre-fix cycle-budget bug where warmup
consumed its own ``max_cycles`` allowance *in addition to* the
measurement budget, so a warmed-up run could simulate up to twice
``max_cycles``.  The fused engine charges warmup and measurement
against a single shared budget (see the regression test).  Runs whose
budgets are never exhausted -- every comparison in the bit-identity
tests and benchmark -- are unaffected.

It shares construction with the live engine but none of its kernel,
so the tests and the benchmark compare the live kernel against a
baseline that later kernel changes cannot reach.  Do not "improve"
this module; it is intentionally frozen.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from repro.errors import SimulationError
from repro.sim.fast import FastEngine
from repro.sim.results import History, RunResult


def _fractions_above(tau, start, steady, duration_seconds, thresholds):
    """Original broadcast crossing-time kernel, every cell evaluated."""
    start = np.asarray(start, dtype=float)
    steady = np.asarray(steady, dtype=float)
    thr = np.asarray(thresholds, dtype=float).reshape(
        (-1,) + (1,) * start.ndim
    )
    if duration_seconds <= 0:
        # Zero-duration limit: the fraction degenerates to the
        # instantaneous indicator "strictly above threshold now".
        return (start > thr).astype(float)
    # Crossing time t* = tau * ln((steady - start) / (steady - thr)).
    # The denominator is zero only where ``steady == thr`` exactly;
    # those lanes are provably excluded from both crossing masks
    # below (they are neither strictly above nor strictly below the
    # threshold), so the division is made warning-free by
    # substituting a harmless denominator instead of wrapping the
    # whole pass in an ``np.errstate`` context (measurably costly
    # per sample).  Every lane that *is* consumed evaluates the
    # exact same expression as before -- bit-identity is asserted
    # by a property test against the scalar kernel's history.
    denominator = steady - thr
    ratio = (steady - start) / np.where(
        denominator != 0.0, denominator, 1.0
    )
    cross = tau * np.log(np.where(ratio > 0, ratio, 1.0))
    cross.clip(0.0, duration_seconds, out=cross)
    scaled = cross / duration_seconds
    rising = steady > start
    start_above = start > thr
    steady_above = steady > thr
    steady_below = steady < thr
    # Rising toward a steady state strictly above threshold,
    # starting below: crosses upward at t*.  Falling from above
    # threshold toward a steady state strictly below it: crosses
    # downward at t*.  Started above and heading to (or
    # asymptotically toward) a steady state at or above the
    # threshold: never drops below.  The three masks are pairwise
    # disjoint, so ``where`` composition order is irrelevant;
    # remaining lanes never exceed the threshold and stay zero.
    fraction = np.where(rising & ~start_above & steady_above,
                        1.0 - scaled, 0.0)
    fraction = np.where(~rising & start_above & steady_below,
                        scaled, fraction)
    fraction = np.where(start_above & ~steady_below, 1.0, fraction)
    return fraction


class ReferenceFastEngine(FastEngine):
    """`FastEngine` with the original (unfused) per-sample kernel."""

    def _run(
        self,
        instructions: float,
        max_cycles: int | None,
        warmup_instructions: float,
    ) -> RunResult:
        if instructions <= 0:
            raise SimulationError("instructions must be positive")
        sample = self.dtm_config.sampling_interval
        sample_seconds = sample * self.machine.cycle_time
        if max_cycles is None:
            # Generous budget: even duty-0 policies eventually release.
            max_cycles = int(40 * instructions / max(0.1, self.profile.mean_ipc))
        emergency_level = self.thermal_config.emergency_temperature
        stress_level = self.dtm_config.nonct_trigger
        fetch_supply = self.machine.fetch_width * self.supply_efficiency

        telemetry = self.telemetry
        recording = telemetry.enabled
        time_samples = False
        sample_start = 0.0
        on_sample = self.manager.on_sample
        if recording:
            telemetry.set_context(self.profile.name, self.policy.name)
            telemetry.meta.update(
                benchmark=self.profile.name,
                policy=self.policy.name,
                block_names=list(self.floorplan.names),
                sample_cycles=sample,
                seed=self.seed,
                supply_efficiency=self.supply_efficiency,
            )
            time_samples = telemetry.config.sample_latency
            if telemetry.profiler.enabled:
                def on_sample(
                    sensed,
                    _base=self.manager.on_sample,
                    _span=telemetry.profiler.span,
                ):
                    with _span("dtm.on_sample"):
                        return _base(sensed)

        rng = np.random.default_rng(
            np.random.SeedSequence([self.profile.seed, self.seed])
        )
        names = self.floorplan.names
        block_count = len(names)
        tau = self.thermal._tau

        committed = 0.0
        warmup_remaining = float(warmup_instructions)
        cycles = 0
        emergency_cycles = 0.0
        stress_cycles = 0.0
        block_emergency = np.zeros(block_count)
        block_stress = np.zeros(block_count)
        temp_sum = np.zeros(block_count)
        temp_max = np.full(block_count, -np.inf)
        power_sum = 0.0
        power_max = 0.0
        energy_joules = 0.0
        interrupt_stalls = 0
        samples = 0
        total_committed = 0.0  # includes warmup; drives phase position
        warmup_budget = max_cycles  # pre-fix: warmup got its own budget
        warmup_cycles = 0
        warmup_samples = 0
        history_rows: list[tuple] = []

        while committed < instructions and cycles < max_cycles:
            if time_samples:
                sample_start = perf_counter()
            phase = self.profile.phase_at(int(total_committed))
            activity = np.array(phase.activity_vector(names), dtype=float)
            if phase.jitter:
                activity *= 1.0 + rng.normal(0.0, phase.jitter, block_count)
                np.clip(activity, 0.0, 1.0, out=activity)
                demand_ipc = phase.ipc * (
                    1.0 + rng.normal(0.0, 0.5 * phase.jitter)
                )
            else:
                demand_ipc = phase.ipc
            demand_ipc = max(0.05, demand_ipc)

            if self._monitored is None:
                sensed = self.thermal.max_temperature
            else:
                sensed = float(self.thermal.temperatures[self._monitored].max())
            duty, stall = on_sample(sensed)
            supply_ipc = duty * fetch_supply
            effective_ipc = min(demand_ipc, supply_ipc)
            ratio = effective_ipc / demand_ipc

            utilization = activity * ratio
            powers = self.power_model.block_powers(utilization)
            if self.leakage is not None:
                powers = powers + self.leakage.power(
                    self.power_model.peaks, self.thermal.temperatures
                )
            chip_power = float(powers.sum()) + self.power_model.unmonitored_power(
                float(utilization.mean())
            )

            start = self.thermal.temperatures
            steady = self.thermal.steady_state(powers)
            end = self.thermal.advance(powers, sample)

            if not np.isfinite(chip_power) or not np.all(np.isfinite(end)):
                bad = (
                    names[int(np.argmin(np.isfinite(end)))]
                    if not np.all(np.isfinite(end))
                    else self.thermal.hottest_block
                )
                raise SimulationError(
                    f"non-finite simulation state in profile "
                    f"{self.profile.name!r}",
                    sample_index=self.manager.samples - 1,
                    block=bad,
                    duty=duty,
                    chip_power=chip_power,
                    policy=self.policy.name,
                )

            sample_committed = effective_ipc * max(0, sample - stall)
            total_committed += sample_committed
            if warmup_remaining > 0:
                warmup_remaining -= sample_committed
                warmup_budget -= sample
                warmup_cycles += sample
                warmup_samples += 1
                if warmup_budget <= 0:
                    raise SimulationError(
                        f"warmup of profile {self.profile.name!r} exceeded "
                        f"its cycle budget of {max_cycles:,} cycles "
                        f"({warmup_samples:,} samples consumed, "
                        f"{warmup_remaining:,.0f} warmup instructions "
                        f"still outstanding)",
                        sample_index=self.manager.samples - 1,
                        warmup_cycles=warmup_cycles,
                        warmup_budget=max_cycles,
                        duty=duty,
                        policy=self.policy.name,
                    )
                continue

            em_frac = _fractions_above(
                tau, start, steady, sample_seconds, (emergency_level,)
            )[0]
            st_frac = _fractions_above(
                tau, start, steady, sample_seconds, (stress_level,)
            )[0]

            em_peak = float(em_frac.max())
            st_peak = float(st_frac.max())
            committed += sample_committed
            cycles += sample
            emergency_cycles += em_peak * sample
            stress_cycles += st_peak * sample
            block_emergency += em_frac * sample
            block_stress += st_frac * sample
            temp_sum += end
            np.maximum(temp_max, end, out=temp_max)
            power_sum += chip_power
            power_max = max(power_max, chip_power)
            energy_joules += chip_power * sample_seconds
            interrupt_stalls += stall
            samples += 1
            if self.record_history:
                history_rows.append(
                    (
                        float(end.max()),
                        duty,
                        chip_power,
                        end,
                        powers,
                        em_frac,
                        st_frac,
                    )
                )
            if recording:
                telemetry.record_sample(
                    index=samples - 1,
                    cycle=cycles,
                    sensed=sensed,
                    max_temp=float(end.max()),
                    block_temps=end,
                    chip_power=chip_power,
                    ipc=sample_committed / sample,
                    duty=duty,
                    emergency_fraction=em_peak,
                    stress_fraction=st_peak,
                    latency_seconds=(
                        perf_counter() - sample_start
                        if time_samples
                        else math.nan
                    ),
                )

        if samples == 0:
            raise SimulationError(
                f"run of profile {self.profile.name!r} produced no samples",
                policy=self.policy.name,
                max_cycles=max_cycles,
            )

        extra: dict[str, float] = {}
        guard = self.manager.failsafe
        if guard is not None:
            extra["failsafe_engagements"] = float(guard.engagements)
            extra["failsafe_rejected_samples"] = float(guard.rejected_samples)
            extra["failsafe_degraded_samples"] = float(guard.degraded_samples)
            extra["failsafe_forced_samples"] = float(guard.failsafe_samples)

        history = None
        if self.record_history:
            history = History(
                sample_cycles=sample,
                names=names,
                max_temp=np.array([row[0] for row in history_rows]),
                duty=np.array([row[1] for row in history_rows]),
                chip_power=np.array([row[2] for row in history_rows]),
                block_temps=np.vstack([row[3] for row in history_rows]),
                block_powers=np.vstack([row[4] for row in history_rows]),
                block_emergency=np.vstack([row[5] for row in history_rows]),
                block_stress=np.vstack([row[6] for row in history_rows]),
            )

        return RunResult(
            benchmark=self.profile.name,
            policy=self.policy.name,
            cycles=cycles,
            instructions=committed,
            emergency_fraction=emergency_cycles / cycles,
            stress_fraction=stress_cycles / cycles,
            block_emergency_fraction={
                name: float(block_emergency[i]) / cycles
                for i, name in enumerate(names)
            },
            block_stress_fraction={
                name: float(block_stress[i]) / cycles
                for i, name in enumerate(names)
            },
            mean_block_temperature={
                name: float(temp_sum[i]) / samples for i, name in enumerate(names)
            },
            max_block_temperature={
                name: float(temp_max[i]) for i, name in enumerate(names)
            },
            mean_chip_power=power_sum / samples,
            max_chip_power=power_max,
            energy_joules=energy_joules,
            engaged_fraction=self.manager.engaged_fraction,
            interrupt_events=self.manager.interrupts.events,
            interrupt_stall_cycles=interrupt_stalls,
            history=history,
            extra=extra,
        )
