"""Frozen per-sample body of :class:`repro.multicore.MulticoreEngine`.

:class:`ReferenceMulticoreEngine` keeps the engine's original sample
loop verbatim: a ``phase_at`` lookup and activity-vector rebuild per
core, one :meth:`~repro.power.wattch.PowerModel.block_powers` and
:meth:`~repro.power.wattch.PowerModel.unmonitored_power` call per core,
and two single-threshold crossing-time passes (the private
:func:`_fraction_above` below, a copy of the original
``MulticoreThermalModel.fraction_above`` body).  It shares construction
with the live engine but none of its kernel, so
``tests/test_multicore_reference.py`` can hold the live engine
bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.multicore.engine import MulticoreEngine
from repro.multicore.results import CoreResult, MulticoreRunResult


def _fraction_above(tau, start, steady, duration_seconds, threshold):
    """Original stacked crossing-time kernel, one threshold per call."""
    start = np.asarray(start, dtype=float)
    steady = np.asarray(steady, dtype=float)
    if duration_seconds <= 0:
        return (start > threshold).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (steady - start) / (steady - threshold)
        cross = tau * np.log(np.where(ratio > 0, ratio, 1.0))
    cross = np.clip(np.nan_to_num(cross, nan=0.0), 0.0, duration_seconds)
    rising = steady > start
    start_above = start > threshold
    steady_above = steady > threshold
    steady_below = steady < threshold
    fraction = np.zeros_like(start)
    crosses_up = rising & ~start_above & steady_above
    fraction[crosses_up] = 1.0 - cross[crosses_up] / duration_seconds
    crosses_down = ~rising & start_above & steady_below
    fraction[crosses_down] = cross[crosses_down] / duration_seconds
    fraction[start_above & ~steady_below] = 1.0
    return fraction


class ReferenceMulticoreEngine(MulticoreEngine):
    """:class:`MulticoreEngine` running the original per-sample body."""

    def _run(
        self, instructions: float, max_cycles: int | None
    ) -> MulticoreRunResult:
        if instructions <= 0:
            raise SimulationError("instructions must be positive")
        n_cores = self.n_cores
        sample = self.dtm_config.sampling_interval
        sample_seconds = sample * self.machine.cycle_time
        if max_cycles is None:
            slowest = min(
                max(0.1, profile.mean_ipc) for profile in self.profiles
            )
            max_cycles = int(40 * instructions / slowest)
        emergency_level = self.thermal_config.emergency_temperature
        stress_level = self.dtm_config.nonct_trigger
        fetch_supply = self.machine.fetch_width * self.supply_efficiency
        coordinator = self.coordinator

        telemetry = self.telemetry
        recording = telemetry.enabled
        if recording:
            mix = "+".join(profile.name for profile in self.profiles)
            telemetry.set_context(mix, self.policy_label)
            telemetry.meta.update(
                benchmark=mix,
                policy=self.policy_label,
                n_cores=n_cores,
                core_names=list(self.floorplan.core_names),
                core_benchmarks=[p.name for p in self.profiles],
                coordinator=(
                    coordinator.strategy if coordinator is not None else ""
                ),
                block_names=list(self.floorplan.core_names),
                sample_cycles=sample,
                seed=self.seed,
                supply_efficiency=self.supply_efficiency,
            )

        rngs = [
            np.random.default_rng(
                np.random.SeedSequence([profile.seed, self.seed, core_index])
            )
            for core_index, profile in enumerate(self.profiles)
        ]
        names = self.floorplan.core.names
        block_count = len(names)
        tau = self.thermal._tau

        committed = np.zeros(n_cores)
        total_committed = np.zeros(n_cores)
        cycles = 0
        samples = 0
        emergency_cycles = np.zeros(n_cores)
        stress_cycles = np.zeros(n_cores)
        chip_emergency_cycles = 0.0
        chip_stress_cycles = 0.0
        temp_sum = np.zeros(n_cores)
        temp_max = np.full(n_cores, -np.inf)
        core_power_sum = np.zeros(n_cores)
        power_sum = 0.0
        power_max = 0.0
        energy_joules = 0.0
        stall_cycles = np.zeros(n_cores, dtype=int)
        demoted_samples = np.zeros(n_cores, dtype=int)

        duties = np.empty(n_cores)
        demand = np.empty(n_cores)
        stalls = np.zeros(n_cores, dtype=int)
        activities = np.empty((n_cores, block_count))
        powers_stack = np.empty((n_cores, block_count))
        core_powers = np.empty(n_cores)
        sample_committed = np.empty(n_cores)

        while committed.min() < instructions and cycles < max_cycles:
            core_max = self.thermal.core_max_temperatures
            for core_index in range(n_cores):
                profile = self.profiles[core_index]
                phase = profile.phase_at(int(total_committed[core_index]))
                activity = np.array(
                    phase.activity_vector(names), dtype=float
                )
                if phase.jitter:
                    rng = rngs[core_index]
                    activity *= 1.0 + rng.normal(
                        0.0, phase.jitter, block_count
                    )
                    np.clip(activity, 0.0, 1.0, out=activity)
                    demand_ipc = phase.ipc * (
                        1.0 + rng.normal(0.0, 0.5 * phase.jitter)
                    )
                else:
                    demand_ipc = phase.ipc
                demand[core_index] = max(0.05, demand_ipc)
                activities[core_index] = activity
                duty, stall = self.managers[core_index].on_sample(
                    float(core_max[core_index])
                )
                duties[core_index] = duty
                stalls[core_index] = stall

            if coordinator is not None:
                granted = coordinator.arbitrate(duties, core_max, samples)
                for core_index in range(n_cores):
                    if granted[core_index] < duties[core_index] - 1e-12:
                        actuator = self.managers[core_index].actuator
                        actuator.set_output(granted[core_index])
                        duties[core_index] = actuator.duty
                demoted_samples += np.asarray(
                    coordinator.demoted, dtype=int
                )

            for core_index in range(n_cores):
                supply_ipc = duties[core_index] * fetch_supply
                effective_ipc = min(demand[core_index], supply_ipc)
                ratio = effective_ipc / demand[core_index]
                utilization = activities[core_index] * ratio
                powers = self.power_model.block_powers(utilization)
                powers_stack[core_index] = powers
                core_powers[core_index] = float(
                    powers.sum()
                ) + self.power_model.unmonitored_power(
                    float(utilization.mean())
                )
                sample_committed[core_index] = effective_ipc * max(
                    0, sample - stalls[core_index]
                )

            chip_power = float(core_powers.sum())
            start, steady, end = self.thermal.sample_update(
                powers_stack, sample
            )

            if not np.isfinite(chip_power) or not np.all(np.isfinite(end)):
                finite = np.isfinite(end)
                if not np.all(finite):
                    bad_core, bad_block = np.unravel_index(
                        int(np.argmin(finite)), end.shape
                    )
                    bad = f"core{bad_core}.{names[bad_block]}"
                else:
                    bad_core = self.thermal.hottest_core
                    bad = f"core{bad_core}"
                raise SimulationError(
                    "non-finite simulation state in multicore run",
                    sample_index=samples,
                    block=bad,
                    benchmark=self.profiles[int(bad_core)].name,
                    duty=float(duties[int(bad_core)]),
                    chip_power=chip_power,
                    policy=self.policy_label,
                )

            em_frac = _fraction_above(
                tau, start, steady, sample_seconds, emergency_level
            )
            st_frac = _fraction_above(
                tau, start, steady, sample_seconds, stress_level
            )
            em_core = em_frac.max(axis=1)
            st_core = st_frac.max(axis=1)

            total_committed += sample_committed
            committed += sample_committed
            cycles += sample
            samples += 1
            emergency_cycles += em_core * sample
            stress_cycles += st_core * sample
            chip_emergency_cycles += float(em_core.max()) * sample
            chip_stress_cycles += float(st_core.max()) * sample
            end_core_max = end.max(axis=1)
            temp_sum += end_core_max
            np.maximum(temp_max, end_core_max, out=temp_max)
            core_power_sum += core_powers
            power_sum += chip_power
            power_max = max(power_max, chip_power)
            energy_joules += chip_power * sample_seconds
            stall_cycles += stalls

            if recording:
                telemetry.record_sample(
                    index=samples - 1,
                    cycle=cycles,
                    sensed=float(core_max.max()),
                    max_temp=float(end_core_max.max()),
                    block_temps=end_core_max,
                    chip_power=chip_power,
                    ipc=float(sample_committed.sum()) / sample,
                    duty=float(duties.mean()),
                    emergency_fraction=float(em_core.max()),
                    stress_fraction=float(st_core.max()),
                )

        if samples == 0:
            raise SimulationError(
                "multicore run produced no samples",
                policy=self.policy_label,
                max_cycles=max_cycles,
            )

        cores = []
        for core_index in range(n_cores):
            extra: dict[str, float] = {}
            guard = self.guards[core_index]
            if guard is not None:
                extra["failsafe_engagements"] = float(guard.engagements)
                extra["failsafe_rejected_samples"] = float(
                    guard.rejected_samples
                )
                extra["failsafe_degraded_samples"] = float(
                    guard.degraded_samples
                )
                extra["failsafe_forced_samples"] = float(
                    guard.failsafe_samples
                )
            manager = self.managers[core_index]
            cores.append(
                CoreResult(
                    core=core_index,
                    benchmark=self.profiles[core_index].name,
                    policy=self.policies[core_index].name,
                    cycles=cycles,
                    instructions=float(committed[core_index]),
                    emergency_fraction=float(emergency_cycles[core_index])
                    / cycles,
                    stress_fraction=float(stress_cycles[core_index]) / cycles,
                    mean_temperature=float(temp_sum[core_index]) / samples,
                    max_temperature=float(temp_max[core_index]),
                    mean_power=float(core_power_sum[core_index]) / samples,
                    engaged_fraction=manager.engaged_fraction,
                    interrupt_stall_cycles=int(stall_cycles[core_index]),
                    demoted_samples=int(demoted_samples[core_index]),
                    extra=extra,
                )
            )

        chip_extra: dict[str, float] = {}
        if coordinator is not None:
            chip_extra.update(coordinator.stats())

        return MulticoreRunResult(
            policy=self.policy_label,
            coordinator=(
                coordinator.strategy if coordinator is not None else ""
            ),
            cycles=cycles,
            cores=tuple(cores),
            emergency_fraction=chip_emergency_cycles / cycles,
            stress_fraction=chip_stress_cycles / cycles,
            mean_chip_power=power_sum / samples,
            max_chip_power=power_max,
            energy_joules=energy_joules,
            extra=chip_extra,
        )
