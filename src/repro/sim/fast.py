"""The fast engine: sample-granularity simulation for paper-scale sweeps.

One iteration covers one controller sampling interval (1000 cycles).
Per sample the kernel:

1. looks up the workload phase at the current committed-instruction
   position and draws its jittered activity vector and demand IPC
   (seeded -- runs are bit-reproducible);
2. asks the :class:`~repro.dtm.manager.DTMManager` for the fetch duty,
   given the hottest (monitored) block temperature at the sample
   boundary (exactly the paper's sensor/controller timing);
3. converts duty to throughput: the front end can supply at most
   ``duty * fetch_width * supply_efficiency`` instructions per cycle,
   so the sample commits ``min(demand, supply)`` IPC -- low-ILP phases
   absorb mild toggling for free, which is the paper's observation
   that "the program's ILP characteristics [can] permit the DTM
   mechanism to work well without penalizing performance";
4. scales structure activity by the achieved throughput ratio, turns
   it into per-block power (Wattch CC3, plus optional leakage), and
   advances the lumped RC model with the *exact* exponential update;
5. accounts emergency/stress time with sub-sample accuracy from the
   closed-form trajectory.

There is one implementation of that loop, :func:`run_lanes`.  It steps
any number of independent runs ("lanes") that share one floorplan,
machine, thermal, and DTM configuration in lock-step: the whole chip
is one recurrence ``T[k+1] = A T[k] + B P[k]``, and a batch of runs is
that recurrence with one row per run.  :meth:`FastEngine.run` is the
one-lane case; :class:`repro.sim.batch.BatchEngine` is the B-lane case.
``tests/test_sim_reference.py`` pins the kernel bit-identical to the
original serial body, frozen as
``ReferenceFastEngine`` in ``tests/fast_reference.py``.

``supply_efficiency`` is calibrated against the detailed core
(experiment C1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.config import DTMConfig, MachineConfig, ThermalConfig
from repro.dtm.manager import DTMManager
from repro.dtm.policies import NoDTMPolicy
from repro.errors import SimulationError
from repro.power.wattch import PowerModel
from repro.sim.results import History, RunResult
from repro.telemetry.core import ensure_telemetry
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.workloads.profiles import BenchmarkProfile

#: Fraction of nominal fetch bandwidth the front end sustains through
#: toggling.  Calibrated against the detailed core (experiment C1):
#: gated fetch cycles interact with branch-driven fetch-block breaks,
#: so the sustained supply is ~0.8 * duty * fetch_width.
DEFAULT_SUPPLY_EFFICIENCY = 0.80

#: Version tag of the sample kernel's numerics.  The cross-sweep result
#: cache (:mod:`repro.sim.cache`) folds this tag into every cache key,
#: so bumping it after any change that can alter computed results --
#: the fused sample kernel, the thermal update, the power model, the
#: workload phase draw -- cleanly invalidates every previously stored
#: entry instead of replaying stale numbers.  Bump the suffix whenever
#: a commit changes simulation output for an unchanged spec.
KERNEL_VERSION = "fast-kernel/v1"


def build_phase_tables(
    profile: BenchmarkProfile, names: tuple[str, ...]
) -> tuple[list[int], list[np.ndarray], list[float], list[float]]:
    """Prebuilt per-phase lookup tables for the sample kernel.

    Returns ``(phase_ends, phase_activity, phase_jitter, phase_ipc)``:
    cumulative instruction boundaries (so the phase at a
    committed-instruction position is one ``bisect``), read-only
    activity arrays, and scalar jitter/IPC per phase.  They replace the
    original per-sample ``phase_at`` lookup and activity tuple rebuild
    with the exact same values.
    """
    phase_ends: list[int] = []
    running = 0
    phase_activity: list[np.ndarray] = []
    phase_jitter: list[float] = []
    phase_ipc: list[float] = []
    for phase in profile.phases:
        running += phase.instructions
        phase_ends.append(running)
        base = np.array(phase.activity_vector(names), dtype=float)
        base.flags.writeable = False
        phase_activity.append(base)
        phase_jitter.append(phase.jitter)
        phase_ipc.append(phase.ipc)
    return phase_ends, phase_activity, phase_jitter, phase_ipc


@dataclass
class LaneOutcome:
    """Terminal state of one lane: a result or the error that killed it."""

    result: RunResult | None = None
    error: BaseException | None = None


class FastEngine:
    """Sample-granularity workload/power/thermal/DTM simulation."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        policy=None,
        floorplan: Floorplan | None = None,
        machine: MachineConfig | None = None,
        thermal_config: ThermalConfig | None = None,
        dtm_config: DTMConfig | None = None,
        seed: int = 0,
        sensor=None,
        record_history: bool = False,
        supply_efficiency: float = DEFAULT_SUPPLY_EFFICIENCY,
        leakage=None,
        monitored_blocks: tuple[str, ...] | None = None,
        failsafe=None,
        actuator=None,
        telemetry=None,
    ) -> None:
        if not 0.0 < supply_efficiency <= 1.0:
            raise SimulationError("supply_efficiency must be in (0, 1]")
        self.profile = profile
        self.floorplan = floorplan if floorplan is not None else Floorplan.default()
        self.machine = machine if machine is not None else MachineConfig()
        self.thermal_config = (
            thermal_config if thermal_config is not None else ThermalConfig()
        )
        self.dtm_config = dtm_config if dtm_config is not None else DTMConfig()
        self.policy = policy if policy is not None else NoDTMPolicy()
        # ``telemetry`` is a repro.telemetry.Telemetry (opt-in; None is
        # the zero-overhead null object asserted bit-identical by tests).
        self.telemetry = ensure_telemetry(telemetry)
        # ``failsafe`` is a FailsafeConfig or prebuilt FailsafeGuard;
        # ``actuator`` lets fault-injection wrappers replace the stock
        # FetchToggling (see repro.faults).
        self.manager = DTMManager(
            self.policy,
            self.dtm_config,
            sensor=sensor,
            failsafe=failsafe,
            actuator=actuator,
            telemetry=telemetry,
        )
        self.power_model = PowerModel(self.floorplan)
        self.thermal = LumpedThermalModel(
            self.floorplan,
            heatsink_temperature=self.thermal_config.heatsink_temperature,
            cycle_time=self.machine.cycle_time,
        )
        if self.telemetry.enabled and self.telemetry.profiler.enabled:
            self.thermal.attach_profiler(self.telemetry.profiler)
        self.seed = seed
        self.record_history = record_history
        self.supply_efficiency = supply_efficiency
        #: Optional :class:`~repro.power.leakage.LeakageModel`: adds
        #: temperature-dependent leakage (quasi-static per sample).
        self.leakage = leakage
        # Sensor placement (paper Section 4.2's future-work caveat:
        # "the number of sensors is likely to be limited, and they may
        # not be co-located with the most likely hot spots").  The DTM
        # loop only sees the temperatures of the monitored blocks; the
        # emergency accounting still uses the true physical field.
        if monitored_blocks is None:
            self._monitored = None
        else:
            if not monitored_blocks:
                raise SimulationError("need at least one monitored block")
            self._monitored = np.array(
                [self.floorplan.index(name) for name in monitored_blocks]
            )

    def run(
        self,
        instructions: float = 2_000_000,
        max_cycles: int | None = None,
        warmup_instructions: float = 0,
    ) -> RunResult:
        """Simulate until ``instructions`` commit (or ``max_cycles``).

        ``warmup_instructions`` are executed first with full dynamics
        (thermal state, DTM, phase position all advance) but excluded
        from every reported metric -- the analogue of the paper's
        skipping the first 2 billion instructions of each benchmark.
        """
        with self.telemetry.span("engine.run"):
            return self._run(instructions, max_cycles, warmup_instructions)

    def _run(
        self,
        instructions: float,
        max_cycles: int | None,
        warmup_instructions: float,
    ) -> RunResult:
        """Run this engine as the only lane of :func:`run_lanes`."""
        [outcome] = run_lanes(
            [self], [instructions], [max_cycles], [warmup_instructions]
        )
        if outcome.error is not None:
            raise outcome.error
        return outcome.result


class _Lane:
    """Mutable state of one run inside :func:`run_lanes`."""

    __slots__ = (
        "engine", "slot", "profile", "policy", "manager", "telemetry",
        "recording", "time_samples", "on_sample", "rng",
        "phase_total", "phase_ends", "phase_activity", "phase_jitter",
        "phase_ipc", "single_phase",
        "fetch_supply", "leakage", "monitored",
        "instructions", "max_cycles", "budget_remaining",
        "warmup_remaining", "warmup_cycles", "warmup_samples",
        "committed", "total_committed", "cycles",
        "emergency_cycles", "stress_cycles",
        "power_sum", "power_max", "energy_joules",
        "interrupt_stalls", "samples",
        "record_history", "hist_cap", "h_max_temp", "h_duty",
        "h_chip_power", "h_temps", "h_powers", "h_em", "h_st",
        # this sample's scalars
        "sensed", "duty", "stall", "sample_committed", "chip_power",
        "error",
    )

    def __init__(self, engine, slot, instructions, max_cycles, warmup,
                 sample, block_count) -> None:
        if not math.isfinite(instructions) or instructions <= 0:
            raise SimulationError(
                f"instructions must be a positive finite count, "
                f"got {instructions!r}"
            )
        if max_cycles is None:
            # Generous budget: even duty-0 policies eventually release.
            max_cycles = int(
                40 * instructions / max(0.1, engine.profile.mean_ipc)
            )
        self.engine = engine
        self.slot = slot
        self.profile = profile = engine.profile
        self.policy = engine.policy
        self.manager = engine.manager
        self.error = None
        self.instructions = instructions
        self.max_cycles = max_cycles
        # One shared budget for warmup + measurement (the original
        # engine gave warmup its own ``max_cycles`` allowance on top of
        # the main loop's -- regression-tested).
        self.budget_remaining = max_cycles
        self.warmup_remaining = float(warmup)
        self.warmup_cycles = 0
        self.warmup_samples = 0
        self.fetch_supply = (
            engine.machine.fetch_width * engine.supply_efficiency
        )
        self.leakage = engine.leakage
        self.monitored = engine._monitored

        # Telemetry is opt-in: ``recording`` is hoisted so the disabled
        # path costs one boolean test per sample and the simulation
        # arithmetic is untouched (bit-identical results).
        self.telemetry = telemetry = engine.telemetry
        self.recording = telemetry.enabled
        self.time_samples = False
        on_sample = engine.manager.on_sample
        if self.recording:
            telemetry.set_context(profile.name, engine.policy.name)
            telemetry.meta.update(
                benchmark=profile.name,
                policy=engine.policy.name,
                block_names=list(engine.floorplan.names),
                sample_cycles=sample,
                seed=engine.seed,
                supply_efficiency=engine.supply_efficiency,
            )
            self.time_samples = telemetry.config.sample_latency
            if telemetry.profiler.enabled:
                def on_sample(
                    sensed,
                    _base=engine.manager.on_sample,
                    _span=telemetry.profiler.span,
                ):
                    with _span("dtm.on_sample"):
                        return _base(sensed)
        self.on_sample = on_sample

        self.rng = np.random.default_rng(
            np.random.SeedSequence([profile.seed, engine.seed])
        )
        self.phase_total = profile.total_instructions
        (
            self.phase_ends,
            self.phase_activity,
            self.phase_jitter,
            self.phase_ipc,
        ) = build_phase_tables(profile, engine.floorplan.names)
        self.single_phase = len(self.phase_ends) == 1

        self.committed = 0.0
        self.total_committed = 0.0  # includes warmup; drives phase position
        self.cycles = 0
        self.emergency_cycles = 0.0
        self.stress_cycles = 0.0
        self.power_sum = 0.0
        self.power_max = 0.0
        self.energy_joules = 0.0
        self.interrupt_stalls = 0
        self.samples = 0

        # Preallocated history buffers (amortized doubling growth).
        self.record_history = engine.record_history
        self.hist_cap = 0
        if self.record_history:
            self.hist_cap = cap = 1024
            self.h_max_temp = np.empty(cap)
            self.h_duty = np.empty(cap)
            self.h_chip_power = np.empty(cap)
            self.h_temps = np.empty((cap, block_count))
            self.h_powers = np.empty((cap, block_count))
            self.h_em = np.empty((cap, block_count))
            self.h_st = np.empty((cap, block_count))

        # The loop runs while budget remains: a run that cannot take its
        # first step (``max_cycles`` of 0, negative or NaN) has no
        # samples to report.
        if not self.budget_remaining > 0:
            raise _no_samples(self)

    def grow_history(self) -> None:
        """Double the history buffers, preserving their leading rows."""
        self.hist_cap *= 2
        for attr in (
            "h_max_temp", "h_duty", "h_chip_power",
            "h_temps", "h_powers", "h_em", "h_st",
        ):
            buffer = getattr(self, attr)
            grown = np.empty((self.hist_cap, *buffer.shape[1:]))
            grown[: len(buffer)] = buffer
            setattr(self, attr, grown)


def _no_samples(lane: _Lane) -> SimulationError:
    return SimulationError(
        f"run of profile {lane.profile.name!r} produced no samples",
        policy=lane.policy.name,
        max_cycles=lane.max_cycles,
    )


def run_lanes(
    engines, instructions, max_cycles, warmup_instructions
) -> list[LaneOutcome]:
    """The sample kernel: run unrun engines as lanes of one loop.

    ``engines`` must share one floorplan, machine, thermal, and DTM
    configuration (:class:`~repro.sim.batch.BatchEngine` checks this);
    profiles, policies, seeds, sensors, faults, failsafe guards,
    leakage, sensor placement, and supply efficiency are per lane.  The
    budget arguments are sequences with one value per lane.  Returns
    one :class:`LaneOutcome` per lane, in lane order; a lane's error
    never stops the other lanes.

    All B live lanes share one stacked state ``(B, n_blocks)``, so each
    sample costs one stacked
    :meth:`~repro.thermal.lumped.LumpedThermalModel.advance_batch`
    exponential update, one
    :meth:`~repro.thermal.lumped.LumpedThermalModel.fractions_above`
    pass over both thresholds and all lanes, and one vectorized power
    evaluation.  The scalar per-lane work -- phase lookup, seeded
    jitter draws, the DTM decision, the supply/ratio arithmetic --
    runs as Python floats in a lane loop.  Every stacked expression is
    the single-run arithmetic broadcast over the leading lane axis, so
    each lane is bit-identical to running it alone.

    The stacked arrays hold only the live lanes, in ``active`` order:
    a sample where no lane leaves does no fancy indexing.  A lane that
    finishes (or dies on a non-finite state) is finalized, has its last
    temperatures written back to its ``engine.thermal``, and is
    dropped from the stack.

    Opens no ``engine.run`` span; a lane whose telemetry profiles gets
    one ``thermal.advance`` span per stacked advance and one
    ``dtm.on_sample`` span per decision.
    """
    first = engines[0]
    sample = first.dtm_config.sampling_interval
    sample_seconds = sample * first.machine.cycle_time
    thresholds = (
        first.thermal_config.emergency_temperature,
        first.dtm_config.nonct_trigger,
    )
    thermal = first.thermal
    peaks = first.power_model.peaks_view
    idle = first.power_model.idle_fraction
    active_frac = 1.0 - idle
    unmonitored_peak = first.floorplan.unmonitored_peak_power
    names = first.floorplan.names
    block_count = len(names)

    outcomes = [LaneOutcome() for _ in engines]
    active: list[_Lane] = []
    for slot, engine in enumerate(engines):
        try:
            active.append(_Lane(
                engine, slot, instructions[slot], max_cycles[slot],
                warmup_instructions[slot], sample, block_count,
            ))
        except SimulationError as error:
            outcomes[slot].error = error
    if not active:
        return outcomes

    # Stacked state and block-level accumulators, one row per live lane.
    temps = np.array([lane.engine.thermal.temperatures_view
                      for lane in active])
    fraction_sum = np.zeros((2, len(active), block_count))  # em, stress
    temp_sum = np.zeros((len(active), block_count))
    temp_max = np.full((len(active), block_count), -np.inf)

    while active:
        k = len(active)
        # Recomputed only when the live set changes.
        activity = np.empty((k, block_count))
        ratio = np.empty((k, 1))
        timed = any(lane.time_samples for lane in active)
        leaky = [(r, lane.leakage) for r, lane in enumerate(active)
                 if lane.leakage is not None]
        profilers = [
            lane.telemetry.profiler for lane in active
            if lane.recording and lane.telemetry.profiler.enabled
        ]

        while True:
            step_start = perf_counter() if timed else 0.0
            start = temps
            sensed = start.max(axis=1).tolist()
            for r, lane in enumerate(active):
                if lane.single_phase:
                    index = 0
                else:
                    position = int(lane.total_committed) % lane.phase_total
                    index = bisect_right(lane.phase_ends, position)
                jitter = lane.phase_jitter[index]
                row = activity[r]
                if jitter:
                    np.multiply(
                        lane.phase_activity[index],
                        1.0 + lane.rng.normal(0.0, jitter, block_count),
                        out=row,
                    )
                    np.clip(row, 0.0, 1.0, out=row)
                    demand_ipc = lane.phase_ipc[index] * (
                        1.0 + lane.rng.normal(0.0, 0.5 * jitter)
                    )
                else:
                    row[...] = lane.phase_activity[index]
                    demand_ipc = lane.phase_ipc[index]
                demand_ipc = max(0.05, demand_ipc)
                if lane.monitored is None:
                    lane_sensed = sensed[r]
                else:
                    lane_sensed = float(start[r][lane.monitored].max())
                duty, stall = lane.on_sample(lane_sensed)
                effective_ipc = min(demand_ipc, duty * lane.fetch_supply)
                ratio[r, 0] = effective_ipc / demand_ipc
                lane.sensed = lane_sensed
                lane.duty = duty
                lane.stall = stall
                lane.sample_committed = effective_ipc * max(0, sample - stall)

            utilization = np.multiply(activity, ratio, out=activity)
            powers = peaks * (idle + active_frac * utilization)
            for r, leakage in leaky:
                powers[r] = powers[r] + leakage.power(peaks, start[r])
            utilization_sums = utilization.sum(axis=1).tolist()
            power_sums = powers.sum(axis=1).tolist()
            if profilers:
                with ExitStack() as spans:
                    for profiler in profilers:
                        spans.enter_context(
                            profiler.span("thermal.advance")
                        )
                    end, steady = thermal.advance_batch(start, powers, sample)
            else:
                end, steady = thermal.advance_batch(start, powers, sample)
            all_finite = bool(np.isfinite(end).all())

            leaving: list[int] = []
            measuring: list[int] = []
            for r, lane in enumerate(active):
                chip_power = power_sums[r] + unmonitored_peak * (
                    idle + active_frac * (utilization_sums[r] / block_count)
                )
                lane.chip_power = chip_power
                # Guard rails: a non-finite power or temperature means
                # the loop has blown up (NaN sensor feedback, runaway
                # gains, ...).  The lane fails loudly with the state
                # needed to triage it; the others keep stepping.
                if not (all_finite and math.isfinite(chip_power)):
                    row_finite = np.isfinite(end[r])
                    if not (math.isfinite(chip_power) and row_finite.all()):
                        if not row_finite.all():
                            bad = names[int(np.argmin(row_finite))]
                        else:
                            bad = names[int(np.argmax(end[r]))]
                        lane.error = SimulationError(
                            f"non-finite simulation state in profile "
                            f"{lane.profile.name!r}",
                            sample_index=lane.manager.samples - 1,
                            block=bad,
                            duty=lane.duty,
                            chip_power=chip_power,
                            policy=lane.policy.name,
                        )
                        leaving.append(r)
                        continue
                committed = lane.sample_committed
                lane.total_committed += committed
                lane.budget_remaining -= sample
                if lane.warmup_remaining > 0:
                    # Warmup samples are excluded from every metric but
                    # still advance the shared cycle budget, so a wedged
                    # warmup is diagnosable.
                    lane.warmup_remaining -= committed
                    lane.warmup_cycles += sample
                    lane.warmup_samples += 1
                    if lane.budget_remaining <= 0:
                        lane.error = SimulationError(
                            f"warmup of profile {lane.profile.name!r} "
                            f"exceeded its cycle budget of "
                            f"{lane.max_cycles:,} cycles "
                            f"({lane.warmup_samples:,} samples consumed, "
                            f"{lane.warmup_remaining:,.0f} warmup "
                            f"instructions still outstanding)",
                            sample_index=lane.manager.samples - 1,
                            warmup_cycles=lane.warmup_cycles,
                            warmup_budget=lane.max_cycles,
                            duty=lane.duty,
                            policy=lane.policy.name,
                        )
                        leaving.append(r)
                    continue
                measuring.append(r)

            if measuring:
                # One broadcast pass over both thresholds (emergency
                # row 0, stress row 1) and every measured lane.
                if len(measuring) == k:
                    fractions = thermal.fractions_above(
                        start, steady, sample_seconds, thresholds
                    )
                    fraction_sum += fractions * sample
                    temp_sum += end
                    np.maximum(temp_max, end, out=temp_max)
                else:
                    m = np.array(measuring)
                    fractions = thermal.fractions_above(
                        start[m], steady[m], sample_seconds, thresholds
                    )
                    fraction_sum[:, m] += fractions * sample
                    temp_sum[m] += end[m]
                    temp_max[m] = np.maximum(temp_max[m], end[m])
                em_peaks, st_peaks = fractions.max(axis=2).tolist()
                for i, r in enumerate(measuring):
                    lane = active[r]
                    em_peak = em_peaks[i]
                    st_peak = st_peaks[i]
                    chip_power = lane.chip_power
                    committed = lane.sample_committed
                    lane.committed += committed
                    lane.cycles += sample
                    lane.emergency_cycles += em_peak * sample
                    lane.stress_cycles += st_peak * sample
                    lane.power_sum += chip_power
                    lane.power_max = max(lane.power_max, chip_power)
                    lane.energy_joules += chip_power * sample_seconds
                    lane.interrupt_stalls += lane.stall
                    lane.samples += 1
                    if lane.record_history:
                        if lane.samples > lane.hist_cap:
                            lane.grow_history()
                        row = lane.samples - 1
                        lane_end = end[r]
                        lane.h_max_temp[row] = lane_end.max()
                        lane.h_duty[row] = lane.duty
                        lane.h_chip_power[row] = chip_power
                        lane.h_temps[row] = lane_end
                        lane.h_powers[row] = powers[r]
                        lane.h_em[row] = fractions[0, i]
                        lane.h_st[row] = fractions[1, i]
                    if lane.recording:
                        lane_end = end[r]
                        lane.telemetry.record_sample(
                            index=lane.samples - 1,
                            cycle=lane.cycles,
                            sensed=lane.sensed,
                            max_temp=float(lane_end.max()),
                            block_temps=lane_end,
                            chip_power=chip_power,
                            ipc=committed / sample,
                            duty=lane.duty,
                            emergency_fraction=em_peak,
                            stress_fraction=st_peak,
                            latency_seconds=(
                                perf_counter() - step_start
                                if lane.time_samples
                                else math.nan
                            ),
                        )
                    if not (
                        lane.committed < lane.instructions
                        and lane.budget_remaining > 0
                    ):
                        leaving.append(r)

            if not leaving:
                temps = end
                continue
            for r in leaving:
                lane = active[r]
                # Leave the engine's model at its final temperatures, as
                # a standalone run of the engine would.
                lane.engine.thermal._temps = end[r].copy()
                outcomes[lane.slot] = (
                    LaneOutcome(error=lane.error)
                    if lane.error is not None
                    else _finalize(
                        lane, r, sample, names,
                        fraction_sum, temp_sum, temp_max,
                    )
                )
            gone = set(leaving)
            keep = [r for r in range(k) if r not in gone]
            active = [active[r] for r in keep]
            temps = end[keep]
            fraction_sum = fraction_sum[:, keep]
            temp_sum = temp_sum[keep]
            temp_max = temp_max[keep]
            break
    return outcomes


def _finalize(
    lane: _Lane, r, sample, names, fraction_sum, temp_sum, temp_max
) -> LaneOutcome:
    """Assemble one finished lane's RunResult from its stacked row ``r``."""
    if lane.samples == 0:
        return LaneOutcome(error=_no_samples(lane))
    cycles = lane.cycles
    samples = lane.samples
    extra: dict[str, float] = {}
    guard = lane.manager.failsafe
    if guard is not None:
        extra["failsafe_engagements"] = float(guard.engagements)
        extra["failsafe_rejected_samples"] = float(guard.rejected_samples)
        extra["failsafe_degraded_samples"] = float(guard.degraded_samples)
        extra["failsafe_forced_samples"] = float(guard.failsafe_samples)

    history = None
    if lane.record_history:
        # Trim the doubling buffers to the recorded row count; the
        # copies also release the (up to 2x) growth slack.
        history = History(
            sample_cycles=sample,
            names=names,
            max_temp=lane.h_max_temp[:samples].copy(),
            duty=lane.h_duty[:samples].copy(),
            chip_power=lane.h_chip_power[:samples].copy(),
            block_temps=lane.h_temps[:samples].copy(),
            block_powers=lane.h_powers[:samples].copy(),
            block_emergency=lane.h_em[:samples].copy(),
            block_stress=lane.h_st[:samples].copy(),
        )

    emergency = fraction_sum[0, r].tolist()
    stress = fraction_sum[1, r].tolist()
    temp_totals = temp_sum[r].tolist()
    maxima = temp_max[r].tolist()
    result = RunResult(
        benchmark=lane.profile.name,
        policy=lane.policy.name,
        cycles=cycles,
        instructions=lane.committed,
        emergency_fraction=lane.emergency_cycles / cycles,
        stress_fraction=lane.stress_cycles / cycles,
        block_emergency_fraction={
            name: emergency[i] / cycles for i, name in enumerate(names)
        },
        block_stress_fraction={
            name: stress[i] / cycles for i, name in enumerate(names)
        },
        mean_block_temperature={
            name: temp_totals[i] / samples for i, name in enumerate(names)
        },
        max_block_temperature=dict(zip(names, maxima)),
        mean_chip_power=lane.power_sum / samples,
        max_chip_power=lane.power_max,
        energy_joules=lane.energy_joules,
        engaged_fraction=lane.manager.engaged_fraction,
        interrupt_events=lane.manager.interrupts.events,
        interrupt_stall_cycles=lane.interrupt_stalls,
        history=history,
        extra=extra,
    )
    return LaneOutcome(result=result)
