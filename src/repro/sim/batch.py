"""Lane-batched simulation: one vectorized kernel, many sweeps at once.

The paper's evaluation is sweep-shaped: every table is a grid of
*independent* (benchmark x policy x seed) runs over one shared
floorplan and sampling configuration.  :class:`BatchEngine` exploits
that independence with a structure-of-arrays kernel: B lanes share one
stacked thermal state ``(B, n_blocks)``, and each sampling interval
advances every live lane through

* one stacked :meth:`~repro.thermal.lumped.LumpedThermalModel.
  advance_batch` exponential update,
* one broadcast :meth:`~repro.thermal.lumped.LumpedThermalModel.
  fractions_above` pass over both thresholds and all lanes,
* one vectorized supply/power evaluation.

Only the inherently scalar per-lane work -- the phase bisect, the
seeded jitter draws, and the :class:`~repro.dtm.manager.DTMManager`
control decision -- stays in a Python loop, so the per-sample numpy
dispatch overhead (the serial kernel's dominant cost at 17-block
problem sizes) is amortized over the whole batch.

Bit-identity, not approximate equivalence, is the contract: every
vectorized expression is the same elementwise arithmetic the serial
:class:`~repro.sim.fast.FastEngine` kernel evaluates, merely broadcast
over the leading lane axis, and the axis-1 reductions (``max``,
``sum``, ``mean``) run the same sequential inner loop numpy uses for
the serial kernel's 1-D arrays.  ``tests/test_sim_batch.py`` asserts
results, histories, traces, and metrics equal to per-lane serial runs,
including ragged lane lengths, injected faults, and failsafe
engagement.

Divergence between lanes is handled with masks, not synchronization:
a lane that finishes early (or dies on a non-finite state) is frozen
-- removed from the active row set with its thermal row and
accumulators untouched -- while the remaining lanes keep stepping.
Results pop in spec order regardless of completion order.

The planner (:func:`plan_batches`) groups *compatible* specs -- same
floorplan / machine / thermal / DTM configuration, differing
benchmark, policy, or seed -- into lanes; incompatible or multicore
specs fall back to singleton groups that run through the ordinary
serial path.  :mod:`repro.sim.parallel` composes these groups inside
each pool worker, so ``jobs`` (processes) multiplies with ``batch``
(lanes per kernel).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.power.clock_gating import ClockGatingStyle
from repro.sim.checkpoint import _canonical
from repro.sim.fast import FastEngine, build_phase_tables
from repro.sim.results import History, RunResult
from repro.sim.sweep import _validate_instructions, build_engine


def validate_batch(batch, *, allow_none: bool = False) -> None:
    """Reject batch widths that are bools or < 1.

    Mirrors the ``jobs`` validation in :mod:`repro.sim.parallel`
    (``bool`` is an ``int`` subclass, so ``batch=True`` would silently
    mean "one lane").
    """
    if batch is None and allow_none:
        return
    if isinstance(batch, bool) or not isinstance(batch, int) or batch < 1:
        expected = "a positive int" + (" or None" if allow_none else "")
        raise ConfigError(f"batch must be {expected}, got {batch!r}")


def batch_compatibility_key(spec) -> str | None:
    """Canonical grouping key for a spec, or ``None`` if unbatchable.

    Two specs may share a :class:`BatchEngine` iff they agree on the
    whole simulation *environment* -- floorplan, machine, thermal, and
    DTM configuration -- while benchmark, policy, seed, instruction
    budget, faults, and failsafe are free to differ per lane.
    Multicore specs (``core_benchmarks``) never batch.
    """
    if getattr(spec, "core_benchmarks", ()):
        return None
    return repr(
        _canonical(
            (spec.floorplan, spec.machine, spec.thermal_config,
             spec.dtm_config)
        )
    )


def plan_batches(specs, batch: int, skip=()) -> list[list[int]]:
    """Group spec indices into lane batches of width <= ``batch``.

    Only *consecutive* compatible specs group together, so the results
    (and any checkpoint journal appends) stay in an order the serial
    executor could also have produced.  Specs whose key is ``None``
    (multicore) always form singleton groups.

    ``skip`` names spec indices to leave out of the plan entirely --
    the cross-sweep result cache (:mod:`repro.sim.cache`) passes its
    hit set here so cached lanes drop out of the batch and only the
    misses occupy kernel lanes.  A skipped spec also breaks lane
    adjacency (groups stay contiguous runs of the *original* spec
    list), keeping the plan a strict sub-plan of the uncached one;
    lane grouping never changes bits, so this costs correctness
    nothing and keeps the planner's output easy to reason about.
    """
    validate_batch(batch)
    skip = frozenset(skip)
    groups: list[list[int]] = []
    current: list[int] = []
    current_key: str | None = None
    for index, spec in enumerate(specs):
        if index in skip:
            if current:
                groups.append(current)
            current = []
            current_key = None
            continue
        key = batch_compatibility_key(spec)
        if (
            key is not None
            and key == current_key
            and len(current) < batch
        ):
            current.append(index)
            continue
        if current:
            groups.append(current)
        current = [index]
        current_key = key
    if current:
        groups.append(current)
    return groups


def engine_for_spec(spec, telemetry=None) -> FastEngine:
    """Build the (unrun) :class:`FastEngine` for one lane spec.

    Delegates to :func:`repro.sim.sweep.build_engine` -- the exact
    factory :func:`~repro.sim.sweep.run_one` uses -- so a batched lane
    starts from an engine bit-identical to its serial counterpart.
    """
    if getattr(spec, "core_benchmarks", ()):
        raise SimulationError(
            f"multicore spec {spec.benchmark!r} cannot be lane-batched"
        )
    return build_engine(
        spec.benchmark,
        spec.policy,
        floorplan=spec.floorplan,
        machine=spec.machine,
        thermal_config=spec.thermal_config,
        dtm_config=spec.dtm_config,
        seed=spec.seed,
        record_history=spec.record_history,
        anti_windup=spec.anti_windup,
        setpoint=spec.setpoint,
        fault_schedule=spec.fault_schedule,
        failsafe=spec.failsafe,
        telemetry=telemetry,
    )


@dataclass
class LaneOutcome:
    """Terminal state of one lane: a result or the error that killed it."""

    result: RunResult | None = None
    error: BaseException | None = None


def run_spec_lanes(specs, telemetries=None) -> list[LaneOutcome]:
    """Run compatible specs as lanes of one :class:`BatchEngine`.

    ``telemetries`` is an optional per-lane sequence (parallel workers
    pass per-lane retain-everything sinks that the parent later folds
    in spec order).  Per-lane failures -- bad instruction budgets,
    unknown benchmarks, non-finite simulation states -- are captured in
    that lane's :class:`LaneOutcome`; the other lanes run to completion
    regardless.
    """
    specs = list(specs)
    if telemetries is None:
        telemetries = [None] * len(specs)
    outcomes = [LaneOutcome() for _ in specs]
    engines: list[FastEngine] = []
    lanes: list[int] = []
    budgets: list[float] = []
    for index, (spec, telemetry) in enumerate(zip(specs, telemetries)):
        try:
            budget = _validate_instructions(spec.instructions)
            engine = engine_for_spec(spec, telemetry=telemetry)
        except Exception as error:  # captured, not raised: lane-local
            outcomes[index].error = error
            continue
        engines.append(engine)
        lanes.append(index)
        budgets.append(budget)
    if engines:
        for index, outcome in zip(
            lanes, BatchEngine(engines).run_outcomes(instructions=budgets)
        ):
            outcomes[index] = outcome
    return outcomes


class _Lane:
    """Mutable per-lane kernel state (one serial run's locals)."""

    __slots__ = (
        "engine", "slot", "profile", "policy", "manager", "telemetry",
        "recording", "time_samples", "on_sample", "rng",
        "phase_total", "phase_ends", "phase_activity", "phase_jitter",
        "phase_ipc", "single_phase",
        "instructions", "max_cycles", "budget_remaining",
        "warmup_remaining", "warmup_cycles", "warmup_samples",
        "committed", "total_committed", "cycles",
        "emergency_cycles", "stress_cycles",
        "power_sum", "power_max", "energy_joules",
        "interrupt_stalls", "samples",
        "record_history", "hist_cap", "h_max_temp", "h_duty",
        "h_chip_power", "h_temps", "h_powers", "h_em", "h_st",
        "error",
    )


class BatchEngine:
    """Run B independent :class:`FastEngine` simulations in lock-step.

    ``engines`` are *unrun* engines (see
    :func:`~repro.sim.sweep.build_engine`); every engine must share the
    same floorplan, machine, thermal, and DTM configuration -- the
    compatibility :func:`plan_batches` guarantees for grouped specs --
    while benchmark profiles, policies, seeds, sensors, fault
    schedules, and failsafe guards are free to differ per lane.

    Results are bit-identical to running each engine's ``run()``
    serially.  Two deliberate observability exceptions: each lane's
    ``engine.run`` span covers the whole group's kernel, and the
    stacked thermal call records no per-lane ``thermal.advance`` span
    (it cannot attribute its time to one lane); per-sample
    ``latency_seconds`` measures the batched step, not an isolated
    serial step.
    """

    def __init__(self, engines) -> None:
        engines = list(engines)
        if not engines:
            raise SimulationError("BatchEngine needs at least one lane")
        first = engines[0]
        key = repr(_canonical((
            first.floorplan, first.machine,
            first.thermal_config, first.dtm_config,
        )))
        for index, engine in enumerate(engines):
            if engine.leakage is not None:
                raise SimulationError(
                    f"lane {index}: leakage models cannot be lane-batched"
                )
            if engine._monitored is not None:
                raise SimulationError(
                    f"lane {index}: sensor placement (monitored_blocks) "
                    f"cannot be lane-batched"
                )
            if engine.power_model.gating is not ClockGatingStyle.CC3:
                raise SimulationError(
                    f"lane {index}: only CC3 clock gating is lane-batched"
                )
            if engine.supply_efficiency != first.supply_efficiency:
                raise SimulationError(
                    f"lane {index}: supply_efficiency differs from lane 0"
                )
            if index and repr(_canonical((
                engine.floorplan, engine.machine,
                engine.thermal_config, engine.dtm_config,
            ))) != key:
                raise SimulationError(
                    f"lane {index}: incompatible simulation environment "
                    f"(floorplan/machine/thermal/DTM configuration must "
                    f"match lane 0)"
                )
        self.engines = engines

    def __len__(self) -> int:
        return len(self.engines)

    def run(
        self,
        instructions=2_000_000,
        max_cycles=None,
        warmup_instructions=0,
    ) -> list[RunResult]:
        """Run every lane; raise the earliest (spec-order) lane error.

        Equivalent to serially running each engine and stopping at the
        first failure: lanes *after* a failed lane did execute here,
        but their results are discarded, so the observable behaviour
        (the raised exception) matches the serial loop.
        """
        outcomes = self.run_outcomes(
            instructions, max_cycles, warmup_instructions
        )
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return [outcome.result for outcome in outcomes]

    def run_outcomes(
        self,
        instructions=2_000_000,
        max_cycles=None,
        warmup_instructions=0,
    ) -> list[LaneOutcome]:
        """Run every lane to completion-or-error; never raises per-lane.

        Each argument is a scalar (applied to every lane) or a
        per-lane sequence.  Returns one :class:`LaneOutcome` per lane,
        in lane order.
        """
        count = len(self.engines)
        instructions = _per_lane(instructions, count, "instructions")
        max_cycles = _per_lane(max_cycles, count, "max_cycles")
        warmup_instructions = _per_lane(
            warmup_instructions, count, "warmup_instructions"
        )
        with ExitStack() as spans:
            for engine in self.engines:
                spans.enter_context(engine.telemetry.span("engine.run"))
            return self._run(instructions, max_cycles, warmup_instructions)

    def _run(self, instructions, max_cycles, warmup) -> list[LaneOutcome]:
        first = self.engines[0]
        sample = first.dtm_config.sampling_interval
        sample_seconds = sample * first.machine.cycle_time
        emergency_level = first.thermal_config.emergency_temperature
        stress_level = first.dtm_config.nonct_trigger
        thresholds = (emergency_level, stress_level)
        fetch_supply = first.machine.fetch_width * first.supply_efficiency
        thermal = first.thermal
        peaks = first.power_model.peaks_view
        idle = first.power_model.idle_fraction
        active_frac = 1.0 - idle
        unmonitored_peak = first.floorplan.unmonitored_peak_power
        names = first.floorplan.names
        block_count = len(names)
        count = len(self.engines)

        lanes: list[_Lane] = []
        outcomes = [LaneOutcome() for _ in range(count)]
        temps = np.empty((count, block_count))
        # Stacked block-level accumulators: one fancy-indexed update
        # per sample replaces four small per-lane array ops.
        block_em = np.zeros((count, block_count))
        block_st = np.zeros((count, block_count))
        temp_sum = np.zeros((count, block_count))
        temp_max = np.full((count, block_count), -np.inf)

        for slot, engine in enumerate(self.engines):
            lane = _Lane()
            lane.engine = engine
            lane.slot = slot
            lane.profile = engine.profile
            lane.policy = engine.policy
            lane.manager = engine.manager
            lane.error = None
            budget = instructions[slot]
            if budget <= 0:
                outcomes[slot].error = SimulationError(
                    "instructions must be positive"
                )
                continue
            lane.instructions = budget
            lane_max = max_cycles[slot]
            if lane_max is None:
                lane_max = int(
                    40 * budget / max(0.1, engine.profile.mean_ipc)
                )
            lane.max_cycles = lane_max
            lane.budget_remaining = lane_max
            lane.warmup_remaining = float(warmup[slot])
            lane.warmup_cycles = 0
            lane.warmup_samples = 0

            telemetry = engine.telemetry
            lane.telemetry = telemetry
            lane.recording = telemetry.enabled
            lane.time_samples = False
            on_sample = engine.manager.on_sample
            if lane.recording:
                telemetry.set_context(
                    engine.profile.name, engine.policy.name
                )
                telemetry.meta.update(
                    benchmark=engine.profile.name,
                    policy=engine.policy.name,
                    block_names=list(engine.floorplan.names),
                    sample_cycles=sample,
                    seed=engine.seed,
                    supply_efficiency=engine.supply_efficiency,
                )
                lane.time_samples = telemetry.config.sample_latency
                if telemetry.profiler.enabled:
                    def on_sample(
                        sensed,
                        _base=engine.manager.on_sample,
                        _span=telemetry.profiler.span,
                    ):
                        with _span("dtm.on_sample"):
                            return _base(sensed)
            lane.on_sample = on_sample

            lane.rng = np.random.default_rng(
                np.random.SeedSequence([engine.profile.seed, engine.seed])
            )
            lane.phase_total = engine.profile.total_instructions
            (
                lane.phase_ends,
                lane.phase_activity,
                lane.phase_jitter,
                lane.phase_ipc,
            ) = build_phase_tables(engine.profile, names)
            lane.single_phase = len(lane.phase_ends) == 1

            lane.committed = 0.0
            lane.total_committed = 0.0
            lane.cycles = 0
            lane.emergency_cycles = 0.0
            lane.stress_cycles = 0.0
            lane.power_sum = 0.0
            lane.power_max = 0.0
            lane.energy_joules = 0.0
            lane.interrupt_stalls = 0
            lane.samples = 0

            lane.record_history = engine.record_history
            lane.hist_cap = 0
            if lane.record_history:
                lane.hist_cap = 1024
                lane.h_max_temp = np.empty(lane.hist_cap)
                lane.h_duty = np.empty(lane.hist_cap)
                lane.h_chip_power = np.empty(lane.hist_cap)
                lane.h_temps = np.empty((lane.hist_cap, block_count))
                lane.h_powers = np.empty((lane.hist_cap, block_count))
                lane.h_em = np.empty((lane.hist_cap, block_count))
                lane.h_st = np.empty((lane.hist_cap, block_count))

            temps[slot] = engine.thermal.temperatures_view
            lanes.append(lane)

        # Preallocated structure-of-arrays step buffers (row r of each
        # holds lane ``active[r]`` this sample).
        a_buf = np.empty((count, block_count))
        demand_buf = np.empty(count)
        duty_buf = np.empty(count)
        stall_buf = np.empty(count, dtype=np.int64)
        duties_py: list[float] = [0.0] * count

        active = lanes
        while active:
            k = len(active)
            iter_start = perf_counter() if any(
                lane.time_samples for lane in active
            ) else 0.0
            rows = np.fromiter(
                (lane.slot for lane in active), dtype=np.intp, count=k
            )
            start = temps[rows]
            sensed = start.max(axis=1)
            activity = a_buf[:k]
            demand = demand_buf[:k]
            duty = duty_buf[:k]
            stalls = stall_buf[:k]
            for r, lane in enumerate(active):
                # Scalar per-lane work: phase lookup, seeded jitter
                # draws (per-lane RNG stream, same draw order as the
                # serial kernel), and the DTM control decision.
                if lane.single_phase:
                    index = 0
                else:
                    position = (
                        int(lane.total_committed) % lane.phase_total
                    )
                    index = bisect_right(lane.phase_ends, position)
                jitter = lane.phase_jitter[index]
                if jitter:
                    row = activity[r]
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
                    activity[r] = lane.phase_activity[index]
                    demand_ipc = lane.phase_ipc[index]
                demand[r] = max(0.05, demand_ipc)
                duty_r, stall_r = lane.on_sample(float(sensed[r]))
                duties_py[r] = duty_r
                duty[r] = duty_r
                stalls[r] = stall_r

            # One vectorized pass over all live lanes: identical
            # elementwise arithmetic to the serial kernel, broadcast
            # over the lane axis.
            supply = duty * fetch_supply
            effective = np.minimum(demand, supply)
            ratio = effective / demand
            utilization = activity * ratio[:, None]
            powers = peaks * (idle + active_frac * utilization)
            unmonitored = unmonitored_peak * (
                idle + active_frac * utilization.mean(axis=1)
            )
            chip_power = powers.sum(axis=1) + unmonitored
            end, steady = thermal.advance_batch(start, powers, sample)
            finite = np.isfinite(chip_power) & np.isfinite(end).all(axis=1)
            fractions = thermal.fractions_above(
                start, steady, sample_seconds, thresholds
            )
            em_peaks = fractions[0].max(axis=1)
            st_peaks = fractions[1].max(axis=1)
            sample_committed = effective * np.maximum(0, sample - stalls)

            measuring: list[int] = []
            ok_rows: list[int] = []
            still_active: list[_Lane] = []
            completed: list[_Lane] = []
            for r, lane in enumerate(active):
                if not finite[r]:
                    # Same diagnostics as the serial guard; the lane is
                    # frozen (thermal row untouched) and the others
                    # keep stepping.
                    end_row = end[r]
                    row_finite = np.isfinite(end_row)
                    if not row_finite.all():
                        bad = names[int(np.argmin(row_finite))]
                    else:
                        bad = names[int(np.argmax(end_row))]
                    lane.error = SimulationError(
                        f"non-finite simulation state in profile "
                        f"{lane.profile.name!r}",
                        sample_index=lane.manager.samples - 1,
                        block=bad,
                        duty=duties_py[r],
                        chip_power=float(chip_power[r]),
                        policy=lane.policy.name,
                    )
                    continue
                ok_rows.append(r)
                committed_r = float(sample_committed[r])
                lane.total_committed += committed_r
                lane.budget_remaining -= sample
                if lane.warmup_remaining > 0:
                    lane.warmup_remaining -= committed_r
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
                            duty=duties_py[r],
                            policy=lane.policy.name,
                        )
                        continue
                    still_active.append(lane)
                    continue
                chip_r = float(chip_power[r])
                lane.committed += committed_r
                lane.cycles += sample
                lane.emergency_cycles += float(em_peaks[r]) * sample
                lane.stress_cycles += float(st_peaks[r]) * sample
                lane.power_sum += chip_r
                lane.power_max = max(lane.power_max, chip_r)
                lane.energy_joules += chip_r * sample_seconds
                lane.interrupt_stalls += int(stalls[r])
                lane.samples += 1
                measuring.append(r)
                if lane.record_history:
                    if lane.samples > lane.hist_cap:
                        _grow_lane_history(lane, block_count)
                    row = lane.samples - 1
                    lane.h_max_temp[row] = end[r].max()
                    lane.h_duty[row] = duties_py[r]
                    lane.h_chip_power[row] = chip_r
                    lane.h_temps[row] = end[r]
                    lane.h_powers[row] = powers[r]
                    lane.h_em[row] = fractions[0][r]
                    lane.h_st[row] = fractions[1][r]
                if lane.recording:
                    lane.telemetry.record_sample(
                        index=lane.samples - 1,
                        cycle=lane.cycles,
                        sensed=float(sensed[r]),
                        max_temp=float(end[r].max()),
                        block_temps=end[r],
                        chip_power=chip_r,
                        ipc=committed_r / sample,
                        duty=duties_py[r],
                        emergency_fraction=float(em_peaks[r]),
                        stress_fraction=float(st_peaks[r]),
                        latency_seconds=(
                            perf_counter() - iter_start
                            if lane.time_samples
                            else math.nan
                        ),
                    )
                if (
                    lane.committed < lane.instructions
                    and lane.budget_remaining > 0
                ):
                    still_active.append(lane)
                else:
                    completed.append(lane)

            if measuring:
                m = np.fromiter(measuring, dtype=np.intp)
                g = rows[m]
                block_em[g] += fractions[0][m] * sample
                block_st[g] += fractions[1][m] * sample
                temp_sum[g] += end[m]
                temp_max[g] = np.maximum(temp_max[g], end[m])
            # Finalized only now: the stacked block accumulation above
            # must include the completing lane's last sample.
            for lane in completed:
                outcomes[lane.slot] = self._finalize(
                    lane, sample, names, block_em, block_st,
                    temp_sum, temp_max,
                )
            if ok_rows:
                o = np.fromiter(ok_rows, dtype=np.intp)
                temps[rows[o]] = end[o]
            active = still_active

        for lane in lanes:
            if lane.error is not None:
                outcomes[lane.slot] = LaneOutcome(error=lane.error)
        return outcomes

    def _finalize(
        self, lane, sample, names, block_em, block_st, temp_sum, temp_max
    ) -> LaneOutcome:
        """Assemble one lane's RunResult exactly as the serial kernel."""
        if lane.samples == 0:
            return LaneOutcome(error=SimulationError(
                f"run of profile {lane.profile.name!r} produced no samples",
                policy=lane.policy.name,
                max_cycles=lane.max_cycles,
            ))
        slot = lane.slot
        extra: dict[str, float] = {}
        guard = lane.manager.failsafe
        if guard is not None:
            extra["failsafe_engagements"] = float(guard.engagements)
            extra["failsafe_rejected_samples"] = float(
                guard.rejected_samples
            )
            extra["failsafe_degraded_samples"] = float(
                guard.degraded_samples
            )
            extra["failsafe_forced_samples"] = float(guard.failsafe_samples)
        history = None
        if lane.record_history:
            history = History(
                sample_cycles=sample,
                names=names,
                max_temp=lane.h_max_temp[: lane.samples].copy(),
                duty=lane.h_duty[: lane.samples].copy(),
                chip_power=lane.h_chip_power[: lane.samples].copy(),
                block_temps=lane.h_temps[: lane.samples].copy(),
                block_powers=lane.h_powers[: lane.samples].copy(),
                block_emergency=lane.h_em[: lane.samples].copy(),
                block_stress=lane.h_st[: lane.samples].copy(),
            )
        result = RunResult(
            benchmark=lane.profile.name,
            policy=lane.policy.name,
            cycles=lane.cycles,
            instructions=lane.committed,
            emergency_fraction=lane.emergency_cycles / lane.cycles,
            stress_fraction=lane.stress_cycles / lane.cycles,
            block_emergency_fraction={
                name: float(block_em[slot, i]) / lane.cycles
                for i, name in enumerate(names)
            },
            block_stress_fraction={
                name: float(block_st[slot, i]) / lane.cycles
                for i, name in enumerate(names)
            },
            mean_block_temperature={
                name: float(temp_sum[slot, i]) / lane.samples
                for i, name in enumerate(names)
            },
            max_block_temperature={
                name: float(temp_max[slot, i])
                for i, name in enumerate(names)
            },
            mean_chip_power=lane.power_sum / lane.samples,
            max_chip_power=lane.power_max,
            energy_joules=lane.energy_joules,
            engaged_fraction=lane.manager.engaged_fraction,
            interrupt_events=lane.manager.interrupts.events,
            interrupt_stall_cycles=lane.interrupt_stalls,
            history=history,
            extra=extra,
        )
        return LaneOutcome(result=result)


def _grow_lane_history(lane: _Lane, block_count: int) -> None:
    """Double one lane's history buffers (amortized growth)."""
    lane.hist_cap *= 2
    cap = lane.hist_cap
    for attr in (
        "h_max_temp", "h_duty", "h_chip_power",
        "h_temps", "h_powers", "h_em", "h_st",
    ):
        buffer = getattr(lane, attr)
        grown = np.empty((cap, *buffer.shape[1:]))
        grown[: len(buffer)] = buffer
        setattr(lane, attr, grown)


def _per_lane(value, count: int, name: str) -> list:
    """Normalize a scalar-or-sequence argument to one value per lane."""
    if isinstance(value, (list, tuple, np.ndarray)):
        values = list(value)
        if len(values) != count:
            raise SimulationError(
                f"{name} sequence has {len(values)} entries "
                f"for {count} lanes"
            )
        return values
    return [value] * count
