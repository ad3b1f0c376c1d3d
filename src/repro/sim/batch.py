"""Lane-batched simulation: one kernel, many sweep runs at once.

The paper's evaluation is sweep-shaped: every table is a grid of
*independent* (benchmark x policy x seed) runs over one shared
floorplan and sampling configuration.  :class:`BatchEngine` exploits
that independence by running B such runs as lanes of the one sample
kernel, :func:`repro.sim.fast.run_lanes`: the lanes share one stacked
thermal state ``(B, n_blocks)``, and each sampling interval advances
every live lane through

* one stacked :meth:`~repro.thermal.lumped.LumpedThermalModel.
  advance_batch` exponential update,
* one broadcast :meth:`~repro.thermal.lumped.LumpedThermalModel.
  fractions_above` pass over both thresholds and all lanes,
* one vectorized power evaluation.

Only the inherently scalar per-lane work -- the phase bisect, the
seeded jitter draws, the :class:`~repro.dtm.manager.DTMManager`
control decision -- stays in a Python loop, so the per-sample numpy
dispatch overhead (the kernel's dominant cost at these problem sizes)
is amortized over the whole batch.

Bit-identity, not approximate equivalence, is the contract: a
:class:`~repro.sim.fast.FastEngine` run is the same kernel with one
lane, and every stacked expression is the single-lane elementwise
arithmetic broadcast over the leading lane axis; the axis-1 reductions
(``max``, ``sum``) run the same sequential inner loop numpy uses for a
1-D array.  ``tests/test_sim_batch.py`` asserts results, histories,
traces, and metrics equal to per-lane ``FastEngine`` runs, including
ragged lane lengths, injected faults, failsafe engagement, leakage,
sensor placement, and per-lane supply efficiency.

A lane that finishes early (or dies on a non-finite state) leaves the
stacked state while the remaining lanes keep stepping.  Results pop in
spec order regardless of completion order.

The planner (:func:`plan_batches`) groups *compatible* specs -- same
floorplan / machine / thermal / DTM configuration, differing
benchmark, policy, or seed -- into lanes; incompatible or multicore
specs fall back to singleton groups that run through the ordinary
serial path.  :mod:`repro.sim.parallel` composes these groups inside
each pool worker, so ``jobs`` (processes) multiplies with ``batch``
(lanes per kernel).
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.checkpoint import _canonical
from repro.sim.fast import FastEngine, LaneOutcome, run_lanes
from repro.sim.results import RunResult
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


class BatchEngine:
    """Run B independent :class:`FastEngine` simulations in lock-step.

    ``engines`` are *unrun* engines (see
    :func:`~repro.sim.sweep.build_engine`); every engine must share the
    same floorplan, machine, thermal, and DTM configuration -- the
    compatibility :func:`plan_batches` guarantees for grouped specs --
    while benchmark profiles, policies, seeds, sensors, fault
    schedules, failsafe guards, leakage models, sensor placement, and
    supply efficiency are free to differ per lane.

    Results are bit-identical to running each engine's ``run()``
    serially: both go through the one sample kernel,
    :func:`~repro.sim.fast.run_lanes`.  Spans are per lane but time
    shared work: each lane's ``engine.run`` span covers the whole
    group's kernel, and each stacked thermal advance records one
    ``thermal.advance`` span on every profiled live lane.  Per-sample
    ``latency_seconds`` likewise measures the batched step.
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
        for index, engine in enumerate(engines[1:], start=1):
            if repr(_canonical((
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
            return run_lanes(
                self.engines, instructions, max_cycles, warmup_instructions
            )


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
