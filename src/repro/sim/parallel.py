"""The sweep executor: run (benchmark x policy x seed) matrices in
process or over worker processes, tolerating failures along the way.

Every experiment driver funnels through :func:`repro.sim.sweep.run_suite`
or :func:`run_specs`, and a full paper reproduction runs hundreds of
independent simulations.  Each run is CPU-bound pure Python/NumPy with
no shared mutable state, which makes the matrix embarrassingly parallel
-- but only if the observability guarantees survive the fan-out.  One
runner, :class:`_OutcomeRunner`, executes every spec: serially or on a
:class:`~concurrent.futures.ProcessPoolExecutor`, lane-batched or not,
journaled and cached or not.  The entry points differ only in how they
configure it and what they return:

* :func:`run_outcomes` + :class:`SweepOptions` / :class:`RetryPolicy`
  -- the fault-tolerant sweep: per-spec wall-clock timeouts, bounded
  deterministic-backoff retries, ``BrokenProcessPool`` recovery
  (rebuild the pool, re-run only the lost in-flight specs, degrade to
  in-process serial execution after repeated pool deaths), failure
  isolation as structured :class:`SpecOutcome` values, and a
  crash-safe checkpoint journal (:mod:`repro.sim.checkpoint`) for
  ``--resume``;
* :func:`run_specs` -- results only.  With no ``options`` and no
  ``cluster`` anywhere it is *fail-fast*: the same runner with no
  retries, which stops at the first failed spec in spec order, folds
  the telemetry of the specs already settled, flushes the cache, and
  re-raises that spec's original exception;
* :func:`execute_payloads` -- the shard worker's entry point: the same
  runner, one attempt per spec, outcomes as settled payload tuples;
* :class:`WorkSpec` -- a picklable, self-contained description of one
  run (names + frozen config dataclasses, never live objects), so a
  worker process can rebuild the exact engine the serial path would
  have built;
* :func:`matrix_specs` -- build the (benchmark x policy x seed) spec
  list in the canonical benchmark-major order used by ``run_suite``;
* ``set_default_jobs`` / ``set_default_batch`` /
  ``set_default_sweep_options`` / ``set_default_cluster`` /
  ``set_default_cache`` -- process-wide defaults so a driver's
  ``--jobs`` / ``--batch`` / ``--retries`` / ``--cluster`` /
  ``--cache`` reach every ``run_suite`` call inside table modules
  without threading parameters through each one.

Determinism and telemetry parity
--------------------------------

Results are returned in spec order regardless of completion order, and
every engine is seeded from its spec alone, so ``jobs=N`` and
``batch=B`` are bit-identical to ``jobs=1`` (property-tested).
Telemetry follows one model at every ``jobs`` and ``batch``: each run
records into a *retain-everything* worker-local
:class:`~repro.telemetry.core.Telemetry` (huge capacity, no decimation)
and the runner re-emits each run's records onto the sink via
:func:`~repro.telemetry.core.merge_telemetry` in spec order as soon as
every earlier spec has settled, dropping each local once folded, so a
sweep holds only the locals of runs that finished ahead of a slower
earlier spec.  Trace decimation is a pure function of the emit
sequence, so the sink retains the exact records, events, and metrics a
single shared sink would have.  Two documented differences: a merged
gauge's ``value`` is pinned to its extreme (merged updates have no
global order), and profiler spans merge as statistics (counts and
durations add, min/max combine) that are not nested under any span
open on the sink, such as ``sweep.run_suite``.

The fault-tolerant layer preserves the same guarantee: a failed attempt
contributes *no* telemetry (only the final successful attempt of each
spec is folded, in spec order), and a ``--resume`` sweep re-folds the
journaled telemetry of already-completed specs in spec order, so its
results and retained traces are bit-identical to an uninterrupted sweep
(property-tested).  Journal and cache payloads carry no spans.
Orchestration diagnostics -- ``sweep.retry``, ``sweep.timeout``,
``sweep.pool_crash``, ``sweep.degraded``, ``sweep.spec_failed``,
``sweep.resume`` events on the ``repro.trace/v1`` stream -- are the
deliberate exception: they record the interruption history itself and
are excluded from the parity guarantee (see docs/robustness.md).
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
)
from concurrent.futures import (
    TimeoutError as FuturesTimeoutError,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.config import (
    DTMConfig,
    FailsafeConfig,
    MachineConfig,
    TelemetryConfig,
    ThermalConfig,
)
from repro.control.pid import AntiWindup
from repro.errors import ConfigError, SweepError
from repro.faults import FaultSchedule
from repro.sim.batch import (
    batch_compatibility_key,
    run_spec_lanes,
    validate_batch,
)
from repro.sim.checkpoint import (
    CheckpointJournal,
    fold_saved_telemetry,
    load_checkpoint,
    result_from_dict,
    spec_fingerprint,
)
from repro.sim.results import RunResult
from repro.sim.sweep import DEFAULT_INSTRUCTIONS, run_one
from repro.telemetry.core import Telemetry, ensure_telemetry, merge_telemetry
from repro.thermal.floorplan import Floorplan

#: Worker-local trace/event capacity: effectively "retain everything".
#: Workers must not decimate or drop, because the parent re-emits their
#: records onto the sink, whose own retention policy then applies --
#: decimating twice would diverge from the serial emit sequence.
_RETAIN_ALL = 1 << 30

#: Process-wide default for ``jobs=None`` (1 = classic serial sweep).
_DEFAULT_JOBS = 1

#: Process-wide default for ``batch=None`` (1 = no lane batching).
_DEFAULT_BATCH = 1

#: Process-wide default for ``options=None`` (None = classic fail-fast
#: sweep with no retries, timeouts, or checkpointing).
_DEFAULT_OPTIONS: "SweepOptions | None" = None

#: Process-wide default for ``cluster=None`` (None = run locally).
_DEFAULT_CLUSTER = None


def _validate_jobs(jobs, *, allow_none: bool = False) -> None:
    if jobs is None and allow_none:
        return
    # bool is an int subclass; set_default_jobs(True) used to slip
    # through and silently mean "one worker".
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0:
        expected = "a non-negative int" + (" or None" if allow_none else "")
        raise ConfigError(f"jobs must be {expected}, got {jobs!r}")


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (``0`` = all cores).

    Drivers wire their ``--jobs`` flag here so every ``run_suite`` /
    ``run_specs`` call that does not pass an explicit ``jobs`` fans out.
    """
    global _DEFAULT_JOBS
    _validate_jobs(jobs)
    _DEFAULT_JOBS = jobs


def get_default_jobs() -> int:
    """The process-wide default worker count (see :func:`set_default_jobs`)."""
    return _DEFAULT_JOBS


def resolve_jobs(jobs: int | None, tasks: int) -> int:
    """Effective worker count for ``tasks`` runs.

    ``None`` defers to the process-wide default; ``0`` means "all
    cores"; the result is clamped to ``[1, tasks]`` so a two-run sweep
    never spawns eight idle workers.
    """
    _validate_jobs(jobs, allow_none=True)
    # Same bool-is-an-int edge as jobs: resolve_jobs(2, True) used to
    # silently clamp every sweep to one worker.
    if isinstance(tasks, bool) or not isinstance(tasks, int):
        raise ConfigError(f"tasks must be an int, got {tasks!r}")
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, max(1, tasks)))


def set_default_batch(batch: int) -> None:
    """Set the process-wide default lane-batch width (1 = no batching).

    Drivers wire their ``--batch`` flag here so every ``run_specs`` /
    ``run_outcomes`` call that does not pass an explicit ``batch``
    groups compatible specs into one vectorized
    :class:`~repro.sim.batch.BatchEngine` kernel (composing with
    process-level ``jobs`` inside each worker).
    """
    global _DEFAULT_BATCH
    validate_batch(batch)
    _DEFAULT_BATCH = batch


def get_default_batch() -> int:
    """The process-wide default batch width (see :func:`set_default_batch`)."""
    return _DEFAULT_BATCH


def resolve_batch(batch: int | None) -> int:
    """Effective lane-batch width (``None`` defers to the default)."""
    validate_batch(batch, allow_none=True)
    return _DEFAULT_BATCH if batch is None else batch


def set_default_sweep_options(options: "SweepOptions | None") -> None:
    """Set the process-wide default :class:`SweepOptions`.

    Drivers wire their ``--retries/--timeout/--checkpoint/--resume/
    --strict`` flags here so every ``run_suite`` / ``run_specs`` call
    that does not pass explicit ``options`` runs under the same
    fault-tolerance policy.  ``None`` restores the classic fail-fast
    behaviour.
    """
    global _DEFAULT_OPTIONS
    if options is not None and not isinstance(options, SweepOptions):
        raise ConfigError(
            f"options must be a SweepOptions or None, got {options!r}"
        )
    _DEFAULT_OPTIONS = options


def get_default_sweep_options() -> "SweepOptions | None":
    """The process-wide default sweep options (``None`` = classic)."""
    return _DEFAULT_OPTIONS


def set_default_cluster(cluster) -> None:
    """Set the process-wide default shard cluster (``None`` = local).

    Drivers wire their ``--cluster`` flag here so every ``run_suite`` /
    ``run_outcomes`` call that does not pass an explicit ``cluster``
    serves its specs to distributed workers (see
    :mod:`repro.sim.distributed`) instead of executing locally.
    """
    global _DEFAULT_CLUSTER
    if cluster is not None:
        # Function-level import: repro.sim.distributed builds on this
        # module, so a top-level import would be circular.
        from repro.sim.distributed.protocol import ClusterConfig

        if not isinstance(cluster, ClusterConfig):
            raise ConfigError(
                f"cluster must be a ClusterConfig or None, got {cluster!r}"
            )
    _DEFAULT_CLUSTER = cluster


def get_default_cluster():
    """The process-wide default shard cluster (``None`` = run locally)."""
    return _DEFAULT_CLUSTER


#: Process-wide default for ``cache=None``.  ``None`` defers to the
#: ``REPRO_CACHE`` environment variable (unset = no caching); ``False``
#: disables caching outright; a string is a validated directory path.
_DEFAULT_CACHE: str | bool | None = None


def set_default_cache(cache) -> None:
    """Set the process-wide default result-cache directory.

    Drivers wire their ``--cache`` / ``--no-cache`` flags here so every
    ``run_suite`` / ``run_specs`` call consults the cross-sweep result
    cache (:mod:`repro.sim.cache`).  Accepts a directory path
    (validated immediately, so a bad ``--cache`` fails at the command
    line rather than mid-sweep), ``False`` to disable caching even when
    ``REPRO_CACHE`` is set (``--no-cache``), or ``None`` to restore the
    environment-driven default.  A *path* is remembered, not an open
    store: each sweep opens its own
    :class:`~repro.sim.cache.ResultCache`, so no store file handle is
    ever shared across a pool fork.
    """
    global _DEFAULT_CACHE
    if cache is None or cache is False:
        _DEFAULT_CACHE = cache
        return
    # Function-level import: repro.sim.cache builds on the checkpoint
    # codec and is only needed when caching is actually requested.
    from repro.sim.cache import ResultCache, resolve_cache_dir

    if isinstance(cache, ResultCache):
        raise ConfigError(
            "set_default_cache takes a directory path, not an open "
            "ResultCache (open handles must not cross pool forks); "
            "pass cache=... per sweep for an explicit store"
        )
    _DEFAULT_CACHE = str(resolve_cache_dir(cache))


def get_default_cache() -> str | bool | None:
    """The process-wide default cache directory (see :func:`set_default_cache`)."""
    return _DEFAULT_CACHE


def resolve_cache(cache):
    """The effective :class:`~repro.sim.cache.ResultCache`, or ``None``.

    Precedence: explicit argument > process-wide default
    (:func:`set_default_cache`) > the ``REPRO_CACHE`` environment
    variable > no cache; ``False`` at any link stops the chain (that is
    what makes ``--no-cache`` meaningful under ``REPRO_CACHE``).  An
    already-open :class:`~repro.sim.cache.ResultCache` passes through
    untouched; a path opens a fresh store for this sweep.
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    if cache is None:
        cache = os.environ.get("REPRO_CACHE") or None
    if cache is None or cache is False:
        return None
    from repro.sim.cache import ResultCache

    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _validate_finite(
    name: str, value, minimum: float, inclusive: bool = True
) -> None:
    """Require a finite, non-bool real ``>= minimum`` (``>`` if exclusive)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value < minimum
        or (value == minimum and not inclusive)
    ):
        bound = f"{'>=' if inclusive else '>'} {minimum}"
        raise ConfigError(
            f"{name} must be a finite number {bound}, got {value!r}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic (jitter-free) backoff.

    ``delay(k)`` for the k-th retry (1-based) is
    ``backoff_seconds * backoff_multiplier**(k-1)``, capped at
    ``max_backoff_seconds``.  No randomness: two identical sweeps retry
    on an identical schedule, keeping fault-injection tests and resumed
    sweeps reproducible.  The default (``max_retries=0``) never
    retries; failures are still isolated per spec.
    """

    max_retries: int = 0
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 60.0

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_retries, bool)
            or not isinstance(self.max_retries, int)
            or self.max_retries < 0
        ):
            raise ConfigError(
                f"max_retries must be a non-negative int, "
                f"got {self.max_retries!r}"
            )
        # NaN compares false against every bound, so it used to slip
        # through and turn into a 60 s wait or a time.sleep(nan) error.
        _validate_finite("backoff_seconds", self.backoff_seconds, 0)
        _validate_finite("backoff_multiplier", self.backoff_multiplier, 1)
        _validate_finite(
            "max_backoff_seconds", self.max_backoff_seconds, 0
        )

    def delay(self, retry_number: int) -> float:
        """Backoff before the given retry (1-based), in seconds."""
        if retry_number < 1:
            raise ConfigError("retry_number is 1-based")
        if self.backoff_seconds <= 0:
            return 0.0
        return min(
            self.max_backoff_seconds,
            self.backoff_seconds
            * self.backoff_multiplier ** (retry_number - 1),
        )


@dataclass(frozen=True)
class SweepOptions:
    """Fault-tolerance configuration for one sweep.

    * ``retry`` -- per-spec retry budget and backoff schedule.
    * ``timeout_seconds`` -- per-spec wall clock, measured from the
      moment the spec starts on a worker.  Enforced only when running
      on a process pool (a hung worker is terminated and the pool
      rebuilt); in-process serial execution cannot preempt a hung
      spec, so ``jobs=1`` with a timeout runs on a one-worker pool.
    * ``checkpoint_path`` / ``resume`` -- the crash-safe journal (see
      :mod:`repro.sim.checkpoint`).  ``resume=True`` skips specs whose
      outcomes the journal already holds; without it an existing
      journal is replaced.
    * ``strict`` -- raise one aggregated
      :class:`~repro.errors.SweepError` after the sweep if any spec
      failed permanently.  The default isolates failures as
      ``SpecOutcome.error`` and keeps the completed results.
    * ``max_pool_rebuilds`` -- pool deaths (worker crash or timeout
      kill) tolerated before degrading to in-process serial execution
      for the remainder of the sweep -- the sweep-level analogue of
      the failsafe guard's open-loop fallback: keep producing results
      even when the fancy machinery is on fire.  Note the degraded
      mode cannot enforce timeouts and a worker crash becomes fatal.
    * ``window_factor`` -- bound on in-flight submissions
      (``window_factor * jobs``; a batched group is one submission),
      so multi-thousand-spec matrices do not hold every pickled spec
      and pending result in memory.
    * ``batch`` -- lane-batch width (see :mod:`repro.sim.batch`):
      consecutive compatible specs run through one vectorized
      :class:`~repro.sim.batch.BatchEngine` kernel, inside each pool
      worker when ``jobs > 1``.  ``None`` defers to
      :func:`get_default_batch`.  A batched group's wall-clock timeout
      allowance is ``timeout_seconds`` *per lane*; a group that
      exceeds it is unattributable to one lane, so its lanes requeue
      uncharged as batching-exempt singletons.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout_seconds: float | None = None
    checkpoint_path: str | Path | None = None
    resume: bool = False
    strict: bool = False
    max_pool_rebuilds: int = 3
    window_factor: int = 4
    batch: int | None = None

    def __post_init__(self) -> None:
        validate_batch(self.batch, allow_none=True)
        if self.timeout_seconds is not None:
            # An infinite deadline overflows future.result(timeout=...),
            # and True used to mean one second.
            _validate_finite(
                "timeout_seconds", self.timeout_seconds, 0, inclusive=False
            )
        if self.resume and self.checkpoint_path is None:
            raise ConfigError("resume=True requires a checkpoint_path")
        if (
            isinstance(self.max_pool_rebuilds, bool)
            or not isinstance(self.max_pool_rebuilds, int)
            or self.max_pool_rebuilds < 0
        ):
            raise ConfigError(
                f"max_pool_rebuilds must be a non-negative int, "
                f"got {self.max_pool_rebuilds!r}"
            )
        if (
            isinstance(self.window_factor, bool)
            or not isinstance(self.window_factor, int)
            or self.window_factor < 1
        ):
            raise ConfigError(
                f"window_factor must be a positive int, "
                f"got {self.window_factor!r}"
            )


@dataclass(frozen=True)
class SpecFailure:
    """The captured cause of one spec's permanent failure.

    ``kind`` is the failure channel: ``"error"`` (the spec raised),
    ``"timeout"`` (exceeded the per-spec wall clock), or ``"crash"``
    (the worker process died, e.g. ``BrokenProcessPool``).
    """

    kind: str
    exc_type: str
    message: str
    traceback: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.exc_type}: {self.message}"


@dataclass
class SpecOutcome:
    """One spec's structured sweep outcome: a result or a captured error."""

    spec: WorkSpec
    index: int
    result: RunResult | None = None
    error: SpecFailure | None = None
    #: Attempts actually executed (1 = first try succeeded).  Resumed
    #: outcomes report the journaled count.
    attempts: int = 1
    #: True when the outcome was loaded from the checkpoint journal
    #: instead of being re-run.
    from_checkpoint: bool = False
    #: True when the outcome was replayed from the cross-sweep result
    #: cache (:mod:`repro.sim.cache`) instead of being executed.
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """Whether the spec produced a result."""
        return self.error is None


@dataclass(frozen=True)
class WorkSpec:
    """One self-contained simulation: everything a worker needs, by value.

    Only names and frozen config dataclasses -- never live policy,
    sensor, or engine objects -- so the spec pickles cheaply and the
    worker rebuilds the run through the exact same
    :func:`~repro.sim.sweep.run_one` factory path the serial sweep
    uses.
    """

    benchmark: str
    policy: str
    instructions: float = DEFAULT_INSTRUCTIONS
    seed: int = 0
    floorplan: Floorplan | None = None
    machine: MachineConfig | None = None
    thermal_config: ThermalConfig | None = None
    dtm_config: DTMConfig | None = None
    record_history: bool = False
    anti_windup: AntiWindup = AntiWindup.CONDITIONAL
    setpoint: float | None = None
    fault_schedule: FaultSchedule | None = None
    failsafe: FailsafeConfig | None = None
    #: Non-empty marks a *multicore* spec: per-core benchmark names run
    #: on a :class:`~repro.multicore.engine.MulticoreEngine` (tiled
    #: floorplan, ``policy`` shared by every core, optional
    #: ``coordinator``).  Multicore specs never lane-batch but ride the
    #: same orchestrated executor (jobs, retries, checkpointing).
    core_benchmarks: tuple[str, ...] = ()
    #: Coordinator name for multicore specs (e.g. ``"proportional"``).
    coordinator: str | None = None
    #: Extra identifying payload carried through to the caller (e.g. a
    #: per-driver label); not consumed by the executor itself.
    tag: tuple = field(default_factory=tuple)

    @property
    def key(self) -> tuple[str, str, int]:
        """The canonical (benchmark, policy, seed) matrix coordinate."""
        return (self.benchmark, self.policy, self.seed)


def matrix_specs(
    benchmarks: Iterable[str],
    policies: Iterable[str],
    seeds: Iterable[int] = (0,),
    include_baseline: bool = False,
    **common,
) -> list[WorkSpec]:
    """Specs for the full matrix in canonical benchmark-major order.

    The order (benchmark, then policy, then seed) matches the serial
    ``run_suite`` loop, so telemetry folded back in spec order
    reproduces the serial emit sequence.  ``common`` keyword arguments
    (``instructions``, configs, ...) are applied to every spec.
    """
    chosen_policies = list(policies)
    if include_baseline and "none" not in chosen_policies:
        chosen_policies.insert(0, "none")
    return [
        WorkSpec(benchmark=benchmark, policy=policy, seed=seed, **common)
        for benchmark in benchmarks
        for policy in chosen_policies
        for seed in seeds
    ]


def _worker_telemetry_config(
    sink_config: TelemetryConfig | None,
) -> TelemetryConfig:
    """Retain-everything local telemetry for one worker run.

    The profiling and sample-latency switches are inherited from the
    sink, so merged spans and the latency histogram see the same calls
    and observations a shared sink would have.
    """
    sink_config = sink_config if sink_config is not None else TelemetryConfig()
    return TelemetryConfig(
        trace_capacity=_RETAIN_ALL,
        trace_mode="decimate",
        event_capacity=_RETAIN_ALL,
        profile=sink_config.profile,
        sample_latency=sink_config.sample_latency,
    )


def _execute_multicore(spec: WorkSpec, telemetry):
    """Run one multicore spec on a :class:`MulticoreEngine`."""
    # Function-level import: repro.multicore builds on repro.sim.
    from repro.multicore.engine import MulticoreEngine

    for name, value, default in (
        ("floorplan", spec.floorplan, None),
        ("fault_schedule", spec.fault_schedule, None),
        ("setpoint", spec.setpoint, None),
        ("record_history", spec.record_history, False),
        ("anti_windup", spec.anti_windup, AntiWindup.CONDITIONAL),
    ):
        if value != default:
            raise ConfigError(
                f"multicore specs do not support {name}={value!r}"
            )
    engine = MulticoreEngine(
        list(spec.core_benchmarks),
        policy=spec.policy,
        coordinator=spec.coordinator,
        machine=spec.machine,
        thermal_config=spec.thermal_config,
        dtm_config=spec.dtm_config,
        seed=spec.seed,
        failsafe=spec.failsafe,
        telemetry=telemetry,
    )
    return engine.run(instructions=spec.instructions)


def _execute(spec: WorkSpec, telemetry) -> RunResult:
    """Run one spec in-process against the given telemetry sink."""
    if spec.core_benchmarks:
        return _execute_multicore(spec, telemetry)
    return run_one(
        spec.benchmark,
        spec.policy,
        instructions=spec.instructions,
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

def _local_telemetry(
    telemetry_config: TelemetryConfig | None,
) -> Telemetry | None:
    """One run's worker-local sink (``None`` when telemetry is off)."""
    return (
        Telemetry(telemetry_config) if telemetry_config is not None else None
    )


def _run_spec(
    spec: WorkSpec, telemetry_config: TelemetryConfig | None
) -> tuple[RunResult, Telemetry | None]:
    """Worker entry point: run one spec with optional local telemetry.

    Module-level (picklable by reference).  Returns the result plus the
    worker's whole local :class:`Telemetry` -- plain dataclass/list
    state, so it pickles -- for the parent to fold into the sink.
    """
    local = _local_telemetry(telemetry_config)
    result = _execute(spec, local)
    return result, local


def _error_payload(error: BaseException, portable: bool = False) -> tuple:
    """A settled failure: ``("error", exc_type, message, traceback, exc)``.

    ``exc`` is the exception itself, which a fail-fast sweep re-raises.
    A ``portable`` payload is about to cross a process boundary, so it
    keeps the exception only if it survives a pickle round trip: one
    lane's unpicklable exception must not poison its whole group's
    result transfer.
    """
    exc = error
    if portable:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            exc = None
    return (
        "error",
        type(error).__name__,
        str(error),
        "".join(traceback_module.format_exception(error)),
        exc,
    )


def _spec_payload(
    spec: WorkSpec, telemetry_config: TelemetryConfig | None
) -> tuple:
    """Run one spec in-process: ``("ok", result, local)`` or an error."""
    try:
        result, local = _run_spec(spec, telemetry_config)
    except Exception as error:
        return _error_payload(error)
    return ("ok", result, local)


def _run_group_payloads(
    specs: Sequence[WorkSpec],
    telemetry_config: TelemetryConfig | None,
    portable: bool = True,
) -> list[tuple]:
    """Run compatible specs as one batched kernel; one payload per lane.

    Each payload is ``("ok", result, local_telemetry)`` or an
    :func:`_error_payload`, in lane order.  Lane failures settle here,
    so one lane's failure never costs its neighbours their results.
    Module-level (picklable by reference) as a pool worker entry point;
    in-process callers pass ``portable=False``.
    """
    locals_ = [_local_telemetry(telemetry_config) for _ in specs]
    return [
        ("ok", outcome.result, local)
        if outcome.error is None
        else _error_payload(outcome.error, portable)
        for outcome, local in zip(run_spec_lanes(specs, locals_), locals_)
    ]


def _task_payloads(lanes: list, value) -> list[tuple]:
    """Lane payloads of one finished pool task.

    A singleton ran :func:`_run_spec`, which returns ``(result,
    local)``; a group ran :func:`_run_group_payloads`.
    """
    return [("ok", *value)] if len(lanes) == 1 else value


def _submission_window(jobs: int, window_factor: int = 4) -> int:
    """In-flight submission bound: keep workers fed, memory bounded.

    Submitting all N futures up front holds every pickled spec and
    every pending pickled result in memory at once; a window of
    ``window_factor * jobs`` keeps the pool saturated (workers never
    wait on the collector) while bounding both.
    """
    return max(1, window_factor) * max(1, jobs)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly tear down a pool whose workers may be hung.

    ``shutdown`` alone waits for running work -- useless against a hung
    or wedged worker -- so terminate the worker processes first.  Uses
    the executor's private process table; guarded so a stdlib layout
    change degrades to a plain (blocking-free) shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - platform-specific
            pass
    pool.shutdown(wait=False, cancel_futures=True)

def run_specs(
    specs: Sequence[WorkSpec],
    jobs: int | None = None,
    telemetry=None,
    options: "SweepOptions | None" = None,
    batch: int | None = None,
    cluster=None,
    cache=None,
) -> list[RunResult]:
    """Execute specs, serially or on a process pool; results in spec order.

    ``jobs`` (``None`` defers to :func:`get_default_jobs`, ``0`` means
    all cores) fans the specs out over worker processes, and ``batch``
    (``None`` defers to :func:`get_default_batch`) groups consecutive
    compatible specs into one vectorized
    :class:`~repro.sim.batch.BatchEngine` kernel, inside each pool
    worker when ``jobs > 1``.  ``cache`` (``None`` defers to
    :func:`resolve_cache`) replays previously completed specs from the
    cross-sweep result cache instead of running them, and stores fresh
    results.  Results are bit-identical whatever the combination, and
    every run's telemetry folds into ``telemetry`` in spec order (see
    the module docstring).

    ``options`` or ``cluster`` (or the process-wide defaults installed
    by :func:`set_default_sweep_options` / :func:`set_default_cluster`)
    route execution through :func:`run_outcomes`: failing specs yield
    ``None`` entries in the returned list (or, with ``options.strict``,
    one aggregated :class:`~repro.errors.SweepError` at the end).  With
    neither anywhere, the sweep is fail-fast: it stops at the first
    failed spec in spec order and re-raises that spec's own exception,
    after folding the telemetry of the specs already settled and
    storing their results in the cache.  A worker crash, which leaves
    no exception to re-raise, surfaces as a
    :class:`~repro.errors.SweepError`.
    """
    specs = list(specs)
    if options is None:
        options = _DEFAULT_OPTIONS
    if cluster is None:
        cluster = _DEFAULT_CLUSTER
    if options is not None or cluster is not None:
        outcomes = run_outcomes(
            specs, jobs=jobs, telemetry=telemetry, options=options,
            batch=batch, cluster=cluster, cache=cache,
        )
    else:
        outcomes = _OutcomeRunner(
            specs, jobs, telemetry, SweepOptions(), batch, cache,
            fail_fast=True,
        ).run()
    return [outcome.result for outcome in outcomes]


def run_outcomes(
    specs: Sequence[WorkSpec],
    jobs: int | None = None,
    telemetry=None,
    options: "SweepOptions | None" = None,
    batch: int | None = None,
    cluster=None,
    cache=None,
) -> list[SpecOutcome]:
    """Fault-tolerantly execute specs; structured outcomes in spec order.

    The resilient counterpart of :func:`run_specs`: every spec yields a
    :class:`SpecOutcome` -- a result, or a :class:`SpecFailure`
    capturing the exception/traceback, timeout, or worker crash that
    exhausted its retry budget -- and one spec's failure never aborts
    the rest of the sweep.  See :class:`SweepOptions` for the retry,
    timeout, checkpoint/resume, and strict-mode knobs, and the module
    docstring for the determinism guarantees.

    ``cluster`` (or a default installed via
    :func:`set_default_cluster`) serves the specs to distributed
    workers through a :class:`~repro.sim.distributed.ShardCoordinator`
    instead of executing locally; ``jobs`` and ``batch`` then apply on
    each *worker's* command line, not here.  Outcomes, telemetry, and
    checkpoint behaviour are bit-identical either way.

    ``cache`` (``None`` defers to :func:`resolve_cache`) replays
    previously completed specs from the cross-sweep result cache
    before any execution or leasing happens (``from_cache=True`` on
    their outcomes); fresh successes write back.
    """
    specs = list(specs)
    if options is None:
        options = _DEFAULT_OPTIONS if _DEFAULT_OPTIONS is not None else SweepOptions()
    if cluster is None:
        cluster = _DEFAULT_CLUSTER
    if cluster is not None:
        # Function-level import: repro.sim.distributed builds on this
        # module.  The coordinator applies the same strict-mode
        # aggregation itself, so return its outcomes directly.
        from repro.sim.distributed.coordinator import run_cluster_outcomes

        return run_cluster_outcomes(
            specs,
            cluster,
            options=options,
            telemetry=ensure_telemetry(telemetry),
            cache=cache,
        )
    outcomes = _OutcomeRunner(
        specs, jobs, telemetry, options, batch, cache
    ).run()
    failures = [o for o in outcomes if o.error is not None]
    if failures and options.strict:
        detail = "; ".join(
            f"{o.spec.benchmark}/{o.spec.policy}[seed={o.spec.seed}] "
            f"{o.error}"
            for o in failures[:5]
        )
        if len(failures) > 5:
            detail += f"; ... {len(failures) - 5} more"
        raise SweepError(
            f"{len(failures)} of {len(specs)} specs failed permanently: "
            f"{detail}",
            failures,
        )
    return outcomes


def execute_payloads(
    specs: Sequence[WorkSpec],
    jobs: int | None = None,
    batch: int | None = None,
    telemetry_config: TelemetryConfig | None = None,
) -> list[tuple]:
    """Run specs locally; one settled payload per spec, in spec order.

    The shard worker's execution entry point
    (:mod:`repro.sim.distributed.worker`): the local runner with
    process-level ``jobs`` and lane-level ``batch``, one attempt per
    spec and no sink, journal or cache.  Each outcome maps to
    ``("ok", result, local_telemetry)`` or ``("error", exc_type,
    message, traceback)``, so one spec's failure never poisons its
    neighbours.  Retry/backoff policy stays with the coordinator.  A
    local pool death re-runs the lost specs one at a time, and a spec
    that kills its own worker settles as a ``BrokenProcessPool`` error.
    """
    runner = _OutcomeRunner(
        list(specs), jobs, None, SweepOptions(), batch, cache=False,
        config=telemetry_config,
    )
    return [
        ("ok", outcome.result, runner._locals[outcome.index])
        if outcome.ok
        else (
            "error",
            outcome.error.exc_type,
            outcome.error.message,
            outcome.error.traceback,
        )
        for outcome in runner.run()
    ]


class _OutcomeRunner:
    """One sweep execution: state + the retry/rebuild loop.

    The only code that executes specs.  ``jobs``, ``batch`` and
    ``cache`` resolve exactly as in :func:`run_specs`.  A ``fail_fast``
    runner (``options`` must allow no retries) raises the first
    permanent failure's original exception instead of isolating it.
    ``config`` overrides the worker-local telemetry configuration that
    is otherwise derived from the sink (the shard worker has no sink).
    """

    def __init__(
        self,
        specs: list[WorkSpec],
        jobs: int | None,
        telemetry,
        options: SweepOptions,
        batch: int | None = None,
        cache=None,
        *,
        fail_fast: bool = False,
        config: TelemetryConfig | None = None,
    ) -> None:
        self.specs = specs
        self.sink = ensure_telemetry(telemetry)
        self.jobs = resolve_jobs(jobs, len(specs))
        # Explicit argument > options.batch > process-wide default.
        self.batch = batch = resolve_batch(
            options.batch if batch is None else batch
        )
        self.options = options
        self.fail_fast = fail_fast
        #: The cross-sweep result cache, or None (see resolve_cache).
        self.cache = resolve_cache(cache)
        #: Per-spec cache keys, computed only when the cache is on.
        self._cache_keys: list[str | None] = [None] * len(specs)
        #: Per-spec lane-compatibility keys (None = never batch).
        self._batch_keys = (
            [batch_compatibility_key(spec) for spec in specs]
            if batch > 1
            else None
        )
        #: Specs banned from batching: after an unattributable group
        #: failure (timeout, group-level error) its lanes re-run as
        #: singletons so blame is attributable on the next attempt.
        self._no_batch: set[int] = set()
        if config is None and self.sink.enabled:
            config = _worker_telemetry_config(
                getattr(self.sink, "config", None)
            )
        self.config = config
        n = len(specs)
        self.outcomes: list[SpecOutcome | None] = [None] * n
        #: Worker-local telemetry of live successful runs, by index;
        #: dropped once folded into an enabled sink.
        self._locals: list[Telemetry | None] = [None] * n
        #: Journaled telemetry payloads of resumed outcomes, by index.
        self._saved_payloads: list[dict | None] = [None] * n
        self._journal: CheckpointJournal | None = None
        self._fingerprints: list[str | None] = [None] * n
        #: Specs before this index are folded into the sink.
        self._fold_cursor = 0
        self._folded = False

    # -- checkpoint and cache plumbing ---------------------------------------
    def _open_journal(self) -> deque:
        """Resolve resumed and cached specs; queue of (index, attempt).

        Checkpoint resume wins over the cache (both replay the same
        codec payloads, but the journal is this sweep's own authority);
        a resumed entry also warms the cache, so a later sweep without
        the journal still hits.  Cache hits are pre-settled here
        exactly like resumed outcomes -- and journaled, so a
        ``--resume`` of an interrupted warm sweep works -- which is
        what keeps them out of every execution path (no pool slot, no
        batch lane, no shard lease).
        """
        options = self.options
        queue: deque = deque()
        saved: dict[str, list[dict]] = {}
        if options.checkpoint_path is not None:
            self._fingerprints = [
                spec_fingerprint(spec) for spec in self.specs
            ]
            if options.resume:
                saved = load_checkpoint(options.checkpoint_path)
            self._journal = CheckpointJournal.open(
                options.checkpoint_path, resume=options.resume
            )
        if self.cache is not None:
            from repro.sim.cache import cache_key

            self._cache_keys = [cache_key(spec) for spec in self.specs]
        resumed = 0
        cached = 0
        for index, spec in enumerate(self.specs):
            entries = saved.get(self._fingerprints[index] or "")
            if entries:
                entry = entries.pop(0)
                self.outcomes[index] = SpecOutcome(
                    spec=spec,
                    index=index,
                    result=result_from_dict(entry["result"]),
                    attempts=entry.get("attempts", 1),
                    from_checkpoint=True,
                )
                self._saved_payloads[index] = entry.get("telemetry")
                resumed += 1
                if self.cache is not None:
                    self.cache.store_payload(
                        self._cache_keys[index],
                        spec,
                        entry["result"],
                        entry.get("telemetry"),
                        attempts=entry.get("attempts", 1),
                        fingerprint=self._fingerprints[index],
                    )
                continue
            if self.cache is not None:
                entry = self.cache.lookup(
                    self._cache_keys[index],
                    need_telemetry=self.sink.enabled,
                )
                if entry is not None:
                    self.outcomes[index] = SpecOutcome(
                        spec=spec,
                        index=index,
                        result=result_from_dict(entry["result"]),
                        attempts=entry.get("attempts", 1),
                        from_cache=True,
                    )
                    self._saved_payloads[index] = entry.get("telemetry")
                    cached += 1
                    if self._journal is not None:
                        self._journal.append_payload(
                            self._fingerprints[index],
                            spec,
                            entry.get("attempts", 1),
                            entry["result"],
                            entry.get("telemetry"),
                        )
                    continue
            queue.append((index, 0))
        if resumed and self.sink.enabled:
            self.sink.event(
                "sweep.resume",
                -1,
                f"resumed {resumed} of {len(self.specs)} specs "
                f"from checkpoint",
                resumed=resumed,
                total=len(self.specs),
                path=str(options.checkpoint_path),
            )
        if cached and self.sink.enabled:
            self.sink.event(
                "cache.hit",
                -1,
                f"result cache replayed {cached} of {len(self.specs)} "
                f"specs",
                hits=cached,
                total=len(self.specs),
                path=str(self.cache.directory),
            )
        return queue

    def close(self) -> None:
        """Close the journal; flush cache bookkeeping (idempotent)."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self.cache is not None:
            self.cache.flush()

    # -- outcome bookkeeping -------------------------------------------------
    def _finish_success(
        self, index: int, attempt: int, result: RunResult, local
    ) -> None:
        self.outcomes[index] = SpecOutcome(
            spec=self.specs[index],
            index=index,
            result=result,
            attempts=attempt + 1,
        )
        self._locals[index] = local
        if self._journal is not None:
            self._journal.append_outcome(
                self._fingerprints[index],
                self.specs[index],
                attempt + 1,
                result,
                local,
            )
        if self.cache is not None:
            self.cache.store(
                self._cache_keys[index],
                self.specs[index],
                result,
                local,
                attempts=attempt + 1,
            )
        self._fold_settled()

    def _register_failure(
        self,
        index: int,
        attempt: int,
        kind: str,
        exc_type: str,
        message: str,
        traceback: str = "",
        error: BaseException | None = None,
    ) -> bool:
        """Handle one failed attempt; True if the spec should retry.

        A fail-fast runner raises a permanent failure right here: the
        spec's own exception ``error``, or -- when none survived the
        trip back from a worker (a crash, an unpicklable exception) --
        a :class:`~repro.errors.SweepError` carrying the outcome.
        """
        spec = self.specs[index]
        retry = self.options.retry
        if attempt < retry.max_retries:
            if self.sink.enabled:
                self.sink.event(
                    "sweep.retry",
                    index,
                    f"{spec.benchmark}/{spec.policy} attempt "
                    f"{attempt + 1} failed ({kind}); retrying",
                    failure_kind=kind,
                    attempt=attempt + 1,
                    exc_type=exc_type,
                )
            delay = retry.delay(attempt + 1)
            if delay > 0:
                time.sleep(delay)
            return True
        outcome = self.outcomes[index] = SpecOutcome(
            spec=spec,
            index=index,
            error=SpecFailure(
                kind=kind,
                exc_type=exc_type,
                message=message,
                traceback=traceback,
            ),
            attempts=attempt + 1,
        )
        if self.sink.enabled:
            self.sink.event(
                "sweep.spec_failed",
                index,
                f"{spec.benchmark}/{spec.policy} failed permanently "
                f"after {attempt + 1} attempt(s) ({kind})",
                failure_kind=kind,
                attempts=attempt + 1,
                exc_type=exc_type,
            )
        self._fold_settled()
        if self.fail_fast:
            if error is None:
                error = SweepError(
                    f"{spec.benchmark}/{spec.policy}[seed={spec.seed}] "
                    f"{outcome.error}",
                    [outcome],
                )
            raise error
        return False

    # -- execution -----------------------------------------------------------
    def run(self) -> list[SpecOutcome]:
        """Execute every unsettled spec; outcomes in spec order.

        However the sweep ends -- completed, interrupted, or stopped by
        a fail-fast failure -- the journal closes, the cache flushes,
        and the settled runs' telemetry folds into the sink.
        """
        try:
            queue = self._open_journal()
            self._fold_settled()
            if queue:
                # Timeouts are only enforceable on a pool (a hung
                # in-process spec cannot be preempted), so jobs=1 with
                # a timeout runs on a one-worker pool; plain jobs=1
                # stays in-process.
                if self.jobs <= 1 and self.options.timeout_seconds is None:
                    self._run_serial(queue)
                else:
                    self._run_pool(queue)
            return list(self.outcomes)  # all filled now
        finally:
            self.close()
            self.fold_telemetry()

    def _next_group(self, queue: deque) -> list[tuple[int, int]]:
        """Pop the leading lane group: compatible consecutive specs.

        Mirrors :func:`~repro.sim.batch.plan_batches` but operates on
        the live retry queue, so requeued attempts regroup with
        whatever compatible work is adjacent *now*.  Specs in
        ``_no_batch`` (or with a ``None`` key: multicore) stay
        singletons.
        """
        index, attempt = queue.popleft()
        lanes = [(index, attempt)]
        if self.batch <= 1 or index in self._no_batch:
            return lanes
        key = self._batch_keys[index]
        if key is None:
            return lanes
        while queue and len(lanes) < self.batch:
            next_index, _ = queue[0]
            if (
                next_index in self._no_batch
                or self._batch_keys[next_index] != key
            ):
                break
            lanes.append(queue.popleft())
        return lanes

    def _settle(
        self, lanes: list[tuple[int, int]], payloads: list[tuple], queue
    ) -> None:
        """Apply each lane's payload in lane order; retries join ``queue``."""
        for (index, attempt), payload in zip(lanes, payloads):
            if payload[0] == "ok":
                _, result, local = payload
                self._finish_success(index, attempt, result, local)
            else:
                _, exc_type, message, tb, error = payload
                if self._register_failure(
                    index, attempt, "error", exc_type, message, tb, error
                ):
                    queue.append((index, attempt + 1))

    def _run_serial(self, queue: deque) -> None:
        """In-process execution: isolation + retries, no preemption."""
        while queue:
            lanes = self._next_group(queue)
            specs = [self.specs[index] for index, _ in lanes]
            if len(lanes) > 1:
                payloads = _run_group_payloads(
                    specs, self.config, portable=False
                )
            else:
                payloads = [_spec_payload(specs[0], self.config)]
            self._settle(lanes, payloads, queue)

    def _harvest_in_flight(self, in_flight: deque) -> list[tuple[int, int]]:
        """After a pool death: settle finished futures, list the lost.

        Futures that completed before the pool died still hold their
        results (or their spec's own exception, handled normally);
        everything else -- running or queued -- was lost with the
        workers and must re-run.
        """
        survivors: list[tuple[int, int]] = []
        while in_flight:
            lanes, future, _deadline, _is_solo = in_flight.popleft()
            if not future.done() or future.cancelled():
                survivors.extend(lanes)
                continue
            error = future.exception()
            if isinstance(error, BrokenExecutor):
                survivors.extend(lanes)
            elif error is not None and len(lanes) > 1:
                # A batched group raised at group level (not one
                # lane's captured failure): unattributable, so the
                # lanes requeue uncharged as batching-exempt
                # singletons and blame lands on the next attempt.
                self._no_batch.update(i for i, _ in lanes)
                survivors.extend(lanes)
            else:
                # Finished, or the spec raised normally just before the
                # pool died: attributable, so charge it like any error.
                retries: deque = deque()
                self._settle(
                    lanes,
                    _task_payloads(lanes, future.result())
                    if error is None
                    else [_error_payload(error)],
                    retries,
                )
                survivors.extend(retries)
        return survivors

    def _handle_timeout(self, index: int, attempt: int) -> bool:
        """Record one timed-out attempt; True if the spec retries."""
        spec = self.specs[index]
        timeout = self.options.timeout_seconds
        if self.sink.enabled:
            self.sink.event(
                "sweep.timeout",
                index,
                f"{spec.benchmark}/{spec.policy} exceeded {timeout}s; "
                f"terminating its worker",
                timeout_seconds=timeout,
                attempt=attempt + 1,
            )
        return self._register_failure(
            index,
            attempt,
            "timeout",
            "TimeoutError",
            f"spec exceeded the {timeout}s wall-clock timeout",
        )

    def _run_pool(self, queue: deque) -> None:
        """Pool execution: timeouts, crash recovery, sliding window.

        Two failure channels need pool surgery, with different blame
        semantics:

        * **Timeout** -- exactly attributable (each future has its own
          deadline), so the hung spec is charged, its worker is
          terminated, innocents requeue uncharged, and the pool is
          rebuilt.
        * **Worker crash** (``BrokenProcessPool``) -- *not*
          attributable: a dying worker fails every in-flight future,
          innocent or not.  All lost specs become *suspects* and re-run
          one at a time on the fresh pool; a spec that kills its own
          solo pool is definitively the crasher and is charged, while
          innocents simply complete and keep their full retry budget.
          Only these unattributed crashes count toward
          ``max_pool_rebuilds`` -- attributed deaths are bounded by the
          guilty spec's retry budget instead, so one deterministic
          crasher cannot push the whole sweep into degraded mode.
        """
        options = self.options
        jobs = max(1, self.jobs)
        window = _submission_window(jobs, options.window_factor)
        timeout = options.timeout_seconds
        unattributed_deaths = 0
        pool = ProcessPoolExecutor(max_workers=jobs)
        #: Suspects of an unattributed pool crash, re-run one at a time.
        solo: deque = deque()
        # (lanes, future, deadline, is_solo); lanes = [(index, attempt)]
        in_flight: deque = deque()

        def submit(lanes: list, is_solo: bool) -> None:
            if len(lanes) == 1:
                future = pool.submit(
                    _run_spec, self.specs[lanes[0][0]], self.config
                )
            else:
                future = pool.submit(
                    _run_group_payloads,
                    [self.specs[i] for i, _ in lanes],
                    self.config,
                )
            # The wall clock is per *lane*: a B-lane group legitimately
            # takes ~B times one spec's time on its single worker.
            deadline = (
                None
                if timeout is None
                else time.monotonic() + timeout * len(lanes)
            )
            in_flight.append((lanes, future, deadline, is_solo))

        def rebuild() -> None:
            nonlocal pool
            _kill_pool(pool)
            pool = ProcessPoolExecutor(max_workers=jobs)

        try:
            while queue or solo or in_flight:
                pending: list | None = None
                try:
                    if solo:
                        if not in_flight:
                            pending = [solo.popleft()]
                            submit(pending, True)
                    else:
                        # The window bounds tasks, not lanes: a B-lane
                        # group is one task, so jobs=J, batch=B keeps
                        # every worker fed with up to window*B lanes.
                        while queue and len(in_flight) < window:
                            pending = self._next_group(queue)
                            submit(pending, False)
                    pending = None
                except BrokenExecutor:
                    # The pool broke between collections (discovered at
                    # submit): unattributed.  The specs we were
                    # submitting never ran; put them back uncharged.
                    solo.extendleft(reversed(pending))
                    solo.extendleft(
                        reversed(self._harvest_in_flight(in_flight))
                    )
                    unattributed_deaths += 1
                    if self.sink.enabled:
                        self.sink.event(
                            "sweep.pool_crash",
                            pending[0][0],
                            "worker pool died before accepting work; "
                            "rebuilding",
                            deaths=unattributed_deaths,
                        )
                    rebuild()
                    if unattributed_deaths > options.max_pool_rebuilds:
                        self._degrade(queue, solo, unattributed_deaths)
                        return
                    continue
                lanes, future, deadline, is_solo = in_flight.popleft()
                index, attempt = lanes[0]
                spec = self.specs[index]
                try:
                    remaining = (
                        None
                        if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    payload = future.result(timeout=remaining)
                except FuturesTimeoutError:
                    if future.cancel():
                        # Never started running: it aged out in the
                        # submission queue behind slow specs.  Not the
                        # specs' fault -- resubmit without charge.
                        if is_solo:
                            solo.extendleft(reversed(lanes))
                        else:
                            queue.extendleft(reversed(lanes))
                        continue
                    if len(lanes) == 1:
                        # Attributable: this future's own deadline
                        # passed while it was running.  Terminate its
                        # worker, requeue innocents uncharged, rebuild.
                        if self._handle_timeout(index, attempt):
                            queue.append((index, attempt + 1))
                    else:
                        # A group deadline (timeout x lanes) passed:
                        # unattributable to one lane.  All lanes
                        # requeue uncharged as batching-exempt
                        # singletons, so a genuinely hung lane is
                        # charged on its next, solo, attempt.
                        self._no_batch.update(i for i, _ in lanes)
                        if self.sink.enabled:
                            self.sink.event(
                                "sweep.timeout",
                                index,
                                f"batched group of {len(lanes)} lanes "
                                f"exceeded {timeout}s per lane; "
                                f"re-running its lanes unbatched",
                                timeout_seconds=timeout,
                                lanes=len(lanes),
                            )
                        queue.extendleft(reversed(lanes))
                    queue.extendleft(
                        reversed(self._harvest_in_flight(in_flight))
                    )
                    rebuild()
                except BrokenExecutor:
                    if is_solo:
                        # An isolated re-run killed its own pool:
                        # definitively the crasher -- charge it.
                        if self.sink.enabled:
                            self.sink.event(
                                "sweep.pool_crash",
                                index,
                                f"{spec.benchmark}/{spec.policy} killed "
                                f"its worker (isolated re-run); charged",
                                attempt=attempt + 1,
                            )
                        if self._register_failure(
                            index,
                            attempt,
                            "crash",
                            "BrokenProcessPool",
                            "worker process died (exit/OOM/segfault) "
                            "running this spec in isolation",
                        ):
                            solo.append((index, attempt + 1))
                        rebuild()
                    else:
                        # Windowed crash: any in-flight spec may be the
                        # crasher.  Everyone lost becomes a suspect and
                        # re-runs in isolation, uncharged.
                        unattributed_deaths += 1
                        suspects = len(lanes) + sum(
                            len(entry[0]) for entry in in_flight
                        )
                        if self.sink.enabled:
                            self.sink.event(
                                "sweep.pool_crash",
                                index,
                                f"worker process died with "
                                f"{suspects} specs in flight; "
                                f"isolating suspects",
                                deaths=unattributed_deaths,
                                suspects=suspects,
                            )
                        solo.extend(lanes)
                        solo.extend(self._harvest_in_flight(in_flight))
                        rebuild()
                        if unattributed_deaths > options.max_pool_rebuilds:
                            self._degrade(queue, solo, unattributed_deaths)
                            return
                except Exception as error:
                    # The spec raised inside the worker; the pool is
                    # fine.  The remote traceback rides along as the
                    # exception's __cause__.
                    if len(lanes) > 1:
                        # Group workers settle per-lane failures into
                        # payloads, so a group-level raise is
                        # infrastructure (pickling, lane compat), not
                        # one lane's fault: requeue uncharged as
                        # batching-exempt singletons.
                        self._no_batch.update(i for i, _ in lanes)
                        queue.extendleft(reversed(lanes))
                    else:
                        self._settle(lanes, [_error_payload(error)], queue)
                else:
                    self._settle(lanes, _task_payloads(lanes, payload), queue)
        except BaseException:
            # An interrupt or a fail-fast failure abandons the sweep:
            # stop the workers still running specs nobody will collect.
            _kill_pool(pool)
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _degrade(
        self, queue: deque, solo: deque, rebuilds: int
    ) -> None:
        """Too many pool deaths: finish the sweep in-process, serially.

        The sweep-level open-loop fallback.  Timeouts are no longer
        enforceable and a crashing spec becomes fatal, but a flaky
        *environment* (OOM killer, broken pickling of one config, a
        container on fire) stops costing the whole matrix.
        """
        remaining = deque(solo)
        remaining.extend(queue)
        if self.sink.enabled:
            self.sink.event(
                "sweep.degraded",
                -1,
                f"{rebuilds} pool deaths exceeded "
                f"max_pool_rebuilds={self.options.max_pool_rebuilds}; "
                f"finishing {len(remaining)} specs serially in-process",
                rebuilds=rebuilds,
                remaining=len(remaining),
            )
        self._run_serial(remaining)

    # -- telemetry folding ---------------------------------------------------
    def _fold_one(self, index: int) -> None:
        """Fold one settled spec's telemetry into the sink; drop it."""
        outcome = self.outcomes[index]
        if outcome.error is None:
            if outcome.from_checkpoint or outcome.from_cache:
                fold_saved_telemetry(self.sink, self._saved_payloads[index])
            elif self._locals[index] is not None:
                merge_telemetry(self.sink, self._locals[index])
        self._locals[index] = None
        self._saved_payloads[index] = None

    def _fold_settled(self) -> None:
        """Fold the leading run of settled specs, in spec order.

        Called after every settlement: retries and crash re-runs
        complete out of spec order, and only a strict in-spec-order
        fold reproduces the serial emit sequence the decimation/parity
        guarantees rest on.  Failed specs contribute nothing -- a
        half-run's telemetry would poison determinism.  With a
        disabled sink nothing folds and the locals stay (the shard
        worker returns them).
        """
        if self._folded or not self.sink.enabled:
            return
        while (
            self._fold_cursor < len(self.specs)
            and self.outcomes[self._fold_cursor] is not None
        ):
            self._fold_one(self._fold_cursor)
            self._fold_cursor += 1

    def fold_telemetry(self) -> None:
        """End of sweep: fold every remaining settled spec, in spec order.

        Idempotent; also runs when an interrupt or a fail-fast failure
        stops the sweep, so specs settled past an unsettled one still
        fold.
        """
        if self._folded or not self.sink.enabled:
            return
        self._folded = True
        for index in range(self._fold_cursor, len(self.specs)):
            if self.outcomes[index] is not None:
                self._fold_one(index)
        self._fold_cursor = len(self.specs)
        if self.specs:
            last = self.specs[-1]
            self.sink.set_context(last.benchmark, last.policy)
