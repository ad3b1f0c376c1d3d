"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library problems without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class ThermalModelError(ReproError):
    """The thermal network is malformed (unknown node, bad R/C value...)."""


class ControllerError(ReproError):
    """A controller was constructed or tuned with invalid parameters."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state or bad input.

    ``diagnostics`` optionally carries structured engine state at the
    moment of failure (sample index, hottest block, last commanded
    duty, ...) so callers can triage a blown-up run without parsing
    the message string.
    """

    def __init__(self, message: str, **diagnostics) -> None:
        super().__init__(message)
        self.diagnostics: dict = diagnostics

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if not self.diagnostics:
            return base
        detail = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.diagnostics.items())
        )
        return f"{base} [{detail}]"


class FaultError(ReproError):
    """A fault schedule or fault injector is misconfigured."""


class FailsafeEngaged(ReproError):
    """Informational record of one failsafe state transition.

    The :class:`~repro.dtm.failsafe.FailsafeGuard` *records* these
    (``DTMManager.failsafe_events``) rather than raising them -- a
    watchdog that crashed the control loop would defeat its purpose --
    but they are exceptions so callers who want fail-fast semantics can
    ``raise`` them directly.
    """

    def __init__(
        self,
        reason: str,
        sample_index: int,
        state: str,
        last_good: float | None = None,
        duty: float | None = None,
    ) -> None:
        super().__init__(
            f"failsafe {state} at sample {sample_index}: {reason}"
        )
        self.reason = reason
        self.sample_index = sample_index
        self.state = state
        self.last_good = last_good
        self.duty = duty


class SweepError(ReproError):
    """One or more specs of a strict sweep failed permanently.

    Raised at the *end* of a fault-tolerant sweep (never mid-flight):
    the orchestrator isolates each failure as a
    :class:`~repro.sim.parallel.SpecOutcome` and keeps going, then
    aggregates the permanent failures into one exception so a strict
    caller sees every problem at once instead of the first.
    ``failures`` carries the failing outcomes (spec, captured error,
    attempt count) for programmatic triage.
    """

    def __init__(self, message: str, failures: list | None = None) -> None:
        super().__init__(message)
        self.failures: list = failures if failures is not None else []


class CheckpointError(ReproError):
    """A sweep checkpoint journal is unreadable or inconsistent."""


class CacheError(ReproError):
    """The cross-sweep result cache is unusable or misconfigured.

    Covers an invalid cache directory (relative, uncreatable, or not
    writable), a store whose schema header does not match
    ``repro.cache/v1``, and entries that fail to decode during an
    explicit ``verify``.  Ordinary lookups never raise: a corrupt or
    torn entry is simply a miss, because a cache that can abort the
    sweep it is meant to accelerate would be worse than no cache.
    """


class TelemetryError(ReproError):
    """A telemetry component (metric, trace, profiler) was misused."""


class WorkloadError(ReproError):
    """A workload profile or trace is malformed."""


class ExperimentError(ReproError):
    """An experiment driver was invoked with unusable parameters."""
