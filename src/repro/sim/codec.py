"""The shared sweep codec: lossless JSON views of results and telemetry.

Two on-disk stores persist completed sweep specs and must agree
byte-for-byte on what comes back:

* the crash-safe checkpoint journal (:mod:`repro.sim.checkpoint`)
  persists completed specs and resumes them bit-identically;
* the cross-sweep result cache (:mod:`repro.sim.cache`) replays them
  in later sweeps.

This module is that single agreement.  Every value codec here is
**repr-lossless for floats**: Python's ``json`` encodes floats with
``repr`` (shortest round-trip form) and parses them back to the exact
same IEEE-754 double, so a :class:`~repro.sim.results.RunResult` -- or
a worker's whole retain-everything telemetry -- survives
``loads(dumps(...))`` bit-exactly (property-tested).  NaN rides along
as the non-strict JSON ``NaN`` literal; both ends of every channel are
this library, so the extension is safe and symmetric.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sim.results import History, RunResult
from repro.telemetry.core import ensure_telemetry
from repro.telemetry.export import event_from_dict, record_from_dict


# -- result (de)serialization -------------------------------------------------
def _jsonable(value):
    """Map numpy scalars to Python scalars so ``json.dumps`` accepts them."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def history_to_dict(history: History) -> dict:
    """JSON view of a :class:`History` (arrays as nested lists + dtype)."""
    arrays = {}
    for name in (
        "max_temp",
        "duty",
        "chip_power",
        "block_temps",
        "block_powers",
        "block_emergency",
        "block_stress",
    ):
        array = getattr(history, name)
        arrays[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "data": array.ravel().tolist(),
        }
    return {
        "sample_cycles": history.sample_cycles,
        "names": list(history.names),
        "arrays": arrays,
    }


def history_from_dict(data: dict) -> History:
    """Rebuild a :class:`History` saved by :func:`history_to_dict`."""
    arrays = {
        name: np.array(spec["data"], dtype=np.dtype(spec["dtype"])).reshape(
            spec["shape"]
        )
        for name, spec in data["arrays"].items()
    }
    return History(
        sample_cycles=data["sample_cycles"],
        names=tuple(data["names"]),
        **arrays,
    )


def result_to_dict(result: RunResult) -> dict:
    """JSON view of a :class:`RunResult` (history included).

    Multicore results (from :class:`~repro.sim.parallel.WorkSpec`\\ s
    with ``core_benchmarks``) serialize under ``"kind": "multicore"``
    so journals can hold both result types side by side.
    """
    # Imported lazily: the codec is core sweep machinery; multicore is
    # an optional extension layered on top of it.
    from repro.multicore.results import MulticoreRunResult

    if isinstance(result, MulticoreRunResult):
        return {
            "kind": "multicore",
            "policy": result.policy,
            "coordinator": result.coordinator,
            "cycles": result.cycles,
            "cores": [dataclasses.asdict(core) for core in result.cores],
            "emergency_fraction": result.emergency_fraction,
            "stress_fraction": result.stress_fraction,
            "mean_chip_power": result.mean_chip_power,
            "max_chip_power": result.max_chip_power,
            "energy_joules": result.energy_joules,
            "extra": dict(result.extra),
        }
    return {
        "benchmark": result.benchmark,
        "policy": result.policy,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "emergency_fraction": result.emergency_fraction,
        "stress_fraction": result.stress_fraction,
        "block_emergency_fraction": dict(result.block_emergency_fraction),
        "block_stress_fraction": dict(result.block_stress_fraction),
        "mean_block_temperature": dict(result.mean_block_temperature),
        "max_block_temperature": dict(result.max_block_temperature),
        "mean_chip_power": result.mean_chip_power,
        "max_chip_power": result.max_chip_power,
        "energy_joules": result.energy_joules,
        "engaged_fraction": result.engaged_fraction,
        "interrupt_events": result.interrupt_events,
        "interrupt_stall_cycles": result.interrupt_stall_cycles,
        "history": (
            history_to_dict(result.history)
            if result.history is not None
            else None
        ),
        "extra": dict(result.extra),
    }


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a result saved by :func:`result_to_dict`.

    Returns a :class:`RunResult`, or a
    :class:`~repro.multicore.results.MulticoreRunResult` for entries
    tagged ``"kind": "multicore"``.
    """
    if data.get("kind") == "multicore":
        from repro.multicore.results import CoreResult, MulticoreRunResult

        return MulticoreRunResult(
            policy=data["policy"],
            coordinator=data["coordinator"],
            cycles=data["cycles"],
            cores=tuple(
                CoreResult(**{**core, "extra": dict(core.get("extra", {}))})
                for core in data["cores"]
            ),
            emergency_fraction=data["emergency_fraction"],
            stress_fraction=data["stress_fraction"],
            mean_chip_power=data["mean_chip_power"],
            max_chip_power=data["max_chip_power"],
            energy_joules=data.get("energy_joules", 0.0),
            extra=dict(data.get("extra", {})),
        )
    history = data.get("history")
    return RunResult(
        benchmark=data["benchmark"],
        policy=data["policy"],
        cycles=data["cycles"],
        instructions=data["instructions"],
        emergency_fraction=data["emergency_fraction"],
        stress_fraction=data["stress_fraction"],
        block_emergency_fraction=dict(data["block_emergency_fraction"]),
        block_stress_fraction=dict(data["block_stress_fraction"]),
        mean_block_temperature=dict(data["mean_block_temperature"]),
        max_block_temperature=dict(data["max_block_temperature"]),
        mean_chip_power=data["mean_chip_power"],
        max_chip_power=data["max_chip_power"],
        energy_joules=data.get("energy_joules", 0.0),
        engaged_fraction=data.get("engaged_fraction", 0.0),
        interrupt_events=data.get("interrupt_events", 0),
        interrupt_stall_cycles=data.get("interrupt_stall_cycles", 0),
        history=history_from_dict(history) if history is not None else None,
        extra=dict(data.get("extra", {})),
    )


# -- telemetry (de)serialization ----------------------------------------------
def telemetry_to_dict(local) -> dict | None:
    """JSON view of one run's worker-local retain-everything telemetry."""
    if local is None:
        return None
    return {
        "records": [record.to_dict() for record in local.trace.records()],
        "events": [event.to_dict() for event in local.trace.events],
        "metrics": local.metrics.snapshot(),
        "meta": dict(local.meta),
    }


def fold_saved_telemetry(sink, payload: dict | None) -> None:
    """Re-emit one saved run's telemetry onto a live sink.

    Mirrors :func:`~repro.telemetry.core.merge_telemetry` exactly:
    records and events re-emit through the sink's own retention policy,
    metrics fold under the registry's associative merge, meta updates.
    No-op when the sink is disabled or the payload is empty (the entry
    came from a telemetry-less sweep).  Checkpoint resume and cache
    hits both fold through here, in spec order, which is what makes
    resumed and warm sweeps' retained traces bit-identical to an
    uninterrupted cold one.
    """
    sink = ensure_telemetry(sink)
    if not sink.enabled or payload is None:
        return
    for data in payload.get("records", ()):
        sink.trace.record(record_from_dict(data))
    for data in payload.get("events", ()):
        sink.trace.events.append(event_from_dict(data))
    sink.metrics.merge_snapshot(payload.get("metrics", {}))
    if payload.get("meta"):
        sink.meta.update(payload["meta"])

