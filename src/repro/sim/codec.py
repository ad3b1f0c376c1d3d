"""The shared sweep codec: lossless JSON views of specs, results, telemetry.

Three subsystems move sweep state across a process boundary and must
agree byte-for-byte on what comes back:

* the crash-safe checkpoint journal (:mod:`repro.sim.checkpoint`)
  persists completed specs to disk and resumes them bit-identically;
* the distributed shard protocol (:mod:`repro.sim.distributed`) leases
  specs to workers over TCP and streams their results back;
* tests round-trip both paths against the in-process originals.

This module is that single agreement.  Every value codec here is
**repr-lossless for floats**: Python's ``json`` encodes floats with
``repr`` (shortest round-trip form) and parses them back to the exact
same IEEE-754 double, so a :class:`~repro.sim.results.RunResult` -- or
a worker's whole retain-everything telemetry -- survives
``loads(dumps(...))`` bit-exactly (property-tested).  NaN rides along
as the non-strict JSON ``NaN`` literal; both ends of every channel are
this library, so the extension is safe and symmetric.

The spec codec (:func:`spec_to_dict` / :func:`spec_from_dict`) is a
*tagged* encoding over a closed registry of types: the dataclasses,
enums, and plain config objects a :class:`~repro.sim.parallel.WorkSpec`
may carry, and nothing else.  Decoding never imports or constructs an
unregistered type, so a hostile or corrupt lease payload degrades to a
:class:`~repro.errors.CodecError`, not code execution.  A decoded spec
reconstructs through each type's ordinary constructor (validation
re-runs) and fingerprints identically to the original
(:func:`~repro.sim.checkpoint.spec_fingerprint` is content-addressed),
which is what lets the shard coordinator hand out fingerprints as lease
identities and verify them on the worker.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.errors import CodecError
from repro.sim.results import History, RunResult
from repro.telemetry.core import Telemetry, ensure_telemetry
from repro.telemetry.export import event_from_dict, record_from_dict

#: Tag key marking an encoded composite value; chosen to be absent from
#: every plain mapping the sweep types carry.
_TAG = "__repro__"

#: The closed type registry (name -> class), built lazily because
#: :class:`WorkSpec` lives in :mod:`repro.sim.parallel`, which imports
#: the checkpoint machinery (and therefore this module) at load time.
_TYPES: dict | None = None


def _registry() -> dict:
    global _TYPES
    if _TYPES is None:
        from repro.config import (
            BranchPredictorConfig,
            CacheConfig,
            DTMConfig,
            FailsafeConfig,
            MachineConfig,
            TelemetryConfig,
            ThermalConfig,
        )
        from repro.control.pid import AntiWindup
        from repro.faults import FaultSchedule, FaultWindow
        from repro.sim.parallel import WorkSpec
        from repro.thermal.floorplan import Block, Floorplan

        _TYPES = {
            cls.__name__: cls
            for cls in (
                AntiWindup,
                Block,
                BranchPredictorConfig,
                CacheConfig,
                DTMConfig,
                FailsafeConfig,
                FaultSchedule,
                FaultWindow,
                Floorplan,
                MachineConfig,
                TelemetryConfig,
                ThermalConfig,
                WorkSpec,
            )
        }
    return _TYPES


def encode_value(value):
    """Encode one spec-carried value as tagged, JSON-serializable data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return {
            _TAG: "ndarray",
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "data": value.ravel().tolist(),
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {
            _TAG: "dict",
            "items": [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ],
        }
    name = type(value).__name__
    if _registry().get(name) is not type(value):
        raise CodecError(
            f"cannot encode unregistered type {type(value).__qualname__!r}"
        )
    if isinstance(value, enum.Enum):
        return {_TAG: "enum", "type": name, "value": encode_value(value.value)}
    if dataclasses.is_dataclass(value):
        return {
            _TAG: "dataclass",
            "type": name,
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    # Registered plain classes (FaultSchedule): public attributes are,
    # by that registration contract, exactly the constructor keywords.
    return {
        _TAG: "object",
        "type": name,
        "fields": {
            attr: encode_value(v)
            for attr, v in vars(value).items()
            if not attr.startswith("_")
        },
    }


def decode_value(data):
    """Rebuild a value encoded by :func:`encode_value`.

    Only registry types are ever constructed; anything else raises
    :class:`~repro.errors.CodecError`.
    """
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if not isinstance(data, dict):
        raise CodecError(f"cannot decode {type(data).__name__} value")
    tag = data.get(_TAG)
    if tag == "tuple":
        return tuple(decode_value(v) for v in data["items"])
    if tag == "dict":
        return {decode_value(k): decode_value(v) for k, v in data["items"]}
    if tag == "ndarray":
        return np.array(
            data["data"], dtype=np.dtype(data["dtype"])
        ).reshape(data["shape"])
    if tag in ("enum", "dataclass", "object"):
        cls = _registry().get(data.get("type"))
        if cls is None:
            raise CodecError(
                f"cannot decode unregistered type {data.get('type')!r}"
            )
        try:
            if tag == "enum":
                return cls(decode_value(data["value"]))
            fields = {
                str(name): decode_value(v)
                for name, v in data["fields"].items()
            }
            return cls(**fields)
        except CodecError:
            raise
        except Exception as error:
            raise CodecError(
                f"cannot rebuild {data.get('type')}: {error}"
            ) from error
    raise CodecError(f"cannot decode untagged mapping {sorted(data)!r}")


def spec_to_dict(spec) -> dict:
    """Tagged JSON view of one :class:`~repro.sim.parallel.WorkSpec`."""
    encoded = encode_value(spec)
    if not (isinstance(encoded, dict) and encoded.get("type") == "WorkSpec"):
        raise CodecError(f"spec_to_dict needs a WorkSpec, got {spec!r}")
    return encoded


def spec_from_dict(data: dict):
    """Rebuild the :class:`WorkSpec` saved by :func:`spec_to_dict`."""
    if not (isinstance(data, dict) and data.get("type") == "WorkSpec"):
        raise CodecError("spec payload is not an encoded WorkSpec")
    return decode_value(data)


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
    came from a telemetry-less sweep).  Both the checkpoint resume path
    and the shard coordinator fold through here, in spec order, which
    is what makes resumed and distributed sweeps' retained traces
    bit-identical to an uninterrupted local one.
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


def check_telemetry_payload(payload, config=None) -> None:
    """Raise :class:`CodecError` unless ``payload`` folds cleanly.

    Trial-folds the payload into a fresh sink of ``config``, so it
    accepts exactly what :func:`fold_saved_telemetry` would.  The shard
    coordinator checks a worker's payload before journaling or caching
    it: a malformed one would otherwise poison every later resume and
    warm replay.
    """
    try:
        fold_saved_telemetry(Telemetry(config), payload)
    except Exception as error:
        raise CodecError(f"malformed telemetry payload: {error!r}") from error
