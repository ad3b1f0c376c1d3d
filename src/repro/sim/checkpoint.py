"""Crash-safe sweep checkpointing: the ``repro.sweep/v1`` journal.

A fault-tolerant sweep (:func:`repro.sim.parallel.run_outcomes`) can be
killed at any instant -- a worker ``os._exit``, an OOM kill, a Ctrl-C,
a machine reboot.  This module persists every *completed* spec so a
restarted sweep re-runs only the incomplete ones:

* :class:`CheckpointJournal` -- an append-only JSONL file.  Line 1 is a
  schema header (``repro.sweep/v1``); every further line is one
  completed spec: its order-independent fingerprint, attempt count, the
  full :class:`~repro.sim.results.RunResult` (history included), and
  the run's worker-local telemetry (retained records, events, metrics,
  meta).  Each line is flushed and ``fsync``'d before the outcome is
  reported upward, so the journal never claims work the disk has not
  seen.  A crash mid-write leaves at most one truncated final line,
  which both the loader and the append path tolerate (the partial line
  is discarded; that spec simply re-runs).
* :func:`spec_fingerprint` -- a canonical content hash of a
  :class:`~repro.sim.parallel.WorkSpec` (names, frozen configs, fault
  schedules...), stable across processes and sessions.  Resume matches
  saved outcomes by fingerprint *multiset*, so reordering the spec list
  or interleaving several sweeps through one journal still resumes
  correctly, and duplicate specs each consume one saved outcome.
* :func:`fold_saved_telemetry` -- re-emits a saved run's telemetry onto
  a live sink exactly like
  :func:`~repro.telemetry.core.merge_telemetry` does for a live
  worker's, which is what makes a resumed sweep's retained traces
  bit-identical to an uninterrupted one (telemetry is folded in spec
  order either way; floats survive the JSON round trip exactly because
  ``repr``-based float serialization is lossless).

The journal is a cache keyed by content: two sweeps that share a spec
(same fingerprint) share its saved outcome, because every run is a pure
function of its spec.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import IO

import numpy as np

from repro.errors import CheckpointError
from repro.sim.codec import (
    _jsonable,
    fold_saved_telemetry,
    history_from_dict,
    history_to_dict,
    result_from_dict,
    result_to_dict,
    telemetry_to_dict,
)
from repro.sim.results import RunResult

#: Version tag written into every journal header; bumped on any change
#: to the line format.  Loading a journal with a different schema is a
#: :class:`CheckpointError`, never a silent misread.
SWEEP_SCHEMA = "repro.sweep/v1"


# -- spec fingerprints --------------------------------------------------------
def _canonical(value):
    """A deterministic, hashable view of one spec field.

    Dataclasses (frozen configs, floorplans) flatten to (type, field)
    tuples; plain objects such as :class:`~repro.faults.FaultSchedule`
    flatten to their public attributes (underscore-prefixed attributes
    are excluded -- lazily-built caches must not perturb the hash);
    enums to their value; arrays to nested lists.  ``repr`` of the
    result contains no memory addresses, so equal-valued specs
    fingerprint identically across processes and sessions.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, _canonical(value.value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, tuple(value.shape), tuple(value.ravel().tolist()))
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, (dict,)):
        return tuple(
            sorted((str(key), _canonical(item)) for key, item in value.items())
        )
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return (
            type(value).__name__,
            tuple(
                sorted(
                    (name, _canonical(item))
                    for name, item in attrs.items()
                    if not name.startswith("_")
                )
            ),
        )
    return repr(value)


def spec_fingerprint(spec) -> str:
    """Content hash of one :class:`~repro.sim.parallel.WorkSpec`."""
    text = repr(_canonical(spec))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


# -- shared codec re-exports --------------------------------------------------
# The result/telemetry codec lives in :mod:`repro.sim.codec` (the result
# cache shares it verbatim); these names stay importable here because
# the journal format is defined in their terms.
__all__ = [
    "SWEEP_SCHEMA",
    "CheckpointJournal",
    "fold_saved_telemetry",
    "history_from_dict",
    "history_to_dict",
    "load_checkpoint",
    "result_from_dict",
    "result_to_dict",
    "spec_fingerprint",
    "telemetry_to_dict",
    "truncate_partial_tail",
]


# -- the journal --------------------------------------------------------------
class CheckpointJournal:
    """Append-only, fsync'd JSONL journal of completed sweep specs.

    Use :meth:`open` (fresh or resuming) rather than the constructor.
    """

    def __init__(self, path: str | Path, handle: IO[str]) -> None:
        self.path = Path(path)
        self._handle = handle

    # -- writing -------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | Path, resume: bool = False
    ) -> "CheckpointJournal":
        """Open a journal for appending.

        ``resume=False`` starts fresh (an existing file is replaced);
        ``resume=True`` keeps existing outcomes, first truncating any
        partial final line a crash may have left.  Either way the
        header is guaranteed to be present afterwards.
        """
        path = Path(path)
        if resume and path.exists():
            _truncate_partial_tail(path)
            handle = path.open("a", encoding="utf-8")
            journal = cls(path, handle)
            if path.stat().st_size == 0:
                journal._write_line({"type": "header", "schema": SWEEP_SCHEMA})
            return journal
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("w", encoding="utf-8")
        journal = cls(path, handle)
        journal._write_line({"type": "header", "schema": SWEEP_SCHEMA})
        return journal

    def _write_line(self, data: dict) -> None:
        try:
            line = json.dumps(_jsonable(data))
        except (TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint entry is not JSON-serializable: {error}"
            ) from error
        self._handle.write(line + "\n")
        # Durability before acknowledgement: the orchestrator reports a
        # spec complete only after its journal line is on disk.
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_outcome(
        self,
        fingerprint: str,
        spec,
        attempts: int,
        result: RunResult,
        local_telemetry=None,
    ) -> None:
        """Journal one successfully completed spec."""
        self.append_payload(
            fingerprint,
            spec,
            attempts,
            result_to_dict(result),
            telemetry_to_dict(local_telemetry),
        )

    def append_payload(
        self,
        fingerprint: str,
        spec,
        attempts: int,
        result_payload: dict,
        telemetry_payload: dict | None,
    ) -> None:
        """Journal one completed spec from already-encoded codec payloads.

        A cache hit arrives as codec dicts and is journaled verbatim --
        re-decoding and re-encoding would only risk drift, since the
        cache entry was written with the same codec.
        """
        self._write_line(
            {
                "type": "outcome",
                "fingerprint": fingerprint,
                "benchmark": spec.benchmark,
                "policy": spec.policy,
                "seed": spec.seed,
                "attempts": attempts,
                "result": result_payload,
                "telemetry": telemetry_payload,
            }
        )

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def truncate_partial_tail(path: Path) -> None:
    """Drop a truncated final line left by a crash mid-append.

    Shared by the checkpoint journal and the cross-sweep result cache
    (:mod:`repro.sim.cache`): both are append-only JSONL logs with the
    same crash contract -- a kill mid-write leaves at most one partial
    final line, which the next writer cuts before appending.  Complete
    lines are never touched, so byte offsets held by concurrent readers
    of the same file stay valid.
    """
    raw = path.read_bytes()
    if not raw or raw.endswith(b"\n"):
        return
    cut = raw.rfind(b"\n")
    with path.open("r+b") as handle:
        handle.truncate(cut + 1 if cut >= 0 else 0)


#: Backwards-compatible private alias (pre-cache internal name).
_truncate_partial_tail = truncate_partial_tail


def _check_outcome(path: Path, number: int, data: dict) -> None:
    """Raise :class:`CheckpointError` unless an outcome line resumes.

    Resume indexes by ``fingerprint`` and decodes ``result`` and
    ``telemetry``; a line whose fields have the wrong type would
    otherwise load and crash later, mid-sweep, with the wrong error.
    """
    problems = []
    if not isinstance(data.get("fingerprint"), str):
        problems.append("fingerprint is not a string")
    if not isinstance(data.get("result"), dict):
        problems.append("result is not an object")
    if not isinstance(data.get("telemetry"), (dict, type(None))):
        problems.append("telemetry is neither an object nor null")
    attempts = data.get("attempts", 1)
    if (
        isinstance(attempts, bool)
        or not isinstance(attempts, int)
        or attempts < 1
    ):
        problems.append("attempts is not a positive int")
    if problems:
        raise CheckpointError(
            f"{path}:{number}: malformed outcome ({'; '.join(problems)})"
        )


def load_checkpoint(path: str | Path) -> dict[str, list[dict]]:
    """Saved outcomes of a journal, keyed by fingerprint (a multiset).

    Returns ``{fingerprint: [entry, ...]}`` in journal order; resume
    pops one entry per matching spec.  A missing file is an empty
    checkpoint.  A truncated final line (crash mid-write) is discarded;
    corruption anywhere else, a line of the wrong shape, or a schema
    mismatch raises :class:`CheckpointError` naming the line.
    """
    path = Path(path)
    if not path.exists():
        return {}
    saved: dict[str, list[dict]] = {}
    lines = path.read_bytes().splitlines()
    header_seen = False
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            data = json.loads(stripped.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # ValueError covers both bad JSON and bad UTF-8.
            if number == len(lines):
                break  # crash-truncated tail: that spec just re-runs
            raise CheckpointError(
                f"{path}:{number}: corrupt journal line ({error})"
            ) from error
        if not isinstance(data, dict):
            raise CheckpointError(
                f"{path}:{number}: journal line is a "
                f"{type(data).__name__}, not an object"
            )
        kind = data.get("type")
        if kind == "header":
            schema = data.get("schema")
            if schema != SWEEP_SCHEMA:
                raise CheckpointError(
                    f"{path}:{number}: schema {schema!r} is not "
                    f"{SWEEP_SCHEMA!r}"
                )
            header_seen = True
        elif kind == "outcome":
            if not header_seen:
                raise CheckpointError(
                    f"{path}:{number}: outcome before header"
                )
            _check_outcome(path, number, data)
            saved.setdefault(data["fingerprint"], []).append(data)
        else:
            raise CheckpointError(
                f"{path}:{number}: unknown journal line type {kind!r}"
            )
    if lines and not header_seen:
        raise CheckpointError(f"{path}: missing {SWEEP_SCHEMA} header")
    return saved
