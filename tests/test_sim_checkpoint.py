"""The crash-safe sweep journal: fingerprints, round trips, recovery.

The checkpoint subsystem's contract (docs/robustness.md):

* spec fingerprints are pure content hashes -- stable across processes,
  sensitive to every field that changes the run;
* a journaled ``RunResult`` (history and telemetry included) round-trips
  bit-exactly, floats included, because ``repr``-based JSON float
  serialization is lossless;
* a crash can truncate at most the final line, and both the loader and
  the resume-append path discard it silently; corruption anywhere else
  is a loud :class:`~repro.errors.CheckpointError`;
* any journal either loads entries that resume can use or raises
  :class:`~repro.errors.CheckpointError` -- never another exception
  (property-tested over truncated, byte-flipped, wrong-schema and
  wrong-shape lines).
"""

from __future__ import annotations

import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DTMConfig, TelemetryConfig
from repro.errors import CheckpointError
from repro.faults import FaultSchedule
from repro.sim.checkpoint import (
    SWEEP_SCHEMA,
    CheckpointJournal,
    fold_saved_telemetry,
    history_from_dict,
    history_to_dict,
    load_checkpoint,
    result_from_dict,
    result_to_dict,
    spec_fingerprint,
    telemetry_to_dict,
)
from repro.sim.parallel import WorkSpec
from repro.sim.sweep import run_one
from repro.telemetry.core import Telemetry

INSTRUCTIONS = 150_000


def _quiet() -> Telemetry:
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


class TestSpecFingerprint:
    def test_stable_for_equal_specs(self):
        a = WorkSpec(benchmark="gcc", policy="pid", seed=3)
        b = WorkSpec(benchmark="gcc", policy="pid", seed=3)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_sensitive_to_every_run_shaping_field(self):
        base = WorkSpec(benchmark="gcc", policy="pid")
        variants = [
            WorkSpec(benchmark="gzip", policy="pid"),
            WorkSpec(benchmark="gcc", policy="pi"),
            WorkSpec(benchmark="gcc", policy="pid", seed=1),
            WorkSpec(benchmark="gcc", policy="pid", instructions=1),
            WorkSpec(benchmark="gcc", policy="pid", setpoint=101.0),
            WorkSpec(benchmark="gcc", policy="pid", record_history=True),
            WorkSpec(
                benchmark="gcc", policy="pid",
                dtm_config=DTMConfig(nonct_trigger=100.5),
            ),
        ]
        fingerprints = {spec_fingerprint(v) for v in variants}
        assert spec_fingerprint(base) not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_plain_object_fields_hash_by_public_attrs(self):
        # FaultSchedule is a plain class: its repr carries memory
        # addresses and it lazily builds private caches.  Equal-valued
        # schedules must fingerprint identically regardless.
        a = WorkSpec(
            benchmark="gcc", policy="pid",
            fault_schedule=FaultSchedule(dropout_rate=0.1, seed=7),
        )
        b = WorkSpec(
            benchmark="gcc", policy="pid",
            fault_schedule=FaultSchedule(dropout_rate=0.1, seed=7),
        )
        c = WorkSpec(
            benchmark="gcc", policy="pid",
            fault_schedule=FaultSchedule(dropout_rate=0.2, seed=7),
        )
        assert spec_fingerprint(a) == spec_fingerprint(b)
        assert spec_fingerprint(a) != spec_fingerprint(c)

    def test_fingerprint_is_hex_and_short(self):
        fp = spec_fingerprint(WorkSpec(benchmark="gcc", policy="pid"))
        assert len(fp) == 24
        int(fp, 16)  # raises if not hex


class TestResultRoundTrip:
    def test_result_with_history_is_bit_exact(self):
        result = run_one(
            "gcc", "pid", instructions=INSTRUCTIONS, record_history=True
        )
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        for field in (
            "benchmark", "policy", "cycles", "instructions",
            "emergency_fraction", "stress_fraction",
            "block_emergency_fraction", "block_stress_fraction",
            "mean_block_temperature", "max_block_temperature",
            "mean_chip_power", "max_chip_power", "energy_joules",
            "engaged_fraction", "interrupt_events",
            "interrupt_stall_cycles", "extra",
        ):
            assert getattr(rebuilt, field) == getattr(result, field), field
        assert rebuilt.history is not None
        for name in (
            "max_temp", "duty", "chip_power", "block_temps",
            "block_powers", "block_emergency", "block_stress",
        ):
            original = getattr(result.history, name)
            restored = getattr(rebuilt.history, name)
            assert restored.dtype == original.dtype
            assert np.array_equal(restored, original)
        assert rebuilt.history.names == result.history.names
        assert rebuilt.history.sample_cycles == result.history.sample_cycles

    def test_history_round_trip_preserves_exact_floats(self):
        result = run_one(
            "art", "pi", instructions=INSTRUCTIONS, record_history=True
        )
        data = json.loads(json.dumps(history_to_dict(result.history)))
        rebuilt = history_from_dict(data)
        # Bit-exact, not approximately equal: repr-based JSON floats.
        assert rebuilt.max_temp.tobytes() == result.history.max_temp.tobytes()


class TestTelemetryRoundTrip:
    def test_fold_saved_equals_fold_live(self):
        live, saved_sink = _quiet(), _quiet()
        local = _quiet()
        run_one("gcc", "pid", instructions=INSTRUCTIONS, telemetry=local)
        from repro.telemetry.core import merge_telemetry

        merge_telemetry(live, local)
        payload = json.loads(json.dumps(telemetry_to_dict(local)))
        fold_saved_telemetry(saved_sink, payload)
        a, b = live.trace.records(), saved_sink.trace.records()
        assert len(a) == len(b)
        for x, y in zip(a, b):
            for field in x.__dataclass_fields__:
                vx, vy = getattr(x, field), getattr(y, field)
                assert vx == vy or (
                    isinstance(vx, float)
                    and math.isnan(vx)
                    and math.isnan(vy)
                ), field
        assert list(live.trace.events) == list(saved_sink.trace.events)
        assert live.metrics.snapshot() == saved_sink.metrics.snapshot()

    def test_none_payload_is_noop(self):
        sink = _quiet()
        fold_saved_telemetry(sink, None)
        assert sink.trace.records() == []


class TestJournal:
    def _outcome_entry(self, tmp_path, n=2):
        path = tmp_path / "sweep.ckpt.jsonl"
        spec = WorkSpec(
            benchmark="gcc", policy="pid", instructions=INSTRUCTIONS
        )
        result = run_one("gcc", "pid", instructions=INSTRUCTIONS)
        with CheckpointJournal.open(path) as journal:
            for _ in range(n):
                journal.append_outcome(
                    spec_fingerprint(spec), spec, 1, result
                )
        return path, spec, result

    def test_round_trip(self, tmp_path):
        path, spec, result = self._outcome_entry(tmp_path, n=1)
        saved = load_checkpoint(path)
        [entries] = saved.values()
        entry = entries[0]
        assert entry["benchmark"] == "gcc"
        assert entry["attempts"] == 1
        rebuilt = result_from_dict(entry["result"])
        assert rebuilt.cycles == result.cycles
        assert rebuilt.emergency_fraction == result.emergency_fraction

    def test_duplicate_specs_form_a_multiset(self, tmp_path):
        path, spec, _ = self._outcome_entry(tmp_path, n=2)
        saved = load_checkpoint(path)
        assert len(saved[spec_fingerprint(spec)]) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.jsonl") == {}

    def test_truncated_tail_is_discarded(self, tmp_path):
        path, spec, _ = self._outcome_entry(tmp_path, n=2)
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 40])  # chop mid-final-line
        saved = load_checkpoint(path)
        assert len(saved[spec_fingerprint(spec)]) == 1

    def test_resume_open_truncates_partial_tail(self, tmp_path):
        path, spec, result = self._outcome_entry(tmp_path, n=1)
        with path.open("a") as handle:
            handle.write('{"type": "outcome", "finger')  # crash mid-write
        with CheckpointJournal.open(path, resume=True) as journal:
            journal.append_outcome(spec_fingerprint(spec), spec, 2, result)
        saved = load_checkpoint(path)
        entries = saved[spec_fingerprint(spec)]
        assert [e["attempts"] for e in entries] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        path, _, _ = self._outcome_entry(tmp_path, n=1)
        with path.open("a") as handle:
            handle.write("not json at all\n")
            handle.write('{"type": "header", "schema": "%s"}\n' % SWEEP_SCHEMA)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"type": "header", "schema": "repro.sweep/v0"}\n')
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"type": "outcome", "fingerprint": "ab"}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_line_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": SWEEP_SCHEMA})
            + "\n"
            + json.dumps({"type": "surprise"})
            + "\n"
        )
        with pytest.raises(CheckpointError, match="surprise"):
            load_checkpoint(path)

    def test_fresh_open_replaces_existing_journal(self, tmp_path):
        path, spec, _ = self._outcome_entry(tmp_path, n=2)
        CheckpointJournal.open(path).close()
        assert load_checkpoint(path) == {}


@functools.lru_cache(maxsize=1)
def _outcome_line() -> str:
    """One well-formed journal outcome line (computed once)."""
    spec = WorkSpec(benchmark="gzip", policy="pid", instructions=INSTRUCTIONS)
    result = run_one("gzip", "pid", instructions=INSTRUCTIONS)
    return json.dumps(
        {
            "type": "outcome",
            "fingerprint": spec_fingerprint(spec),
            "benchmark": spec.benchmark,
            "policy": spec.policy,
            "seed": spec.seed,
            "attempts": 1,
            "result": result_to_dict(result),
            "telemetry": None,
        }
    )


_HEADER = json.dumps({"type": "header", "schema": SWEEP_SCHEMA})

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _journal_line(draw) -> bytes:
    """A truncated, byte-flipped, wrong-schema or wrong-shape line."""
    valid = draw(st.sampled_from([_HEADER, "OUTCOME"]))
    valid = (_outcome_line() if valid == "OUTCOME" else valid).encode()
    kind = draw(
        st.sampled_from(
            ["valid", "truncated", "flipped", "schema", "shape", "outcome"]
        )
    )
    if kind == "valid":
        return valid
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "flipped":
        at = draw(st.integers(0, len(valid) - 1))
        flipped = valid[at] ^ draw(st.integers(1, 255))
        return valid[:at] + bytes([flipped]) + valid[at + 1:]
    if kind == "schema":
        schema = draw(_JSON)
        return json.dumps({"type": "header", "schema": schema}).encode()
    if kind == "shape":
        return json.dumps(draw(_JSON)).encode()
    fields = draw(
        st.fixed_dictionaries(
            {"type": st.just("outcome")},
            optional={
                name: _JSON
                for name in ("fingerprint", "result", "telemetry", "attempts")
            },
        )
    )
    return json.dumps(fields).encode()


class TestLoadCheckpointRejectsMalformedLines:
    @pytest.mark.parametrize(
        "line, problem",
        [
            ("42", "int, not an object"),
            ("[1, 2]", "list, not an object"),
            ('{"type": "outcome"}', "fingerprint is not a string"),
            ('{"type": "outcome", "fingerprint": "ab"}', "result"),
            (
                '{"type": "outcome", "fingerprint": "ab", "result": {},'
                ' "attempts": true}',
                "attempts",
            ),
        ],
    )
    def test_wrong_shape_names_its_line(self, tmp_path, line, problem):
        path = tmp_path / "sweep.jsonl"
        path.write_text(f"{_HEADER}\n{line}\n{_HEADER}\n")
        with pytest.raises(CheckpointError, match=":2: ") as excinfo:
            load_checkpoint(path)
        assert problem in str(excinfo.value)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(_journal_line(), max_size=4),
        trailing_newline=st.booleans(),
    )
    def test_loads_or_raises_checkpoint_error(self, lines, trailing_newline):
        raw = b"\n".join([_HEADER.encode(), *lines])
        if trailing_newline:
            raw += b"\n"
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "sweep.jsonl"
            path.write_bytes(raw)
            try:
                saved = load_checkpoint(path)
            except CheckpointError:
                return
        for fingerprint, entries in saved.items():
            for entry in entries:
                assert entry["fingerprint"] == fingerprint
                assert isinstance(fingerprint, str)
                assert isinstance(entry["result"], dict)
