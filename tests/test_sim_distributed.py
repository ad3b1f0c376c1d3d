"""Distributed sweep sharding: codec, protocol, coordinator, workers.

The headline guarantee mirrors the rest of the performance stack: a
sweep sharded over TCP workers is **bit-identical** to the serial
``run_outcomes`` -- results, retained trace records, events, and
metrics -- once the ``sweep.*`` / ``shard.*`` orchestration diagnostics
(which deliberately record the distribution history itself) are
filtered out.  Asserted on a fixed matrix with two live workers, and as
a hypothesis property over coordinator kill-and-resume points with a
worker disconnecting mid-lease.

Workers run as in-process threads against a real localhost TCP
coordinator, so every byte crosses a genuine socket; misbehaving
workers are simulated with a raw protocol client (lease-then-vanish,
stale results, wrong schema).
"""

from __future__ import annotations

import json
import math
import shutil
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.errors import CodecError, ConfigError, ShardError, SweepError
from repro.sim.cache import ResultCache, cache_key
from repro.sim.checkpoint import load_checkpoint, spec_fingerprint
from repro.sim.codec import (
    decode_value,
    encode_value,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.sim.distributed import (
    SHARD_SCHEMA,
    ClusterConfig,
    ShardCoordinator,
    parse_endpoint,
    run_cluster_outcomes,
    run_worker,
)
from repro.sim.distributed.protocol import read_message, write_message
from repro.sim.parallel import (
    RetryPolicy,
    SweepOptions,
    WorkSpec,
    execute_payloads,
    matrix_specs,
    run_outcomes,
)
from repro.sim.sweep import run_suite
from repro.telemetry.core import Telemetry
from tests.test_sim_parallel import assert_metrics_match, assert_results_equal

INSTRUCTIONS = 150_000
BENCHMARKS = ("gcc", "gzip")
POLICIES = ("none", "pid")
TOKEN = "secret"


def _specs() -> list[WorkSpec]:
    return matrix_specs(BENCHMARKS, POLICIES, instructions=INSTRUCTIONS)


def _quiet() -> Telemetry:
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


def _cluster(port: int = 0, **overrides) -> ClusterConfig:
    overrides.setdefault("token", TOKEN)
    overrides.setdefault("lease_seconds", 10.0)
    overrides.setdefault("heartbeat_seconds", 0.5)
    overrides.setdefault("poll_seconds", 0.02)
    return ClusterConfig(host="127.0.0.1", port=port, **overrides)


def _start_worker(port: int, token: str = TOKEN, **kwargs) -> threading.Thread:
    """A real worker in a daemon thread, serving one sweep then exiting."""
    kwargs.setdefault("once", True)
    kwargs.setdefault("idle_timeout", 60.0)
    kwargs.setdefault("reconnect_seconds", 0.05)
    thread = threading.Thread(
        target=run_worker,
        args=(_cluster(port, token=token),),
        kwargs=kwargs,
        daemon=True,
    )
    thread.start()
    return thread


def _run_distributed(
    specs,
    telemetry=None,
    options=None,
    workers: int = 2,
    cluster: ClusterConfig | None = None,
    before_workers=None,
):
    """Serve ``specs`` from a real coordinator with N worker threads."""
    coordinator = ShardCoordinator(
        specs,
        cluster if cluster is not None else _cluster(),
        options=options,
        telemetry=telemetry,
    )
    coordinator.start()
    threads = []
    try:
        if before_workers is not None:
            before_workers(coordinator)
        threads = [
            _start_worker(coordinator.port) for _ in range(workers)
        ]
        return coordinator.wait()
    finally:
        coordinator.request_stop()
        for thread in threads:
            thread.join(timeout=60)


class _RawClient:
    """A hand-rolled protocol client for simulating misbehaving workers."""

    def __init__(
        self,
        port: int,
        token: str = TOKEN,
        schema: str = SHARD_SCHEMA,
        name: str = "griefer",
    ) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.rfile = self.sock.makefile("r", encoding="utf-8")
        self.wfile = self.sock.makefile("w", encoding="utf-8")
        self.send(
            {
                "type": "hello",
                "schema": schema,
                "token": token,
                "worker": name,
                "capacity": 8,
            }
        )

    def send(self, message: dict) -> None:
        write_message(self.wfile, message)

    def read(self) -> dict | None:
        return read_message(self.rfile)

    def lease(self, max_leases: int = 8) -> dict:
        self.send({"type": "lease", "max": max_leases})
        return self.read()

    def close(self) -> None:
        self.sock.close()


def _comparable_events(telemetry):
    """Trace events minus the orchestration diagnostics."""
    return [
        e
        for e in telemetry.trace.events
        if not e.kind.startswith(("sweep.", "shard."))
    ]


def _comparable_metrics(telemetry):
    snapshot = telemetry.metrics.snapshot()
    return {
        name: stats
        for name, stats in snapshot.items()
        if not name.startswith(("events.sweep.", "events.shard."))
    }


def _records_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        for field in x.__dataclass_fields__:
            vx, vy = getattr(x, field), getattr(y, field)
            if vx != vy and not (
                isinstance(vx, float)
                and isinstance(vy, float)
                and math.isnan(vx)
                and math.isnan(vy)
            ):
                return False
    return True


# -- the codec ----------------------------------------------------------------
class TestCodec:
    def test_plain_spec_round_trips_with_identical_fingerprint(self):
        spec = WorkSpec(
            benchmark="gcc", policy="pid", seed=7, instructions=INSTRUCTIONS
        )
        decoded = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert decoded == spec
        assert spec_fingerprint(decoded) == spec_fingerprint(spec)

    def test_loaded_spec_round_trips(self):
        from repro.config import DTMConfig, FailsafeConfig, ThermalConfig
        from repro.control.pid import AntiWindup
        from repro.faults import FaultSchedule, FaultWindow

        spec = WorkSpec(
            benchmark="gzip",
            policy="pid",
            seed=3,
            instructions=INSTRUCTIONS,
            thermal_config=ThermalConfig(),
            dtm_config=DTMConfig(),
            anti_windup=AntiWindup.CONDITIONAL,
            setpoint=81.25,
            fault_schedule=FaultSchedule(
                seed=11,
                dropout_rate=0.01,
                sensor_stuck_windows=(FaultWindow(10, 20),),
            ),
            failsafe=FailsafeConfig(),
            tag=("a", 1, 2.5),
        )
        decoded = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert spec_fingerprint(decoded) == spec_fingerprint(spec)
        # FaultSchedule is a plain object (no __eq__): compare content.
        assert (
            decoded.fault_schedule.dropout_rate
            == spec.fault_schedule.dropout_rate
        )
        assert (
            decoded.fault_schedule.sensor_stuck_windows
            == spec.fault_schedule.sensor_stuck_windows
        )
        assert decoded.tag == spec.tag

    def test_ndarray_round_trips_exactly(self):
        array = np.array([[1.1, float("inf")], [-0.0, 2**-1074]])
        decoded = decode_value(
            json.loads(json.dumps(encode_value(array)))
        )
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert np.array_equal(decoded, array)

    def test_unregistered_types_are_rejected_both_ways(self):
        class Sneaky:
            pass

        with pytest.raises(CodecError):
            encode_value(Sneaky())
        with pytest.raises(CodecError):
            decode_value(
                {"__repro__": "object", "type": "Sneaky", "fields": {}}
            )

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(allow_nan=True, allow_infinity=True))
    def test_floats_survive_the_wire_repr_losslessly(self, value):
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert repr(decoded) == repr(value)


# -- protocol & config validation ---------------------------------------------
class TestProtocol:
    def test_parse_endpoint(self):
        assert parse_endpoint("localhost:8421") == ("localhost", 8421)
        assert parse_endpoint("10.0.0.2:1") == ("10.0.0.2", 1)
        assert parse_endpoint(
            "127.0.0.1:0", allow_ephemeral=True
        ) == ("127.0.0.1", 0)

    @pytest.mark.parametrize(
        "endpoint",
        ["nocolon", ":80", "host:", "host:abc", "host:70000", "host:0"],
    )
    def test_parse_endpoint_rejects(self, endpoint):
        with pytest.raises(ConfigError):
            parse_endpoint(endpoint)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"host": ""},
            {"host": "  "},
            {"port": -1},
            {"port": 65536},
            {"port": True},
            {"port": "80"},
            {"token": ""},
            {"token": "two\nlines"},
            {"lease_seconds": 0.0},
            {"heartbeat_seconds": 0.0},
            {"heartbeat_seconds": 31.0},  # >= lease_seconds default
            {"poll_seconds": 0.0},
        ],
    )
    def test_cluster_config_rejects(self, overrides):
        fields = dict(host="127.0.0.1", port=0, token=TOKEN)
        fields.update(overrides)
        with pytest.raises(ConfigError):
            ClusterConfig(**fields)

    def test_read_message_frames(self):
        import io

        stream = io.StringIO()
        write_message(stream, {"type": "hello", "x": 1.5})
        stream.seek(0)
        assert read_message(stream) == {"type": "hello", "x": 1.5}
        assert read_message(stream) is None  # clean EOF
        with pytest.raises(ShardError):
            read_message(io.StringIO("not json\n"))
        with pytest.raises(ShardError):
            read_message(io.StringIO('{"no_type": 1}\n'))


# -- authentication and protocol hygiene --------------------------------------
class TestHandshake:
    def test_wrong_token_is_fatal_for_the_worker(self):
        # One unsettled spec keeps the coordinator from reporting
        # "complete" to the mis-authenticated worker.
        coordinator = ShardCoordinator(
            _specs()[:1], _cluster(), telemetry=_quiet()
        )
        coordinator.start()
        try:
            with pytest.raises(ShardError, match="authentication"):
                run_worker(
                    _cluster(coordinator.port, token="wrong"),
                    once=True,
                    idle_timeout=10.0,
                )
        finally:
            coordinator.request_stop()
            with pytest.raises(ShardError, match="stopped before"):
                coordinator.wait()

    def test_schema_mismatch_is_rejected_explicitly(self):
        coordinator = ShardCoordinator(
            _specs()[:1], _cluster(), telemetry=_quiet()
        )
        coordinator.start()
        try:
            client = _RawClient(coordinator.port, schema="repro.shard/v999")
            reply = client.read()
            assert reply["type"] == "error"
            assert "repro.shard/v1" in reply["reason"]
            client.close()
        finally:
            coordinator.request_stop()
            with pytest.raises(ShardError):
                coordinator.wait()

    def test_malformed_result_gets_an_error_reply(self):
        coordinator = ShardCoordinator(
            _specs()[:1], _cluster(), telemetry=_quiet()
        )
        coordinator.start()
        try:
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            client.send(
                {
                    "type": "result",
                    "index": 999,
                    "fingerprint": "bogus",
                    "ok": False,
                }
            )
            reply = client.read()
            assert reply["type"] == "error"
            assert "index" in reply["reason"]
            client.close()
        finally:
            coordinator.request_stop()
            with pytest.raises(ShardError):
                coordinator.wait()

    @pytest.mark.parametrize(
        "message",
        [
            {"type": "result", "attempt": None},
            {"type": "result", "attempt": "x"},
            {"type": "result", "attempt": -7},
            {"type": "result", "attempt": True},
            {"type": "result", "ok": "yes"},
            {"type": "result", "failure": ["kind", "error"]},
            {"type": "lease", "max": "x"},
            {"type": "lease", "max": None},
            {"type": "lease", "max": [1]},
        ],
        ids=[
            "attempt-none", "attempt-str", "attempt-negative",
            "attempt-bool", "ok-str", "failure-list", "max-str",
            "max-none", "max-list",
        ],
    )
    def test_malformed_fields_get_an_error_reply(self, message):
        """Worker-supplied numbers and objects are checked, never
        trusted: a bad field gets an ``error`` reply, settles nothing,
        and the connection's lease requeues uncharged."""
        coordinator = ShardCoordinator(
            _specs()[:1], _cluster(), telemetry=_quiet()
        )
        coordinator.start()
        try:
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            lease = client.lease(1)["leases"][0]
            client.send(
                {
                    "index": lease["index"],
                    "fingerprint": lease["fingerprint"],
                    "attempt": lease["attempt"],
                    "ok": False,
                    "failure": {"kind": "error", "exc_type": "Boom"},
                    **message,
                }
            )
            reply = client.read()
            assert reply["type"] == "error"
            assert client.read() is None  # the coordinator hung up
            client.close()
            deadline = time.monotonic() + 10
            while coordinator.stats()["pending"] != 1:
                assert time.monotonic() < deadline, coordinator.stats()
                time.sleep(0.01)
            assert coordinator.stats()["settled"] == 0
        finally:
            coordinator.request_stop()
            with pytest.raises(ShardError, match="stopped before"):
                coordinator.wait()

    def test_failures_are_charged_at_the_issued_attempt(self):
        """A worker claiming attempt 99 cannot spend the spec's whole
        retry budget: the coordinator charges the attempt it issued."""
        coordinator = ShardCoordinator(
            _specs()[:1],
            _cluster(),
            options=SweepOptions(retry=RetryPolicy(max_retries=3)),
            telemetry=_quiet(),
        )
        coordinator.start()
        try:
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            for issued in range(2):
                lease = client.lease(1)["leases"][0]
                assert lease["attempt"] == issued
                client.send(
                    {
                        "type": "result",
                        "index": lease["index"],
                        "fingerprint": lease["fingerprint"],
                        "attempt": 99,
                        "ok": False,
                        "failure": {"kind": "error", "exc_type": "Boom"},
                    }
                )
                assert client.read()["type"] == "ack"
            assert coordinator.stats()["settled"] == 0
            assert client.lease(1)["leases"][0]["attempt"] == 2
            client.close()
        finally:
            coordinator.request_stop()
            with pytest.raises(ShardError, match="stopped before"):
                coordinator.wait()


# -- worker-side execution entry ----------------------------------------------
class TestExecutePayloads:
    def test_settled_payloads_match_serial_execution(self):
        specs = [
            WorkSpec(
                benchmark="gcc", policy="pid", instructions=INSTRUCTIONS
            ),
            WorkSpec(
                benchmark="__nope__", policy="pid", instructions=INSTRUCTIONS
            ),
        ]
        payloads = execute_payloads(specs, jobs=1)
        assert payloads[0][0] == "ok"
        serial = run_outcomes([specs[0]], jobs=1)[0].result
        assert_results_equal(payloads[0][1], serial)
        kind, exc_type, message, traceback = payloads[1]
        assert kind == "error"
        assert "__nope__" in message
        assert traceback  # captured for the coordinator's diagnostics


    @pytest.mark.parametrize("jobs,batch", [(1, 1), (2, 4)])
    def test_payloads_for_every_jobs_and_batch(self, jobs, batch):
        specs = [
            WorkSpec(benchmark=name, policy="pid", instructions=INSTRUCTIONS)
            for name in ("gcc", "__nope__", "gzip")
        ]
        config = TelemetryConfig(sample_latency=False, profile=False)
        payloads = execute_payloads(
            specs, jobs=jobs, batch=batch, telemetry_config=config
        )
        assert [p[0] for p in payloads] == ["ok", "error", "ok"]
        for spec, payload in zip(specs[::2], payloads[::2]):
            assert len(payload) == 3
            assert_results_equal(payload[1], run_outcomes([spec])[0].result)
            assert payload[2].trace.records()  # the run's local telemetry
        kind, exc_type, message, traceback = payloads[1]
        assert "__nope__" in message and traceback


# -- the distributed <-> serial bit-identity contract -------------------------
#: Built once per session: the serial reference sweep (journaled) and
#: one checkpointed 2-worker distributed sweep over the same specs.
_reference_cache: dict = {}


def _reference(root):
    if not _reference_cache:
        specs = _specs()
        serial_sink = _quiet()
        serial_path = root / "serial-reference.ckpt.jsonl"
        serial_outcomes = run_outcomes(
            specs,
            jobs=1,
            telemetry=serial_sink,
            options=SweepOptions(checkpoint_path=serial_path),
        )
        distributed_sink = _quiet()
        distributed_path = root / "distributed-reference.ckpt.jsonl"
        distributed_outcomes = _run_distributed(
            specs,
            telemetry=distributed_sink,
            options=SweepOptions(checkpoint_path=distributed_path),
        )
        _reference_cache.update(
            specs=specs,
            serial_outcomes=serial_outcomes,
            serial_telemetry=serial_sink,
            serial_journal_lines=serial_path.read_text().splitlines(True),
            distributed_outcomes=distributed_outcomes,
            distributed_telemetry=distributed_sink,
            distributed_journal_lines=(
                distributed_path.read_text().splitlines(True)
            ),
        )
    return _reference_cache


class TestBitIdentity:
    def test_two_workers_match_serial_exactly(self, tmp_path_factory):
        reference = _reference(tmp_path_factory.getbasetemp())
        serial = reference["serial_outcomes"]
        distributed = reference["distributed_outcomes"]
        assert len(distributed) == len(serial)
        for d, s in zip(distributed, serial):
            assert d.error is None
            assert d.attempts == 1
            assert not d.from_checkpoint
            assert_results_equal(d.result, s.result)

    def test_telemetry_folds_match_serial(self, tmp_path_factory):
        reference = _reference(tmp_path_factory.getbasetemp())
        serial = reference["serial_telemetry"]
        distributed = reference["distributed_telemetry"]
        assert _records_equal(
            distributed.trace.records(), serial.trace.records()
        )
        assert _comparable_events(distributed) == _comparable_events(serial)
        assert_metrics_match(
            _comparable_metrics(serial), _comparable_metrics(distributed)
        )

    def test_journal_entries_are_byte_identical_to_serial(
        self, tmp_path_factory
    ):
        """Settlement *order* races between workers, but each journaled
        line -- fingerprint, attempts, repr-lossless result and
        telemetry payloads -- is the exact line a local sweep writes."""
        reference = _reference(tmp_path_factory.getbasetemp())
        serial = reference["serial_journal_lines"]
        distributed = reference["distributed_journal_lines"]
        assert serial[0] == distributed[0]  # the repro.sweep/v1 header
        assert sorted(serial[1:]) == sorted(distributed[1:])

    def test_many_workers_fold_in_spec_order(self):
        """More worker threads than cores and a short switch interval:
        specs settle out of order on concurrent handler threads, and
        the in-lock fold still reproduces the serial sink exactly."""
        specs = matrix_specs(
            BENCHMARKS, ("none", "pid", "toggle1"), instructions=60_000
        )
        serial_sink = _quiet()
        serial = run_outcomes(specs, telemetry=serial_sink)
        sink = _quiet()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = _run_distributed(specs, telemetry=sink, workers=6)
        finally:
            sys.setswitchinterval(interval)
        for d, s in zip(outcomes, serial):
            assert_results_equal(d.result, s.result)
        assert _records_equal(
            sink.trace.records(), serial_sink.trace.records()
        )
        assert _comparable_events(sink) == _comparable_events(serial_sink)
        assert_metrics_match(
            _comparable_metrics(serial_sink), _comparable_metrics(sink)
        )

    def test_run_suite_routes_through_the_cluster(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        cluster = _cluster(port)
        worker = _start_worker(port)
        try:
            distributed = run_suite(
                ["pid"],
                benchmarks=["gcc"],
                instructions=INSTRUCTIONS,
                cluster=cluster,
            )
        finally:
            worker.join(timeout=60)
        serial = run_suite(["pid"], benchmarks=["gcc"], instructions=INSTRUCTIONS)
        assert distributed.keys() == serial.keys()
        for key in serial:
            assert_results_equal(distributed[key], serial[key])


# -- failure model ------------------------------------------------------------
class TestFaultTolerance:
    def test_worker_disconnect_mid_lease_requeues_uncharged(self):
        telemetry = _quiet()

        def grief(coordinator):
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            grant = client.lease()
            assert grant["state"] == "ok" and grant["leases"]
            client.close()  # vanish with the leases held

        outcomes = _run_distributed(
            _specs(), telemetry=telemetry, workers=1, before_workers=grief
        )
        assert all(o.error is None and o.attempts == 1 for o in outcomes)
        kinds = [e.kind for e in telemetry.trace.events]
        assert "shard.worker_lost" in kinds

    def test_expired_lease_requeues_uncharged(self):
        telemetry = _quiet()
        cluster = _cluster(lease_seconds=0.6, heartbeat_seconds=0.2)
        clients = []

        def hoard(coordinator):
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            grant = client.lease()
            assert grant["state"] == "ok"
            clients.append(client)  # stay connected, never heartbeat

        outcomes = _run_distributed(
            _specs(),
            telemetry=telemetry,
            workers=1,
            cluster=cluster,
            before_workers=hoard,
        )
        for client in clients:
            client.close()
        assert all(o.error is None and o.attempts == 1 for o in outcomes)
        kinds = [e.kind for e in telemetry.trace.events]
        assert "shard.lease_expired" in kinds

    def test_stale_duplicate_result_is_acked_and_ignored(self):
        telemetry = _quiet()
        specs = _specs()
        stale: dict = {}

        def hold_then_submit(coordinator):
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            grant = client.lease(1)
            assert grant["state"] == "ok"
            stale["lease"] = grant["leases"][0]
            stale["client"] = client

        outcomes = _run_distributed(
            specs,
            telemetry=telemetry,
            workers=1,
            cluster=_cluster(lease_seconds=0.6, heartbeat_seconds=0.2),
            before_workers=hold_then_submit,
        )
        assert all(o.error is None for o in outcomes)
        # The long-expired holder finally reports a failure for its
        # settled spec: acked (it is not at fault) and ignored.
        client = stale["client"]
        lease = stale["lease"]
        client.send(
            {
                "type": "result",
                "index": lease["index"],
                "fingerprint": lease["fingerprint"],
                "attempt": lease["attempt"],
                "ok": False,
                "failure": {"kind": "error", "exc_type": "RuntimeError"},
            }
        )
        assert client.read()["type"] == "ack"
        client.close()
        assert outcomes[lease["index"]].error is None
        kinds = [e.kind for e in telemetry.trace.events]
        assert "shard.duplicate" in kinds

    def test_execution_failures_are_charged_and_retried(self):
        telemetry = _quiet()
        specs = _specs() + [
            WorkSpec(
                benchmark="__nope__", policy="pid", instructions=INSTRUCTIONS
            )
        ]
        outcomes = _run_distributed(
            specs,
            telemetry=telemetry,
            workers=2,
            options=SweepOptions(
                retry=RetryPolicy(max_retries=2, backoff_seconds=0.01)
            ),
        )
        good, bad = outcomes[:-1], outcomes[-1]
        assert all(o.error is None and o.attempts == 1 for o in good)
        assert bad.error is not None
        assert bad.attempts == 3  # initial try + two retries
        assert "__nope__" in bad.error.message
        kinds = [e.kind for e in telemetry.trace.events]
        assert kinds.count("shard.retry") == 2
        assert kinds.count("shard.spec_failed") == 1

    def test_strict_mode_aggregates_permanent_failures(self):
        specs = [
            WorkSpec(
                benchmark="__nope__", policy="pid", instructions=INSTRUCTIONS
            )
        ]
        with pytest.raises(SweepError, match="__nope__"):
            _run_distributed(
                specs, workers=1, options=SweepOptions(strict=True)
            )

    def test_malformed_telemetry_is_rejected_before_it_is_stored(
        self, tmp_path
    ):
        """A result whose telemetry payload does not decode gets an
        ``error`` reply, leaves no journal line and no cache entry, and
        its lease requeues to an honest worker."""
        specs = _specs()[:1]
        journal = tmp_path / "sweep.ckpt.jsonl"
        store = tmp_path / "cache"
        serial = run_outcomes(specs)[0].result
        coordinator = ShardCoordinator(
            specs,
            _cluster(),
            options=SweepOptions(checkpoint_path=journal),
            telemetry=_quiet(),
            cache=store,
        )
        coordinator.start()
        worker = None
        try:
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            lease = client.lease(1)["leases"][0]
            client.send(
                {
                    "type": "result",
                    "index": lease["index"],
                    "fingerprint": lease["fingerprint"],
                    "attempt": lease["attempt"],
                    "ok": True,
                    "result": result_to_dict(serial),
                    "telemetry": {"records": [{"bogus": 1}]},
                }
            )
            reply = client.read()
            assert reply["type"] == "error"
            assert "telemetry" in reply["reason"]
            client.close()
            assert load_checkpoint(journal) == {}
            assert ResultCache(store).lookup(cache_key(specs[0])) is None
            worker = _start_worker(coordinator.port)
            outcomes = coordinator.wait()
        finally:
            coordinator.request_stop()
            if worker is not None:
                worker.join(timeout=60)
        assert outcomes[0].error is None and outcomes[0].attempts == 1
        assert_results_equal(outcomes[0].result, serial)
        # The store holds the honest result, and replays it warm.
        warm = run_outcomes(specs, telemetry=_quiet(), cache=store)
        assert warm[0].from_cache
        assert_results_equal(warm[0].result, serial)


# -- coordinator kill-and-resume ----------------------------------------------
class TestResume:
    @settings(max_examples=4, deadline=None)
    @given(completed=st.integers(min_value=0, max_value=4))
    def test_killed_coordinator_resumes_bit_identically(
        self, completed, tmp_path_factory
    ):
        """Truncate the journal to N settled specs (the on-disk state a
        ``kill -9``'d coordinator leaves), resume distributed -- with a
        worker vanishing mid-lease for good measure -- and the sweep is
        bit-identical to the serial reference."""
        root = tmp_path_factory.getbasetemp()
        reference = _reference(root)
        specs = reference["specs"]
        workdir = tmp_path_factory.mktemp("shard-resume")
        path = workdir / "sweep.ckpt.jsonl"
        path.write_text(
            "".join(reference["serial_journal_lines"][: 1 + completed])
        )
        telemetry = _quiet()

        def grief(coordinator):
            client = _RawClient(coordinator.port)
            assert client.read()["type"] == "welcome"
            grant = client.lease()
            if completed < len(specs):
                assert grant["state"] == "ok" and grant["leases"]
            client.close()

        outcomes = _run_distributed(
            specs,
            telemetry=telemetry,
            workers=1,
            options=SweepOptions(checkpoint_path=path, resume=True),
            before_workers=grief,
        )
        assert [o.from_checkpoint for o in outcomes] == [
            index < completed for index in range(len(outcomes))
        ]
        for resumed, serial in zip(outcomes, reference["serial_outcomes"]):
            assert_results_equal(resumed.result, serial.result)
        serial_sink = reference["serial_telemetry"]
        assert _records_equal(
            telemetry.trace.records(), serial_sink.trace.records()
        )
        assert _comparable_events(telemetry) == _comparable_events(
            serial_sink
        )
        assert_metrics_match(
            _comparable_metrics(serial_sink), _comparable_metrics(telemetry)
        )
        # The journal is whole again: its fingerprint multiset is
        # exactly the sweep's, so a further resume re-runs nothing.
        saved = load_checkpoint(path)
        journaled = sorted(
            fingerprint
            for fingerprint, entries in saved.items()
            for _ in entries
        )
        assert journaled == sorted(spec_fingerprint(s) for s in specs)

    def test_live_stop_then_resume_completes_the_sweep(self, tmp_path):
        """``request_stop`` mid-sweep (the SIGTERM path) keeps every
        settled spec durable; a fresh coordinator finishes the rest."""
        specs = _specs()
        path = tmp_path / "sweep.ckpt.jsonl"
        coordinator = ShardCoordinator(
            specs,
            _cluster(),
            options=SweepOptions(checkpoint_path=path),
            telemetry=_quiet(),
        )
        coordinator.start()
        worker = _start_worker(coordinator.port)
        try:
            deadline = time.monotonic() + 60
            while coordinator.stats()["settled"] < 1:
                if time.monotonic() >= deadline:
                    pytest.fail("no spec settled within 60s")
                time.sleep(0.01)
            coordinator.request_stop()
            with pytest.raises(ShardError, match="stopped before"):
                coordinator.wait()
        finally:
            worker.join(timeout=60)
        settled = sum(len(v) for v in load_checkpoint(path).values())
        assert settled >= 1
        outcomes = _run_distributed(
            specs,
            telemetry=_quiet(),
            workers=1,
            options=SweepOptions(checkpoint_path=path, resume=True),
        )
        assert sum(o.from_checkpoint for o in outcomes) == settled
        serial = run_outcomes(specs, jobs=1)
        for d, s in zip(outcomes, serial):
            assert_results_equal(d.result, s.result)

    def test_mixed_presettlement_matches_the_local_runner(self, tmp_path):
        """Journal holds spec 0, the cache specs 0 and 1, spec 2 is
        fresh: the coordinator pre-settles exactly as ``run_outcomes``
        does.  The journal wins over the cache, the resumed entry warms
        the cache, the cache hit is journaled, and the journals, stores
        and sinks (orchestration events aside) come out identical."""
        specs = _specs()[:3]
        state = tmp_path / "state"
        journal = state / "sweep.ckpt.jsonl"
        store = state / "cache"
        run_outcomes(
            specs[:1],
            telemetry=_quiet(),
            options=SweepOptions(checkpoint_path=journal),
        )
        # Spec 0's cache entry has no telemetry, so only the resumed
        # journal entry can warm it into a telemetry-bearing hit.
        run_outcomes(specs[:1], cache=store)
        run_outcomes(specs[1:2], telemetry=_quiet(), cache=store)
        key0 = cache_key(specs[0])
        assert ResultCache(store).lookup(key0, need_telemetry=True) is None
        pristine = tmp_path / "pristine"
        shutil.copytree(state, pristine)
        options = SweepOptions(checkpoint_path=journal, resume=True)

        def snapshot(outcomes, sink):
            assert ResultCache(store).lookup(key0, need_telemetry=True)
            return {
                "outcomes": outcomes,
                "sink": sink,
                "journal": journal.read_bytes(),
                "store": (store / "cache.log").read_bytes(),
            }

        local_sink = _quiet()
        local = snapshot(
            run_outcomes(
                specs, telemetry=local_sink, options=options, cache=store
            ),
            local_sink,
        )
        shutil.rmtree(state)
        shutil.copytree(pristine, state)
        shard_sink = _quiet()
        coordinator = ShardCoordinator(
            specs, _cluster(), options=options, telemetry=shard_sink,
            cache=store,
        )
        coordinator.start()
        worker = _start_worker(coordinator.port)
        try:
            shard = snapshot(coordinator.wait(), shard_sink)
        finally:
            coordinator.request_stop()
            worker.join(timeout=60)

        for run in (local, shard):
            assert [
                (o.from_checkpoint, o.from_cache, o.attempts)
                for o in run["outcomes"]
            ] == [(True, False, 1), (False, True, 1), (False, False, 1)]
        for a, b in zip(local["outcomes"], shard["outcomes"]):
            assert_results_equal(a.result, b.result)
        assert shard["journal"] == local["journal"]
        assert len(load_checkpoint(journal)) == len(specs)
        assert shard["store"] == local["store"]
        assert _records_equal(
            shard_sink.trace.records(), local_sink.trace.records()
        )
        assert _comparable_events(shard_sink) == _comparable_events(
            local_sink
        )
        assert_metrics_match(
            _comparable_metrics(local_sink), _comparable_metrics(shard_sink)
        )
