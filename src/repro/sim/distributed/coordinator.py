"""The shard coordinator: lease specs to TCP workers, settle their results.

:class:`ShardCoordinator` is a :class:`repro.sim.parallel._SweepLedger`
-- the settlement bookkeeping every local sweep runs through -- plus the
parts that are its own: leases, heartbeats, lease expiry, the
``repro.shard/v1`` TCP handler (:mod:`.protocol`) and retry backoff as a
lease's ``not_before``.  Everything else is the ledger's, so a
distributed sweep resumes, caches, journals, retries and folds exactly
as a local ``run_outcomes`` does:

* **Results** in spec order, each decoded through the shared codec
  (``repr``-lossless floats), so a distributed sweep's outcomes equal a
  local ``run_outcomes`` bit-for-bit.
* **Telemetry** folded as specs settle, in spec order and under the
  coordinator's lock, via :func:`~repro.sim.codec.fold_saved_telemetry`
  -- the identical path a checkpoint resume uses, so retained
  traces/events/metrics match the serial emit sequence exactly.
  Coordinator orchestration diagnostics (``shard.*`` events) are, like
  ``sweep.*``, excluded from parity.
* **Durability** before acknowledgement: a worker's ``result`` is
  decoded, journaled (``repro.sweep/v1``, fsync'd) and cached before
  the ``ack`` goes back, so a coordinator killed at any instant resumes
  from its checkpoint with nothing double-counted and at most one
  in-flight result re-run.  A result whose result or telemetry payload
  does not decode gets an ``error`` reply and changes nothing.

Failure model.  Liveness failures are *uncharged*: a worker that
disconnects or stops heartbeating forfeits its leases, which requeue at
the same attempt number (events ``shard.worker_lost`` /
``shard.lease_expired``).  Execution failures reported by a worker are
*charged* against the spec's :class:`~repro.sim.parallel.RetryPolicy`
budget at the attempt number the coordinator itself issued -- never a
number the worker supplies -- with the usual deterministic backoff
(served as a ``not_before`` on the requeued lease rather than a
coordinator-side sleep) and ``shard.retry`` / ``shard.spec_failed``
events.  A stale result for an already-settled spec is ignored -- every
run is a pure function of its spec, so the first settlement is as good
as any.
"""

from __future__ import annotations

import hmac
import io
import socketserver
import threading
import time

from repro.errors import ShardError
from repro.sim.codec import (
    check_telemetry_payload,
    result_from_dict,
    spec_to_dict,
)
from repro.sim.distributed.protocol import (
    SHARD_SCHEMA,
    ClusterConfig,
    read_message,
    write_message,
)
from repro.sim.parallel import SpecOutcome, SweepOptions, _SweepLedger


def _wire_int(value, what: str) -> int:
    """A worker-supplied integer field, or :class:`ShardError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ShardError(f"{what} must be an int, got {value!r}")
    return value


class _Lease:
    """One outstanding lease: who holds it, which attempt, until when."""

    __slots__ = ("worker", "attempt", "deadline")

    def __init__(self, worker: str, attempt: int, deadline: float) -> None:
        self.worker = worker
        self.attempt = attempt
        self.deadline = deadline


class ShardCoordinator(_SweepLedger):
    """Serve one sweep's specs to TCP workers; collect ordered outcomes.

    Lifecycle: :meth:`start` binds and begins accepting workers (it
    returns immediately; ``port=0`` in the :class:`ClusterConfig` binds
    an ephemeral port, readable afterwards as :attr:`port`);
    :meth:`wait` blocks until every spec is settled and returns the
    outcomes; :meth:`serve` is start-wait-shutdown in one call.
    :meth:`request_stop` (thread- and signal-safe) aborts the sweep:
    the journal keeps everything settled so far, and :meth:`wait`
    raises :class:`~repro.errors.ShardError` to signal the partial
    sweep -- a later coordinator resumes from the checkpoint.
    """

    _EVENTS = "shard"

    def __init__(
        self,
        specs,
        cluster: ClusterConfig,
        options: SweepOptions | None = None,
        telemetry=None,
        cache=None,
    ) -> None:
        if not isinstance(cluster, ClusterConfig):
            raise ShardError(
                f"cluster must be a ClusterConfig, got {cluster!r}"
            )
        # Cache hits settle before the server starts -- never leased,
        # never shipped over the wire; fresh worker results write back
        # verbatim from their wire payloads.
        super().__init__(
            list(specs),
            telemetry,
            options if options is not None else SweepOptions(),
            cache,
            fingerprints=True,
        )
        self.cluster = cluster
        self._spec_payloads = [spec_to_dict(spec) for spec in self.specs]
        #: The attempt number of each spec's latest lease: a worker's
        #: failure is charged against this, not against its own claim.
        self._issued = [0] * len(self.specs)
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        #: (index, attempt, not_before) triples awaiting a lease.  Leases
        #: expire on the *coordinator's* monotonic clock only.
        self._pending: list[tuple[int, int, float]] = []
        self._leases: dict[int, _Lease] = {}
        self._server: _ShardServer | None = None
        self._server_thread: threading.Thread | None = None
        self._stop_requested = False
        self._connection_seq = 0
        self._executed = 0

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self.cluster.port
        return self._server.server_address[1]

    @property
    def complete(self) -> bool:
        """Whether every spec has settled (result or permanent failure)."""
        with self._lock:
            return self._complete_locked()

    def _complete_locked(self) -> bool:
        return all(outcome is not None for outcome in self.outcomes)

    def start(self) -> None:
        """Open the journal, pre-settle resumed and cached specs, accept."""
        if self._server is not None:
            raise ShardError("coordinator already started")
        with self._lock:
            now = time.monotonic()
            self._pending = [
                (index, 0, now) for index in self._open_journal()
            ]
            self._fold_settled()
        self._server = _ShardServer(
            (self.cluster.host, self.cluster.port), _ShardHandler, self
        )
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="shard-coordinator",
            daemon=True,
        )
        self._server_thread.start()

    def wait(self) -> list[SpecOutcome]:
        """Block until the sweep settles; return the outcomes.

        Raises :class:`ShardError` if :meth:`request_stop` aborted the
        sweep first, and :class:`~repro.errors.SweepError` under
        ``options.strict`` when specs failed permanently.  Telemetry of
        every settled spec is folded (in spec order) even on the abort
        and KeyboardInterrupt paths, mirroring ``run_outcomes``.
        """
        if self._server is None:
            raise ShardError("coordinator not started")
        try:
            with self._settled:
                while not (
                    self._complete_locked() or self._stop_requested
                ):
                    self._expire_leases_locked(time.monotonic())
                    # Short waits double as the lease-expiry reaper tick.
                    self._settled.wait(
                        min(1.0, self.cluster.heartbeat_seconds)
                    )
        finally:
            self._shutdown()
        if not self.complete:
            raise ShardError(
                "coordinator stopped before the sweep completed "
                f"({sum(o is not None for o in self.outcomes)} of "
                f"{len(self.specs)} specs settled; the checkpoint "
                "journal, if any, holds them for resume)"
            )
        return self._checked_outcomes()

    def serve(self) -> list[SpecOutcome]:
        """Run the whole sweep: :meth:`start`, :meth:`wait`, shut down."""
        self.start()
        return self.wait()

    def request_stop(self) -> None:
        """Abort the sweep (idempotent; safe from signal handlers)."""
        with self._settled:
            self._stop_requested = True
            self._settled.notify_all()

    def _shutdown(self) -> None:
        """Stop accepting, drop workers, close the ledger (idempotent)."""
        server, self._server_thread = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        with self._lock:
            self.close()
            self.fold_telemetry()

    # -- handler-side operations (all under the lock) ------------------------
    def _check_token(self, token) -> bool:
        return isinstance(token, str) and hmac.compare_digest(
            token, self.cluster.token
        )

    def _register_connection(self, name: str) -> str:
        with self._lock:
            self._connection_seq += 1
            return f"{name}#{self._connection_seq}"

    def _expire_leases_locked(self, now: float) -> None:
        expired = [
            index
            for index, lease in self._leases.items()
            if lease.deadline <= now
        ]
        for index in expired:
            lease = self._leases.pop(index)
            spec = self.specs[index]
            self._event(
                "shard.lease_expired",
                index,
                f"{spec.benchmark}/{spec.policy} lease expired on "
                f"{lease.worker}; requeueing",
                worker=lease.worker,
                attempt=lease.attempt + 1,
            )
            self._pending.append((index, lease.attempt, now))

    def grant(self, worker: str, max_leases) -> dict:
        """Lease up to ``max_leases`` ready specs to ``worker``.

        Returns the ``grant`` message: ``complete`` when every spec is
        settled, ``wait`` (with a retry hint) when nothing is ready
        right now, else ``ok`` with the leases.  A non-int
        ``max_leases`` raises :class:`ShardError`.
        """
        max_leases = max(1, _wire_int(max_leases, "lease max"))
        now = time.monotonic()
        with self._lock:
            self._expire_leases_locked(now)
            if self._complete_locked() or self._stop_requested:
                return {"type": "grant", "state": "complete", "leases": []}
            ready: list[tuple[int, int]] = []
            waiting: list[tuple[int, int, float]] = []
            for index, attempt, not_before in self._pending:
                if not_before <= now and len(ready) < max_leases:
                    ready.append((index, attempt))
                else:
                    waiting.append((index, attempt, not_before))
            if not ready:
                delays = [
                    not_before - now for _, _, not_before in waiting
                ] or [self.cluster.poll_seconds]
                return {
                    "type": "grant",
                    "state": "wait",
                    "leases": [],
                    "retry_seconds": max(
                        min(min(delays), self.cluster.poll_seconds), 0.0
                    ),
                }
            self._pending = waiting
            deadline = now + self.cluster.lease_seconds
            leases = []
            for index, attempt in ready:
                self._leases[index] = _Lease(worker, attempt, deadline)
                self._issued[index] = attempt
                leases.append(
                    {
                        "index": index,
                        "attempt": attempt,
                        "fingerprint": self._fingerprints[index],
                        "spec": self._spec_payloads[index],
                    }
                )
            return {"type": "grant", "state": "ok", "leases": leases}

    def heartbeat(self, worker: str) -> None:
        """Extend every lease the worker holds."""
        deadline = time.monotonic() + self.cluster.lease_seconds
        with self._lock:
            for lease in self._leases.values():
                if lease.worker == worker:
                    lease.deadline = deadline

    def drop_worker(self, worker: str) -> None:
        """Requeue (uncharged) every lease of a departed worker."""
        now = time.monotonic()
        with self._settled:
            lost = [
                index
                for index, lease in self._leases.items()
                if lease.worker == worker
            ]
            for index in lost:
                lease = self._leases.pop(index)
                self._pending.append((index, lease.attempt, now))
            if lost:
                self._event(
                    "shard.worker_lost",
                    lost[0],
                    f"worker {worker} disconnected with {len(lost)} "
                    f"lease(s); requeueing them",
                    worker=worker,
                    leases=len(lost),
                )
                self._settled.notify_all()

    def settle(self, worker: str, message: dict) -> None:
        """Apply one worker ``result`` message (journal before return).

        Every field is checked, and the result and telemetry payloads
        decoded, before any state changes: a malformed message raises
        :class:`ShardError`, which the handler turns into an ``error``
        reply before dropping the connection, and the lease requeues
        through :meth:`drop_worker`.
        """
        index = message.get("index")
        if not isinstance(index, int) or not 0 <= index < len(self.specs):
            raise ShardError(f"result has an invalid spec index {index!r}")
        if message.get("fingerprint") != self._fingerprints[index]:
            raise ShardError(
                f"result fingerprint does not match spec {index}"
            )
        if _wire_int(message.get("attempt"), "result attempt") < 0:
            raise ShardError("result attempt must not be negative")
        ok = message.get("ok")
        if not isinstance(ok, bool):
            raise ShardError(f"result ok must be a bool, got {ok!r}")
        if ok:
            result_payload = message.get("result")
            telemetry_payload = message.get("telemetry")
            try:
                result = result_from_dict(result_payload)
                check_telemetry_payload(
                    telemetry_payload, getattr(self.sink, "config", None)
                )
            except Exception as error:
                raise ShardError(
                    f"undecodable result for spec {index}: {error}"
                ) from error
        else:
            failure = message.get("failure") or {}
            if not isinstance(failure, dict):
                raise ShardError(
                    f"result failure must be an object, got {failure!r}"
                )
        spec = self.specs[index]
        with self._settled:
            lease = self._leases.get(index)
            if lease is not None and lease.worker == worker:
                del self._leases[index]
            if self.outcomes[index] is not None:
                # A stale duplicate (its lease expired and another
                # worker finished first): results are pure functions
                # of the spec, so the first settlement stands.
                self._event(
                    "shard.duplicate",
                    index,
                    f"{spec.benchmark}/{spec.policy} already settled; "
                    f"ignoring duplicate from {worker}",
                    worker=worker,
                )
                self._settled.notify_all()
                return
            # Drop any stray pending entry for this index first (a
            # lease may have expired and requeued before this late
            # result landed); a charged failure below re-queues its
            # own retry entry, which must survive.
            self._pending = [
                entry for entry in self._pending if entry[0] != index
            ]
            attempt = self._issued[index]
            if ok:
                self._settle_payload(
                    index, attempt + 1, result, result_payload,
                    telemetry_payload,
                )
                self._executed += 1
                self._fold_settled()
            else:
                delay = self._charge_failure(
                    index,
                    attempt,
                    str(failure.get("kind", "error")),
                    str(failure.get("exc_type", "Exception")),
                    str(failure.get("message", "")),
                    str(failure.get("traceback", "")),
                    worker=worker,
                )
                if delay is not None:
                    # Backoff without blocking the handler thread: the
                    # requeued lease is not grantable until not_before.
                    self._pending.append(
                        (index, attempt + 1, time.monotonic() + delay)
                    )
            self._settled.notify_all()

    def stats(self) -> dict:
        """Progress counters (settled/executed/resumed/cached/...)."""
        with self._lock:
            return {
                "total": len(self.specs),
                "settled": sum(o is not None for o in self.outcomes),
                "executed": self._executed,
                "resumed": self._resumed,
                "cached": self._cached,
                "leased": len(self._leases),
                "pending": len(self._pending),
            }


class _ShardServer(socketserver.ThreadingTCPServer):
    """One thread per worker connection; daemonic so aborts never hang."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, coordinator: ShardCoordinator):
        self.coordinator = coordinator
        super().__init__(address, handler)


class _ShardHandler(socketserver.StreamRequestHandler):
    """One worker connection: authenticate, then serve its requests."""

    def setup(self) -> None:
        # socketserver hands out binary streams; the protocol is
        # line-delimited UTF-8 text on both sides.
        super().setup()
        self.rfile = io.TextIOWrapper(self.rfile, encoding="utf-8")
        self.wfile = io.TextIOWrapper(self.wfile, encoding="utf-8")

    def finish(self) -> None:
        try:
            super().finish()
        except (BrokenPipeError, ConnectionResetError, OSError, ValueError):
            pass  # flushing to a vanished worker is not an error

    def handle(self) -> None:
        coordinator: ShardCoordinator = self.server.coordinator
        try:
            hello = read_message(self.rfile)
        except ShardError:
            return  # garbage before hello: drop silently
        if hello is None or hello["type"] != "hello":
            return
        if hello.get("schema") != SHARD_SCHEMA:
            write_message(
                self.wfile,
                {
                    "type": "error",
                    "reason": (
                        f"schema {hello.get('schema')!r} is not "
                        f"{SHARD_SCHEMA!r}"
                    ),
                },
            )
            return
        if not coordinator._check_token(hello.get("token")):
            write_message(
                self.wfile,
                {"type": "error", "reason": "authentication failed"},
            )
            return
        worker = coordinator._register_connection(
            str(hello.get("worker", "worker"))
        )
        sink = coordinator.sink
        write_message(
            self.wfile,
            {
                "type": "welcome",
                "schema": SHARD_SCHEMA,
                "lease_seconds": coordinator.cluster.lease_seconds,
                "heartbeat_seconds": coordinator.cluster.heartbeat_seconds,
                "telemetry": {
                    "enabled": sink.enabled,
                    "sample_latency": (
                        sink.config.sample_latency
                        if getattr(sink, "config", None) is not None
                        else True
                    ),
                },
            },
        )
        try:
            while True:
                try:
                    message = read_message(self.rfile)
                except ShardError:
                    break  # stream corrupted: drop the worker
                if message is None or message["type"] == "bye":
                    break
                kind = message["type"]
                if kind == "heartbeat":
                    coordinator.heartbeat(worker)
                    continue
                try:
                    if kind == "lease":
                        reply = coordinator.grant(
                            worker, message.get("max", 1)
                        )
                    elif kind == "result":
                        coordinator.settle(worker, message)
                        reply = {"type": "ack"}
                    else:
                        raise ShardError(f"unknown message type {kind!r}")
                except ShardError as error:
                    # A malformed request ends the connection; its
                    # leases requeue through drop_worker below.
                    write_message(
                        self.wfile, {"type": "error", "reason": str(error)}
                    )
                    break
                write_message(self.wfile, reply)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # worker vanished mid-reply; drop_worker requeues
        finally:
            coordinator.drop_worker(worker)


def run_cluster_outcomes(
    specs,
    cluster: ClusterConfig,
    options: SweepOptions | None = None,
    telemetry=None,
    cache=None,
) -> list[SpecOutcome]:
    """Serve ``specs`` to cluster workers; outcomes in spec order.

    The distributed analogue of
    :func:`repro.sim.parallel.run_outcomes`; see
    :class:`ShardCoordinator` for the lifecycle and failure model.
    ``cache`` is resolved exactly like the local orchestrator's
    (:func:`repro.sim.parallel.resolve_cache`): hits settle on the
    coordinator before any worker is granted a lease.
    """
    coordinator = ShardCoordinator(
        specs, cluster, options=options, telemetry=telemetry, cache=cache
    )
    return coordinator.serve()
