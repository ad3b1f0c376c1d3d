"""The cross-sweep result cache: durability, parity, invalidation.

The headline guarantee is the Level-4 analogue of every other perf
layer's: a *warm* sweep (results replayed from ``ResultCache``) is
bit-identical to a *cold* one -- same results, same folded trace
records/events, same metrics -- at every execution level (serial loop,
pool workers, lane batching, the orchestrated runner).  ``cache.*``
orchestration events are excluded from parity exactly like
``sweep.*``.

The store itself is exercised the way a shared on-disk artifact gets
abused in practice: torn tails from killed writers, corrupt lines,
concurrent sweeps, GC compaction mid-use, and kernel-version bumps
that must provably invalidate every prior entry.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.errors import CacheError, ConfigError
from repro.sim.batch import plan_batches
from repro.sim.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cache_key,
    resolve_cache_dir,
)
from repro.sim.codec import result_from_dict
from repro.sim.parallel import (
    RetryPolicy,
    SweepOptions,
    _run_spec,
    matrix_specs,
    resolve_cache,
    run_outcomes,
    run_specs,
    set_default_cache,
)
from repro.telemetry.core import Telemetry

INSTRUCTIONS = 150_000
BENCHMARKS = ("gcc", "gzip")
POLICIES = ("none", "pid")


def _specs():
    return matrix_specs(BENCHMARKS, POLICIES, instructions=INSTRUCTIONS)


def _quiet() -> Telemetry:
    """Deterministic sink: no wall-clock observations, no spans."""
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


def _events(telemetry):
    """Trace events minus the orchestration diagnostics."""
    return [
        e
        for e in telemetry.trace.events
        if not e.kind.startswith(("sweep.", "shard.", "cache."))
    ]


def _metrics(telemetry):
    return {
        name: stats
        for name, stats in telemetry.metrics.snapshot().items()
        if not name.startswith(
            ("events.sweep.", "events.shard.", "events.cache.")
        )
    }


def assert_telemetry_identical(warm: Telemetry, cold: Telemetry):
    """Warm and cold sweeps both fold saved payloads, so their sinks
    must agree *exactly* -- repr equality catches every float bit (and
    treats NaN fields as equal, which ``==`` would not)."""
    assert repr(warm.trace.records()) == repr(cold.trace.records())
    assert repr(_events(warm)) == repr(_events(cold))
    assert repr(_metrics(warm)) == repr(_metrics(cold))


def _completed(spec, telemetry=True):
    """One executed spec: ``(key, result, worker-local telemetry)``."""
    result, local = _run_spec(
        spec, TelemetryConfig(sample_latency=False, profile=False)
        if telemetry
        else None,
    )
    return cache_key(spec), result, local


# -- the store ----------------------------------------------------------------
class TestResultCacheStore:
    def test_round_trip_is_codec_lossless(self, tmp_path):
        spec = _specs()[1]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        assert store.store(key, spec, result, local)
        entry = store.lookup(key, need_telemetry=True)
        assert entry is not None
        assert result_from_dict(entry["result"]) == result
        assert entry["telemetry"] is not None
        assert entry["benchmark"] == spec.benchmark
        assert entry["policy"] == spec.policy

    def test_telemetry_less_entry_misses_when_telemetry_needed(
        self, tmp_path
    ):
        spec = _specs()[0]
        key, result, _ = _completed(spec, telemetry=False)
        store = ResultCache(tmp_path / "cache")
        store.store(key, spec, result, None)
        assert store.lookup(key, need_telemetry=True) is None
        assert store.lookup(key) is not None

    def test_only_telemetry_upgrades_overwrite(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        assert store.store(key, spec, result, None)
        # Same-or-worse entries are skipped ...
        assert not store.store(key, spec, result, None)
        # ... but attaching telemetry upgrades in place.
        assert store.store(key, spec, result, local)
        assert not store.store(key, spec, result, local)
        assert store.lookup(key, need_telemetry=True) is not None

    def test_counters_persist_across_instances(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        store.store(key, spec, result, local)
        assert store.lookup(key) is not None  # hit
        assert store.lookup("no-such-key") is None  # miss
        store.close()
        reopened = ResultCache(tmp_path / "cache")
        stats = reopened.stats()
        assert stats["hits"] == 1
        # store_payload's pre-insert probe does not count; only the
        # explicit lookup misses do.
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_kernel_version_bump_invalidates_every_entry(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import fast as fast_module

        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        old_keys = []
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
            old_keys.append(key)
        assert all(store.lookup(key) is not None for key in old_keys)
        monkeypatch.setattr(fast_module, "KERNEL_VERSION", "fast-kernel/v2")
        new_keys = [cache_key(spec) for spec in specs]
        assert set(new_keys).isdisjoint(old_keys)
        assert all(store.lookup(key) is None for key in new_keys)

    def test_explicit_kernel_version_pins_the_key(self):
        spec = _specs()[0]
        a = cache_key(spec, kernel_version="x")
        b = cache_key(spec, kernel_version="y")
        assert a != b
        assert cache_key(spec, kernel_version="x") == a

    def test_torn_tail_is_tolerated_and_healed(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        store.store(key, spec, result, local)
        log = tmp_path / "cache" / "cache.log"
        with open(log, "ab") as handle:
            handle.write(b'{"type": "entry", "key": "torn')  # no newline
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.lookup(key) is not None
        assert fresh.verify()["torn_tail"]
        # The next locked write truncates the tail before appending.
        spec2 = _specs()[1]
        key2, result2, local2 = _completed(spec2)
        fresh.store(key2, spec2, result2, local2)
        report = fresh.verify()
        assert not report["torn_tail"]
        assert report["entries"] == 2
        assert report["errors"] == []

    def test_crash_mid_append_loses_only_the_last_entry(self, tmp_path):
        """Truncating the log mid-line (what a ``kill -9`` during the
        fsync'd append leaves behind) never damages earlier entries."""
        specs = _specs()[:2]
        store = ResultCache(tmp_path / "cache")
        keys = []
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
            keys.append(key)
        store.close()
        log = tmp_path / "cache" / "cache.log"
        raw = log.read_bytes()
        log.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])
        survivor = ResultCache(tmp_path / "cache")
        assert survivor.lookup(keys[0]) is not None
        assert survivor.lookup(keys[1]) is None
        # Re-storing the lost spec heals the store completely.
        key, result, local = _completed(specs[1])
        survivor.store(key, specs[1], result, local)
        assert survivor.verify()["errors"] == []

    def test_corrupt_mid_file_line_is_skipped_and_counted(self, tmp_path):
        specs = _specs()[:2]
        store = ResultCache(tmp_path / "cache")
        key0, result0, local0 = _completed(specs[0])
        store.store(key0, specs[0], result0, local0)
        store.close()
        log = tmp_path / "cache" / "cache.log"
        with open(log, "ab") as handle:
            handle.write(b"!!! not json at all\n")
        key1, result1, local1 = _completed(specs[1])
        fresh = ResultCache(tmp_path / "cache")
        fresh.store(key1, specs[1], result1, local1)
        assert fresh.lookup(key0) is not None
        assert fresh.lookup(key1) is not None
        assert fresh.stats()["corrupt_lines"] == 1
        # GC reclaims the damage.
        fresh.gc()
        assert fresh.stats()["corrupt_lines"] == 0
        assert fresh.verify()["errors"] == []

    def test_foreign_schema_header_is_rejected(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / "cache.log").write_text(
            json.dumps({"type": "header", "schema": "someone.elses/v9"})
            + "\n"
        )
        store = ResultCache(directory)
        with pytest.raises(CacheError, match="schema"):
            store.lookup("anything")

    def test_concurrent_writers_lose_no_entries(self, tmp_path):
        specs = matrix_specs(
            BENCHMARKS, POLICIES, seeds=(0, 1), instructions=INSTRUCTIONS
        )
        completed = [(spec, *_completed(spec)[1:]) for spec in specs]

        def write(spec, result, local):
            # Each writer opens its own handle, like separate sweeps
            # sharing one directory.
            own = ResultCache(tmp_path / "cache")
            own.store(cache_key(spec), spec, result, local)
            own.close()

        threads = [
            threading.Thread(target=write, args=entry)
            for entry in completed
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store = ResultCache(tmp_path / "cache")
        report = store.verify()
        assert report["entries"] == len(specs)
        assert report["errors"] == []
        for spec, result, _ in completed:
            entry = store.lookup(cache_key(spec), need_telemetry=True)
            assert result_from_dict(entry["result"]) == result

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        specs = _specs()[:3]
        store = ResultCache(tmp_path / "cache")
        keys = []
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
            keys.append(key)
        # Touch the *oldest* entry so it becomes the most recent.
        assert store.lookup(keys[0]) is not None
        store.flush()
        entry_bytes = [
            length for (_, length, _) in store._index.values()
        ]
        budget = sum(entry_bytes) - min(entry_bytes) // 2  # forces 1 out
        summary = store.gc(budget)
        assert summary == {
            "kept": 2,
            "evicted": 1,
            "bytes": (tmp_path / "cache" / "cache.log").stat().st_size,
        }
        # keys[1] was least recently used (stored 2nd, never touched
        # after keys[0]'s re-touch) -- it is the one evicted.
        assert store.lookup(keys[0]) is not None
        assert store.lookup(keys[1]) is None
        assert store.lookup(keys[2]) is not None

    def test_gc_is_deterministic_over_log_contents(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "a")
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
        store.lookup(cache_key(specs[0]))
        store.flush()
        store.close()
        # A byte-identical replica must evict identically: eviction
        # order depends only on log contents, never on clocks.
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        survivors = []
        for name in ("a", "b"):
            replica = ResultCache(tmp_path / name)
            replica.gc(3000)
            survivors.append(sorted(replica._index))
        assert survivors[0] == survivors[1]

    def test_gc_zero_budget_evicts_everything(self, tmp_path):
        specs = _specs()[:2]
        store = ResultCache(tmp_path / "cache")
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
        summary = store.gc(0)
        assert summary["kept"] == 0 and summary["evicted"] == 2
        assert store.stats()["entries"] == 0
        assert store.stats()["evictions"] == 2

    def test_flush_compacts_past_the_byte_budget(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache", max_bytes=1)
        store.store(key, spec, result, local)
        store.flush()
        assert store.stats()["entries"] == 0  # budget of 1 byte fits none

    def test_verify_reports_undecodable_entries(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        lines = [
            {"type": "header", "schema": CACHE_SCHEMA},
            {"type": "entry", "key": "k", "result": {"not": "a result"}},
        ]
        (directory / "cache.log").write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        report = ResultCache(directory).verify()
        assert report["undecodable_entries"] == 1
        assert report["errors"]

    def test_missing_store_verifies_clean(self, tmp_path):
        report = ResultCache(tmp_path / "cache").verify()
        assert report["entries"] == 0
        assert report["errors"] == []
        assert not report["torn_tail"]


class TestCacheConfiguration:
    def test_relative_directory_is_rejected_actionably(self):
        with pytest.raises(CacheError, match="absolute"):
            resolve_cache_dir("relative/cache")

    def test_empty_and_non_string_directories_are_rejected(self):
        for bogus in ("", "   ", 7, ["/tmp"]):
            with pytest.raises(CacheError, match="non-empty path"):
                resolve_cache_dir(bogus)

    def test_unwritable_directory_is_rejected(self, tmp_path, monkeypatch):
        import repro.sim.cache as cache_module

        target = tmp_path / "readonly"
        target.mkdir()
        monkeypatch.setattr(
            cache_module.os, "access", lambda path, mode: False
        )
        with pytest.raises(CacheError, match="not writable"):
            resolve_cache_dir(target)

    def test_tilde_expands_before_the_absolute_check(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        path = resolve_cache_dir("~/.cache/repro-test")
        assert path.is_absolute() and path.is_dir()

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(CacheError, match="max_bytes"):
            ResultCache(tmp_path / "cache", max_bytes=0)

    def test_resolve_cache_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        store = ResultCache(tmp_path / "direct")
        assert resolve_cache(store) is store
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env"))
        assert resolve_cache(None).directory == tmp_path / "env"
        assert resolve_cache(False) is None  # --no-cache beats the env
        try:
            set_default_cache(tmp_path / "default")
            assert resolve_cache(None).directory == tmp_path / "default"
            set_default_cache(False)
            assert resolve_cache(None) is None
        finally:
            set_default_cache(None)

    def test_default_cache_rejects_open_handles(self, tmp_path):
        with pytest.raises(ConfigError, match="path"):
            set_default_cache(ResultCache(tmp_path / "cache"))


class TestBatchPlanSkip:
    def test_skipped_specs_drop_out_and_break_adjacency(self):
        specs = _specs()  # four mutually lane-compatible specs
        assert plan_batches(specs, 4) == [[0, 1, 2, 3]]
        assert plan_batches(specs, 4, skip={1}) == [[0], [2, 3]]
        assert plan_batches(specs, 4, skip={0, 1, 2, 3}) == []
        assert plan_batches(specs, 1, skip={2}) == [[0], [1], [3]]


# -- sweep-level parity --------------------------------------------------------
class TestSweepParity:
    @pytest.mark.parametrize(
        "jobs,batch", [(1, 1), (1, 4), (2, 1), (2, 4)]
    )
    def test_warm_sweep_is_bit_identical(self, tmp_path, jobs, batch):
        specs = _specs()
        reference_sink = _quiet()
        reference = run_specs(specs, jobs=1, telemetry=reference_sink)
        store = ResultCache(tmp_path / "cache")
        cold_sink = _quiet()
        cold = run_specs(
            specs, jobs=jobs, batch=batch, telemetry=cold_sink, cache=store
        )
        warm_sink = _quiet()
        warm = run_specs(
            specs, jobs=jobs, batch=batch, telemetry=warm_sink, cache=store
        )
        assert cold == reference
        assert warm == reference
        assert_telemetry_identical(warm_sink, cold_sink)
        # Every spec replayed: the warm pass recorded only hits.
        assert store.stats()["hits"] >= len(specs)

    def test_warm_sweep_records_replay_serial_reference_exactly(
        self, tmp_path
    ):
        """Against a shared-sink serial run (no fold), warm trace
        records and events are exact; gauges match up to the documented
        value-pins-to-extreme merge semantics."""
        specs = _specs()
        serial_sink = _quiet()
        serial = run_specs(specs, jobs=1, telemetry=serial_sink)
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, telemetry=_quiet(), cache=store)
        warm_sink = _quiet()
        warm = run_specs(specs, jobs=1, telemetry=warm_sink, cache=store)
        assert warm == serial
        assert repr(warm_sink.trace.records()) == repr(
            serial_sink.trace.records()
        )
        assert repr(_events(warm_sink)) == repr(_events(serial_sink))

    def test_mixed_warm_cold_sweep_is_bit_identical(self, tmp_path):
        specs = _specs()
        reference = run_specs(specs, jobs=1)
        store = ResultCache(tmp_path / "cache")
        # Pre-warm only half the matrix.
        run_specs(specs[:2], jobs=1, cache=store)
        mixed = run_specs(specs, jobs=2, batch=4, cache=store)
        assert mixed == reference

    def test_cache_hit_event_reports_the_replay(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, telemetry=_quiet(), cache=store)
        warm_sink = _quiet()
        run_specs(specs, jobs=1, telemetry=warm_sink, cache=store)
        hits = [
            e for e in warm_sink.trace.events if e.kind == "cache.hit"
        ]
        assert len(hits) == 1
        assert hits[0].data["hits"] == len(specs)
        assert hits[0].data["total"] == len(specs)

    def test_telemetry_less_entries_upgrade_then_replay(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, cache=store)  # no sink: entries bare
        cold_sink = _quiet()
        run_specs(specs, jobs=1, telemetry=cold_sink, cache=store)
        warm_sink = _quiet()
        run_specs(specs, jobs=1, telemetry=warm_sink, cache=store)
        assert_telemetry_identical(warm_sink, cold_sink)

    @settings(max_examples=6, deadline=None)
    @given(
        jobs=st.sampled_from([1, 2]),
        batch=st.sampled_from([1, 4]),
        prewarm=st.integers(min_value=0, max_value=4),
    )
    def test_any_warm_cold_split_matches_serial(self, jobs, batch, prewarm):
        specs = _specs()
        reference = run_specs(specs, jobs=1)
        with tempfile.TemporaryDirectory() as scratch:
            store = ResultCache(Path(scratch) / "cache")
            if prewarm:
                run_specs(specs[:prewarm], jobs=1, cache=store)
            observed = run_specs(
                specs, jobs=jobs, batch=batch, cache=store
            )
            again = run_specs(
                specs, jobs=jobs, batch=batch, cache=store
            )
        assert observed == reference
        assert again == reference

    def test_kernel_version_bump_forces_re_execution(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import fast as fast_module

        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, cache=store)
        baseline_misses = store.stats()["misses"]
        monkeypatch.setattr(
            fast_module, "KERNEL_VERSION", "fast-kernel/v2"
        )
        reference = run_specs(specs, jobs=1)
        warm = run_specs(specs, jobs=1, cache=store)
        assert warm == reference
        # Every spec missed under the new kernel tag and re-executed.
        assert store.stats()["misses"] >= baseline_misses + len(specs)


class TestOrchestratedRunner:
    def test_warm_outcomes_are_marked_and_identical(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        options = SweepOptions(retry=RetryPolicy(max_retries=1))
        cold_sink = _quiet()
        cold = run_outcomes(
            specs, options=options, telemetry=cold_sink, cache=store
        )
        warm_sink = _quiet()
        warm = run_outcomes(
            specs, options=options, telemetry=warm_sink, cache=store
        )
        assert not any(outcome.from_cache for outcome in cold)
        assert all(outcome.from_cache for outcome in warm)
        for a, b in zip(cold, warm):
            assert a.result == b.result
        assert_telemetry_identical(warm_sink, cold_sink)

    def test_checkpoint_journal_wins_over_cache(self, tmp_path):
        specs = _specs()
        journal = tmp_path / "sweep.jsonl"
        store = ResultCache(tmp_path / "cache")
        options = SweepOptions(
            checkpoint_path=str(journal), resume=True
        )
        cold = run_outcomes(specs, options=options, cache=store)
        resumed = run_outcomes(specs, options=options, cache=store)
        assert all(outcome.from_checkpoint for outcome in resumed)
        assert not any(outcome.from_cache for outcome in resumed)
        for a, b in zip(cold, resumed):
            assert a.result == b.result

    def test_checkpoint_resume_warms_the_cache(self, tmp_path):
        specs = _specs()
        journal = tmp_path / "sweep.jsonl"
        options = SweepOptions(
            checkpoint_path=str(journal), resume=True
        )
        run_outcomes(specs, options=options)  # journal only, no cache
        store = ResultCache(tmp_path / "cache")
        run_outcomes(specs, options=options, cache=store)
        # The resumed entries were written back to the cache, so a
        # journal-less sweep now replays from it.
        warm = run_outcomes(specs, cache=store)
        assert all(outcome.from_cache for outcome in warm)

    def test_interrupted_warm_sweep_journals_its_hits(self, tmp_path):
        """Cache hits append to the checkpoint journal like executed
        specs, so a later --resume needs neither cache nor re-run."""
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_outcomes(specs, cache=store)
        journal = tmp_path / "sweep.jsonl"
        options = SweepOptions(
            checkpoint_path=str(journal), resume=True
        )
        run_outcomes(specs, options=options, cache=store)
        resumed = run_outcomes(specs, options=options)
        assert all(outcome.from_checkpoint for outcome in resumed)


class TestRunSuiteCache:
    def test_run_suite_replays_from_the_cache(self, tmp_path):
        from repro.sim.sweep import run_suite

        store = ResultCache(tmp_path / "cache")
        kwargs = dict(
            policies=["pid"],
            benchmarks=["gcc"],
            instructions=INSTRUCTIONS,
        )
        cold = run_suite(cache=store, **kwargs)
        executed = store.stats()["misses"]
        warm = run_suite(cache=store, **kwargs)
        assert warm == cold
        assert store.stats()["misses"] == executed  # no new executions
