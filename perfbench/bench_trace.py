"""Per-layer tracing from outside the library, and the layer ledger.

The traced run replaces public callables of each layer with wrappers
that record a span -- name, parent, operation id, pid, an integer
weight (lanes, cores or hit/miss), start and end -- as one row of a
flat in-memory array.  Nothing inside ``src/`` changes.  Pool workers fork after the
wrappers are installed, so they inherit them; each worker appends its
spans to a per-pid file after every task, and the parent folds those
files back into its own table at the end.

A span's self time is its duration minus the time its child spans in
the same process cover.  Worker spans are roots of their own process,
so a parent span blocked on the pool keeps the wait as its self time.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import functools
import os
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.dtm.manager import DTMManager
from repro.multicore.coordinator import ThermalBudgetCoordinator
from repro.multicore.engine import MulticoreEngine
from repro.multicore.thermal import MulticoreThermalModel
from repro.power.wattch import PowerModel
from repro.sim import batch, cache, checkpoint, codec, parallel, sweep
from repro.sim.fast import FastEngine
from repro.telemetry import core as telemetry_core
from repro.thermal.lumped import LumpedThermalModel
from repro.workloads.profiles import BenchmarkProfile

#: One span is one row of a flat ``array("d")``; ints fit exactly.
COLUMNS = ("name", "parent", "op", "pid", "weight", "start", "end")
_STRIDE = len(COLUMNS)


def _lanes(args, kwargs) -> int:
    """Lane count of a thermal call: rows of a stacked ``start``."""
    start = args[1] if len(args) > 1 else kwargs["start"]
    return start.shape[0] if start.ndim > 1 else 1


class SpanRecorder:
    """The span table plus the open-span stack of one process."""

    def __init__(self, spill_dir: Path) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spill_dir = spill_dir
        self.parent_pid = os.getpid()
        self.op = -1
        self._patches: list | None = None
        self._reset(os.getpid())

    def _reset(self, pid: int) -> None:
        self.spans = array("d")
        self.stack: list[int] = []
        self.pid = pid
        self.thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, weight=None, result_weight=None, task=False):
        """A wrapper around ``fn`` that records one span per call.

        ``weight(args, kwargs)`` or ``result_weight(result)`` sets the
        span's weight (default 1).  ``task=True`` marks a pool worker
        entry point: in a forked worker it starts a fresh span table
        and spills it to disk when the task returns.
        """
        nid = self.name_id(name)
        rec = self
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if task and os.getpid() != rec.pid:
                rec._reset(os.getpid())
            if rec.op < 0 or get_ident() != rec.thread:
                return fn(*args, **kwargs)
            spans = rec.spans
            stack = rec.stack
            row = len(spans)
            spans.extend((
                nid,
                stack[-1] if stack else -1,
                rec.op,
                rec.pid,
                1 if weight is None else weight(args, kwargs),
                0.0,
                0.0,
            ))
            stack.append(row // _STRIDE)
            spans[row + 5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[row + 6] = perf_counter()
                stack.pop()
            if result_weight is not None:
                spans[row + 4] = result_weight(result)
            if task and not stack and rec.pid != rec.parent_pid:
                rec._spill()
            return result

        return wrapper

    # -- installing the wrappers ---------------------------------------------
    def _patch_attr(self, owner, attr: str, name: str, **kw) -> None:
        original = owner.__dict__[attr]
        self._patches.append(
            (owner, attr, original, self.wrap(name, original, **kw))
        )

    def _patch_function(self, function, name: str, **kw) -> None:
        """Replace ``function`` in every repro module that binds it."""
        wrapper = self.wrap(name, function, **kw)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, value, wrapper))

    def install(self) -> None:
        """Put the wrappers in place (built on the first call)."""
        if self._patches is None:
            self._patches = []
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the library's own callables back."""
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    def _build(self) -> None:
        """Wrap every layer boundary the ledger reads."""
        cls = self._patch_attr
        fn = self._patch_function
        cls(FastEngine, "run", "fast.run")
        cls(LumpedThermalModel, "advance_from", "thermal.advance_from")
        cls(LumpedThermalModel, "fractions_above", "thermal.fractions_above",
            weight=_lanes)
        cls(LumpedThermalModel, "advance_batch", "thermal.advance_batch",
            weight=_lanes)
        cls(DTMManager, "on_sample", "dtm.on_sample")
        fn(sweep.build_engine, "sweep.build_engine")
        cls(MulticoreEngine, "run", "multicore.run",
            weight=lambda args, kwargs: args[0].n_cores)
        cls(MulticoreThermalModel, "sample_update",
            "multicore.thermal.sample_update")
        cls(MulticoreThermalModel, "fraction_above",
            "multicore.thermal.fraction_above")
        cls(ThermalBudgetCoordinator, "arbitrate",
            "multicore.coordinator.arbitrate")
        cls(PowerModel, "block_powers", "power.block_powers")
        cls(BenchmarkProfile, "phase_at", "workloads.phase_at")
        fn(parallel.run_outcomes, "parallel.run_outcomes")
        cls(concurrent.futures.process.ProcessPoolExecutor,
            "_launch_processes", "parallel.pool_start")
        cls(concurrent.futures.Future, "result", "parallel.pool_wait")
        fn(parallel._run_spec, "parallel.worker_task", task=True)
        fn(parallel._run_group_payloads, "parallel.worker_task", task=True)
        fn(batch.plan_batches, "batch.plan_batches")
        # run_outcomes plans on its live retry queue, not plan_batches.
        cls(parallel._OutcomeRunner, "_next_group", "batch.next_group",
            result_weight=len)
        fn(checkpoint.spec_fingerprint, "checkpoint.spec_fingerprint")
        cls(checkpoint.CheckpointJournal, "append_outcome", "checkpoint.append")
        cls(checkpoint.CheckpointJournal, "append_payload", "checkpoint.append")
        cls(cache.ResultCache, "__init__", "cache.open")
        cls(cache.ResultCache, "_refresh", "cache.scan")
        fn(cache.cache_key, "cache.key")
        cls(cache.ResultCache, "lookup", "cache.lookup",
            result_weight=lambda entry: int(entry is not None))
        cls(cache.ResultCache, "store", "cache.store")
        cls(cache.ResultCache, "store_payload", "cache.store")
        cls(cache.ResultCache, "flush", "cache.flush")
        fn(codec.result_to_dict, "codec.result_to_dict")
        fn(codec.result_from_dict, "codec.result_from_dict")
        fn(codec.fold_saved_telemetry, "telemetry.fold")
        fn(telemetry_core.merge_telemetry, "telemetry.fold")

    # -- moving worker spans back --------------------------------------------
    def _spill(self) -> None:
        with open(self.spill_dir / f"spans-{self.pid}.bin", "ab") as handle:
            self.spans.tofile(handle)
        self._reset(self.pid)

    def table(self) -> np.ndarray:
        """The spans as an ``(n, len(COLUMNS))`` array (a copy)."""
        return np.frombuffer(self.spans, dtype=float).reshape(-1, _STRIDE).copy()

    def fold_workers(self) -> int:
        """Append every spilled worker span; returns how many.

        Each spill is one task's spans with task-local parent indices,
        so every chunk is rebased onto the end of this table.
        """
        folded = 0
        for path in sorted(self.spill_dir.glob("spans-*.bin")):
            rows = np.fromfile(path, dtype=float).reshape(-1, _STRIDE)
            path.unlink()
            # A task's root span starts each chunk: its parent is -1.
            starts = np.flatnonzero(rows[:, 1] < 0)
            bounds = [*starts, len(rows)]
            for first, stop in zip(bounds[:-1], bounds[1:]):
                chunk = rows[first:stop].copy()
                has_parent = chunk[:, 1] >= 0
                chunk[has_parent, 1] += self.span_count()
                self.spans.frombytes(chunk.tobytes())
            folded += len(rows)
        return folded

    def span_count(self) -> int:
        return len(self.spans) // _STRIDE

    def save(self, path: Path) -> None:
        """Write every span out (numpy ``.npz``, names alongside)."""
        np.savez(path, names=np.array(self.names),
                 columns=np.array(COLUMNS), spans=self.table())


class Ledger:
    """Aggregates over the recorded spans, by span name."""

    def __init__(self, rec: SpanRecorder) -> None:
        table = rec.table()
        self.name = table[:, 0].astype(np.int64)
        self.parent = table[:, 1].astype(np.int64)
        self.weight = table[:, 4].astype(np.int64)
        self.duration = table[:, 6] - table[:, 5]
        covered = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered
        self.names = list(rec.names)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.span_count = len(self.name)

    def mask(self, name: str) -> np.ndarray:
        return self.name == self.ids.get(name, -1)

    def outer(self, name: str) -> np.ndarray:
        """Spans of ``name`` not nested inside another span of it."""
        m = self.mask(name)
        nested = np.zeros(len(m), dtype=bool)
        has_parent = self.parent >= 0
        nested[has_parent] = m[self.parent[has_parent]]
        return m & ~nested

    def count(self, name: str) -> int:
        return int(self.outer(name).sum())

    def total(self, name: str) -> float:
        return float(self.duration[self.outer(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def weight_total(self, name: str) -> int:
        return int(self.weight[self.mask(name)].sum())

    def children_of(self, parent_name: str, child_name: str) -> np.ndarray:
        m = self.mask(child_name) & (self.parent >= 0)
        parents = self.parent[m]
        keep = self.name[parents] == self.ids.get(parent_name, -1)
        out = np.zeros(len(m), dtype=bool)
        out[np.flatnonzero(m)[keep]] = True
        return out


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


#: Layers this benchmark does not run, with the reason.
UNMEASURED = {
    "repro.sim.distributed": (
        "its speedup bench needs >=4 cores, and this round retired "
        "scale-out"
    ),
    "repro.thermal.grid / repro.thermal.spectral": (
        "about 0.3 s of the full experiments run"
    ),
    "repro.uarch (detailed core)": (
        "only calibration C1 uses it, and no open ROADMAP item targets it"
    ),
    "repro.telemetry (telemetry.fold.us)": (
        "every workload runs with the default disabled sink, as "
        "python -m repro.experiments does without --trace-out, so no "
        "fold happens"
    ),
}


def layer_metrics(ledger: Ledger, ops: int, batch_width: int) -> dict:
    """The per-layer metrics of one traced pass: ``{name: (value, unit)}``.

    ``*.ms``/``*.us`` are per call unless the name says per sample.
    Where a layer's span encloses another layer's, only its self time
    counts; ``*.run.ms`` and ``parallel.run_outcomes.ms`` are whole
    durations.  Counts are per operation.
    """
    L = ledger
    sweeps = L.count("parallel.run_outcomes")
    fast_samples = int(L.children_of("fast.run", "thermal.advance_from").sum())
    # Each chip sample advances n_cores cores: the weight of its run.
    updates = L.children_of("multicore.run", "multicore.thermal.sample_update")
    core_samples = int(L.weight[L.parent[updates]].sum())
    hits = L.weight_total("cache.lookup")
    lookups = L.count("cache.lookup")
    groups = L.count("batch.next_group")

    def mean_self(name: str, scale: float) -> float:
        return _ratio(L.self_total(name), L.count(name), scale)

    def mean_total(name: str, scale: float) -> float:
        return _ratio(L.total(name), L.count(name), scale)

    def scan_under(parent: str) -> float:
        return float(L.duration[L.children_of(parent, "cache.scan")].sum())

    def per_weight(name: str) -> float:
        return _ratio(L.total(name), L.weight_total(name), 1e6)

    return {
        "fast.run.ms": (mean_total("fast.run", 1e3), "ms"),
        "fast.self.us_per_sample": (
            _ratio(L.self_total("fast.run"), fast_samples, 1e6), "us"),
        "fast.samples": (_ratio(fast_samples, ops), "count/op"),
        "thermal.advance_from.us_per_sample": (
            per_weight("thermal.advance_from"), "us"),
        "thermal.fractions_above.us_per_sample": (
            per_weight("thermal.fractions_above"), "us"),
        "thermal.advance_batch.us_per_sample": (
            per_weight("thermal.advance_batch"), "us"),
        "dtm.on_sample.us_per_call": (mean_total("dtm.on_sample", 1e6), "us"),
        "dtm.on_sample.calls": (
            _ratio(L.count("dtm.on_sample"), ops), "count/op"),
        "sweep.build_engine.ms": (mean_total("sweep.build_engine", 1e3), "ms"),
        "multicore.run.ms": (mean_total("multicore.run", 1e3), "ms"),
        "multicore.self.us_per_core_sample": (
            _ratio(L.self_total("multicore.run"), core_samples, 1e6), "us"),
        "multicore.thermal.sample_update.us": (
            mean_total("multicore.thermal.sample_update", 1e6), "us"),
        "multicore.thermal.fraction_above.us": (
            mean_total("multicore.thermal.fraction_above", 1e6), "us"),
        "multicore.coordinator.arbitrate.us": (
            mean_total("multicore.coordinator.arbitrate", 1e6), "us"),
        "power.block_powers.us_per_call": (
            mean_total("power.block_powers", 1e6), "us"),
        "workloads.phase_at.us_per_call": (
            mean_total("workloads.phase_at", 1e6), "us"),
        "parallel.run_outcomes.ms": (
            mean_total("parallel.run_outcomes", 1e3), "ms"),
        "parallel.pool_start.ms": (mean_total("parallel.pool_start", 1e3), "ms"),
        "parallel.pool_wait.ms": (
            _ratio(L.self_total("parallel.pool_wait"), sweeps, 1e3), "ms"),
        "parallel.groups": (_ratio(groups, sweeps), "count/op"),
        "batch.plan_batches.us": (
            _ratio(L.self_total("batch.plan_batches")
                   + L.self_total("batch.next_group"), sweeps, 1e6), "us"),
        "batch.lane_fill": (
            _ratio(L.weight_total("batch.next_group"), groups * batch_width),
            "ratio"),
        "checkpoint.spec_fingerprint.us": (
            mean_self("checkpoint.spec_fingerprint", 1e6), "us"),
        "checkpoint.append.ms": (mean_self("checkpoint.append", 1e3), "ms"),
        "checkpoint.appends": (
            _ratio(L.count("checkpoint.append"), ops), "count/op"),
        # The log scan a lookup triggers is opening the store; the
        # rescan after a write belongs to the store.
        "cache.open.ms": (
            _ratio(L.total("cache.open") + scan_under("cache.lookup"),
                   L.count("cache.open"), 1e3), "ms"),
        "cache.key.us": (mean_self("cache.key", 1e6), "us"),
        "cache.lookup.us": (mean_self("cache.lookup", 1e6), "us"),
        "cache.store.ms": (
            _ratio(L.self_total("cache.store") + scan_under("cache.store"),
                   L.count("cache.store"), 1e3), "ms"),
        "cache.flush.ms": (mean_self("cache.flush", 1e3), "ms"),
        "cache.hits": (_ratio(hits, ops), "count/op"),
        "cache.misses": (_ratio(lookups - hits, ops), "count/op"),
        "cache.hit_ratio": (_ratio(hits, lookups), "ratio"),
        "codec.result_to_dict.us": (mean_self("codec.result_to_dict", 1e6), "us"),
        "codec.result_from_dict.us": (
            mean_self("codec.result_from_dict", 1e6), "us"),
    }


def fast_accounting(ledger: Ledger) -> dict:
    """How ``fast.run`` splits into self time and its children, in s."""
    L = ledger
    runs = L.mask("fast.run")
    children = (L.parent >= 0) & np.isin(L.parent, np.flatnonzero(runs))
    split = {"fast.run": float(L.duration[runs].sum()),
             "fast.self": float(L.self_time[runs].sum())}
    for nid in np.unique(L.name[children]):
        split[L.names[nid]] = float(L.duration[children & (L.name == nid)].sum())
    return split
