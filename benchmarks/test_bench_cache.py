"""Performance guard for the result cache, with a JSON receipt.

The guarded claim (see docs/performance.md, "Level 4"): a *warm*
sweep -- every spec replayed from a freshly written
:class:`repro.sim.cache.ResultCache` -- must complete at least
``CACHE_FLOOR`` (5.0x) faster than the *cold* sweep that populated the
store, while producing exactly the cold sweep's results.  Both sides
run single-process in this process; the speedup is skipped work, not
parallelism, so the guard is safe on single-CPU runners.

The measurement appends a ``cache`` section to ``BENCH_sweep.json``
(override with ``BENCH_SWEEP_OUT``), extending the shared receipt the
other performance levels write.  Timing is best-of-repeats
``perf_counter``; each cold repeat starts from an empty store
directory so no warm entry leaks into the cold number.

Needs no pytest plugins:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_cache.py -q
"""

from __future__ import annotations

import time

from benchmarks._receipt import update_receipt as _update_receipt
from repro.sim.cache import ResultCache
from repro.sim.parallel import matrix_specs, run_specs

#: Required warm-over-cold wall-clock multiple.
CACHE_FLOOR = 5.0
#: Aspirational target (recorded in the receipt, not asserted).
CACHE_TARGET = 10.0

BENCHMARKS = ("gcc", "gzip", "art", "mesa")
POLICIES = ("none", "pid")

#: Instruction budget per spec: long enough that a replay's fixed
#: costs (key hashing, one log read) are negligible against execution.
INSTRUCTIONS = 1_000_000

REPEATS = 3


def _specs():
    return matrix_specs(BENCHMARKS, POLICIES, instructions=INSTRUCTIONS)


def test_warm_sweep_beats_cold_sweep(tmp_path):
    """A fully warm sweep replays >= 5x faster than the cold sweep."""
    specs = _specs()
    cold_seconds = float("inf")
    warm_seconds = float("inf")
    cold_results = warm_results = None
    for repeat in range(REPEATS):
        store = ResultCache(tmp_path / f"cache-{repeat}")
        start = time.perf_counter()
        cold_results = run_specs(specs, jobs=1, cache=store)
        cold_seconds = min(cold_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        warm_results = run_specs(specs, jobs=1, cache=store)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert store.stats()["hits"] >= len(specs)
    assert warm_results == cold_results  # bit-identity sanity
    speedup = cold_seconds / warm_seconds
    _update_receipt(
        "cache",
        {
            "specs": len(specs),
            "instructions_per_spec": INSTRUCTIONS,
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "speedup": round(speedup, 1),
            "floor": CACHE_FLOOR,
            "target": CACHE_TARGET,
        },
    )
    assert speedup >= CACHE_FLOOR, (
        f"warm sweep only {speedup:.2f}x cold "
        f"({warm_seconds:.3f}s vs {cold_seconds:.3f}s for "
        f"{len(specs)} specs); floor is {CACHE_FLOOR}x"
    )
