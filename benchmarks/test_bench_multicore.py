"""Multicore thermal-model throughput guard: vectorize or lose.

The point of ``MulticoreThermalModel``'s stacked ``(n_cores, n_blocks)``
state is that advancing N cores costs one batched numpy expression
instead of N single-core updates with N rounds of numpy dispatch
overhead.  This guard measures both sides at N = 16 and
``coupling_scale=0`` -- where the two computations are *bitwise
identical* (``tests/test_multicore_thermal.py`` proves it), so the
comparison is pure implementation, no physics difference.

The asserted bound -- vectorized at least 3x faster than 16 sequential
``LumpedThermalModel.advance`` calls -- is deliberately loose; the
typical measured speedup is well above it.  Timing is best-of-repeats
``perf_counter`` over many advance calls, so scheduler noise cancels.

A second guard times the whole engine: ``MulticoreEngine`` (prebuilt
phase tables, one stacked power expression, one two-threshold
fractions pass) must stay at least 1.3x faster than the original
per-core sample body it replaced, pinned as
``tests/multicore_reference.py::ReferenceMulticoreEngine`` and held
bit-identical to it by ``tests/test_multicore_reference.py``.

Needs no pytest plugins; CI runs it in the multicore smoke job:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_multicore.py -q
"""

import time

import numpy as np

from repro.multicore.engine import MulticoreEngine
from repro.multicore.floorplan import MulticoreFloorplan
from repro.multicore.thermal import MulticoreThermalModel
from repro.thermal.lumped import LumpedThermalModel
from tests.multicore_reference import ReferenceMulticoreEngine

#: Core count for the comparison -- the experiment driver's largest N.
N_CORES = 16

#: Advance calls per timed pass (one call == one sampling interval).
STEPS = 400

#: Cycles per advance call (the DTM sampling interval).
CYCLES = 1_000

#: Required speedup of the stacked update over N sequential updates.
SPEEDUP_FLOOR = 3.0

#: Engine guard: an 8-core hot/cool mix under per-core pid with the
#: proportional coordinator, at extension_multicore's --quick budget.
ENGINE_MIX = ("gcc", "gzip", "art", "mesa") * 2
ENGINE_INSTRUCTIONS = 400_000

#: Required speedup of the engine over the pinned original body.
ENGINE_SPEEDUP_FLOOR = 1.3


def _power_schedule(shape: tuple[int, int]) -> np.ndarray:
    """A deterministic per-step power table shared by both sides."""
    rng = np.random.default_rng(42)
    return rng.uniform(0.0, 10.0, size=(STEPS, *shape))


def _time_vectorized(powers: np.ndarray, repeats: int = 5) -> float:
    tiling = MulticoreFloorplan.tile(n_cores=N_CORES, coupling_scale=0.0)
    model = MulticoreThermalModel(tiling)
    best = float("inf")
    for _ in range(repeats):
        model.reset()
        start = time.perf_counter()
        for step in range(STEPS):
            model.advance(powers[step], CYCLES)
        best = min(best, time.perf_counter() - start)
    return best


def _time_sequential(powers: np.ndarray, repeats: int = 5) -> float:
    floorplan = MulticoreFloorplan.tile(n_cores=N_CORES).core
    models = [LumpedThermalModel(floorplan) for _ in range(N_CORES)]
    best = float("inf")
    for _ in range(repeats):
        for model in models:
            model.reset()
        start = time.perf_counter()
        for step in range(STEPS):
            for core, model in enumerate(models):
                model.advance(powers[step, core], CYCLES)
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_advance_beats_sequential():
    """One stacked advance must be >= 3x faster than 16 sequential."""
    tiling = MulticoreFloorplan.tile(n_cores=N_CORES, coupling_scale=0.0)
    model = MulticoreThermalModel(tiling)
    powers = _power_schedule(model.shape)
    vectorized = _time_vectorized(powers)
    sequential = _time_sequential(powers)
    assert vectorized * SPEEDUP_FLOOR <= sequential, (
        f"stacked advance: {1e3 * vectorized:.1f} ms for "
        f"{STEPS} x {N_CORES}-core steps vs {1e3 * sequential:.1f} ms "
        f"sequential (speedup {sequential / vectorized:.2f}x "
        f"< {SPEEDUP_FLOOR:g}x)"
    )


def test_vectorized_matches_sequential_state():
    """The timed comparison is apples-to-apples: identical end state."""
    tiling = MulticoreFloorplan.tile(n_cores=N_CORES, coupling_scale=0.0)
    model = MulticoreThermalModel(tiling)
    powers = _power_schedule(model.shape)
    singles = [LumpedThermalModel(tiling.core) for _ in range(N_CORES)]
    for step in range(50):
        model.advance(powers[step], CYCLES)
        for core, single in enumerate(singles):
            single.advance(powers[step, core], CYCLES)
    expected = np.stack([single.temperatures for single in singles])
    assert np.array_equal(model.temperatures, expected)


def _time_engine(cls, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        engine = cls(ENGINE_MIX, policy="pid", coordinator="proportional")
        start = time.perf_counter()
        engine.run(instructions=ENGINE_INSTRUCTIONS)
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_beats_reference():
    """The fused sample kernel must be >= 1.3x the original body."""
    reference = _time_engine(ReferenceMulticoreEngine)
    engine = _time_engine(MulticoreEngine)
    assert engine * ENGINE_SPEEDUP_FLOOR <= reference, (
        f"8-core pid/proportional run: {1e3 * engine:.1f} ms vs "
        f"{1e3 * reference:.1f} ms for the reference body (speedup "
        f"{reference / engine:.2f}x < {ENGINE_SPEEDUP_FLOOR:g}x)"
    )
