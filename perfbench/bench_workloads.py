"""The benchmark's four workloads: inputs from a seed, operations, checks.

Every workload is a closed loop with one client: the harness issues an
operation, waits for it to finish, checks it, then issues the next.
The program under test only ever sees the generated ``WorkSpec``s.

Inputs are drawn from a finite universe so that every operation any
seed can produce has a stored result digest (``digests.json``, written
by ``make_digests.py``).  A seed picks the order of the operations and
the simulation seed of each spec from ``range(SIM_SEEDS)``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path

from repro.config import DTMConfig
from repro.sim import parallel
from repro.sim.codec import result_to_dict
from repro.sim.parallel import SweepOptions, WorkSpec
from repro.sim.sweep import DEFAULT_INSTRUCTIONS
from repro.workloads.profiles import BENCHMARKS

#: Simulation seeds a spec may carry; keeps the digest universe finite.
SIM_SEEDS = 4

#: kernel-serial: every benchmark under the baseline and five policies
#: that cover the four thermal categories (never hot, relay-like
#: toggling, fixed-trigger, feedback control).
KERNEL_POLICIES = ("none", "toggle1", "toggle2", "m", "pi", "pid")
#: The sweep default budget.  ``benchmark_budget`` would give art 13.4M
#: instructions: six 1.3 s outliers that sit right at the p90 rank.
KERNEL_INSTRUCTIONS = DEFAULT_INSTRUCTIONS

#: multicore-serial: extension_multicore's chip sizes, hot/cool mix
#: (assigned to cores round-robin) and regimes at its --quick budget,
#: long enough for the art cores' controllers to engage.
CORE_COUNTS = (2, 4, 8)
MULTICORE_MIX = ("gcc", "gzip", "art", "mesa")
REGIMES = (
    ("unmanaged", "none", None),
    ("percore", "pid", None),
    ("coordinated", "pid", "proportional"),
)
MULTICORE_INSTRUCTIONS = 400_000

#: sweep-cold / sweep-warm: an experiment-sized sweep is one column of the
#: Table 11 matrix, all 18 benchmarks under one policy: 18 short specs
#: whose cost is mostly orchestration rather than kernel, and whose
#: total work hardly depends on the policy.  A run cycles through the
#: seven policies; sweep-warm's set-up fills the cache with them.
SWEEP_POLICIES = ("none", "toggle1", "toggle2", "m", "p", "pi", "pid")
SWEEP_INSTRUCTIONS = 100_000
SWEEP_BATCH = 8

SAMPLE_CYCLES = DTMConfig().sampling_interval


def sweep_jobs() -> int:
    """Pool size for the sweep workloads: ``min(2, nproc)``."""
    return min(2, multiprocessing.cpu_count())


@dataclass(frozen=True)
class Op:
    """One operation: the specs it runs and its digest key."""

    key: str
    specs: tuple[WorkSpec, ...]


def kernel_op(benchmark: str, policy: str, seed: int) -> Op:
    spec = WorkSpec(
        benchmark=benchmark,
        policy=policy,
        instructions=KERNEL_INSTRUCTIONS,
        seed=seed,
    )
    return Op(f"kernel/{benchmark}/{policy}/s{seed}", (spec,))


def multicore_op(n_cores: int, regime: str, seed: int) -> Op:
    _, policy, coordinator = next(r for r in REGIMES if r[0] == regime)
    cores = tuple(MULTICORE_MIX[i % len(MULTICORE_MIX)] for i in range(n_cores))
    spec = WorkSpec(
        benchmark=cores[0],
        policy=policy,
        instructions=MULTICORE_INSTRUCTIONS,
        seed=seed,
        core_benchmarks=cores,
        coordinator=coordinator,
    )
    return Op(f"multicore/{n_cores}/{regime}/s{seed}", (spec,))


def sweep_op(policy: str, seed: int) -> Op:
    specs = tuple(
        WorkSpec(
            benchmark=name,
            policy=policy,
            instructions=SWEEP_INSTRUCTIONS,
            seed=seed,
        )
        for name in BENCHMARKS
    )
    return Op(f"sweep/{policy}/s{seed}", specs)


def universe() -> dict[str, list[Op]]:
    """Every operation any seed can generate, by digest family."""
    return {
        "kernel": [
            kernel_op(b, p, s)
            for b in BENCHMARKS
            for p in KERNEL_POLICIES
            for s in range(SIM_SEEDS)
        ],
        "multicore": [
            multicore_op(n, r[0], s)
            for n in CORE_COUNTS
            for r in REGIMES
            for s in range(SIM_SEEDS)
        ],
        "sweep": [
            sweep_op(p, s) for p in SWEEP_POLICIES for s in range(SIM_SEEDS)
        ],
    }


def digest(results) -> str:
    """sha256 of the codec encoding of an operation's results."""
    encoded = json.dumps(
        [result_to_dict(result) for result in results],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def samples_of(result) -> int:
    """Simulated 1000-cycle samples in a result; once per core."""
    cores = getattr(result, "cores", None)
    return (result.cycles // SAMPLE_CYCLES) * (len(cores) if cores else 1)


def _rounds(rng: random.Random, make_round):
    while True:
        yield from make_round(rng)


def _kernel_round(rng: random.Random):
    """All 108 (benchmark, policy) pairs as six Latin-square blocks.

    Each block of 18 runs every benchmark once, so a run that stops
    part-way through a round still has the suite's benchmark mix.
    """
    offsets = {b: rng.randrange(len(KERNEL_POLICIES)) for b in BENCHMARKS}
    ops = []
    for block in range(len(KERNEL_POLICIES)):
        names = list(BENCHMARKS)
        rng.shuffle(names)
        for b in names:
            policy = KERNEL_POLICIES[(offsets[b] + block) % len(KERNEL_POLICIES)]
            ops.append(kernel_op(b, policy, rng.randrange(SIM_SEEDS)))
    return ops


def _multicore_round(rng: random.Random):
    combos = [(n, r[0]) for n in CORE_COUNTS for r in REGIMES]
    rng.shuffle(combos)
    return [multicore_op(n, r, rng.randrange(SIM_SEEDS)) for n, r in combos]


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every child process has exited and been reaped.

    The executor shuts its pool down without waiting; reaping here
    keeps one operation's workers from overlapping the next and puts
    their peak RSS into ``RUSAGE_CHILDREN``.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError(f"child processes still alive after {timeout} s")
        time.sleep(0.001)


def run_serial(op: Op, workdir: Path):
    return parallel.run_specs(list(op.specs), jobs=1, batch=1, cache=False)


class Workload:
    """Base: ``ops()`` yields operations forever, in seed order.

    ``prepare`` (untimed) makes the per-operation directories,
    ``execute`` (timed) calls the library, ``check`` (untimed) turns
    its return value into results or raises on a contract breach.
    """

    name = ""
    why = ""
    batch = 1
    #: Whether host-speed probes may run during set-up and operations,
    #: that is, whether no pool workers run then (see host_speed).
    probe_setup = True
    probe_ops = True

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        """Fixtures the timed operations need."""

    def ops(self):
        raise NotImplementedError

    def prepare(self, op: Op) -> Path:
        return Path(tempfile.mkdtemp(dir=self.root))

    def execute(self, op: Op, workdir: Path):
        raise NotImplementedError

    def check(self, op: Op, value) -> list:
        return list(value)

    def cleanup(self, workdir: Path) -> None:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)


class KernelSerial(Workload):
    name = "kernel-serial"
    why = (
        "18 benchmarks x 6 policies at 2M instructions, one spec per "
        "call, no pool, batching or cache: the sample kernel does the work"
    )

    def ops(self):
        return _rounds(random.Random(f"{self.name}:{self.seed}"), _kernel_round)

    execute = staticmethod(run_serial)


class MulticoreSerial(Workload):
    name = "multicore-serial"
    why = (
        "2/4/8-core hot-cool mixes, unmanaged, per-core pid and "
        "coordinated: the only workload that runs MulticoreEngine"
    )

    def ops(self):
        return _rounds(
            random.Random(f"{self.name}:{self.seed}"), _multicore_round
        )

    execute = staticmethod(run_serial)


class _Sweeps(Workload):
    batch = SWEEP_BATCH

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        # The same sweeps, in the same order, for cold and warm: every
        # policy once, so every seed runs the whole matrix.
        rng = random.Random(f"sweep:{seed}")
        self.sweeps = [
            sweep_op(p, rng.randrange(SIM_SEEDS)) for p in SWEEP_POLICIES
        ]
        rng.shuffle(self.sweeps)

    def ops(self):
        return (self.sweeps[i % len(self.sweeps)] for i in count())

    def execute(self, op: Op, workdir: Path):
        """One sweep with its journal and its cache in ``workdir``."""
        return parallel.run_outcomes(
            list(op.specs),
            jobs=sweep_jobs(),
            batch=self.batch,
            options=SweepOptions(checkpoint_path=workdir / "journal.jsonl"),
            cache=str(workdir),
        )

    def check(self, op: Op, outcomes) -> list:
        for outcome in outcomes:
            if outcome.error is not None:
                raise RuntimeError(f"spec {outcome.index} failed: {outcome.error}")
        self.check_replay(outcomes)
        return [outcome.result for outcome in outcomes]


class SweepCold(_Sweeps):
    name = "sweep-cold"
    why = (
        "18-spec sweeps, jobs=min(2,nproc), batch=8, fresh journal and "
        "empty cache: pool, batching, journal fsync and cache store"
    )
    probe_ops = False

    def check_replay(self, outcomes) -> None:
        if any(outcome.from_cache for outcome in outcomes):
            raise RuntimeError("an empty cache replayed a spec")


class SweepWarm(_Sweeps):
    name = "sweep-warm"
    why = (
        "the sweep-cold sweeps replayed from a cache filled in set-up: "
        "cache open, lookup, decode and journal, no kernel"
    )
    probe_setup = False

    def setup(self) -> None:
        fill = Path(tempfile.mkdtemp(dir=self.root))
        for op in self.sweeps:
            outcomes = self.execute(op, fill)
            if any(outcome.error is not None for outcome in outcomes):
                raise RuntimeError(f"cache fill of {op.key} failed")
            (fill / "journal.jsonl").unlink()
        reap_children()
        self.filled = fill / "cache.log"

    def prepare(self, op: Op) -> Path:
        # A private copy per operation: the replay appends LRU touches
        # to its store, and a shared log would grow across the run.
        workdir = super().prepare(op)
        shutil.copyfile(self.filled, workdir / "cache.log")
        return workdir

    def check_replay(self, outcomes) -> None:
        if not all(outcome.from_cache for outcome in outcomes):
            raise RuntimeError("a warm sweep executed a spec")


WORKLOADS = {
    cls.name: cls
    for cls in (KernelSerial, MulticoreSerial, SweepCold, SweepWarm)
}
