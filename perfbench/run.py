"""Repository benchmark: end-to-end and per-layer metrics of the sweep stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernel-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
every time is scaled to a reference host (``host_speed.py``), and the
report prints the raw host figure beside it.
``--trace 1`` runs every operation twice, once as is and once with
every layer boundary wrapped (``bench_trace.py``), in alternating
order, and prints the per-layer ledger plus the tracing overhead.
Each run checks every operation's results against the digests in
``digests.json``.

Lines starting with ``#`` are the human-readable report; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with
provenance, goes to ``.perfbench/`` in the checkout.
"""

from time import perf_counter

HARNESS_START = perf_counter()

import os  # noqa: E402

# Before numpy loads: one BLAS/OpenMP thread, so that a two-worker pool
# on two cores does not oversubscribe.  The user's cache settings must
# not turn a cold workload into a replay.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_CACHE", "REPRO_CACHE_MAX_BYTES"):
    os.environ.pop(_var, None)

import host_speed  # noqa: E402

START_PROBES = host_speed.edge()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKLOAD_NAMES = ("kernel-serial", "multicore-serial", "sweep-cold", "sweep-warm")

#: A run goes on past ``--seconds`` until this many operations are done,
#: so the p90 always has ten samples beyond it.
MIN_OPS = 100
#: Hard stop for the measuring loop, whatever MIN_OPS says, so that a
#: run ends well inside 180 s.
MAX_PASS_SECONDS = 120.0
#: Set-ups per run (this process plus fresh child processes).
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def isolate() -> None:
    """Reset every process-wide sweep default to the library's own."""
    from repro.sim import parallel

    parallel.set_default_jobs(1)
    parallel.set_default_batch(1)
    parallel.set_default_cache(None)
    parallel.set_default_sweep_options(None)
    parallel.set_default_cluster(None)
    if parallel.resolve_cache(None) is not None:
        raise SystemExit("perfbench: a result cache is still configured")


@dataclass
class Pass:
    """What one measuring pass saw."""

    latencies: list = field(default_factory=list)
    #: Each latency on the reference host (see host_speed).
    scaled: list = field(default_factory=list)
    samples: int = 0
    specs: int = 0
    failed: int = 0
    unchecked: int = 0
    first_error: str = ""

    def rate(self, amount: int, scaled: bool = True) -> float:
        busy = sum(self.scaled if scaled else self.latencies)
        return amount / busy if busy else 0.0


def run_op(workload, op, digests: dict, seen: Pass, sampler,
           edges: deque) -> None:
    """Issue one operation, time it, check it, clean up after it.

    ``edges`` holds the latest host-speed probes taken between
    operations, the ones just before this one last; the probes taken
    just after it are appended.
    """
    from bench_workloads import digest, samples_of

    workdir = workload.prepare(op)
    error = None
    with sampler:
        start = perf_counter()
        try:
            value = workload.execute(op, workdir)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        latency = perf_counter() - start - sampler.busy
    edges.extend(host_speed.edge())
    seen.latencies.append(latency)
    seen.scaled.append(host_speed.reference_seconds(
        latency, sampler, list(edges) + sampler.probes))
    if error is None:
        try:
            results = workload.check(op, value)
            expected = digests.get(op.key)
            if expected is None:
                seen.unchecked += 1
            elif digest(results) != expected:
                raise RuntimeError(f"{op.key}: result digest mismatch")
            seen.samples += sum(samples_of(r) for r in results)
            seen.specs += len(results)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        seen.failed += 1
        seen.first_error = seen.first_error or f"{op.key}:\n{error}"
    workload.cleanup(workdir)


def measure(workload, seconds: float, digests: dict, recorder=None):
    """Closed loop over the workload's operations for ``seconds``.

    With a ``recorder`` every operation runs twice, once traced and
    once not, in alternating order, so the tracing overhead compares
    the same inputs at the same point of the run.  Returns the
    untraced pass and the traced one (``None`` without a recorder).
    """
    untraced = Pass()
    traced = Pass() if recorder is not None else None
    ops = workload.ops()
    # In-operation probes would land inside the traced spans.
    sampler = host_speed.Sampler(enabled=recorder is None and workload.probe_ops)
    # With probes during operations, the edges just before and after
    # one are enough; without, the edges of the last five smooth out
    # the probes' own noise.
    edges = deque(host_speed.edge(), maxlen=6 if sampler.enabled else 18)
    began = perf_counter()
    while len(untraced.latencies) < MIN_OPS or perf_counter() - began < seconds:
        if perf_counter() - began > MAX_PASS_SECONDS:
            break
        op = next(ops)
        if recorder is None:
            run_op(workload, op, digests, untraced, sampler, edges)
            continue
        index = len(untraced.latencies)
        for tracing in ((False, True) if index % 2 == 0 else (True, False)):
            if tracing:
                recorder.install()
                recorder.op = index
                try:
                    run_op(workload, op, digests, traced, sampler, edges)
                finally:
                    recorder.op = -1
                    recorder.uninstall()
            else:
                run_op(workload, op, digests, untraced, sampler, edges)
    return untraced, traced


def percentile(values, q: float):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_setup_seconds(args) -> tuple:
    """``(scaled, raw)`` set-up time of a fresh process, same workload."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    scaled, raw = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    return scaled, raw


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_sha256() -> str:
    """Content hash of the library source, for checkouts without git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, digest_version: str, passes: dict) -> dict:
    import numpy

    from repro.sim.fast import KERNEL_VERSION

    return {
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_version": KERNEL_VERSION,
        "digests_kernel_version": digest_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch": workload.batch,
        "ops": {
            name: {"attempted": len(p.latencies), "failed": p.failed,
                   "unchecked": p.unchecked, "specs": p.specs,
                   "samples": p.samples}
            for name, p in passes.items()
        },
    }


def report(line: str = "") -> None:
    print(f"# {line}".rstrip(), flush=True)


def end_to_end(seen: Pass, setups: list, rss_mb: float) -> dict:
    """The end-to-end metrics, ``{name: (value, unit)}``; prints them.

    Times are scaled to the reference host; the raw host figure is
    printed beside each.  Setups are ``(scaled, raw)`` pairs.
    """
    ops = len(seen.latencies)
    p50, beyond50 = percentile(seen.scaled, 0.5)
    p90, beyond90 = percentile(seen.scaled, 0.9)
    rows = {
        "setup_s": (statistics.median(s for s, _ in setups),
                    statistics.median(r for _, r in setups),
                    "s", f"n={len(setups)}"),
        "samples_per_s": (seen.rate(seen.samples),
                          seen.rate(seen.samples, scaled=False), "1/s",
                          f"n={ops} ops, {seen.samples} samples"),
        "specs_per_s": (seen.rate(seen.specs),
                        seen.rate(seen.specs, scaled=False), "1/s",
                        f"n={ops} ops, {seen.specs} specs"),
        "op_ms_p50": (p50 * 1e3, percentile(seen.latencies, 0.5)[0] * 1e3,
                      "ms", f"n={ops}, {beyond50} beyond"),
        "op_ms_p90": (p90 * 1e3, percentile(seen.latencies, 0.9)[0] * 1e3,
                      "ms", f"n={ops}, {beyond90} beyond"),
        "peak_rss_mb": (rss_mb, rss_mb, "MB", "harness + largest pool child"),
        "failed_frac": (seen.failed / ops, seen.failed / ops, "ratio",
                        f"n={ops}"),
    }
    report(f"  {'metric':<14} {'reference':>12} {'raw host':>12}")
    for name, (value, raw, unit, note) in rows.items():
        report(f"  {name:<14} {value:>12.6g} {raw:>12.6g} {unit:<6} ({note})")
    if beyond90 < 10:
        # Only MAX_PASS_SECONDS can cut a pass below MIN_OPS.
        raise SystemExit(f"perfbench: only {ops} operations; p90 unreportable")
    # failed_frac is 0 whenever the library works, so it travels as the
    # result's "attempted"/"failed" instead of a bounded metric.
    del rows["failed_frac"]
    return {name: (value, unit) for name, (value, _, unit, _) in rows.items()}


def per_layer(args, workload, untraced: Pass, traced: Pass, recorder) -> dict:
    from bench_trace import UNMEASURED, Ledger, fast_accounting, layer_metrics

    folded = recorder.fold_workers()
    ledger = Ledger(recorder)
    ops = len(traced.latencies)
    metrics = layer_metrics(ledger, ops, workload.batch)
    plain = untraced.rate(untraced.samples)
    wrapped = traced.rate(traced.samples)
    overhead = (plain / wrapped - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    report(f"{ops} ops run twice, traced and untraced; {ledger.span_count} "
           f"spans ({folded} from pool workers)")
    report(f"  samples_per_s untraced {plain:.6g}, traced {wrapped:.6g}: "
           f"overhead {overhead:+.2f}%")
    for name, (value, unit) in metrics.items():
        report(f"  {name:<40} {value:>14.6g} {unit}")
    split = fast_accounting(ledger)
    if split["fast.run"] > 0:
        parts = " + ".join(f"{name} {seconds:.4f}"
                           for name, seconds in split.items()
                           if name != "fast.run")
        report(f"  fast.run {split['fast.run']:.4f} s = {parts}")
    report("  telemetry.fold.us: unmeasured (see below)")
    report("unmeasured layers:")
    for layer, reason in UNMEASURED.items():
        report(f"  {layer}: {reason}")
    # One file per workload: a kernel-serial trace is about 30 MB.
    recorder.save(OUT / f"spans-{args.workload}.npz")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sampler = host_speed.Sampler()
    with sampler:
        import_library()
        import bench_workloads

        isolate()
        digests = json.loads(DIGESTS.read_text())
        OUT.mkdir(exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT))
        try:
            workload = bench_workloads.WORKLOADS[args.workload](args.seed, root)
            with sampler.paused(not workload.probe_setup):
                workload.setup()
        except BaseException:
            bench_workloads.reap_children()
            shutil.rmtree(root, ignore_errors=True)
            raise
    setup_raw = perf_counter() - HARNESS_START - sampler.busy
    setup = (host_speed.reference_seconds(
        setup_raw, sampler, START_PROBES + sampler.probes + host_speed.edge()),
        setup_raw)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        report(f"workload {args.workload}: {workload.why}")
        report(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        recorder = None
        if args.trace:
            from bench_trace import SpanRecorder

            recorder = SpanRecorder(root)
        untraced, traced = measure(workload, args.seconds, digests["digests"],
                                   recorder)
        passes = {"untraced": untraced}
        if args.trace:
            passes["traced"] = traced
            metrics = per_layer(args, workload, untraced, traced, recorder)
        else:
            # Before the set-up children run: they would count as
            # reaped children in RUSAGE_CHILDREN.
            rss_mb = peak_rss_mb()
            setups = [setup] + [child_setup_seconds(args)
                                for _ in range(SETUP_REPEATS - 1)]
            metrics = end_to_end(untraced, setups, rss_mb)
    finally:
        bench_workloads.reap_children()
        shutil.rmtree(root, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes.values())
    failed = sum(p.failed for p in passes.values())
    unchecked = sum(p.unchecked for p in passes.values())
    for name, seen in passes.items():
        report(f"{name} pass: {len(seen.latencies)} ops, {seen.failed} failed, "
               f"{seen.unchecked} unchecked")
        if seen.first_error:
            print(f"perfbench: first failure ({name} pass): {seen.first_error}",
                  file=sys.stderr)
    record = {
        "provenance": provenance(args, workload, digests["kernel_version"],
                                 passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report(f"provenance {json.dumps(record['provenance']['ops'])} "
           f"rev {record['provenance']['git_revision']}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": failed == 0 and unchecked == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
