"""Run all (or selected) experiments from the command line.

Usage::

    python -m repro.experiments                # everything, full budgets
    python -m repro.experiments --quick        # reduced budgets
    python -m repro.experiments table3_rc table11_dtm_performance
    python -m repro.experiments --jobs 8        # fan sweeps out over 8 cores
    python -m repro.experiments figure4_traces table7_emergency_breakdown \
        --trace-out suite.jsonl --metrics-out suite-metrics.json

``--jobs N`` sets the process-wide default worker count
(:func:`repro.sim.parallel.set_default_jobs`), so every ``run_suite`` /
``run_specs`` call inside the experiment modules fans out over worker
processes; results are bit-identical to the serial run.  ``--batch B``
likewise sets the default lane-batch width
(:func:`repro.sim.parallel.set_default_batch`): groups of up to B
compatible runs advance through one vectorized
:class:`~repro.sim.batch.BatchEngine` kernel, inside each worker when
combined with ``--jobs``.  ``--cache [DIR]`` installs a process-wide
result-cache default (:func:`repro.sim.parallel.set_default_cache`),
so every sweep replays previously completed specs from the persistent
store instead of re-running them -- bit-identical results and
telemetry, see docs/performance.md, "Level 4"; ``--no-cache`` disables
caching even when ``REPRO_CACHE`` is set.

``--grid-solver {spectral,euler}`` / ``--resolution N`` select the
time integrator and mesh for the experiments built on the 2D grid
model (``validation_grid``, ``validation_grid_dtm``,
``validation_grid_convergence``); the spectral default advances each
interval in one exact closed-form step (docs/thermal_model.md).

``--trace-out`` / ``--metrics-out`` build one shared
:class:`~repro.telemetry.core.Telemetry` sink, hand it to every
experiment whose ``run`` accepts a ``telemetry`` keyword (currently
``figure4_traces`` and ``table7_emergency_breakdown``), and export the
accumulated trace / metrics afterwards.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time

from repro.experiments import ALL_EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment module names (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use reduced instruction budgets",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export the shared DTM trace (JSONL) accumulated by "
        "telemetry-aware experiments",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="export the shared metrics snapshot (JSON)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for every sweep inside the experiments "
        "(0 = all cores; results are bit-identical to --jobs 1, see "
        "docs/performance.md)",
    )
    parser.add_argument(
        "--batch", type=int, default=1, metavar="B",
        help="lane-batch width for every sweep: up to B compatible runs "
        "advance through one vectorized kernel (composes with --jobs; "
        "results are bit-identical to --batch 1)",
    )
    grid = parser.add_argument_group(
        "grid experiments (see docs/thermal_model.md)"
    )
    grid.add_argument(
        "--grid-solver", choices=("spectral", "euler"), default=None,
        help="time integrator for experiments built on the 2D grid "
        "model (validation_grid, validation_grid_dtm, "
        "validation_grid_convergence): 'spectral' (default) is the "
        "exact-exponential eigenbasis solver, 'euler' the original "
        "pinned sub-stepped integrator",
    )
    grid.add_argument(
        "--resolution", type=int, default=None, metavar="N",
        help="grid resolution (N x N cells) for the grid experiments",
    )
    resilience = parser.add_argument_group(
        "fault tolerance (see docs/robustness.md)"
    )
    resilience.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a failed/crashed/timed-out spec up to N times",
    )
    resilience.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="deterministic backoff before the first retry "
        "(doubles per further retry)",
    )
    resilience.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-spec wall-clock timeout (pool execution only)",
    )
    resilience.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="append each completed spec to a crash-safe JSONL journal "
        "shared by every sweep in the selected experiments; implies "
        "--resume (specs are deterministic, so journal reuse is "
        "bit-identical by construction)",
    )
    resilience.add_argument(
        "--resume", action="store_true",
        help="skip specs already completed in the --checkpoint journal",
    )
    resilience.add_argument(
        "--strict", action="store_true",
        help="abort with an aggregated error if any spec fails "
        "permanently",
    )
    from repro.sim.cache import DEFAULT_CACHE_DIR

    caching = parser.add_argument_group(
        "result caching (see docs/performance.md, Level 4)"
    )
    caching.add_argument(
        "--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None,
        metavar="DIR",
        help="replay previously completed specs from the persistent "
        f"result cache in DIR (default {DEFAULT_CACHE_DIR}) and store "
        "fresh ones; warm results and telemetry are bit-identical",
    )
    caching.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even when REPRO_CACHE is set",
    )
    args = parser.parse_args(argv)

    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if args.resolution is not None and args.resolution < 4:
        parser.error("--resolution must be at least 4")
    if args.cache is not None and args.no_cache:
        parser.error("--cache conflicts with --no-cache")

    if args.no_cache or args.cache is not None:
        from repro.errors import CacheError, ConfigError
        from repro.sim.parallel import set_default_cache

        try:
            set_default_cache(False if args.no_cache else args.cache)
        except (CacheError, ConfigError) as error:
            parser.error(str(error))

    if args.jobs != 1:
        from repro.sim.parallel import set_default_jobs

        set_default_jobs(args.jobs)

    if args.batch != 1:
        from repro.sim.parallel import set_default_batch

        set_default_batch(args.batch)

    if (
        args.retries
        or args.timeout is not None
        or args.checkpoint is not None
        or args.resume
        or args.strict
    ):
        from repro.sim.parallel import (
            RetryPolicy,
            SweepOptions,
            set_default_sweep_options,
        )

        set_default_sweep_options(
            SweepOptions(
                retry=RetryPolicy(
                    max_retries=args.retries,
                    backoff_seconds=args.retry_backoff,
                ),
                timeout_seconds=args.timeout,
                checkpoint_path=args.checkpoint,
                # Each experiment's sweep opens the shared journal; only
                # append semantics keep earlier sweeps' entries alive.
                resume=args.checkpoint is not None,
                strict=args.strict,
            )
        )

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0

    chosen = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [name for name in chosen if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    telemetry = None
    if args.trace_out or args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()

    for name in chosen:
        module = importlib.import_module(f"repro.experiments.{name}")
        parameters = inspect.signature(module.run).parameters
        kwargs = {}
        if args.quick and "quick" in parameters:
            kwargs["quick"] = True
        if telemetry is not None and "telemetry" in parameters:
            kwargs["telemetry"] = telemetry
        if args.grid_solver is not None and "solver" in parameters:
            kwargs["solver"] = args.grid_solver
        if args.resolution is not None and "resolution" in parameters:
            kwargs["resolution"] = args.resolution
        started = time.time()
        result = module.run(**kwargs)
        elapsed = time.time() - started
        print(result)
        print(f"[{name}: {elapsed:.1f}s]")
        print()

    if telemetry is not None:
        from repro.telemetry import write_metrics_json, write_trace_jsonl

        if args.trace_out:
            lines = write_trace_jsonl(
                telemetry.trace, args.trace_out, meta=telemetry.meta
            )
            print(f"trace: {args.trace_out} ({lines} lines)")
        if args.metrics_out:
            write_metrics_json(telemetry.snapshot(), args.metrics_out)
            print(f"metrics: {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
