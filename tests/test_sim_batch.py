"""The lane-batched simulation subsystem (:mod:`repro.sim.batch`).

The headline guarantee -- ``batch=B`` is bit-identical to B sequential
fast-engine runs -- is asserted three ways: directly on a
:class:`BatchEngine` over mixed lanes (policies, seeds, faults,
failsafe, ragged budgets, history on/off), through the executor
(``run_specs``/``run_suite``/orchestrator, serial and pooled), and as
a hypothesis property over random matrices and B in {1, 2, 4, 8}.

Cross-backend checkpoint parity: a journal written by a serial sweep
resumes under ``batch=B`` (and vice versa) with results bit-identical
to an uninterrupted serial sweep, because batched runs produce the
same canonical spec fingerprints.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DTMConfig, FailsafeConfig
from repro.dtm.policies import make_policy
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultSchedule
from repro.power.leakage import LeakageModel
from repro.sim.batch import (
    BatchEngine,
    batch_compatibility_key,
    engine_for_spec,
    plan_batches,
    run_spec_lanes,
    validate_batch,
)
from repro.sim.cache import ResultCache, cache_key
from repro.sim.checkpoint import (
    load_checkpoint,
    result_from_dict,
    result_to_dict,
    spec_fingerprint,
)
from repro.sim.parallel import (
    RetryPolicy,
    SweepOptions,
    WorkSpec,
    get_default_batch,
    matrix_specs,
    resolve_batch,
    resolve_jobs,
    run_outcomes,
    run_specs,
    set_default_batch,
)
from repro.sim.fast import FastEngine
from repro.sim.sweep import build_engine, run_suite
from repro.telemetry.core import Telemetry
from repro.thermal.floorplan import Floorplan
from repro.workloads.profiles import get_profile
from tests.fast_reference import ReferenceFastEngine
from tests.test_sim_parallel import (
    INSTRUCTIONS,
    assert_metrics_match,
    assert_results_equal,
    nan_equal,
    quiet_telemetry,
)


def assert_histories_equal(a, b):
    """Exact (bitwise) equality of two History payloads."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.sample_cycles == b.sample_cycles
    assert a.names == b.names
    for name in (
        "max_temp",
        "duty",
        "chip_power",
        "block_temps",
        "block_powers",
        "block_emergency",
        "block_stress",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def mixed_specs() -> list[WorkSpec]:
    """Compatible specs exercising every per-lane divergence at once."""
    return [
        WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=INSTRUCTIONS,
            record_history=True,
        ),
        WorkSpec(
            benchmark="gzip",
            policy="none",
            instructions=60_000,
            seed=7,
        ),
        WorkSpec(
            benchmark="art",
            policy="toggle2",
            instructions=90_000,
            fault_schedule=FaultSchedule(
                seed=3, dropout_rate=0.05, spike_rate=0.05
            ),
        ),
        WorkSpec(
            benchmark="mesa",
            policy="pi",
            instructions=INSTRUCTIONS,
            failsafe=FailsafeConfig(),
        ),
        WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=75_000,
            seed=11,
            fault_schedule=FaultSchedule(seed=5, stale_rate=0.1),
            failsafe=FailsafeConfig(),
        ),
    ]


class TestValidation:
    @pytest.mark.parametrize("bad", [True, False, 0, -1, 1.5, "4", None])
    def test_validate_batch_rejects(self, bad):
        with pytest.raises(ConfigError):
            validate_batch(bad)

    @pytest.mark.parametrize("good", [1, 2, 8, 1000])
    def test_validate_batch_accepts(self, good):
        validate_batch(good)

    def test_validate_batch_allow_none(self):
        validate_batch(None, allow_none=True)
        with pytest.raises(ConfigError):
            validate_batch(True, allow_none=True)

    @pytest.mark.parametrize("bad", [True, 0, -3, 2.0])
    def test_sweep_options_rejects_bad_batch(self, bad):
        with pytest.raises(ConfigError):
            SweepOptions(batch=bad)

    @pytest.mark.parametrize(
        "bad", [float("inf"), float("nan"), True, 0, -1.0, "5"]
    )
    def test_sweep_options_rejects_bad_timeout(self, bad):
        with pytest.raises(ConfigError):
            SweepOptions(timeout_seconds=bad)

    @pytest.mark.parametrize(
        "name",
        ["backoff_seconds", "backoff_multiplier", "max_backoff_seconds"],
    )
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), True]
    )
    def test_retry_policy_rejects_non_finite_and_bool(self, name, bad):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=2, **{name: bad})

    def test_finite_timeouts_and_backoffs_accepted(self):
        assert SweepOptions(timeout_seconds=2).timeout_seconds == 2
        policy = RetryPolicy(
            max_retries=2,
            backoff_seconds=1,
            backoff_multiplier=1,
            max_backoff_seconds=0.5,
        )
        assert policy.delay(2) == 0.5

    def test_sweep_options_accepts_none_and_int(self):
        assert SweepOptions().batch is None
        assert SweepOptions(batch=4).batch == 4

    @pytest.mark.parametrize("bad", [True, 0, -1])
    def test_run_specs_rejects_bad_batch(self, bad):
        spec = WorkSpec(benchmark="gcc", policy="none", instructions=1000)
        with pytest.raises(ConfigError):
            run_specs([spec], jobs=1, batch=bad)

    def test_default_batch_roundtrip(self):
        assert get_default_batch() == 1
        set_default_batch(4)
        try:
            assert get_default_batch() == 4
            assert resolve_batch(None) == 4
            assert resolve_batch(2) == 2
        finally:
            set_default_batch(1)

    @pytest.mark.parametrize("bad", [True, 0, -2])
    def test_set_default_batch_rejects(self, bad):
        with pytest.raises(ConfigError):
            set_default_batch(bad)
        assert get_default_batch() == 1

    def test_resolve_jobs_rejects_bool_and_non_int_tasks(self):
        # The jobs-side audit: task counts are counts, not flags.
        with pytest.raises(ConfigError):
            resolve_jobs(2, True)
        with pytest.raises(ConfigError):
            resolve_jobs(2, 3.0)


class TestPlanner:
    def test_consecutive_compatible_specs_group(self):
        specs = matrix_specs(
            ["gcc", "gzip", "art"], ["none", "pid"], instructions=1000
        )
        assert plan_batches(specs, 4) == [[0, 1, 2, 3], [4, 5]]
        assert plan_batches(specs, 2) == [[0, 1], [2, 3], [4, 5]]

    def test_batch_one_is_all_singletons(self):
        specs = matrix_specs(["gcc", "gzip"], ["none"], instructions=1000)
        assert plan_batches(specs, 1) == [[0], [1]]

    def test_incompatible_environments_split_groups(self):
        base = dict(policy="pid", instructions=1000)
        specs = [
            WorkSpec(benchmark="gcc", **base),
            WorkSpec(benchmark="gzip", dtm_config=DTMConfig(), **base),
            WorkSpec(benchmark="art", **base),
        ]
        # Same benchmark/policy matrix, but lane compatibility keys on
        # the shared environment (floorplan + configs), not the matrix.
        assert batch_compatibility_key(specs[0]) != batch_compatibility_key(
            specs[1]
        )
        assert plan_batches(specs, 4) == [[0], [1], [2]]

    def test_multicore_specs_never_batch(self):
        single = WorkSpec(benchmark="gcc", policy="pid", instructions=1000)
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=1000,
            core_benchmarks=("gcc", "gzip"),
        )
        assert batch_compatibility_key(multi) is None
        assert plan_batches([single, multi, single], 4) == [[0], [1], [2]]

    def test_engine_for_spec_rejects_multicore(self):
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=1000,
            core_benchmarks=("gcc", "gzip"),
        )
        with pytest.raises(SimulationError):
            engine_for_spec(multi)


class TestBatchEngineParity:
    def test_single_lane_matches_serial_engine(self):
        serial = build_engine("gcc", "pid", seed=2).run(
            instructions=INSTRUCTIONS
        )
        [batched] = BatchEngine([build_engine("gcc", "pid", seed=2)]).run(
            instructions=INSTRUCTIONS
        )
        assert_results_equal(serial, batched)

    def test_mixed_lanes_bit_identical(self):
        specs = mixed_specs()
        serial = [
            engine_for_spec(spec).run(instructions=spec.instructions)
            for spec in specs
        ]
        outcomes = run_spec_lanes(specs)
        assert all(o.error is None for o in outcomes)
        for a, o in zip(serial, outcomes):
            assert_results_equal(a, o.result)
            assert_histories_equal(a.history, o.result.history)

    def test_per_lane_features_match_reference(self):
        """Leakage, sensor placement and supply efficiency are per lane.

        Each lane matches its own run of the frozen reference kernel,
        and leaves its engine's thermal model at its last temperatures.
        The plain lane finishes first, so the other lanes change rows.
        """
        floorplan = Floorplan.default()
        lanes = [
            ("gzip", 60_000, {}),
            ("gcc", 150_000, {"leakage": LeakageModel()}),
            ("art", 100_000, {"monitored_blocks": ("regfile", "int_exec")}),
            ("mesa", 120_000, {"supply_efficiency": 0.7}),
        ]

        def make(cls, seed, bench, options):
            return cls(
                get_profile(bench),
                policy=make_policy("pid", floorplan),
                floorplan=floorplan,
                seed=seed,
                record_history=True,
                **options,
            )

        engines = [
            make(FastEngine, seed, bench, options)
            for seed, (bench, _, options) in enumerate(lanes)
        ]
        outcomes = BatchEngine(engines).run_outcomes(
            instructions=[budget for _, budget, _ in lanes]
        )
        for seed, (engine, outcome, (bench, budget, options)) in enumerate(
            zip(engines, outcomes, lanes)
        ):
            assert outcome.error is None, bench
            reference = make(ReferenceFastEngine, seed, bench, options)
            expected = reference.run(budget)
            assert_results_equal(expected, outcome.result)
            assert_histories_equal(expected.history, outcome.result.history)
            assert np.array_equal(
                engine.thermal.temperatures,
                outcome.result.history.block_temps[-1],
            )

    def test_warmup_parity(self):
        a = build_engine("gcc", "pid")
        b = build_engine("gcc", "pid")
        warm_serial = a.run(
            instructions=INSTRUCTIONS, warmup_instructions=30_000
        )
        [warm_batched] = BatchEngine([b]).run(
            instructions=INSTRUCTIONS, warmup_instructions=30_000
        )
        assert_results_equal(warm_serial, warm_batched)

    def test_lane_error_is_isolated_in_outcomes(self):
        specs = [
            WorkSpec(benchmark="gcc", policy="none", instructions=60_000),
            WorkSpec(benchmark="gzip", policy="pid", instructions=-1),
            WorkSpec(benchmark="art", policy="pid", instructions=60_000),
        ]
        outcomes = run_spec_lanes(specs)
        assert outcomes[0].error is None and outcomes[0].result is not None
        assert isinstance(outcomes[1].error, SimulationError)
        assert outcomes[2].error is None and outcomes[2].result is not None
        # The surviving lanes match their solo runs exactly.
        solo = engine_for_spec(specs[2]).run(instructions=60_000)
        assert_results_equal(solo, outcomes[2].result)

    def test_run_raises_earliest_lane_error(self):
        specs = [
            WorkSpec(benchmark="gcc", policy="none", instructions=60_000),
            WorkSpec(benchmark="gzip", policy="pid", instructions=-1),
        ]
        engines = [engine_for_spec(specs[0])]
        batch = BatchEngine(engines)
        with pytest.raises(SimulationError):
            batch.run(instructions=[-1])

    def test_profiled_lanes_time_every_stacked_advance(self):
        telemetries = [Telemetry(), Telemetry()]
        engines = [
            build_engine("gcc", "pid", telemetry=telemetries[0]),
            build_engine("gzip", "none", telemetry=telemetries[1]),
        ]
        BatchEngine(engines).run(instructions=[60_000, 120_000])
        for engine, telemetry in zip(engines, telemetries):
            profiler = telemetry.profiler
            assert profiler.stats("engine.run").count == 1
            assert (
                profiler.stats("thermal.advance").count
                == engine.manager.samples
            )

    @pytest.mark.parametrize(
        "budget",
        [
            {"max_cycles": 0},
            {"max_cycles": -5},
            {"max_cycles": math.nan},
            {"instructions": math.inf},
            {"instructions": math.nan},
        ],
        ids=["cycles-0", "cycles-neg", "cycles-nan", "instr-inf", "instr-nan"],
    )
    @pytest.mark.parametrize("kernel", ["fast-engine", "batch-lane"])
    def test_bad_budget_is_a_simulation_error(self, kernel, budget):
        """A budget that allows no sample fails before the first step."""
        budget = {"instructions": 60_000, "max_cycles": None, **budget}
        engine = build_engine("gcc", "pid")
        if kernel == "fast-engine":
            with pytest.raises(SimulationError):
                engine.run(**budget)
        else:
            good = build_engine("gzip", "pid")
            good_result, bad = BatchEngine([good, engine]).run_outcomes(
                instructions=[60_000, budget["instructions"]],
                max_cycles=[None, budget["max_cycles"]],
            )
            assert good_result.error is None
            assert isinstance(bad.error, SimulationError)
        assert engine.manager.samples == 0

    def test_rejects_mismatched_environments(self):
        a = build_engine("gcc", "pid")
        b = build_engine(
            "gzip", "pid", dtm_config=DTMConfig(pid_setpoint=99.0)
        )
        with pytest.raises(SimulationError):
            BatchEngine([a, b])

    def test_rejects_empty_batch(self):
        with pytest.raises(SimulationError):
            BatchEngine([])


class TestExecutorBatch:
    def test_run_specs_batched_serial_and_pooled(self):
        specs = matrix_specs(
            ["gcc", "gzip"],
            ["pid", "toggle1"],
            include_baseline=True,
            instructions=INSTRUCTIONS,
        )
        serial = run_specs(specs, jobs=1)
        for jobs, batch in ((1, 4), (2, 3), (2, 8)):
            batched = run_specs(specs, jobs=jobs, batch=batch)
            for a, b in zip(serial, batched):
                assert_results_equal(a, b)

    def test_run_specs_batched_telemetry_parity(self):
        specs = matrix_specs(
            ["gcc", "gzip"], ["pid"], include_baseline=True,
            instructions=INSTRUCTIONS,
        )
        t_serial = quiet_telemetry()
        run_specs(specs, jobs=1, telemetry=t_serial)
        t_batched = quiet_telemetry()
        run_specs(specs, jobs=1, batch=4, telemetry=t_batched)
        assert t_serial.trace.emitted == t_batched.trace.emitted
        for a, b in zip(
            t_serial.trace.records(), t_batched.trace.records()
        ):
            assert nan_equal(a.to_dict(), b.to_dict())
        assert nan_equal(
            [e.to_dict() for e in t_serial.trace.events],
            [e.to_dict() for e in t_batched.trace.events],
        )
        assert_metrics_match(
            t_serial.metrics.snapshot(), t_batched.metrics.snapshot()
        )

    def test_run_suite_batch(self):
        kwargs = dict(
            policies=["pid"],
            benchmarks=["gcc", "art"],
            instructions=INSTRUCTIONS,
            seed=5,
        )
        serial = run_suite(**kwargs)
        batched = run_suite(batch=4, **kwargs)
        assert serial.keys() == batched.keys()
        for key in serial:
            assert_results_equal(serial[key], batched[key])

    def test_multicore_spec_dispatches_inside_batched_sweep(self):
        from repro.multicore.results import MulticoreRunResult

        single = matrix_specs(
            ["gcc", "gzip"], ["pid"], instructions=60_000
        )
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=60_000,
            core_benchmarks=("gcc", "gzip"),
        )
        specs = [single[0], multi, single[1]]
        results = run_specs(specs, jobs=1, batch=4)
        assert isinstance(results[1], MulticoreRunResult)
        assert results[1].n_cores == 2
        serial = run_specs(single, jobs=1)
        assert_results_equal(serial[0], results[0])
        assert_results_equal(serial[1], results[2])

    def test_orchestrator_batch_matches_serial(self):
        specs = matrix_specs(
            ["gcc", "gzip"], ["none", "pid"], instructions=60_000
        )
        ref = run_outcomes(specs, jobs=1, options=SweepOptions())
        for jobs in (1, 2):
            out = run_outcomes(
                specs, jobs=jobs, options=SweepOptions(batch=4)
            )
            for a, b in zip(ref, out):
                assert_results_equal(a.result, b.result)

    def test_orchestrator_isolates_bad_lane_in_group(self):
        good = matrix_specs(["gcc"], ["none", "pid"], instructions=60_000)
        bad = WorkSpec(benchmark="gcc", policy="pid", instructions=-5)
        specs = [good[0], bad, good[1]]
        for jobs in (1, 2):
            out = run_outcomes(
                specs,
                jobs=jobs,
                options=SweepOptions(
                    retry=RetryPolicy(max_retries=1), batch=4
                ),
            )
            assert out[0].result is not None
            assert out[1].result is None and out[1].error is not None
            assert out[2].result is not None

    def test_fail_fast_raises_through_batch(self):
        specs = [
            WorkSpec(benchmark="gcc", policy="none", instructions=60_000),
            WorkSpec(benchmark="gzip", policy="pid", instructions=-5),
        ]
        for jobs in (1, 2):
            with pytest.raises(SimulationError):
                run_specs(specs, jobs=jobs, batch=4)


    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_keeps_what_settled_before_the_failure(
        self, jobs, batch, cached, tmp_path
    ):
        specs = [
            WorkSpec(benchmark="gcc", policy="none", instructions=60_000),
            WorkSpec(benchmark="gzip", policy="pid", instructions=-5),
            WorkSpec(benchmark="art", policy="pid", instructions=60_000),
        ]
        store = ResultCache(tmp_path / "cache") if cached else False
        telemetry = quiet_telemetry()
        with pytest.raises(SimulationError):
            run_specs(
                specs, jobs=jobs, batch=batch, telemetry=telemetry,
                cache=store,
            )
        # Only the spec settled before the failure folds its telemetry
        # and, with a cache, keeps its entry.
        contexts = {(r.benchmark, r.policy) for r in telemetry.trace.records()}
        assert contexts == {("gcc", "none")}
        if cached:
            assert store.lookup(cache_key(specs[0])) is not None
            assert store.lookup(cache_key(specs[2])) is None

    @pytest.mark.parametrize("jobs,batch", [(2, 8), (3, 8)])
    def test_pool_window_keeps_every_worker_fed(
        self, jobs, batch, monkeypatch
    ):
        # The submission window counts groups, not lanes: jobs=J,
        # batch=B must have at least J groups in flight before the
        # runner first waits on one.
        from concurrent.futures import Future

        from repro.sim import parallel

        submitted: list[Future] = []
        in_flight_at_first_wait: list[int] = []

        class Settled(Future):
            def result(self, timeout=None):
                if not in_flight_at_first_wait:
                    in_flight_at_first_wait.append(len(submitted))
                return super().result(timeout)

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                future = Settled()
                future.set_result(fn(*args))
                submitted.append(future)
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", InlinePool)
        specs = matrix_specs(
            ["gcc", "gzip"], ["pid"], seeds=range(jobs * batch // 2),
            instructions=20_000,
        )
        results = run_specs(specs, jobs=jobs, batch=batch)
        assert len(submitted) == jobs
        assert in_flight_at_first_wait == [jobs]
        for a, b in zip(run_specs(specs, jobs=1), results):
            assert_results_equal(a, b)


class TestCheckpointCrossBackend:
    def _specs(self):
        return matrix_specs(
            ["gcc", "gzip"], ["none", "pid"], instructions=60_000
        )

    def _journal_payload(self, path, specs):
        saved = load_checkpoint(path)
        return {
            fingerprint: [entry["result"] for entry in entries]
            for fingerprint, entries in saved.items()
            if fingerprint in {spec_fingerprint(s) for s in specs}
        }

    @pytest.mark.parametrize(
        "first_batch,second_batch", [(1, 4), (4, 1)]
    )
    def test_interrupted_sweep_resumes_across_backends(
        self, tmp_path, first_batch, second_batch
    ):
        specs = self._specs()
        path = tmp_path / "journal.jsonl"
        ref = run_outcomes(specs, jobs=1, options=SweepOptions())

        # "Interrupt" after half the specs under one backend...
        half = run_outcomes(
            specs[:2],
            jobs=1,
            options=SweepOptions(
                checkpoint_path=path, batch=first_batch
            ),
        )
        assert all(o.result is not None for o in half)

        # ...then resume the full sweep under the other backend.
        resumed = run_outcomes(
            specs,
            jobs=1,
            options=SweepOptions(
                checkpoint_path=path,
                resume=True,
                batch=second_batch,
            ),
        )
        for a, b in zip(ref, resumed):
            assert_results_equal(a.result, b.result)

        # The journal holds one bit-identical entry per spec,
        # regardless of which backend produced it.
        payload = self._journal_payload(path, specs)
        assert sorted(payload) == sorted(
            spec_fingerprint(spec) for spec in specs
        )
        serial_dicts = {
            spec_fingerprint(spec): result_to_dict(outcome.result)
            for spec, outcome in zip(specs, ref)
        }
        for fingerprint, entries in payload.items():
            assert len(entries) == 1
            assert nan_equal(entries[0], serial_dicts[fingerprint])

    def test_batched_journal_fingerprints_match_serial(self, tmp_path):
        specs = self._specs()
        serial_path = tmp_path / "serial.jsonl"
        batched_path = tmp_path / "batched.jsonl"
        run_outcomes(
            specs, jobs=1,
            options=SweepOptions(checkpoint_path=serial_path),
        )
        run_outcomes(
            specs, jobs=1,
            options=SweepOptions(checkpoint_path=batched_path, batch=4),
        )
        a = self._journal_payload(serial_path, specs)
        b = self._journal_payload(batched_path, specs)
        assert sorted(a) == sorted(b)
        for fingerprint in a:
            assert nan_equal(a[fingerprint], b[fingerprint])

    def test_multicore_result_round_trips(self):
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=60_000,
            core_benchmarks=("gcc", "gzip"),
            coordinator="proportional",
        )
        [result] = run_specs([multi], jobs=1)
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.policy == result.policy
        assert rebuilt.coordinator == result.coordinator
        assert rebuilt.cycles == result.cycles
        assert rebuilt.emergency_fraction == result.emergency_fraction
        assert rebuilt.mean_chip_power == result.mean_chip_power
        assert rebuilt.energy_joules == result.energy_joules
        assert rebuilt.extra == result.extra
        assert len(rebuilt.cores) == len(result.cores)
        for a, b in zip(result.cores, rebuilt.cores):
            assert a == b

    def test_multicore_resume_from_journal(self, tmp_path):
        from repro.multicore.results import MulticoreRunResult

        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=60_000,
            core_benchmarks=("gcc", "gzip"),
        )
        path = tmp_path / "journal.jsonl"
        first = run_outcomes(
            [multi], jobs=1, options=SweepOptions(checkpoint_path=path)
        )
        resumed = run_outcomes(
            [multi],
            jobs=1,
            options=SweepOptions(checkpoint_path=path, resume=True),
        )
        assert isinstance(resumed[0].result, MulticoreRunResult)
        assert resumed[0].result.cycles == first[0].result.cycles
        for a, b in zip(first[0].result.cores, resumed[0].result.cores):
            assert a == b


class TestBatchProperty:
    @given(
        benchmarks=st.lists(
            st.sampled_from(["gcc", "gzip", "art", "mesa"]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        policies=st.lists(
            st.sampled_from(["none", "toggle1", "pi", "pid"]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**16),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        batch=st.sampled_from([1, 2, 4, 8]),
        ragged=st.booleans(),
        faulty=st.booleans(),
        failsafe=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_batched_is_bit_identical_to_serial(
        self, benchmarks, policies, seeds, batch, ragged, faulty, failsafe
    ):
        specs = matrix_specs(
            benchmarks,
            policies,
            seeds=seeds,
            instructions=INSTRUCTIONS,
            record_history=True,
            failsafe=FailsafeConfig() if failsafe else None,
        )
        if ragged:
            # Ragged budgets: lanes complete at different samples.
            specs = [
                dataclasses.replace(
                    spec, instructions=50_000 + 20_000 * (i % 3)
                )
                for i, spec in enumerate(specs)
            ]
        if faulty:
            specs = [
                dataclasses.replace(
                    spec,
                    fault_schedule=FaultSchedule(
                        seed=i, dropout_rate=0.05, spike_rate=0.02
                    ),
                )
                for i, spec in enumerate(specs)
            ]
        t_serial = quiet_telemetry()
        serial = run_specs(specs, jobs=1, telemetry=t_serial)
        t_batched = quiet_telemetry()
        batched = run_specs(
            specs, jobs=1, batch=batch, telemetry=t_batched
        )
        for a, b in zip(serial, batched):
            assert_results_equal(a, b)
            assert_histories_equal(a.history, b.history)
        assert t_serial.trace.emitted == t_batched.trace.emitted
        for a, b in zip(
            t_serial.trace.records(), t_batched.trace.records()
        ):
            assert nan_equal(a.to_dict(), b.to_dict())
        assert_metrics_match(
            t_serial.metrics.snapshot(), t_batched.metrics.snapshot()
        )
