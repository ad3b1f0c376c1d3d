"""Bit-identity guard: the multicore sample kernel vs its pinned original.

:class:`tests.multicore_reference.ReferenceMulticoreEngine` runs the
original per-core sample body (``phase_at``, ``block_powers``, two
single-threshold fraction passes).  Every optimization of
:meth:`repro.multicore.MulticoreEngine._run` must be a pure strength
reduction, so these tests demand *exact* equality of the serialized
results and of the telemetry (trace records, events, metrics and run
metadata; span timings are wall clock and excluded) over chip sizes,
policies, coordinators, seeds, failsafe guards and sensor faults.
"""

from __future__ import annotations

import pytest

from repro.config import FailsafeConfig, TelemetryConfig
from repro.faults import FaultSchedule, FaultWindow
from repro.multicore import MulticoreEngine, MulticoreFloorplan
from repro.sim.codec import result_to_dict
from repro.telemetry import Telemetry
from tests.multicore_reference import ReferenceMulticoreEngine

MIX = ("art", "gcc", "gzip", "mesa")
#: Long enough for the art cores' controllers to engage.
BUDGET = 600_000
CORE_COUNTS = (1, 2, 4, 8)
POLICIES = ("none", "pid", "toggle1", "toggle2", "pi", "m", "mixed")
COORDINATORS = (None, "uniform", "hottest", "proportional")
#: Per-core policy list for the "mixed" case, dealt round-robin.
MIXED = ("pid", "toggle1", "none", "pi")


def _cores(n_cores):
    return tuple(MIX[i % len(MIX)] for i in range(n_cores))


def _policy(policy, n_cores):
    if policy == "mixed":
        return [MIXED[i % len(MIXED)] for i in range(n_cores)]
    return policy


def run_both(n_cores, policy, budget=BUDGET, telemetry=False,
             make_schedules=None, **kwargs):
    """Run the live engine and the reference on one configuration.

    ``make_schedules`` builds each engine its own fault schedules.
    """
    runs = []
    for cls in (MulticoreEngine, ReferenceMulticoreEngine):
        sink = Telemetry(TelemetryConfig()) if telemetry else None
        engine = cls(
            _cores(n_cores),
            policy=_policy(policy, n_cores),
            telemetry=sink,
            fault_schedules=(
                make_schedules() if make_schedules is not None else None
            ),
            **kwargs,
        )
        runs.append((engine.run(instructions=budget), sink))
    return runs


def assert_identical(runs):
    (live, live_sink), (reference, reference_sink) = runs
    assert result_to_dict(live) == result_to_dict(reference)
    if live_sink is None:
        return
    # repr() prints every float round-trip exactly (and NaN as nan).
    assert repr(live_sink.trace.records()) == repr(
        reference_sink.trace.records()
    )
    assert repr(list(live_sink.trace.events)) == repr(
        list(reference_sink.trace.events)
    )
    assert live_sink.meta == reference_sink.meta
    live_snapshot = live_sink.snapshot()
    reference_snapshot = reference_sink.snapshot()
    live_snapshot.pop("spans")
    reference_snapshot.pop("spans")
    assert live_snapshot == reference_snapshot


class TestMatrix:
    """Every chip size sees every policy and every coordinator."""

    @pytest.mark.parametrize("n_cores", CORE_COUNTS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_results_identical(self, n_cores, policy, seed):
        # Rotate the coordinator so each chip size meets all four.
        turn = POLICIES.index(policy) + CORE_COUNTS.index(n_cores)
        coordinator = COORDINATORS[turn % len(COORDINATORS)]
        assert_identical(run_both(
            n_cores, policy, seed=seed, coordinator=coordinator,
            telemetry=seed == 1,
        ))

    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_eight_core_pid(self, coordinator):
        assert_identical(run_both(
            8, "pid", coordinator=coordinator, telemetry=True
        ))

    def test_uncoupled_floorplan(self):
        floorplan = MulticoreFloorplan.tile(n_cores=4, coupling_scale=0.0)
        assert_identical(run_both(
            4, "pid", floorplan=floorplan, coordinator="hottest"
        ))


class TestFailsafeAndFaults:
    @pytest.mark.parametrize("n_cores", (2, 8))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_failsafe_with_fault_schedule(self, n_cores, seed):
        def schedules():
            # Core 0's sensor rails high (its watchdog trips); core 1's
            # drops samples at random.
            return {
                0: FaultSchedule(
                    seed,
                    sensor_stuck_windows=(
                        FaultWindow(10, 300, value=120.0),
                    ),
                ),
                1: FaultSchedule(seed, dropout_rate=0.2),
            }

        runs = run_both(
            n_cores, "pid", seed=seed, coordinator="proportional",
            failsafe=FailsafeConfig(), make_schedules=schedules,
            telemetry=True,
        )
        assert_identical(runs)
        live = runs[0][0]
        assert live.cores[0].extra["failsafe_engagements"] > 0

    @pytest.mark.parametrize("policy", ("none", "toggle1", "mixed"))
    def test_failsafe_on(self, policy):
        assert_identical(run_both(
            4, policy, coordinator="uniform", failsafe=FailsafeConfig()
        ))


def test_matrix_exercises_the_controllers():
    """The budget is long enough for DTM to engage and stress to show."""
    (live, _), _ = run_both(8, "pid", coordinator="proportional")
    assert max(core.engaged_fraction for core in live.cores) > 0.0
    assert live.stress_fraction > 0.0
