"""Property-based tests (hypothesis) for the thermal models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.thermal.rc_network import ThermalRCNetwork

FLOORPLAN = Floorplan.default()

powers_strategy = st.lists(
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
    min_size=7,
    max_size=7,
).map(np.array)

temps_strategy = st.lists(
    st.floats(min_value=80.0, max_value=120.0, allow_nan=False),
    min_size=7,
    max_size=7,
).map(np.array)


class TestLumpedModelProperties:
    @given(powers=powers_strategy, cycles=st.integers(1, 500_000))
    @settings(max_examples=60, deadline=None)
    def test_temperature_bounded_by_start_and_steady(self, powers, cycles):
        """Exponential approach: T stays between start and steady state."""
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        steady = model.steady_state(powers)
        end = model.advance(powers, cycles)
        low = np.minimum(100.0, steady) - 1e-9
        high = np.maximum(100.0, steady) + 1e-9
        assert np.all(end >= low)
        assert np.all(end <= high)

    @given(powers=powers_strategy, cycles=st.integers(1, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_advance_is_composable(self, powers, cycles):
        """advance(a+b) == advance(a); advance(b) under constant power."""
        one = LumpedThermalModel(FLOORPLAN, 100.0)
        two = LumpedThermalModel(FLOORPLAN, 100.0)
        one.advance(powers, 2 * cycles)
        two.advance(powers, cycles)
        two.advance(powers, cycles)
        assert np.allclose(one.temperatures, two.temperatures, atol=1e-9)

    @given(powers=powers_strategy)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_power(self, powers):
        """More power never yields lower temperatures."""
        base = LumpedThermalModel(FLOORPLAN, 100.0)
        hotter = LumpedThermalModel(FLOORPLAN, 100.0)
        base.advance(powers, 100_000)
        hotter.advance(powers + 1.0, 100_000)
        assert np.all(hotter.temperatures >= base.temperatures - 1e-12)

    @given(powers=powers_strategy, start=temps_strategy,
           threshold=st.floats(90.0, 115.0))
    @settings(max_examples=80, deadline=None)
    def test_fraction_above_in_unit_interval(self, powers, start, threshold):
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        model._temps = start.copy()
        steady = model.steady_state(powers)
        frac = model.fraction_above(start, steady, 1000 / 1.5e9, threshold)
        assert np.all(frac >= 0.0)
        assert np.all(frac <= 1.0)

    @given(powers=powers_strategy, start=temps_strategy,
           threshold=st.floats(90.0, 115.0))
    @settings(max_examples=80, deadline=None)
    def test_fraction_above_consistent_with_endpoints(
        self, powers, start, threshold
    ):
        """If both endpoints are above, fraction is 1; both below, 0."""
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        model._temps = start.copy()
        steady = model.steady_state(powers)
        duration = 1000 / 1.5e9  # the interval advance(powers, 1000) covers
        end = model.advance(powers, 1000)
        frac = model.fraction_above(start, steady, duration, threshold)
        both_above = (start > threshold) & (end > threshold)
        both_below = (start <= threshold) & (end <= threshold)
        assert np.all(frac[both_above] == 1.0)
        assert np.all(frac[both_below] == 0.0)


class TestNetworkProperties:
    @given(
        powers=st.lists(st.floats(0.0, 30.0), min_size=3, max_size=3),
        resistances=st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_steady_state_above_reference_for_positive_power(
        self, powers, resistances
    ):
        network = ThermalRCNetwork()
        names = ["a", "b", "c"]
        for name, resistance in zip(names, resistances):
            network.add_node(name, 1e-3, 100.0)
            network.connect_reference(name, 100.0, resistance)
        network.connect("a", "b", 10.0)
        network.connect("b", "c", 10.0)
        steady = network.steady_state(dict(zip(names, powers)))
        for temp in steady.values():
            assert temp >= 100.0 - 1e-9

    @given(power=st.floats(0.0, 50.0), resistance=st.floats(0.05, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_single_node_steady_state_is_ohms_law(self, power, resistance):
        network = ThermalRCNetwork()
        network.add_node("die", 0.5, 27.0)
        network.connect_reference("die", 27.0, resistance)
        steady = network.steady_state({"die": power})
        assert steady["die"] == (
            27.0 + power * resistance
        ) or abs(steady["die"] - (27.0 + power * resistance)) < 1e-9


class TestNetworkSteadyStateAgreesWithSettledRun:
    """steady_state must be the fixed point the Euler run settles to."""

    @given(
        n_nodes=st.integers(2, 4),
        powers=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
        resistances=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4),
        capacitances=st.lists(
            st.floats(1e-4, 8e-4), min_size=4, max_size=4
        ),
        chain_resistance=st.floats(0.5, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_long_run_settles_to_steady_state(
        self, n_nodes, powers, resistances, capacitances, chain_resistance
    ):
        network = ThermalRCNetwork()
        names = [f"n{i}" for i in range(n_nodes)]
        for name, capacitance in zip(names, capacitances):
            network.add_node(name, capacitance, 100.0)
        # Only the head node sees the reference; the rest reach it
        # through the chain, so the solve is genuinely coupled.
        network.connect_reference(names[0], 100.0, resistances[0])
        for left, right, resistance in zip(
            names, names[1:], resistances[1:]
        ):
            network.connect(left, right, chain_resistance * resistance)
        injected = dict(zip(names, powers))
        steady = network.steady_state(injected)
        # Longest possible time constant: every capacitance through
        # the full series resistance to the reference.
        total_r = resistances[0] + chain_resistance * sum(
            resistances[1:n_nodes]
        )
        tau = sum(capacitances[:n_nodes]) * total_r
        network.run(injected, duration=30.0 * tau, dt=tau / 50.0)
        for name in names:
            assert network.temperatures()[name] == pytest.approx(
                steady[name], abs=1e-6
            )


class TestMulticoreZeroCouplingProperties:
    """Decoupled stacked model == N independent single-core models."""

    @given(
        n_cores=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_bitwise_identical_to_independent_models(
        self, n_cores, seed, steps
    ):
        from repro.multicore.floorplan import MulticoreFloorplan
        from repro.multicore.thermal import MulticoreThermalModel

        tiling = MulticoreFloorplan.tile(
            n_cores=n_cores, coupling_scale=0.0
        )
        stacked = MulticoreThermalModel(tiling)
        independents = [
            LumpedThermalModel(tiling.core) for _ in range(n_cores)
        ]
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            powers = rng.uniform(0.0, 12.0, size=stacked.shape)
            cycles = int(rng.integers(1, 200_000))
            stacked.advance(powers, cycles)
            for core, model in enumerate(independents):
                model.advance(powers[core], cycles)
        expected = np.stack(
            [model.temperatures for model in independents]
        )
        assert np.array_equal(stacked.temperatures, expected)

    @given(
        n_cores=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_fraction_above_matches_single_core(self, n_cores, seed):
        from repro.multicore.floorplan import MulticoreFloorplan
        from repro.multicore.thermal import MulticoreThermalModel

        tiling = MulticoreFloorplan.tile(
            n_cores=n_cores, coupling_scale=0.0
        )
        stacked = MulticoreThermalModel(tiling)
        single = LumpedThermalModel(tiling.core)
        rng = np.random.default_rng(seed)
        powers = rng.uniform(0.0, 12.0, size=stacked.shape)
        start0, steady0, _ = stacked.sample_update(powers, 1000)
        single._temps = start0[0].copy()
        frac_stack = stacked.fraction_above(
            start0, steady0, 1000 / 1.5e9, 101.0
        )
        frac_single = single.fraction_above(
            start0[0], steady0[0], 1000 / 1.5e9, 101.0
        )
        assert np.array_equal(frac_stack[0], frac_single)

    @given(
        n_cores=st.integers(1, 8),
        coupling=st.sampled_from((0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        cycles=st.integers(1, 200_000),
        thresholds=st.lists(
            st.floats(min_value=95.0, max_value=125.0, allow_nan=False),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_fractions_above_rows_match_single_core(
        self, n_cores, coupling, seed, cycles, thresholds
    ):
        """Each core row of the stacked pass is the single-core pass."""
        from repro.multicore.floorplan import MulticoreFloorplan
        from repro.multicore.thermal import MulticoreThermalModel

        tiling = MulticoreFloorplan.tile(
            n_cores=n_cores, coupling_scale=coupling
        )
        stacked = MulticoreThermalModel(tiling)
        single = LumpedThermalModel(tiling.core)
        rng = np.random.default_rng(seed)
        stacked._temps = rng.uniform(95.0, 125.0, size=stacked.shape)
        powers = rng.uniform(0.0, 25.0, size=stacked.shape)
        start, steady, _ = stacked.sample_update(powers, cycles)
        duration = cycles * stacked.cycle_time
        frac_stack = stacked.fractions_above(
            start, steady, duration, thresholds
        )
        assert frac_stack.shape == (len(thresholds), *stacked.shape)
        for core in range(n_cores):
            frac_single = single.fractions_above(
                start[core], steady[core], duration, thresholds
            )
            assert np.array_equal(frac_stack[:, core], frac_single)
        for k, threshold in enumerate(thresholds):
            assert np.array_equal(
                stacked.fraction_above(start, steady, duration, threshold),
                frac_stack[k],
            )
