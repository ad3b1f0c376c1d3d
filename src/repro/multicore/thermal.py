"""Vectorized N-core thermal-RC model: one stacked numpy update.

State is one ``(n_cores, n_blocks)`` array.  Each block keeps the
paper's vertical path to the isothermal heatsink (exact exponential
update for constant power, as in
:class:`~repro.thermal.lumped.LumpedThermalModel`); cores additionally
exchange heat laterally through the coupling resistances of the
:class:`~repro.multicore.floorplan.MulticoreFloorplan`.

The lateral exchange is applied **quasi-statically** per interval: the
core temperature seen by neighbors is the capacitance-weighted block
mean, the net lateral power into each core is computed once at the
interval start, distributed to blocks by capacitance share, and folded
into the per-block power before the exact vertical update.  This is
accurate because the coupling conductance is weak (the same argument
the paper uses to drop intra-core lateral paths): per 1000-cycle
sample, core-to-core temperature differences move by well under 1 %.

**Zero-coupling guarantee**: with no couplings the lateral term is
skipped entirely and the stacked update performs, row by row, exactly
the same elementwise float64 operations as
:meth:`LumpedThermalModel._advance` -- so the N-core model is
*bit-identical* to N independent single-core models (asserted by unit
and hypothesis tests) while running the update as one numpy call
(>= 3x faster than the N-model loop at N=16, asserted by a benchmark).
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ThermalModelError
from repro.multicore.floorplan import MulticoreFloorplan
from repro.thermal.lumped import fractions_above


class MulticoreThermalModel:
    """Stacked per-core block temperatures over a shared heatsink."""

    def __init__(
        self,
        floorplan: MulticoreFloorplan,
        heatsink_temperature: float = 100.0,
        initial_temperature: float | None = None,
        cycle_time: float = units.CYCLE_TIME,
    ) -> None:
        if cycle_time <= 0:
            raise ThermalModelError("cycle_time must be positive")
        self.floorplan = floorplan
        self.heatsink_temperature = float(heatsink_temperature)
        self.cycle_time = float(cycle_time)
        core = floorplan.core
        self._resistance = np.array(
            [block.resistance for block in core.blocks], dtype=float
        )
        self._capacitance = np.array(
            [block.capacitance for block in core.blocks], dtype=float
        )
        self._tau = self._resistance * self._capacitance
        #: (n_cores, n_cores) lateral conductance; zero => decoupled.
        self._coupling = floorplan.coupling_conductance_matrix()
        self._coupling_total = self._coupling.sum(axis=1)
        self._has_coupling = bool(np.any(self._coupling))
        self._share = floorplan.capacitance_shares()
        # Forward-Euler stability: per-block total conductance is the
        # vertical path plus this block's share of the core's lateral
        # conductance (worst core).
        lateral_block = (
            float(self._coupling_total.max()) * self._share
            if self._has_coupling
            else np.zeros_like(self._share)
        )
        total_conductance = 1.0 / self._resistance + lateral_block
        self._euler_limit = 2.0 * float(
            (self._capacitance / total_conductance).min()
        )
        start = (
            self.heatsink_temperature
            if initial_temperature is None
            else float(initial_temperature)
        )
        self._initial = start
        self._temps = np.full(
            (floorplan.n_cores, floorplan.n_blocks), start, dtype=float
        )

    # -- state ---------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return self.floorplan.n_cores

    @property
    def shape(self) -> tuple[int, int]:
        """State shape, ``(n_cores, n_blocks)``."""
        return self._temps.shape

    @property
    def time_constants(self) -> np.ndarray:
        """Per-block vertical RC time constants [s] (read-only copy)."""
        return self._tau.copy()

    @property
    def temperatures(self) -> np.ndarray:
        """Current temperatures [degC], shape ``(n_cores, n_blocks)`` (copy)."""
        return self._temps.copy()

    @property
    def core_max_temperatures(self) -> np.ndarray:
        """Hottest block of each core [degC], shape ``(n_cores,)``."""
        return self._temps.max(axis=1)

    @property
    def max_temperature(self) -> float:
        """Hottest block on the whole die [degC]."""
        return float(self._temps.max())

    @property
    def hottest_core(self) -> int:
        """Index of the core holding the hottest block."""
        return int(self._temps.max(axis=1).argmax())

    def core_temperatures(self, core_index: int) -> np.ndarray:
        """One core's block temperatures [degC] (copy)."""
        self.floorplan._check_core(core_index)
        return self._temps[core_index].copy()

    def reset(self) -> None:
        """Return every block of every core to the initial temperature."""
        self._temps.fill(self._initial)

    # -- lateral exchange ----------------------------------------------------
    def core_mean_temperatures(self) -> np.ndarray:
        """Capacitance-weighted core temperatures [degC], ``(n_cores,)``."""
        return self._temps @ self._share

    def lateral_core_powers(self) -> np.ndarray:
        """Net lateral heat into each core [W] at the current state."""
        core_temps = self._temps @ self._share
        return self._coupling @ core_temps - self._coupling_total * core_temps

    def _effective_powers(self, powers: np.ndarray) -> np.ndarray:
        """Validate shape; fold the quasi-static lateral term in.

        Returns ``powers`` itself (not a copy) when there is no
        coupling, so the zero-coupling arithmetic is untouched.
        """
        powers = np.asarray(powers, dtype=float)
        if powers.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected powers of shape {self._temps.shape}, "
                f"got {powers.shape}"
            )
        if not self._has_coupling:
            return powers
        return powers + np.outer(self.lateral_core_powers(), self._share)

    # -- updates -------------------------------------------------------------
    def step_cycle(self, powers: np.ndarray) -> np.ndarray:
        """One clock cycle of forward Euler across all cores.

        Rejected outright when ``cycle_time`` is at or beyond the
        stability bound ``2 * min(C / G_total)`` (vertical plus lateral
        conductance), mirroring the single-core guard.
        """
        if self.cycle_time >= self._euler_limit:
            raise ThermalModelError(
                f"cycle_time {self.cycle_time:g} s is forward-Euler "
                f"unstable: it must stay below 2*min(C/G) = "
                f"{self._euler_limit:g} s; use advance() for long "
                f"constant-power intervals"
            )
        powers = self._effective_powers(powers)
        leak = (self._temps - self.heatsink_temperature) / self._resistance
        self._temps = self._temps + (self.cycle_time / self._capacitance) * (
            powers - leak
        )
        return self._temps.copy()

    def advance(self, powers: np.ndarray, cycles: int) -> np.ndarray:
        """Exact vertical update for ``cycles`` cycles of constant power.

        The lateral term is held at its interval-start value (quasi-
        static); the vertical relaxation toward the effective steady
        state uses the closed-form exponential, one stacked numpy
        expression for all cores.
        """
        if cycles <= 0:
            raise ThermalModelError("cycles must be positive")
        powers = self._effective_powers(powers)
        steady = self.heatsink_temperature + powers * self._resistance
        decay = np.exp(-(cycles * self.cycle_time) / self._tau)
        self._temps = steady + (self._temps - steady) * decay
        return self._temps.copy()

    def sample_update(
        self, powers: np.ndarray, cycles: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one sampling interval; return ``(start, steady, end)``.

        The engine needs the interval's start temperatures and the
        steady target the interval headed toward for the closed-form
        emergency accounting (:meth:`fractions_above`); computing the
        effective powers once here keeps the three views consistent.
        """
        if cycles <= 0:
            raise ThermalModelError("cycles must be positive")
        start = self._temps.copy()
        powers = self._effective_powers(powers)
        steady = self.heatsink_temperature + powers * self._resistance
        decay = np.exp(-(cycles * self.cycle_time) / self._tau)
        self._temps = steady + (start - steady) * decay
        return start, steady, self._temps.copy()

    # -- analysis helpers ----------------------------------------------------
    def steady_state(self, powers: np.ndarray) -> np.ndarray:
        """Quasi-static steady target for the *current* lateral flows.

        This is the target the next constant-power interval relaxes
        toward (the quantity :meth:`fractions_above` needs), not the
        true coupled equilibrium -- see :meth:`equilibrium` for that.
        At zero coupling the two coincide with the single-core formula
        ``T_sink + P * R`` exactly.
        """
        powers = self._effective_powers(powers)
        return self.heatsink_temperature + powers * self._resistance

    def equilibrium(self, powers: np.ndarray) -> np.ndarray:
        """Exact coupled equilibrium temperatures under constant power.

        Solves the linear balance (vertical leak + capacitance-share
        lateral exchange = injected power) over all ``n_cores *
        n_blocks`` unknowns.  Cross-checked against the expanded
        :meth:`~repro.multicore.floorplan.MulticoreFloorplan.to_rc_network`
        steady state by tests.
        """
        powers = np.asarray(powers, dtype=float)
        if powers.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected powers of shape {self._temps.shape}, "
                f"got {powers.shape}"
            )
        n_cores, n_blocks = self._temps.shape
        size = n_cores * n_blocks
        system = np.zeros((size, size), dtype=float)
        rhs = np.zeros(size, dtype=float)

        def flat(core: int, block: int) -> int:
            return core * n_blocks + block

        for core in range(n_cores):
            for block in range(n_blocks):
                row = flat(core, block)
                # Vertical leak to the heatsink.
                g_vertical = 1.0 / self._resistance[block]
                system[row, row] -= g_vertical
                rhs[row] -= (
                    powers[core, block]
                    + g_vertical * self.heatsink_temperature
                )
                # Lateral exchange: this block receives share_b of the
                # core-to-core flow driven by weighted mean temps.
                for other in range(n_cores):
                    g_pair = self._coupling[core, other]
                    if g_pair == 0.0:
                        continue
                    for source in range(n_blocks):
                        weight = (
                            self._share[block] * g_pair * self._share[source]
                        )
                        system[row, flat(other, source)] += weight
                        system[row, flat(core, source)] -= weight
        solution = np.linalg.solve(system, rhs)
        return solution.reshape(n_cores, n_blocks)

    def fraction_above(
        self,
        start: np.ndarray,
        steady: np.ndarray,
        duration_seconds: float,
        threshold: float,
    ) -> np.ndarray:
        """Per-core, per-block fraction of an interval above ``threshold``.

        The one-threshold case of :meth:`fractions_above`, exactly as
        :meth:`~repro.thermal.lumped.LumpedThermalModel.fraction_above`
        is of its own ``fractions_above``.
        """
        return self.fractions_above(
            start, steady, duration_seconds, (threshold,)
        )[0]

    def fractions_above(
        self,
        start: np.ndarray,
        steady: np.ndarray,
        duration_seconds: float,
        thresholds,
    ) -> np.ndarray:
        """Above-threshold fractions for several thresholds in one pass.

        ``start``/``steady`` have shape ``(n_cores, n_blocks)``; the
        result has shape ``(len(thresholds), n_cores, n_blocks)``.  Each
        block moves exponentially and monotonically from ``start``
        toward ``steady``, so the crossing time (if any) is
        ``t* = tau * ln((steady - start) / (steady - threshold))`` with
        ``tau`` broadcast over the core axis.  This is the single-core
        kernel (:func:`repro.thermal.lumped.fractions_above`) itself, so
        each core row is bit-identical to
        :meth:`~repro.thermal.lumped.LumpedThermalModel.fractions_above`
        on that row (asserted by a property test).
        """
        return fractions_above(
            self._tau, start, steady, duration_seconds, thresholds
        )
