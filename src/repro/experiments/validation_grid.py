"""Validation V1: the lumped block model vs a 2D finite-difference grid.

The paper validates its Figure 3C simplification analytically (R_tan is
~100x R_normal).  This experiment validates it numerically against the
continuum: a finite-difference solution of the heat equation over the
placed die (lateral conduction between cells, vertical conduction to
the isothermal heatsink) -- the approach HotSpot later standardized.

Reported per block: steady-state temperature at peak power from the
lumped model and from the grid (mean and max over the block's cells),
plus the transient deviation at several points along the heating curve,
plus the resolution-convergence table (with wall-clock per row), whose
lumped-vs-grid steady gap the caption reports as a range; it is not
monotone in the mesh, so the caption claims only that it stays below
the 2 K emergency headroom (asserted in ``tests/test_experiments.py``).

The grid integrates with the spectral exact-exponential solver by
default (``solver="euler"`` selects the original pinned sub-stepped
integrator; see docs/thermal_model.md).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.reporting import ExperimentResult, format_table
from repro.experiments.validation_grid_convergence import (
    CONVERGENCE_COLUMNS,
    DEFAULT_RESOLUTIONS,
    convergence_rows,
)
from repro.thermal.floorplan import Floorplan
from repro.thermal.grid import GridThermalModel
from repro.thermal.lumped import LumpedThermalModel


def run(
    resolution: int = 48,
    solver: str = "spectral",
    convergence: tuple[int, ...] = DEFAULT_RESOLUTIONS,
    quick: bool = False,
) -> ExperimentResult:
    """Compare lumped vs grid steady states and transients."""
    if quick:
        convergence = tuple(r for r in convergence if r <= 48) or convergence
    floorplan = Floorplan.default()
    powers = np.array([block.peak_power for block in floorplan.blocks])
    lumped = LumpedThermalModel(floorplan, heatsink_temperature=100.0)
    grid = GridThermalModel(floorplan, resolution=resolution, solver=solver)

    grid_steady = grid.steady_state(powers)
    lumped_steady = lumped.steady_state(powers)

    rows = []
    worst_steady = 0.0
    for index, block in enumerate(floorplan.blocks):
        deviation = float(grid_steady[index] - lumped_steady[index])
        worst_steady = max(worst_steady, abs(deviation))
        rows.append(
            {
                "structure": block.name,
                "lumped_c": float(lumped_steady[index]),
                "grid_mean_c": float(grid_steady[index]),
                "grid_max_c": grid.block_temperature(block.name, "max"),
                "deviation_k": deviation,
            }
        )

    # Transient agreement along the heating curve.
    grid.reset()
    lumped.reset()
    transient_devs = []
    for _ in range(4):  # 4 x 50 us = ~1.1 block time constants
        grid_temps = grid.advance(powers, 50e-6)
        lumped_temps = lumped.advance(powers, int(50e-6 * 1.5e9))
        transient_devs.append(float(np.max(np.abs(grid_temps - lumped_temps))))

    # Resolution convergence (satellite of the spectral-solver work):
    # the same comparison swept over the mesh, with wall-clock per row.
    convergence_table = convergence_rows(convergence, solver=solver)
    gaps = [row["steady_dev_k"] for row in convergence_table]

    text = "\n".join(
        [
            format_table(
                rows,
                columns=(
                    ("structure", "structure", None),
                    ("lumped_c", "lumped T (C)", ".3f"),
                    ("grid_mean_c", "grid mean (C)", ".3f"),
                    ("grid_max_c", "grid max (C)", ".3f"),
                    ("deviation_k", "deviation (K)", "+.3f"),
                ),
            ),
            "",
            "resolution convergence:",
            format_table(convergence_table, columns=CONVERGENCE_COLUMNS),
        ]
    )
    notes = (
        f"Grid: {resolution}x{resolution} cells, lateral + vertical "
        f"conduction, adiabatic edges, {solver} solver.\n"
        f"Worst steady-state |deviation|: {worst_steady:.3f} K; worst "
        f"transient |deviation| over the heating curve: "
        f"{max(transient_devs):.3f} K.\n"
        "Both are small against the 2 K emergency headroom: the paper's\n"
        "per-block RC simplification tracks the continuum solution.  Over\n"
        "the convergence table the lumped-vs-grid steady gap ranges over\n"
        f"{min(gaps):.4f}-{max(gaps):.4f} K, below the 2 K headroom at "
        "every resolution."
    )
    return ExperimentResult(
        experiment_id="V1",
        title="Lumped block model vs 2D finite-difference grid",
        rows=rows,
        text=text,
        notes=notes,
        extras={
            "worst_steady_deviation_k": worst_steady,
            "transient_deviations_k": transient_devs,
            "solver": solver,
            "convergence": convergence_table,
        },
    )
