"""Validation V3: grid-resolution convergence of the continuum check.

Experiment V1 validates the lumped RC simplification against one 2D
finite-difference grid (48 x 48 by default).  A single resolution
leaves a question open: is the measured lumped-vs-grid gap a property
of the *continuum*, or an artifact of the mesh?  This experiment
answers it by sweeping the resolution (24 -> 128 by default), watching
the grid's *self*-convergence (how much the per-block means move when
the mesh is refined) shrink, and reporting the lumped-vs-grid
deviation at every resolution.  The caption claims only what the rows
show; ``tests/test_experiments.py`` asserts its monotonicity claim.

This sweep was previously infeasible: the explicit-Euler integrator's
stability bound shrinks as ``1/N^2`` while the cell count grows as
``N^2``, so its cost scales as ``N^4`` -- a 128-grid steady state
costs ~50x a 48-grid one.  The spectral solver's cost is the ``N^3``
of two dense projections, and its ``steady_state`` is a direct solve,
which is what makes the 96/128 rows (and the wall-clock column) cheap.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.reporting import ExperimentResult, format_table
from repro.thermal.floorplan import Floorplan
from repro.thermal.grid import GridThermalModel
from repro.thermal.lumped import LumpedThermalModel

#: The default resolution sweep; 96 and 128 are the rows the spectral
#: solver newly opened.
DEFAULT_RESOLUTIONS = (24, 48, 96, 128)

#: Transient-agreement probe: intervals of this length are advanced
#: from reset and compared against the lumped exact update.
TRANSIENT_SECONDS = 50e-6
TRANSIENT_INTERVALS = 4

#: Long-horizon probe: one heatsink-scale advance from reset, compared
#: against the direct steady solve.  This is the interval length the
#: heatsink-drift experiments need, and the regime where the Euler
#: integrator's cost explodes (~27k sub-steps at 48x48, ~N^2 more as
#: the mesh refines) while the spectral solver still takes one step.
LONG_SECONDS = 1.0


def convergence_rows(
    resolutions: tuple[int, ...] = DEFAULT_RESOLUTIONS,
    solver: str = "spectral",
    floorplan: Floorplan | None = None,
) -> list[dict]:
    """One row per resolution: deviations vs lumped, self-convergence,
    and the measured wall-clock of (steady state + transient probe).

    Shared by this experiment and ``validation_grid`` (satellite: V1
    gains the convergence table).  ``vs_prev_k`` is the largest
    per-block mean shift relative to the previous (coarser) row -- the
    mesh-convergence signal; it has no value on the first row.
    """
    floorplan = Floorplan.default() if floorplan is None else floorplan
    powers = np.array([block.peak_power for block in floorplan.blocks])
    lumped = LumpedThermalModel(floorplan, heatsink_temperature=100.0)
    lumped_steady = lumped.steady_state(powers)

    rows: list[dict] = []
    previous_means: np.ndarray | None = None
    for resolution in resolutions:
        started = time.perf_counter()
        grid = GridThermalModel(floorplan, resolution=resolution, solver=solver)
        grid_steady = grid.steady_state(powers)
        max_cell = grid.max_temperature

        grid.reset()
        lumped.reset()
        transient_dev = 0.0
        for _ in range(TRANSIENT_INTERVALS):
            grid_temps = grid.advance(powers, TRANSIENT_SECONDS)
            lumped_temps = lumped.advance(
                powers, int(TRANSIENT_SECONDS / lumped.cycle_time)
            )
            transient_dev = max(
                transient_dev, float(np.max(np.abs(grid_temps - lumped_temps)))
            )

        # One heatsink-scale advance from reset must land on the steady
        # state (5700 vertical time constants in): exact for spectral,
        # an integration-error probe for Euler -- and the row's main
        # wall-clock cost for Euler, which sub-steps the whole second.
        grid.reset()
        long_temps = grid.advance(powers, LONG_SECONDS)
        long_dev = float(np.max(np.abs(long_temps - grid_steady)))
        elapsed = time.perf_counter() - started

        row = {
            "resolution": f"{resolution}x{resolution}",
            "steady_dev_k": float(np.max(np.abs(grid_steady - lumped_steady))),
            "transient_dev_k": transient_dev,
            "long_dev_k": long_dev,
            "max_cell_c": max_cell,
            "wall_s": elapsed,
        }
        if previous_means is not None:
            row["vs_prev_k"] = float(
                np.max(np.abs(grid_steady - previous_means))
            )
        previous_means = grid_steady
        rows.append(row)
    return rows


CONVERGENCE_COLUMNS = (
    ("resolution", "grid", None),
    ("steady_dev_k", "vs lumped ss (K)", ".4f"),
    ("transient_dev_k", "vs lumped tr (K)", ".4f"),
    ("vs_prev_k", "vs prev grid (K)", ".4f"),
    ("long_dev_k", "1s-adv vs ss (K)", ".2e"),
    ("max_cell_c", "max cell (C)", ".3f"),
    ("wall_s", "wall (s)", ".3f"),
)


def run(
    solver: str = "spectral",
    resolutions: tuple[int, ...] = DEFAULT_RESOLUTIONS,
    quick: bool = False,
) -> ExperimentResult:
    """Sweep the grid resolution and report convergence with wall-clock."""
    if quick:
        resolutions = tuple(r for r in resolutions if r <= 96) or resolutions
    rows = convergence_rows(resolutions, solver=solver)
    text = format_table(rows, columns=CONVERGENCE_COLUMNS)
    finest = rows[-1]
    gaps = [row["steady_dev_k"] for row in rows]
    notes = (
        f"Solver: {solver}.  The per-block means move less at every "
        "refinement\n('vs prev grid' falls monotonically).  The "
        "lumped-vs-grid steady gap\nranges over "
        f"{min(gaps):.4f}-{max(gaps):.4f} K across the sweep (finest "
        f"grid: steady\n{finest['steady_dev_k']:.4f} K, transient "
        f"{finest['transient_dev_k']:.4f} K).  Each row includes a 1 s "
        "heatsink-scale\nadvance -- the regime the spectral solver "
        "opened at fine meshes: explicit\nEuler sub-steps it at cost "
        "~N^4 (stability bound ~1/N^2 x N^2 cells; ~30 s\nof wall-clock "
        "per row at 128x128), the spectral solver takes one N^3\n"
        "projection step and lands on the direct steady solve to float "
        "rounding\n('1s-adv vs ss')."
    )
    return ExperimentResult(
        experiment_id="V3",
        title="Grid-resolution convergence of the continuum validation",
        rows=rows,
        text=text,
        notes=notes,
        extras={
            "solver": solver,
            "finest_steady_dev_k": finest["steady_dev_k"],
            "wall_seconds": [row["wall_s"] for row in rows],
        },
    )
