"""The crossing-time kernel against its frozen body, byte for byte.

:func:`repro.thermal.lumped.fractions_above` classifies every cell
first and takes the crossing-time ``log`` only where a block crosses a
threshold.  The frozen body in ``tests/fast_reference.py`` evaluates
every cell.  These properties hold the two equal by their bytes (so a
flipped ``-0.0`` or a different NaN would fail too) over the shapes the
kernel serves -- one run's blocks, a batch of lanes and a multicore
chip -- with values snapped onto the thresholds and onto each other,
and with NaN, infinities and signed zeros mixed in.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DTMConfig, MachineConfig
from repro.thermal.lumped import fractions_above
from tests.fast_reference import _fractions_above as frozen_fractions_above

#: One controller sample of the default configuration [s].
SAMPLE_SECONDS = DTMConfig().sampling_interval * MachineConfig().cycle_time
DURATIONS = (0.0, 1e-9, SAMPLE_SECONDS)
SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 0.0)

#: Thresholds and free values stay in a temperature band [deg C]: wide
#: enough to sit on every side of every threshold, narrow enough that
#: no difference of two finite inputs can overflow.
thresholds_strategy = st.lists(
    st.floats(50.0, 150.0), min_size=1, max_size=3
).map(tuple)


@st.composite
def kernel_inputs(draw, finite: bool):
    """``(tau, start, steady, duration, thresholds)`` for one call."""
    n_blocks = draw(st.integers(1, 8))
    lead = draw(st.one_of(
        st.just(()),  # one run's blocks
        st.tuples(st.integers(1, 6)),  # a batch of lanes
        st.tuples(st.sampled_from((2, 4, 8))),  # a multicore chip
    ))
    shape = lead + (n_blocks,)
    thresholds = draw(thresholds_strategy)
    free = st.floats(-200.0, 400.0)
    if not finite:
        free = st.one_of(free, st.sampled_from(SPECIALS))
    snapped = st.one_of(free, st.sampled_from(thresholds))
    size = math.prod(shape)
    start = draw(st.lists(snapped, min_size=size, max_size=size))
    steady = [
        draw(st.one_of(snapped, st.just(value)))  # steady == start
        for value in start
    ]
    tau = draw(st.lists(st.floats(1e-6, 1.0),
                        min_size=n_blocks, max_size=n_blocks))
    return (
        np.array(tau),
        np.array(start).reshape(shape),
        np.array(steady).reshape(shape),
        draw(st.sampled_from(DURATIONS)),
        thresholds,
    )


@given(args=kernel_inputs(finite=False))
# Rising from below toward an infinite steady state: the crossing
# ratio is inf/inf = NaN, which the ``ratio > 0`` guard reads as t* = 0.
@example(args=(np.array([1e-3]), np.array([101.0]), np.array([math.inf]),
               SAMPLE_SECONDS, (102.0,)))
@settings(max_examples=400, deadline=None)
def test_live_kernel_matches_frozen_body_bytes(args):
    with np.errstate(all="ignore"):  # inf - inf and the like
        live = fractions_above(*args)
        frozen = frozen_fractions_above(*args)
    assert live.shape == frozen.shape
    assert live.dtype == frozen.dtype
    assert live.tobytes() == frozen.tobytes(), (args, live, frozen)


@given(args=kernel_inputs(finite=True))
@settings(max_examples=200, deadline=None)
def test_finite_inputs_raise_no_runtime_warning(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fractions_above(*args)

