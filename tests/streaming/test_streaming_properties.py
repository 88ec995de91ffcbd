"""Property-based tests (hypothesis) for the streaming substrate.

Extends the pattern of ``tests/nn/test_tensor_properties.py`` to the
streaming layer: ring-buffer window invariants under arbitrary append
sequences, POT threshold monotonicity in the tail quantile, and bit-level
scalar<->vector equivalence of the incremental POT on random streams."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.streaming import RingBuffer, VectorizedIncrementalPOT

from pot_oracle import IncrementalPOT

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestRingBufferProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        values=st.lists(finite_floats, min_size=0, max_size=60),
    )
    def test_window_equals_tail_of_appended_sequence(self, capacity, values):
        """After any append sequence the buffer IS the sequence's tail."""
        buf = RingBuffer(capacity, num_variates=1)
        for value in values:
            buf.append([value])
        assert len(buf) == min(len(values), capacity)
        assert buf.total_appended == len(values)
        assert buf.is_full == (len(values) >= capacity)
        expected = np.asarray(values[-len(buf):], dtype=np.float64).reshape(-1, 1)
        np.testing.assert_array_equal(buf.array(), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(2, 8),
        values=st.lists(finite_floats, min_size=1, max_size=60),
        length=st.integers(0, 8),
    )
    def test_partial_views_are_contiguous_suffixes(self, capacity, values, length):
        buf = RingBuffer(capacity, num_variates=1)
        for value in values:
            buf.append([value])
        length = min(length, len(buf))
        view = buf.view(length)
        assert view.flags["C_CONTIGUOUS"]
        tail = values[-len(buf):][len(buf) - length:] if length else []
        np.testing.assert_array_equal(
            view, np.asarray(tail, dtype=np.float64).reshape(-1, 1)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        chunks=st.lists(
            st.lists(finite_floats, min_size=1, max_size=7), min_size=1, max_size=8
        ),
    )
    def test_interleaved_views_never_disturb_contents(self, capacity, chunks):
        """Reading windows between appends (the serving pattern) is read-only."""
        buf = RingBuffer(capacity, num_variates=1)
        appended = []
        for chunk in chunks:
            for value in chunk:
                buf.append([value])
                appended.append(value)
            buf.view(min(len(buf), capacity))  # interleaved read
            expected = np.asarray(appended[-len(buf):], dtype=np.float64).reshape(-1, 1)
            np.testing.assert_array_equal(buf.array(), expected)


def _calibration(values):
    """Calibration scores with guaranteed spread (POT needs a real tail)."""
    base = np.asarray(values, dtype=np.float64)
    return base + np.linspace(0.0, 1.0, base.size)


calibrations = arrays(
    dtype=np.float64,
    shape=st.integers(50, 200),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False),
).map(_calibration)

streams = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=80,
)


class TestIncrementalPOTProperties:
    @settings(max_examples=25, deadline=None)
    @given(calibration=calibrations, stream=streams, qs=st.tuples(
        st.floats(min_value=1e-4, max_value=0.05),
        st.floats(min_value=1e-4, max_value=0.05),
    ))
    def test_threshold_monotone_in_tail_quantile(self, calibration, stream, qs):
        """A rarer tail target (smaller q) never lowers the threshold, at
        calibration time and after every update."""
        q_rare, q_common = min(qs), max(qs)
        rare = IncrementalPOT(q=q_rare).fit(calibration)
        common = IncrementalPOT(q=q_common).fit(calibration)
        assert rare.threshold >= common.threshold - 1e-12
        for score in stream:
            rare.update(score)
            common.update(score)
            assert rare.threshold >= common.threshold - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(calibration=calibrations, stream=streams)
    def test_threshold_never_drops_below_initial(self, calibration, stream):
        pot = IncrementalPOT().fit(calibration)
        for score in stream:
            pot.update(score)
            assert pot.threshold >= pot.initial_threshold

    @settings(max_examples=20, deadline=None)
    @given(
        calibration=calibrations,
        stream=streams,
        num_stars=st.integers(1, 4),
        refit_interval=st.integers(1, 8),
        gap_mask=st.lists(st.booleans(), min_size=80, max_size=80),
    )
    def test_scalar_vector_equivalence_on_random_streams(
        self, calibration, stream, num_stars, refit_interval, gap_mask
    ):
        """One vectorised fleet == num_stars independent scalar POTs, bit for
        bit, on arbitrary streams with arbitrary per-star gaps."""
        vector = VectorizedIncrementalPOT(refit_interval=refit_interval).fit(
            calibration, num_stars=num_stars
        )
        scalars = [
            IncrementalPOT(refit_interval=refit_interval).fit(calibration)
            for _ in range(num_stars)
        ]
        gaps = iter(gap_mask * num_stars)
        for tick, value in enumerate(stream):
            scores = np.asarray(
                [value + 0.37 * star * ((-1.0) ** tick) for star in range(num_stars)]
            )
            scores[[next(gaps) for _ in range(num_stars)]] = np.nan
            flags = vector.update(scores)
            expected = [int(pot.update(float(s))) for pot, s in zip(scalars, scores)]
            np.testing.assert_array_equal(flags, expected)
            np.testing.assert_array_equal(
                vector.thresholds, [pot.threshold for pot in scalars]
            )
            np.testing.assert_array_equal(
                vector.num_excesses, [pot.num_excesses for pot in scalars]
            )
            np.testing.assert_array_equal(
                vector.num_refits, [pot.num_refits for pot in scalars]
            )
