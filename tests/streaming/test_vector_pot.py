"""VectorizedIncrementalPOT: bit-equality with the scalar oracle
(``pot_oracle.IncrementalPOT``), the max_excesses sliding-calibration path,
state persistence and calibration helpers."""

import numpy as np
import pytest

from repro.streaming import VectorizedIncrementalPOT

from pot_oracle import IncrementalPOT


def scalar_fleet(num_stars, calibration, **kwargs):
    """Independent scalar instances, one per star, same shared calibration."""
    return [IncrementalPOT(**kwargs).fit(calibration) for _ in range(num_stars)]


def step_both(vec, scalars, scores):
    """Advance both implementations one tick; return (vector, scalar) alarms."""
    expected = np.array(
        [pot.update(float(score)) for pot, score in zip(scalars, scores)], dtype=np.int64
    )
    return vec.update(scores), expected


class TestBitEquality:
    @pytest.mark.parametrize("max_excesses", [None, 24])
    def test_long_stream_matches_scalar_instances(self, max_excesses):
        rng = np.random.default_rng(0)
        num_stars, ticks = 24, 1200
        calibration = rng.exponential(size=1200)
        kwargs = dict(q=1e-3, level=0.95, refit_interval=8, max_excesses=max_excesses)
        scalars = scalar_fleet(num_stars, calibration, **kwargs)
        vec = VectorizedIncrementalPOT(**kwargs).fit(calibration, num_stars=num_stars)
        np.testing.assert_array_equal(vec.thresholds, [pot.threshold for pot in scalars])

        # Per-star scale drift makes the streams (and thus the staggered
        # re-fit cadences) diverge star by star.
        drift = 1.0 + 0.5 * np.arange(num_stars) / num_stars
        for tick in range(ticks):
            scores = rng.exponential(size=num_stars) * drift
            alarms, expected = step_both(vec, scalars, scores)
            np.testing.assert_array_equal(alarms, expected)
            np.testing.assert_array_equal(vec.thresholds, [pot.threshold for pot in scalars])
        np.testing.assert_array_equal(vec.num_refits, [pot.num_refits for pot in scalars])
        np.testing.assert_array_equal(
            vec.num_observations, [pot.num_observations for pot in scalars]
        )
        np.testing.assert_array_equal(vec.num_excesses, [pot.num_excesses for pot in scalars])
        for star, pot in enumerate(scalars):
            np.testing.assert_array_equal(
                vec._pool[star, : vec._counts[star]], pot._excesses[: pot.num_excesses]
            )

    def test_per_star_calibration_rows(self):
        rng = np.random.default_rng(1)
        rows = rng.exponential(size=(6, 600)) * (1.0 + np.arange(6)[:, None] / 6.0)
        vec = VectorizedIncrementalPOT(level=0.95).fit(rows)
        scalars = [IncrementalPOT(level=0.95).fit(row) for row in rows]
        np.testing.assert_array_equal(vec.thresholds, [pot.threshold for pot in scalars])
        np.testing.assert_array_equal(
            vec.initial_thresholds, [pot.initial_threshold for pot in scalars]
        )

    @pytest.mark.parametrize("max_excesses", [None, 8, 24])
    def test_calibration_state_matches_scalar_fit(self, max_excesses):
        # level=0.5 leaves hundreds of calibration excesses, so a capped fit
        # trims the observation count hundreds of times in a row.
        rng = np.random.default_rng(10)
        rows = rng.exponential(size=(3, 500)) * (1.0 + np.arange(3)[:, None])
        kwargs = dict(level=0.5, max_excesses=max_excesses)
        per_star = VectorizedIncrementalPOT(**kwargs).fit(rows)
        shared = VectorizedIncrementalPOT(**kwargs).fit(rows[0], num_stars=2)
        for vec, scalars in (
            (per_star, [IncrementalPOT(**kwargs).fit(row) for row in rows]),
            (shared, scalar_fleet(2, rows[0], **kwargs)),
        ):
            np.testing.assert_array_equal(vec.thresholds, [p.threshold for p in scalars])
            np.testing.assert_array_equal(
                vec.initial_thresholds, [p.initial_threshold for p in scalars]
            )
            np.testing.assert_array_equal(
                vec.num_observations, [p.num_observations for p in scalars]
            )
            np.testing.assert_array_equal(vec.num_excesses, [p.num_excesses for p in scalars])
            np.testing.assert_array_equal(vec.num_refits, [p.num_refits for p in scalars])
            for star, pot in enumerate(scalars):
                np.testing.assert_array_equal(
                    vec._pool[star, : vec._counts[star]], pot._excesses[: pot.num_excesses]
                )
                assert vec._shapes[star] == pot._fit.shape
                assert vec._scales[star] == pot._fit.scale

    def test_anomalies_are_excluded_from_the_tail_model(self):
        rng = np.random.default_rng(2)
        calibration = rng.exponential(size=1000)
        vec = VectorizedIncrementalPOT(level=0.95).fit(calibration, num_stars=4)
        excesses_before = vec.num_excesses.copy()
        alarms = vec.update(np.full(4, 1e9))
        np.testing.assert_array_equal(alarms, np.ones(4, dtype=np.int64))
        np.testing.assert_array_equal(vec.num_excesses, excesses_before)
        # ... but the observation count (and hence the threshold) refreshed.
        assert (vec.num_observations == calibration.size + 1).all()

    def test_alarm_shape_follows_input_shape(self):
        rng = np.random.default_rng(3)
        vec = VectorizedIncrementalPOT().fit(rng.exponential(size=500), num_stars=6)
        alarms = vec.update(np.zeros((2, 3)))
        assert alarms.shape == (2, 3)
        assert alarms.dtype == np.int64


class TestSlidingCalibration:
    """The max_excesses path: bounded memory must not corrupt the threshold."""

    def test_bounded_stream_tracks_unbounded_reference(self):
        # A long stationary stream under a tight excess cap must keep its
        # thresholds within tolerance of the unbounded reference fleet.
        rng = np.random.default_rng(4)
        calibration = rng.exponential(size=3000)
        capped = VectorizedIncrementalPOT(level=0.99, max_excesses=48).fit(
            calibration, num_stars=8
        )
        unbounded = VectorizedIncrementalPOT(level=0.99).fit(calibration, num_stars=8)
        for _ in range(4000):
            scores = rng.exponential(size=8)
            # Stay below the running thresholds so both fleets keep enriching
            # their tails instead of flagging anomalies.
            scores = np.minimum(scores, capped.thresholds * 0.999)
            scores = np.minimum(scores, unbounded.thresholds * 0.999)
            capped.update(scores)
            unbounded.update(scores)
        assert (capped.num_excesses <= 48).all()
        assert (capped.thresholds > capped.initial_thresholds * 1.05).all()
        np.testing.assert_allclose(capped.thresholds, unbounded.thresholds, rtol=0.35)

    def test_observation_rescale_never_undercuts_the_excess_count(self):
        # The n <- n * keep / count rescale must clamp at the excess count;
        # otherwise q*n/N_t compares mismatched populations.
        rng = np.random.default_rng(5)
        vec = VectorizedIncrementalPOT(level=0.5, max_excesses=8).fit(
            rng.exponential(size=400), num_stars=5
        )
        band = vec.initial_thresholds * 1.01
        for _ in range(300):
            vec.update(np.minimum(band, vec.thresholds * 0.999))
            assert (vec.num_observations >= vec.num_excesses).all()
        assert (vec.num_excesses <= 8).all()


class TestStatePersistence:
    def test_state_dict_round_trip_continues_bit_identically(self):
        rng = np.random.default_rng(6)
        vec = VectorizedIncrementalPOT(level=0.95, refit_interval=8, max_excesses=32).fit(
            rng.exponential(size=800), num_stars=10
        )
        for _ in range(200):
            vec.update(rng.exponential(size=10))
        clone = VectorizedIncrementalPOT.from_state_dict(vec.state_dict())
        assert clone.num_stars == 10
        assert clone.max_excesses == 32
        for _ in range(200):
            scores = rng.exponential(size=10)
            np.testing.assert_array_equal(vec.update(scores), clone.update(scores))
            np.testing.assert_array_equal(vec.thresholds, clone.thresholds)
        np.testing.assert_array_equal(vec.num_refits, clone.num_refits)

    def test_state_dict_validates_missing_and_ragged_keys(self):
        rng = np.random.default_rng(7)
        vec = VectorizedIncrementalPOT().fit(rng.exponential(size=500), num_stars=4)
        state = vec.state_dict()
        broken = dict(state)
        del broken["counts"]
        with pytest.raises(ValueError, match="missing"):
            VectorizedIncrementalPOT.from_state_dict(broken)
        ragged = dict(state)
        ragged["counts"] = state["counts"][:2]
        with pytest.raises(ValueError, match="star count"):
            VectorizedIncrementalPOT.from_state_dict(ragged)

    def test_unfitted_export_and_update_raise(self):
        vec = VectorizedIncrementalPOT()
        with pytest.raises(RuntimeError):
            vec.state_dict()
        with pytest.raises(RuntimeError):
            vec.update(np.zeros(3))
        with pytest.raises(RuntimeError):
            vec.tile(2)


class TestCalibrationHelpers:
    def test_fit_validation(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            VectorizedIncrementalPOT().fit(rng.exponential(size=100))  # no num_stars
        with pytest.raises(ValueError):
            VectorizedIncrementalPOT().fit(rng.exponential(size=(2, 100)), num_stars=3)
        with pytest.raises(ValueError):
            VectorizedIncrementalPOT().fit(rng.exponential(size=(2, 2, 100)))
        with pytest.raises(ValueError, match="at least 10"):
            VectorizedIncrementalPOT().fit(rng.exponential(size=9), num_stars=2)
        for bad in (
            dict(q=0.0), dict(q=1.0), dict(level=0.0), dict(level=1.0),
            dict(refit_interval=0), dict(max_excesses=7),
        ):
            with pytest.raises(ValueError):
                VectorizedIncrementalPOT(**bad)
        fitted = VectorizedIncrementalPOT().fit(rng.exponential(size=100), num_stars=2)
        with pytest.raises(ValueError):
            fitted.update(np.zeros(3))

    def test_tile_repeats_state_shard_major(self):
        rng = np.random.default_rng(9)
        rows = rng.exponential(size=(3, 400))
        vec = VectorizedIncrementalPOT(level=0.95).fit(rows)
        tiled = vec.tile(4)
        assert tiled.num_stars == 12
        for rep in range(4):
            np.testing.assert_array_equal(
                tiled.thresholds[rep * 3 : (rep + 1) * 3], vec.thresholds
            )
        with pytest.raises(ValueError):
            vec.tile(0)
