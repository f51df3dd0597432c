import numpy as np
import pytest

from fedspoof import fusion, labels
from fedspoof.domain import signal_slot
from fedspoof.features import (
    FEATURE_NAMES,
    FeatureConfig,
    N_FEATURES,
    N_POSITION,
    SIGNAL_REPLACEMENTS,
    apply_normalization,
    extract_raw,
    fit_normalization,
    make_windows,
    window_ends,
    window_traces,
)

import oracles


def brute_force_percentile(values, q):
    """Independent oracle: linear interpolation between order statistics."""
    xs = sorted(values)
    rank = q / 100.0 * (len(xs) - 1)
    lo = int(np.floor(rank))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def _state(caps, lo, hi):
    lo_arr = np.zeros(N_FEATURES)
    hi_arr = np.ones(N_FEATURES)
    lo_arr[: len(lo)] = lo
    hi_arr[: len(hi)] = hi
    return fusion.CapMinMax(caps=np.array(caps, dtype=float), lo=lo_arr, hi=hi_arr)


class TestSlotMap:
    def test_vector_has_36_named_slots(self):
        assert N_FEATURES == 36
        assert FEATURE_NAMES[:4] == ("res_lat_m", "res_lon_m", "sigma_lat_m", "sigma_lon_m")

    def test_gps_agc_statistics_land_in_slots_4_to_7(self):
        for k, stat in enumerate(("mean", "median", "min", "max")):
            feature_ix = N_POSITION + signal_slot("gps_l1", "agc_db", stat)
            assert feature_ix == 4 + k
            assert FEATURE_NAMES[feature_ix] == f"gps_l1_agc_db_{stat}"

    def test_extract_places_values_in_documented_slots(self, tiny_corpus):
        _, traces = tiny_corpus
        trace = traces[0]
        fused = fusion.fuse_trace(trace, fusion.FusionConfig())
        raw = extract_raw(trace, fused)
        assert raw.shape == (len(trace), 36)
        k = 5
        np.testing.assert_array_equal(raw[k, 4:], trace.signal[k], strict=False)
        # one shared covariance: slot 3 repeats slot 2
        assert raw[k, 2] == raw[k, 3] == fused.sigma[k]

    def test_zero_residual_when_fused_equals_gnss(self, tiny_corpus):
        _, traces = tiny_corpus
        trace = traces[0]
        fused = fusion.FusedEstimate(
            lat=trace.p_gnss[:, 0], lon=trace.p_gnss[:, 1], sigma=np.ones(len(trace))
        )
        raw = extract_raw(trace, fused)
        np.testing.assert_array_equal(raw[:, 0], np.zeros(len(trace)))
        np.testing.assert_array_equal(raw[:, 1], np.zeros(len(trace)))


class TestFitNormalization:
    def test_cap_is_95th_percentile_linear_interpolation(self):
        mat = np.ones((20, N_FEATURES))
        mat[:, 0] = np.arange(1.0, 21.0)
        state = fit_normalization([mat], FeatureConfig())
        assert state.caps[0] == pytest.approx(19.05)
        assert state.caps[0] == pytest.approx(brute_force_percentile(mat[:, 0], 95))

    def test_cap_against_brute_force_on_random_data(self, rng):
        for _ in range(20):
            n = rng.integers(2, 200)
            mat = np.ones((n, N_FEATURES))
            mat[:, :4] = rng.normal(0, 50, (n, 4))
            state = fit_normalization([mat], FeatureConfig())
            for j in range(4):
                assert state.caps[j] == pytest.approx(
                    brute_force_percentile(np.abs(mat[:, j]), 95), rel=1e-12
                )

    def test_single_element_percentile_is_that_element(self):
        mat = np.ones((1, N_FEATURES))
        mat[0, 0] = 42.0
        assert fit_normalization([mat], FeatureConfig()).caps[0] == 42.0

    def test_degenerate_feature_scales_to_zero(self):
        mat = np.ones((10, N_FEATURES)) * 3.0
        state = fit_normalization([mat], FeatureConfig())
        assert np.array_equal(state.lo, state.hi)
        out = apply_normalization(mat, state)
        assert np.array_equal(out, np.zeros_like(out))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_normalization([np.empty((0, N_FEATURES))], FeatureConfig())

    def test_signal_replacement_is_valid_range_minimum(self):
        agc = N_POSITION + signal_slot("gps_l1", "agc_db", "mean")
        cn0 = N_POSITION + signal_slot("gal_e1", "cn0_ant_dbhz", "min")
        dop = N_POSITION + signal_slot("gps_l1", "doppler_hz", "max")
        assert SIGNAL_REPLACEMENTS[agc - N_POSITION] == -100.0
        assert SIGNAL_REPLACEMENTS[cn0 - N_POSITION] == 0.0
        assert SIGNAL_REPLACEMENTS[dop - N_POSITION] == -10_000.0
        # an invalid value takes its slot's replacement, the fitted minimum here
        mat = np.ones((5, N_FEATURES))
        mat[0, agc] = np.nan
        state = fit_normalization([mat], FeatureConfig())
        assert state.lo[agc] == -100.0
        assert apply_normalization(mat, state)[0, agc] == 0.0


class TestApplyNormalization:
    def test_endpoints_map_to_zero_and_one(self):
        state = _state(caps=[np.inf] * 4, lo=[10.0] + [0.0] * 3, hi=[30.0] + [1.0] * 3)
        row = np.zeros((1, N_FEATURES))
        row[0, 0] = 10.0
        assert apply_normalization(row, state)[0, 0] == 0.0
        row[0, 0] = 30.0
        assert apply_normalization(row, state)[0, 0] == 1.0

    def test_out_of_range_test_value_clamps(self):
        state = _state(caps=[np.inf] * 4, lo=[0.0] * 4, hi=[10.0] * 4)
        row = np.zeros((1, N_FEATURES))
        row[0, 0] = 25.0
        assert apply_normalization(row, state)[0, 0] == 1.0
        row[0, 0] = -5.0
        assert apply_normalization(row, state)[0, 0] == 0.0

    def test_capped_extreme_value_hits_one(self):
        # raw 999 with cap 50, fitted min 0 / max 50
        state = _state(caps=[50.0] + [np.inf] * 3, lo=[0.0] * 4, hi=[50.0] * 4)
        row = np.zeros((1, N_FEATURES))
        row[0, 0] = 999.0
        assert apply_normalization(row, state)[0, 0] == 1.0

    def test_sign_preserved_under_magnitude_cap(self):
        state = _state(caps=[50.0] + [np.inf] * 3, lo=[-50.0] * 4, hi=[50.0] * 4)
        row = np.zeros((1, N_FEATURES))
        row[0, 0] = -999.0
        # capped to -50, the fitted minimum
        assert apply_normalization(row, state)[0, 0] == 0.0

    def test_invalid_slots_replaced_not_nan(self, tiny_corpus):
        _, traces = tiny_corpus
        cfg = fusion.FusionConfig()
        raws = [extract_raw(t, fusion.fuse_trace(t, cfg)) for t in traces]
        state = fit_normalization(raws, FeatureConfig())
        out = apply_normalization(raws[0], state)
        assert np.isfinite(out).all()
        assert out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_idempotent_reapplication(self, tiny_corpus):
        _, traces = tiny_corpus
        cfg = fusion.FusionConfig()
        raws = [extract_raw(t, fusion.fuse_trace(t, cfg)) for t in traces]
        state = fit_normalization(raws, FeatureConfig())
        a = apply_normalization(raws[1], state)
        b = apply_normalization(raws[1], state)
        assert np.array_equal(a, b)

    def test_at_most_five_percent_at_cap_boundary(self, rng):
        mat = np.ones((400, N_FEATURES))
        mat[:, :4] = rng.normal(0, 20, (400, 4))
        state = fit_normalization([mat], FeatureConfig())
        out = apply_normalization(mat, state)
        assert out.max() <= 1.0
        for j in range(4):
            at_cap = int((np.abs(mat[:, j]) >= state.caps[j]).sum())
            assert at_cap <= int(np.ceil(0.05 * 400)) + 1


def _awkward_raw(rng, n, scale=30.0):
    """Raw features with NaN signal slots, signed zeros and negative
    residuals in the position slots, and a constant signal slot."""
    mat = rng.normal(0.0, scale, (n, N_FEATURES))
    mat[:, 2] = mat[:, 3] = np.abs(mat[:, 2])
    mat[:, N_POSITION:][rng.random((n, N_FEATURES - N_POSITION)) < 0.2] = np.nan
    mat[::3, 0] = -0.0
    mat[1::4, 1] = 0.0
    mat[:, 10] = 7.0
    return mat


class TestNormalizationOracle:
    """The map equals a column-by-column cleaner, bit for bit."""

    @staticmethod
    def _assert_fit_equal(raws, percentile):
        state = fit_normalization(raws, FeatureConfig(cap_percentile=percentile))
        caps, replacements, lo, hi = oracles.fit_feature_normalization(raws, percentile)
        assert state.caps.tobytes() == caps[:N_POSITION].tobytes()
        assert np.all(np.isinf(caps[N_POSITION:]))
        assert SIGNAL_REPLACEMENTS.tobytes() == replacements.tobytes()
        assert state.lo.tobytes() == lo.tobytes() and state.hi.tobytes() == hi.tobytes()
        return state, (caps, replacements, lo, hi)

    @pytest.mark.parametrize("percentile", [95.0, 50.0])
    def test_random_matrices(self, rng, percentile):
        for n_rows in (1, 2, 7, 300):
            raws = [_awkward_raw(rng, n_rows), _awkward_raw(rng, 5)]
            state, expected = self._assert_fit_equal(raws, percentile)
            # test-time values, up to ten times beyond the fitted range
            for raw in (*raws, _awkward_raw(rng, 50, scale=300.0), _awkward_raw(rng, 1)):
                out = apply_normalization(raw, state)
                assert out.dtype == np.float32
                assert out.tobytes() == oracles.apply_feature_normalization(raw, expected).tobytes()

    @pytest.mark.parametrize("percentile", [95.0, 50.0])
    def test_corpus_traces(self, tiny_corpus, percentile):
        _, traces = tiny_corpus
        cfg = fusion.FusionConfig()
        raws = [extract_raw(t, fusion.fuse_trace(t, cfg)) for t in traces]
        state, expected = self._assert_fit_equal(raws[:4], percentile)
        for raw in raws:
            assert (apply_normalization(raw, state).tobytes()
                    == oracles.apply_feature_normalization(raw, expected).tobytes())

    def test_single_row_is_degenerate(self, rng):
        raw = _awkward_raw(rng, 1)
        state, expected = self._assert_fit_equal([raw], 95.0)
        assert np.array_equal(state.lo, state.hi)
        out = apply_normalization(raw, state)
        assert out.tobytes() == oracles.apply_feature_normalization(raw, expected).tobytes()
        assert np.array_equal(out, np.zeros_like(out))


class TestWindows:
    def _feats(self, n):
        return np.tile(np.arange(n, dtype=np.float32)[:, None], (1, N_FEATURES))

    def test_exact_length_gives_one_window(self):
        x, idx = make_windows(self._feats(5), 5)
        assert x.shape == (1, 5, N_FEATURES)
        assert x[0, -1, 0] == 4.0
        assert idx[0] == 4

    def test_seven_samples_window_five_gives_three(self):
        x, idx = make_windows(self._feats(7), 5)
        assert x.shape[0] == 3
        assert list(idx) == [4, 5, 6]

    def test_short_trace_yields_zero_windows(self):
        x, idx = make_windows(self._feats(3), 5)
        assert x.shape == (0, 5, N_FEATURES)
        assert idx.size == 0

    def test_windows_never_span_trace_boundaries(self):
        # two traces of 5 samples each, windowed per trace: exactly one window per trace
        count = 0
        for _ in range(2):
            x, _ = make_windows(self._feats(5), 5)
            count += x.shape[0]
            assert np.array_equal(x[0, :, 0], np.arange(5.0, dtype=np.float32))
        assert count == 2

    def test_stride_respected(self):
        x, idx = make_windows(self._feats(10), 4, stride=3)
        assert list(idx) == [3, 6, 9]

    def test_random_lengths_boundary_property(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            w = int(rng.integers(1, 12))
            x, idx = make_windows(self._feats(n), w)
            expected = max(0, n - w + 1)
            assert x.shape[0] == expected
            if expected:
                assert idx.min() == w - 1 and idx.max() == n - 1


    @pytest.mark.parametrize("stride", [1, 3])
    def test_window_traces_windows_each_trace_alike(self, rng, stride):
        cfg = FeatureConfig(window_len=4, stride=stride)
        raws = [rng.normal(size=(n, N_FEATURES)) for n in (11, 3, 4, 0, 9)]
        norm = fit_normalization(raws, cfg)
        x, ends = window_traces(iter(raws), norm, cfg)
        expected = []
        for raw, last in zip(raws, ends):
            assert np.array_equal(last, window_ends(len(raw), 4, stride))
            fx = apply_normalization(raw, norm)
            expected += [fx[i - 3 : i + 1] for i in last]
        assert x.dtype == np.float32 and x.shape == (len(expected), 4, N_FEATURES)
        assert np.array_equal(x, np.stack(expected))

    def test_window_traces_of_no_window(self):
        cfg = FeatureConfig(window_len=4)
        x, ends = window_traces([], fit_normalization([np.zeros((1, N_FEATURES))], cfg), cfg)
        assert x.shape == (0, 4, N_FEATURES) and x.dtype == np.float32
        assert ends == []


class TestConfigValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FeatureConfig(window_len=0)
        with pytest.raises(ValueError):
            FeatureConfig(stride=0)

    def test_label_and_feature_residuals_share_metric(self, tiny_corpus):
        # the label deviation equals the norm of the two residual features
        _, traces = tiny_corpus
        trace = traces[0]
        fused = fusion.fuse_trace(trace, fusion.FusionConfig())
        raw = extract_raw(trace, fused)
        dev = labels.raw_deviations(trace, fused)
        np.testing.assert_allclose(np.hypot(raw[:, 0], raw[:, 1]), dev, rtol=1e-6)
