import math

import numpy as np
import pytest

from fedspoof.domain import N_SIGNAL_SLOTS, Trace, local_meters, offset_geopos
from fedspoof.fusion import (
    INITIAL_VELOCITY_STD,
    CapMinMax,
    FusedEstimate,
    FusionConfig,
    apply_cap_minmax,
    fit_cap_minmax,
    fuse_trace,
    pds_score,
    residual_norm_m,
)

import oracles
from oracles import haversine_m

ANCHOR = (59.0, 18.0)


def _make_trace(positions_ne, p_net_ne=None, p_gnss_ne=None, v=None, a=None, omega=None,
                trace_id=1, t=None):
    """Trace from (north, east) meter tracks; defaults: net == gnss == true."""
    n = len(positions_ne)

    def position(track):
        north, east = np.asarray(track, dtype=float).T
        return np.column_stack(offset_geopos(*ANCHOR, north, east))

    return Trace(
        trace_id=trace_id,
        platform_id=1,
        t=np.arange(n, dtype=float) if t is None else t,
        p_true=position(positions_ne),
        p_gnss=position(positions_ne if p_gnss_ne is None else p_gnss_ne),
        p_net=position(positions_ne if p_net_ne is None else p_net_ne),
        v=np.zeros(n) if v is None else v,
        a=np.zeros((n, 3)) if a is None else a,
        omega=np.zeros((n, 3)) if omega is None else omega,
        signal=np.full((n, N_SIGNAL_SLOTS), np.nan),
        attacked=np.zeros(n, dtype=bool),
    )


def matmul_in_order(x, y):
    """x @ y with every sum taken over k in order from plain IEEE products and
    sums, never a fused multiply-add; y may be a vector."""
    y2 = y[:, None] if y.ndim == 1 else y
    out = np.zeros((x.shape[0], y2.shape[1]))
    for i in range(x.shape[0]):
        for j in range(y2.shape[1]):
            acc = 0.0
            for k in range(x.shape[1]):
                acc += float(x[i, k]) * float(y2[k, j])
            out[i, j] = acc
    return out[:, 0] if y.ndim == 1 else out


def reference_fuse_4x4(trace, cfg, matmul=np.matmul):
    """The filter as a 4x4 (north, east, v_north, v_east) Kalman filter.

    Returns ((lat, lon), (sigma_north, sigma_east)) per sample.  With np.matmul the
    products go through BLAS, which may fuse a multiply and an add into one
    rounding (FMA); matmul_in_order never does, as fuse_trace never does.
    """
    origin = trace.p_net[0]
    x = np.zeros(4)
    x[0], x[1] = local_meters(*origin, *trace.p_net[0])
    p = np.diag([cfg.initial_sigma**2, cfg.initial_sigma**2,
                 INITIAL_VELOCITY_STD**2, INITIAL_VELOCITY_STD**2])
    r = np.eye(2) * cfg.net_meas_noise**2
    eye4 = np.eye(4)
    out = []
    for k in range(len(trace)):
        if k:
            dt = float(trace.t[k] - trace.t[k - 1])
            f = eye4.copy()
            f[0, 2] = dt
            f[1, 3] = dt
            an, ae = trace.a[k - 1, 0], trace.a[k - 1, 1]
            x = matmul(f, x)
            x[0] += 0.5 * an * dt * dt
            x[1] += 0.5 * ae * dt * dt
            x[2] += an * dt
            x[3] += ae * dt
            q_scale = cfg.process_noise * (
                1.0 + float(np.linalg.norm(trace.omega[k - 1])) + float(trace.v[k - 1]) / 10.0
            )
            q2 = q_scale * np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]])
            q = np.zeros((4, 4))
            q[np.ix_([0, 2], [0, 2])] = q2
            q[np.ix_([1, 3], [1, 3])] = q2
            p = matmul(matmul(f, p), f.T) + q
        zn, ze = local_meters(*origin, *trace.p_net[k])
        innov = np.array([zn, ze]) - x[:2]
        s = p[:2, :2] + r
        k = matmul(p[:, :2], np.linalg.inv(s))
        x = x + matmul(k, innov)
        kh = np.zeros((4, 4))
        kh[:, :2] = k
        p = matmul(eye4 - kh, p)
        p = 0.5 * (p + p.T)
        out.append((offset_geopos(*origin, x[0], x[1]),
                    (float(np.sqrt(p[0, 0])), float(np.sqrt(p[1, 1])))))
    return out


def _assert_matches_reference(trace, cfg, matmul=np.matmul):
    fused = fuse_trace(trace, cfg)
    reference = reference_fuse_4x4(trace, cfg, matmul)
    assert len(fused) == len(reference)
    for k, ((lat, lon), (sigma_n, sigma_e)) in enumerate(reference):
        assert sigma_n == sigma_e, f"sample {k}: the 4x4 axes differ"
        assert (fused.lat[k], fused.lon[k]) == (lat, lon), f"sample {k}"
        assert fused.sigma[k] == sigma_n, f"sample {k}"


class TestConfig:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FusionConfig(process_noise=0.0)
        with pytest.raises(ValueError):
            FusionConfig(net_meas_noise=-1.0)

    def test_estimate_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            FusedEstimate(lat=[ANCHOR[0]], lon=[ANCHOR[1]], sigma=[0.0])


class TestFuseTrace:
    def test_stationary_converges_to_net_position(self):
        track = [(0.0, 0.0)] * 60
        trace = _make_trace(track)
        cfg = FusionConfig(process_noise=1e-12, net_meas_noise=5.0, initial_sigma=50.0)
        fused = fuse_trace(trace, cfg)
        assert len(fused) == 60
        # converges onto the constant measurement
        assert haversine_m(fused.lat[-1], fused.lon[-1], *trace.p_net[-1]) < 0.5
        # zero-process-noise limit: covariance never grows
        assert np.all(np.diff(fused.sigma) <= 1e-9)

    def test_tracks_straight_constant_velocity(self):
        track = [(10.0 * k, 5.0 * k) for k in range(90)]
        v = [math.hypot(10.0, 5.0)] * 90
        trace = _make_trace(track, v=v)
        cfg = FusionConfig()
        fused = fuse_trace(trace, cfg)
        for k in range(len(trace)):
            assert haversine_m(fused.lat[k], fused.lon[k], *trace.p_true[k]) < cfg.net_meas_noise

    def test_independent_of_gnss_position(self, rng):
        track = [(3.0 * k, -2.0 * k) for k in range(40)]
        net = [(x + rng.normal(0, 10), y + rng.normal(0, 10)) for x, y in track]
        clean = _make_trace(track, p_net_ne=net)
        spoofed = _make_trace(track, p_net_ne=net,
                              p_gnss_ne=[(x + 500.0, y) for x, y in track])
        cfg = FusionConfig()
        fa = fuse_trace(clean, cfg)
        fb = fuse_trace(spoofed, cfg)
        assert np.array_equal(fa.lat, fb.lat) and np.array_equal(fa.lon, fb.lon)
        assert np.array_equal(fa.sigma, fb.sigma)

    def test_sigma_reflects_covariance_scale(self):
        trace = _make_trace([(0.0, 0.0)] * 30)
        small = fuse_trace(trace, FusionConfig(net_meas_noise=1.0))
        large = fuse_trace(trace, FusionConfig(net_meas_noise=40.0))
        assert small.sigma[-1] < large.sigma[-1]


    def test_bitwise_equal_to_4x4_reference_on_corpus(self, tiny_corpus):
        # at 1 Hz every dt is 1.0, so each product with dt is exact and a fused
        # multiply-add in BLAS rounds as the unfused form does
        _, traces = tiny_corpus
        for trace in traces:
            _assert_matches_reference(trace, FusionConfig())

    def test_bitwise_equal_to_4x4_reference_uneven_dt_and_motion(self, rng):
        n = 120
        t = np.cumsum(rng.uniform(0.05, 2.5, n))
        track = [(4.0 * tk, -1.5 * tk) for tk in t]
        net = [(x + rng.normal(0, 15), y + rng.normal(0, 15)) for x, y in track]
        trace = _make_trace(
            track, p_net_ne=net, t=t,
            v=rng.uniform(0.0, 30.0, n),
            a=rng.normal(0.0, 1.5, (n, 3)),
            omega=rng.normal(0.0, 0.2, (n, 3)),
        )
        for cfg in (FusionConfig(), FusionConfig(process_noise=3.0, net_meas_noise=7.0,
                                                 initial_sigma=120.0)):
            _assert_matches_reference(trace, cfg, matmul_in_order)
            # through BLAS the 4x4 filter may differ by FMA roundings only
            fused = fuse_trace(trace, cfg)
            blas = reference_fuse_4x4(trace, cfg)
            np.testing.assert_allclose(fused.sigma, [s for _, (s, _) in blas], rtol=1e-12)
            np.testing.assert_allclose(np.column_stack([fused.lat, fused.lon]),
                                       [m for m, _ in blas], rtol=1e-12)

class TestCapMinmaxChain:
    def test_linear_interpolation_percentile(self):
        # brute-force oracle: rank = q/100 * (n-1); interpolate order stats
        values = np.arange(1.0, 21.0)
        norm = fit_cap_minmax(values[:, None])
        assert norm.caps[0] == pytest.approx(19.05)
        assert norm.lo[0] == 1.0
        assert norm.hi[0] == pytest.approx(19.05)

    def test_degenerate_range_scores_zero(self):
        norm = CapMinMax(caps=np.array([3.3]), lo=np.array([3.3]), hi=np.array([3.3]))
        out = apply_cap_minmax(np.full((5, 1), 3.3), norm)
        assert np.array_equal(out, np.zeros((5, 1)))


class TestCapMinmaxOracle:
    """On a column that is never negative, the map equals the one-column
    cap -> min-max oracle, bit for bit."""

    @pytest.mark.parametrize("percentile", [95.0, 50.0])
    def test_column_matches_oracle(self, rng, percentile):
        for values in (rng.uniform(0.0, 200.0, 50), rng.exponential(10.0, 400),
                       np.array([0.0, 0.0, 4.0, 0.0]), np.zeros(6), np.array([3.5])):
            norm = fit_cap_minmax(values[:, None], percentile)
            cap, lo, hi = oracles.fit_cap_minmax(values, percentile)
            assert (norm.caps.tolist(), norm.lo.tolist(), norm.hi.tolist()) == ([cap], [lo], [hi])
            # test-time values beyond the fitted range too
            for test in (values, 10.0 * values, rng.uniform(0.0, 1e4, 9)):
                out = apply_cap_minmax(test[:, None], norm)[:, 0]
                assert out.tobytes() == oracles.apply_cap_minmax(test, cap, lo, hi).tobytes()


class TestPdsScore:
    def _trace_with_residuals(self, residuals, scale=1.0):
        """p_gnss fixed at anchor; fused mu displaced north by each residual."""
        n = len(residuals)
        track = [(0.0, 0.0)] * n
        trace = _make_trace(track)
        lat, lon = offset_geopos(*ANCHOR, np.asarray(residuals, dtype=float) * scale, np.zeros(n))
        return trace, FusedEstimate(lat=lat, lon=lon, sigma=np.ones(n))

    def test_matches_oracle(self, rng, tiny_corpus):
        _, traces = tiny_corpus
        pairs = [(t, fuse_trace(t, FusionConfig())) for t in traces]
        for residuals in (rng.uniform(0.0, 80.0, 25), [0.0] * 5, [7.0], [0.0, 3.0, 0.0]):
            pairs.append(self._trace_with_residuals(residuals))
        for trace, fused in pairs:
            d = residual_norm_m(trace, fused)
            expected = oracles.apply_cap_minmax(d, *oracles.fit_cap_minmax(d))
            assert pds_score(trace, fused).tobytes() == expected.tobytes()

    def test_zero_residual_scores_zero(self):
        trace, fused = self._trace_with_residuals([0.0] * 10)
        assert np.array_equal(pds_score(trace, fused), np.zeros(10))

    def test_hand_computed_twenty_sample_vector(self):
        residuals = list(range(1, 20)) + [100]
        trace, fused = self._trace_with_residuals(residuals)
        scores = pds_score(trace, fused)
        # oracle: p95 of sorted residuals = x[18] + 0.05*(x[19]-x[18]) = 23.05;
        # capped then (v - 1) / (23.05 - 1)
        assert scores[-1] == pytest.approx(1.0, abs=1e-9)
        assert scores[0] == pytest.approx(0.0, abs=1e-9)
        assert scores[18] == pytest.approx((19.0 - 1.0) / 22.05, rel=1e-6)

    def test_scale_invariance(self):
        residuals = [2.0, 7.0, 1.0, 9.0, 4.0, 8.0, 3.0, 6.0, 5.0, 10.0]
        trace_a, fused_a = self._trace_with_residuals(residuals)
        trace_b, fused_b = self._trace_with_residuals(residuals, scale=13.7)
        np.testing.assert_allclose(
            pds_score(trace_a, fused_a), pds_score(trace_b, fused_b), atol=1e-9
        )

    def test_range_and_order_preservation(self, rng):
        residuals = rng.uniform(0.0, 300.0, 40)
        trace, fused = self._trace_with_residuals(residuals)
        scores = pds_score(trace, fused)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        cap = np.percentile(residual_norm_m(trace, fused), 95)
        capped = np.minimum(residual_norm_m(trace, fused), cap)
        order = np.argsort(capped)
        assert np.all(np.diff(scores[order]) >= -1e-12)

    def test_length_mismatch_rejected(self):
        trace, fused = self._trace_with_residuals([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            residual_norm_m(trace, FusedEstimate(fused.lat[:-1], fused.lon[:-1], fused.sigma[:-1]))
