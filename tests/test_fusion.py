import math

import numpy as np
import pytest

from fedspoof.domain import (
    N_SIGNAL_SLOTS,
    GeoPos,
    PlatformSample,
    SignalProps,
    Trace,
    local_meters,
    offset_geopos,
)
from fedspoof.fusion import (
    INITIAL_VELOCITY_STD,
    FusedEstimate,
    FusionConfig,
    apply_cap_minmax,
    fit_cap_minmax,
    fuse_trace,
    pds_score,
    residual_norm_m,
)

from oracles import haversine_m

ANCHOR = GeoPos(59.0, 18.0)


def _make_trace(positions_ne, p_net_ne=None, p_gnss_ne=None, v=None, a=None, omega=None,
                trace_id=1, t=None):
    """Trace from (north, east) meter tracks; defaults: net == gnss == true."""
    n = len(positions_ne)
    p_net_ne = p_net_ne if p_net_ne is not None else positions_ne
    p_gnss_ne = p_gnss_ne if p_gnss_ne is not None else positions_ne
    samples = []
    for k in range(n):
        samples.append(
            PlatformSample(
                platform_id=1,
                trace_id=trace_id,
                t=float(t[k]) if t is not None else float(k),
                p_true=offset_geopos(ANCHOR, *positions_ne[k]),
                p_gnss=offset_geopos(ANCHOR, *p_gnss_ne[k]),
                p_net=offset_geopos(ANCHOR, *p_net_ne[k]),
                v=v[k] if v is not None else 0.0,
                a=np.array(a[k]) if a is not None else np.zeros(3),
                omega=np.array(omega[k]) if omega is not None else np.zeros(3),
                signal=SignalProps(np.full(N_SIGNAL_SLOTS, np.nan)),
                attacked=False,
            )
        )
    return Trace(trace_id=trace_id, platform_id=1, samples=samples)


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

    Returns (mu, (sigma_north, sigma_east)) per sample.  With np.matmul the
    products go through BLAS, which may fuse a multiply and an add into one
    rounding (FMA); matmul_in_order never does, as fuse_trace never does.
    """
    samples = trace.samples
    origin = samples[0].p_net
    x = np.zeros(4)
    x[0], x[1] = local_meters(origin, samples[0].p_net)
    p = np.diag([cfg.initial_sigma**2, cfg.initial_sigma**2,
                 INITIAL_VELOCITY_STD**2, INITIAL_VELOCITY_STD**2])
    r = np.eye(2) * cfg.net_meas_noise**2
    eye4 = np.eye(4)
    out = []
    prev = None
    for smp in samples:
        if prev is not None:
            dt = smp.t - prev.t
            f = eye4.copy()
            f[0, 2] = dt
            f[1, 3] = dt
            an, ae = prev.a[0], prev.a[1]
            x = matmul(f, x)
            x[0] += 0.5 * an * dt * dt
            x[1] += 0.5 * ae * dt * dt
            x[2] += an * dt
            x[3] += ae * dt
            q_scale = cfg.process_noise * (1.0 + float(np.linalg.norm(prev.omega)) + prev.v / 10.0)
            q2 = q_scale * np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]])
            q = np.zeros((4, 4))
            q[np.ix_([0, 2], [0, 2])] = q2
            q[np.ix_([1, 3], [1, 3])] = q2
            p = matmul(matmul(f, p), f.T) + q
        zn, ze = local_meters(origin, smp.p_net)
        innov = np.array([zn, ze]) - x[:2]
        s = p[:2, :2] + r
        k = matmul(p[:, :2], np.linalg.inv(s))
        x = x + matmul(k, innov)
        kh = np.zeros((4, 4))
        kh[:, :2] = k
        p = matmul(eye4 - kh, p)
        p = 0.5 * (p + p.T)
        out.append((offset_geopos(origin, x[0], x[1]),
                    (float(np.sqrt(p[0, 0])), float(np.sqrt(p[1, 1])))))
        prev = smp
    return out


def _assert_matches_reference(trace, cfg, matmul=np.matmul):
    fused = fuse_trace(trace, cfg)
    reference = reference_fuse_4x4(trace, cfg, matmul)
    assert len(fused) == len(reference)
    for k, (est, (mu, (sigma_n, sigma_e))) in enumerate(zip(fused, reference)):
        assert sigma_n == sigma_e, f"sample {k}: the 4x4 axes differ"
        assert est.mu == mu, f"sample {k}"
        assert est.sigma == sigma_n, f"sample {k}"


class TestConfig:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FusionConfig(process_noise=0.0)
        with pytest.raises(ValueError):
            FusionConfig(net_meas_noise=-1.0)

    def test_estimate_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            FusedEstimate(mu=ANCHOR, sigma=0.0)


class TestFuseTrace:
    def test_stationary_converges_to_net_position(self):
        track = [(0.0, 0.0)] * 60
        trace = _make_trace(track)
        cfg = FusionConfig(process_noise=1e-12, net_meas_noise=5.0, initial_sigma=50.0)
        fused = fuse_trace(trace, cfg)
        assert len(fused) == 60
        # converges onto the constant measurement
        assert haversine_m(fused[-1].mu, trace.samples[-1].p_net) < 0.5
        # zero-process-noise limit: covariance never grows
        sig = np.array([f.sigma for f in fused])
        assert np.all(np.diff(sig) <= 1e-9)

    def test_tracks_straight_constant_velocity(self):
        track = [(10.0 * k, 5.0 * k) for k in range(90)]
        v = [math.hypot(10.0, 5.0)] * 90
        trace = _make_trace(track, v=v)
        cfg = FusionConfig()
        fused = fuse_trace(trace, cfg)
        for smp, est in zip(trace.samples, fused):
            assert haversine_m(est.mu, smp.p_true) < cfg.net_meas_noise

    def test_independent_of_gnss_position(self, rng):
        track = [(3.0 * k, -2.0 * k) for k in range(40)]
        net = [(x + rng.normal(0, 10), y + rng.normal(0, 10)) for x, y in track]
        clean = _make_trace(track, p_net_ne=net)
        spoofed = _make_trace(track, p_net_ne=net,
                              p_gnss_ne=[(x + 500.0, y) for x, y in track])
        cfg = FusionConfig()
        fa = fuse_trace(clean, cfg)
        fb = fuse_trace(spoofed, cfg)
        for a, b in zip(fa, fb):
            assert a.mu == b.mu
            assert a.sigma == b.sigma

    def test_sigma_reflects_covariance_scale(self):
        trace = _make_trace([(0.0, 0.0)] * 30)
        small = fuse_trace(trace, FusionConfig(net_meas_noise=1.0))
        large = fuse_trace(trace, FusionConfig(net_meas_noise=40.0))
        assert small[-1].sigma < large[-1].sigma


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
            np.testing.assert_allclose([f.sigma for f in fused], [s for _, (s, _) in blas],
                                       rtol=1e-12)
            np.testing.assert_allclose([(f.mu.lat, f.mu.lon) for f in fused],
                                       [(m.lat, m.lon) for m, _ in blas], rtol=1e-12)

class TestCapMinmaxChain:
    def test_linear_interpolation_percentile(self):
        # brute-force oracle: rank = q/100 * (n-1); interpolate order stats
        values = np.arange(1.0, 21.0)
        cap, lo, hi = fit_cap_minmax(values)
        assert cap == pytest.approx(19.05)
        assert lo == 1.0
        assert hi == pytest.approx(19.05)

    def test_degenerate_range_scores_zero(self):
        out = apply_cap_minmax(np.full(5, 3.3), 3.3, 3.3, 3.3)
        assert np.array_equal(out, np.zeros(5))


class TestPdsScore:
    def _trace_with_residuals(self, residuals, scale=1.0):
        """p_gnss fixed at anchor; fused mu displaced north by each residual."""
        n = len(residuals)
        track = [(0.0, 0.0)] * n
        trace = _make_trace(track)
        fused = [
            FusedEstimate(mu=offset_geopos(ANCHOR, float(r) * scale, 0.0), sigma=1.0)
            for r in residuals
        ]
        return trace, fused

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
            residual_norm_m(trace, fused[:-1])
