import dataclasses

import numpy as np
import pytest

from fedspoof import fusion, labels
from fedspoof.domain import N_SIGNAL_SLOTS, Trace, offset_geopos
from fedspoof.fusion import FusedEstimate

import oracles

ANCHOR = (48.0, 11.0)


def _trace_and_fused(residuals, scale=1.0):
    """p_gnss pinned at the anchor; fused mu displaced north by each residual."""
    n = len(residuals)
    at_anchor = np.tile(ANCHOR, (n, 1))
    trace = Trace(
        trace_id=1,
        platform_id=1,
        t=np.arange(n, dtype=float),
        p_true=at_anchor,
        p_gnss=at_anchor,
        p_net=at_anchor,
        v=np.zeros(n),
        a=np.zeros((n, 3)),
        omega=np.zeros((n, 3)),
        signal=np.full((n, N_SIGNAL_SLOTS), np.nan),
        attacked=np.zeros(n, dtype=bool),
    )
    lat, lon = offset_geopos(*ANCHOR, np.asarray(residuals, dtype=float) * scale, np.zeros(n))
    return trace, FusedEstimate(lat=lat, lon=lon, sigma=np.ones(n))


def _self_labeled(trace, fused):
    """Labels scaled by a norm fitted on the trace's own deviations, and the norm."""
    norm = labels.fit_label_norm([labels.raw_deviations(trace, fused)])
    return labels.generate(trace, fused, norm), norm


class TestGenerate:
    def test_zero_deviation_gives_zero_labels(self):
        values, _ = _self_labeled(*_trace_and_fused([0.0] * 12))
        assert np.array_equal(values, np.zeros(12))

    def test_single_spike_in_twenty_samples(self):
        # deviations 0 x19 plus one 100 m spike: p95 = 0 + 0.05*100 = 5;
        # after cap and min-max the spike is exactly 1, the rest exactly 0
        values, norm = _self_labeled(*_trace_and_fused([0.0] * 19 + [100.0]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(values[:-1], np.zeros(19), atol=1e-12)
        assert norm.caps[0] == pytest.approx(5.0, rel=1e-9)

    def test_invariant_under_uniform_scaling(self):
        devs = [3.0, 9.0, 1.0, 14.0, 6.0, 2.0, 11.0, 8.0, 5.0, 7.0]
        a, _ = _self_labeled(*_trace_and_fused(devs))
        b, _ = _self_labeled(*_trace_and_fused(devs, scale=4.2))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_monotone_below_cap(self, rng):
        devs = rng.uniform(0.0, 200.0, 50)
        values, norm = _self_labeled(*_trace_and_fused(devs))
        below = np.nonzero(devs < norm.caps[0])[0]
        order = below[np.argsort(devs[below])]
        assert np.all(np.diff(values[order]) >= -1e-12)

    def test_values_always_unit_interval(self, rng):
        for _ in range(10):
            devs = rng.uniform(0.0, 500.0, int(rng.integers(2, 60)))
            values, _ = _self_labeled(*_trace_and_fused(devs))
            assert values.min() >= 0.0 and values.max() <= 1.0


class TestGroundTruthIndependence:
    def test_mutating_oracle_fields_leaves_labels_unchanged(self, tiny_corpus):
        _, traces = tiny_corpus
        trace = traces[0]
        cfg = fusion.FusionConfig()
        fused = fusion.fuse_trace(trace, cfg)
        baseline, _ = _self_labeled(trace, fused)

        lat, lon = offset_geopos(*trace.p_true.T, 5000.0, -5000.0)
        tampered = dataclasses.replace(
            trace, p_true=np.column_stack([lat, lon]), attacked=~trace.attacked
        )
        assert not np.array_equal(tampered.p_true, trace.p_true)
        fused_t = fusion.fuse_trace(tampered, cfg)
        values, _ = _self_labeled(tampered, fused_t)
        assert np.array_equal(values, baseline)


class TestPooledNorm:
    def test_pooled_fit_applies_across_traces(self):
        t1, f1 = _trace_and_fused([0.0, 10.0, 20.0])
        t2, f2 = _trace_and_fused([30.0, 40.0, 200.0])
        norm = labels.fit_label_norm(
            [labels.raw_deviations(t1, f1), labels.raw_deviations(t2, f2)]
        )
        # shared scaling keeps cross-trace ordering comparable
        assert labels.generate(t1, f1, norm)[2] < labels.generate(t2, f2, norm)[0]

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            labels.fit_label_norm([np.empty(0)])


class TestLabelOracle:
    """Labels equal the one-column cap -> min-max oracle, bit for bit."""

    @staticmethod
    def _assert_labels_equal(fit_on, apply_to):
        norm = labels.fit_label_norm([labels.raw_deviations(t, f) for t, f in fit_on])
        cap, lo, hi = oracles.fit_cap_minmax(
            np.concatenate([labels.raw_deviations(t, f) for t, f in fit_on]))
        assert (norm.caps.tolist(), norm.lo.tolist(), norm.hi.tolist()) == ([cap], [lo], [hi])
        for trace, fused in apply_to:
            expected = oracles.apply_cap_minmax(labels.raw_deviations(trace, fused), cap, lo, hi)
            assert labels.generate(trace, fused, norm).tobytes() == expected.tobytes()

    def test_corpus_traces(self, tiny_corpus):
        _, traces = tiny_corpus
        pairs = [(t, fusion.fuse_trace(t, fusion.FusionConfig())) for t in traces]
        self._assert_labels_equal(pairs[:4], pairs)

    def test_awkward_deviations(self, rng):
        spread = _trace_and_fused(rng.uniform(0.0, 50.0, 40))
        beyond = _trace_and_fused(rng.uniform(0.0, 500.0, 30))
        single = _trace_and_fused([12.5])
        flat = _trace_and_fused([0.0] * 8)
        for fit_on in ([spread], [spread, single], [single], [flat], [flat, single]):
            self._assert_labels_equal(fit_on, [spread, beyond, single, flat])
