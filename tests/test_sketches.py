"""Sketch unit tests: accuracy, merge associativity, drift stats."""

import numpy as np
import pytest

from jesse_ray.sketches import (
    CountMin,
    FreqVector,
    SketchBundle,
    TDigest,
    chi2_pvalue,
    chi2_topk,
    drift_report,
    ks_pvalue,
    ks_statistic,
)


def test_tdigest_quantiles_close_to_exact():
    rng = np.random.default_rng(0)
    x = rng.lognormal(5.0, 0.8, size=50_000)
    td = TDigest()
    for chunk in np.array_split(x, 10):
        td.add(chunk)
    for q in (0.1, 0.5, 0.9, 0.99):
        exact = np.quantile(x, q)
        est = td.quantile(q)
        assert abs(est - exact) / exact < 0.02, (q, est, exact)


def test_tdigest_merge_equals_bulk():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, size=30_000)
    parts = np.array_split(x, 7)
    digests = []
    for p in parts:
        t = TDigest()
        t.add(p)
        digests.append(t)
    merged = digests[0]
    for d in digests[1:]:
        merged.merge(d)
    bulk = TDigest()
    bulk.add(x)
    for q in (0.05, 0.5, 0.95):
        assert abs(merged.quantile(q) - bulk.quantile(q)) < 0.05
    assert merged.count == len(x)


def test_tdigest_roundtrip():
    t = TDigest()
    t.add(np.arange(1000, dtype=float))
    t2 = TDigest.from_bytes(t.to_bytes())
    assert abs(t2.quantile(0.5) - 499.5) < 10


def test_countmin_overestimates_only_and_merges():
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 10_000, size=100_000)
    cm1, cm2 = CountMin(), CountMin()
    cm1.add(keys[:50_000])
    cm2.add(keys[50_000:])
    cm1.merge(cm2)
    exact = np.bincount(keys, minlength=10_000)
    probe = np.arange(0, 10_000, 97)
    est = cm1.query(probe)
    assert np.all(est >= exact[probe])  # count-min never underestimates
    assert np.mean(est - exact[probe]) < 50  # and the error is modest


def test_countmin_merge_refuses_mismatched_sketches():
    cm = CountMin(width=1024, depth=4)
    for other, msg in ((CountMin(width=2048, depth=4), "shapes differ"),
                       (CountMin(width=1024, depth=3), "shapes differ"),
                       (CountMin(width=1024, depth=4, seed=8), "seeds differ")):
        with pytest.raises(ValueError, match=msg):
            cm.merge(other)
    assert cm.total == 0 and not cm.table.any()


def test_freqvector_topk_and_merge():
    f1, f2 = FreqVector(100), FreqVector(100)
    f1.add(np.array([1, 1, 1, 2]))
    f2.add(np.array([2, 2, 3]))
    f1.merge(f2)
    assert f1.counts[1] == 3 and f1.counts[2] == 3
    assert f1.total == 7


def test_ks_same_vs_different():
    rng = np.random.default_rng(3)
    a = rng.lognormal(5.0, 0.8, 20_000)
    b = rng.lognormal(5.0, 0.8, 20_000)  # same dist
    c = rng.lognormal(5.6, 0.8, 20_000)  # shifted
    ta, tb, tc = TDigest(), TDigest(), TDigest()
    ta.add(a), tb.add(b), tc.add(c)
    d_same = ks_statistic(ta, tb)
    d_diff = ks_statistic(ta, tc)
    assert ks_pvalue(d_same, 20_000, 20_000) > 0.01
    assert ks_pvalue(d_diff, 20_000, 20_000) < 1e-6


def test_chi2_pvalue_sanity():
    # chi2 with dof=1: stat 3.84 → p ≈ 0.05 (standard table value)
    assert abs(chi2_pvalue(3.841, 1) - 0.05) < 0.002
    assert chi2_pvalue(0.0, 5) == 1.0


def test_chi2_topk_flags_drift():
    rng = np.random.default_rng(4)
    va, vb = FreqVector(5000), FreqVector(5000)
    vc = FreqVector(5000)
    va.add(((rng.zipf(1.3, 200_000) - 1) % 5000))
    vb.add(((rng.zipf(1.3, 200_000) - 1) % 5000))
    vc.add(((rng.zipf(1.05, 200_000) - 1) % 5000))
    _, p_same = chi2_topk(va, vb, k=50)
    _, p_diff = chi2_topk(va, vc, k=50)
    assert p_diff < 1e-6
    assert p_same > p_diff


def test_bundle_roundtrip_and_report():
    rng = np.random.default_rng(5)
    b1 = SketchBundle.empty(vocab=1000)
    b2 = SketchBundle.empty(vocab=1000)
    b1.add_batch(rng.normal(100, 10, 5000), rng.integers(0, 1000, 20_000))
    b2.add_batch(rng.normal(100, 10, 5000), rng.integers(0, 1000, 20_000))
    b1.merge(SketchBundle.from_bytes(b2.to_bytes()))
    assert b1.rows == 10_000
    rep = drift_report(b1, SketchBundle.from_bytes(b1.to_bytes()))
    assert not rep["ks_drifted"] and not rep["chi2_drifted"]


def test_psi_metrics():
    import numpy as np

    from jesse_ray.sketches import SketchBundle, drift_report, psi_deciles, psi_freq

    rng = np.random.default_rng(1)
    a, b = SketchBundle.empty(2000), SketchBundle.empty(2000)
    a.add_batch(rng.lognormal(5.0, 1.0, 30000), rng.integers(0, 2000, 60000))
    b.add_batch(rng.lognormal(5.6, 1.0, 30000), (rng.zipf(1.3, 60000) % 2000))
    rep = drift_report(a, b)
    assert rep["psi_drifted"] and rep["psi_tokens_drifted"]
    assert rep["psi"] > 0.2 and rep["psi_tokens"] > 0.2
    # identity: PSI of a bundle against itself is exactly zero
    assert psi_deciles(a.digest, a.digest) == 0.0
    assert psi_freq(a.freq, a.freq) == 0.0
    rep_self = drift_report(a, a)
    assert not rep_self["psi_drifted"] and not rep_self["psi_tokens_drifted"]
    # a small mean shift scores below the 0.2 significance bar but above 0
    c = SketchBundle.empty(2000)
    c.add_batch(rng.lognormal(5.05, 1.0, 30000), rng.integers(0, 2000, 60000))
    small = psi_deciles(a.digest, c.digest)
    assert 0.0 < small < 0.2
