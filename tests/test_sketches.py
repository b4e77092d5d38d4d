"""Sketch unit tests: accuracy, merge associativity, drift stats."""

import json
import math
import pickle
import random

import numpy as np
import pytest

from jesse_ray.sketches import (
    CountMin,
    SketchBundle,
    TDigest,
    ValueCounts,
    chi2_pvalue,
    chi2_topk,
    drift_report,
    ks_pvalue,
    ks_statistic,
    psi_deciles,
    psi_topk,
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


def test_tdigest_weighted_add_drops_nan_with_its_weight():
    t = TDigest()
    t.add(np.array([1.0, np.nan, 3.0]), np.array([1.0, 2.0, 3.0]))
    want = TDigest()
    want.add(np.array([1.0, 3.0]), np.array([1.0, 3.0]))
    assert t.count == want.count == 4.0
    assert t.to_bytes() == want.to_bytes()
    assert t.quantile(0.5) == want.quantile(0.5)


def test_countmin_overestimates_only():
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 10_000, size=100_000)
    cm = CountMin()
    cm.add(keys[:50_000])
    cm.add(keys[50_000:])
    exact = np.bincount(keys, minlength=10_000)
    probe = np.arange(0, 10_000, 97)
    est = cm.query(probe)
    assert np.all(est >= exact[probe])  # count-min never underestimates
    assert np.mean(est - exact[probe]) < 50  # and the error is modest
    # adding exact (key, count) pairs is adding the raw keys
    from_counts = CountMin()
    ids = np.flatnonzero(exact)
    from_counts.add(ids, exact[ids])
    assert np.array_equal(from_counts.table, cm.table) and from_counts.total == cm.total == len(keys)


def test_value_counts_merge_and_token_counts():
    b1, b2 = SketchBundle.empty(100), SketchBundle.empty(100)
    b1.add_batch(np.array([5.0, np.nan, -0.0]), np.array([1, 1, 1, 2, -1, 100]))
    b2.add_batch(np.array([0.0, 5.0]), np.array([2, 2, 3, 99]))
    b1.merge(b2)
    # ids outside [0, vocab) are not counted; NaN is skipped; ±0 is one key
    assert b1.tokens.keys.tolist() == [1, 2, 3, 99] and b1.tokens.counts.tolist() == [3, 3, 1, 1]
    assert b1.tokens.total == 8
    assert b1.n_tok.keys.tolist() == [0.0, 5.0] and b1.n_tok.counts.tolist() == [2, 2]
    assert b1.rows == 4
    assert b1.tokens.at(np.array([0, 2, 99, 100])).tolist() == [0, 3, 1, 0]
    assert ValueCounts.of(np.array([3, 1, 3])).at(np.array([3])).tolist() == [2]
    with pytest.raises(ValueError, match="different vocabularies"):
        b1.merge(SketchBundle.empty(101))


def test_ks_same_vs_different():
    rng = np.random.default_rng(3)
    a = rng.lognormal(5.0, 0.8, 20_000)
    b = rng.lognormal(5.0, 0.8, 20_000)  # same dist
    c = rng.lognormal(5.6, 0.8, 20_000)  # shifted
    va, vb, vc = ValueCounts.of(a), ValueCounts.of(b), ValueCounts.of(c)
    d_same = ks_statistic(va, vb)
    d_diff = ks_statistic(va, vc)
    assert ks_statistic(va, va) == 0.0
    assert ks_pvalue(d_same, 20_000, 20_000) > 0.01
    assert ks_pvalue(d_diff, 20_000, 20_000) < 1e-6


def test_chi2_pvalue_sanity():
    # chi2 with dof=1: stat 3.84 → p ≈ 0.05 (standard table value)
    assert abs(chi2_pvalue(3.841, 1) - 0.05) < 0.002
    assert chi2_pvalue(0.0, 5) == 1.0


def _token_counts(tokens):
    return ValueCounts.of(np.asarray(tokens, dtype=np.int64))


def test_chi2_topk_flags_drift():
    rng = np.random.default_rng(4)
    va = _token_counts((rng.zipf(1.3, 200_000) - 1) % 5000)
    vb = _token_counts((rng.zipf(1.3, 200_000) - 1) % 5000)
    vc = _token_counts((rng.zipf(1.05, 200_000) - 1) % 5000)
    _, p_same = chi2_topk(va, vb, k=50)
    _, p_diff = chi2_topk(va, vc, k=50)
    assert p_diff < 1e-6
    assert p_same > p_diff
    assert chi2_topk(va, va, k=50) == (0.0, 1.0)


def test_chi2_topk_breaks_count_ties_by_token_id():
    # ids 7 and 3 tie on count 2; k=1 keeps the smaller id
    ref = _token_counts([7, 7, 3, 3, 9])
    new = _token_counts([3, 3, 3, 3, 7])
    stat, p = chi2_topk(ref, new, k=1)
    # bins {3, tail}: ref (2, 3), new (4, 1); both rows hold 5 and the
    # columns 6 and 4, so every row expects (3, 2)
    assert stat == pytest.approx(2 * ((2 - 3) ** 2 / 3 + (3 - 2) ** 2 / 2))
    assert p == pytest.approx(chi2_pvalue(stat, 1))


def test_token_gate_does_not_flag_same_distribution_samples():
    """Two samples of one zipf(1.3) token distribution, of unequal sizes
    (a small partition against a large reference and the reverse), are
    flagged by the token chi-square or token PSI in at most 2 of 20
    seeds: the reference is a sample too, not the population."""
    vocab = 4096
    sizes = [(50_000, 320_000), (320_000, 50_000), (20_000, 200_000), (200_000, 20_000)]
    flagged = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_ref, n_new = sizes[seed % len(sizes)]
        ref, new = SketchBundle.empty(vocab), SketchBundle.empty(vocab)
        ref.add_batch(np.ones(1), (rng.zipf(1.3, n_ref) - 1) % vocab)
        new.add_batch(np.ones(1), (rng.zipf(1.3, n_new) - 1) % vocab)
        rep = drift_report(ref, new)
        flagged += rep["chi2_drifted"] or rep["psi_tokens_drifted"]
    assert flagged <= 2


def test_bundle_roundtrip_and_report():
    rng = np.random.default_rng(5)
    b1 = SketchBundle.empty(vocab=1000)
    b2 = SketchBundle.empty(vocab=1000)
    b1.add_batch(rng.normal(100, 10, 5000), rng.integers(0, 1000, 20_000))
    b2.add_batch(rng.normal(100, 10, 5000), rng.integers(0, 1000, 20_000))
    b1.merge(SketchBundle.from_bytes(b2.to_bytes()))
    assert b1.rows == 10_000
    back = SketchBundle.from_bytes(b1.to_bytes())
    assert back.to_bytes() == b1.to_bytes() and back.vocab == 1000
    rep = drift_report(b1, back)
    assert not rep["ks_drifted"] and not rep["chi2_drifted"]
    assert rep["ks_stat"] == rep["chi2_stat"] == rep["psi"] == rep["psi_tokens"] == 0.0


def test_psi_metrics():
    rng = np.random.default_rng(1)
    a, b = SketchBundle.empty(2000), SketchBundle.empty(2000)
    a.add_batch(rng.lognormal(5.0, 1.0, 30000), rng.integers(0, 2000, 60000))
    b.add_batch(rng.lognormal(5.6, 1.0, 30000), (rng.zipf(1.3, 60000) % 2000))
    rep = drift_report(a, b)
    assert rep["psi_drifted"] and rep["psi_tokens_drifted"]
    assert rep["psi"] > 0.2 and rep["psi_tokens"] > 0.2
    # identity: PSI of a bundle against itself is exactly zero
    assert psi_deciles(a.n_tok, a.n_tok) == 0.0
    assert psi_topk(a.tokens, a.tokens) == 0.0
    rep_self = drift_report(a, a)
    assert not rep_self["psi_drifted"] and not rep_self["psi_tokens_drifted"]
    # a small mean shift scores below the 0.2 significance bar but above 0
    c = SketchBundle.empty(2000)
    c.add_batch(rng.lognormal(5.05, 1.0, 30000), rng.integers(0, 2000, 60000))
    small = psi_deciles(a.n_tok, c.n_tok)
    assert 0.0 < small < 0.2


def _batches(seed, n_batches, vocab, shift=0.0):
    """Per-batch (n_tok, flat tokens) pairs: half the batches carry
    integer lengths (many ties), half continuous values."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_batches):
        n = int(rng.integers(1, 400))
        x = rng.lognormal(4.0 + shift, 0.7, n)
        out.append((np.floor(x) if i % 2 else x,
                    ((rng.zipf(1.3 + shift, n * 8) - 1) % (vocab + 50)).astype(np.int64)))
    return out


def _bundle(batches, vocab):
    b = SketchBundle.empty(vocab)
    for n_tok, tokens in batches:
        b.add_batch(n_tok, tokens)
    return b


def test_merge_order_does_not_change_the_summary():
    """The same 64 per-batch bundles merged in order, in three shuffled
    orders and as a pairwise tree give the same bytes and the same
    drift report."""
    vocab = 5000
    blobs = []
    for n_tok, tokens in _batches(11, 64, vocab):
        b = SketchBundle.empty(vocab)
        b.add_batch(n_tok, tokens)
        blobs.append(b.to_bytes())
    ref = _bundle(_batches(12, 16, vocab, shift=0.1), vocab)

    def in_order(order):
        acc = SketchBundle.from_bytes(blobs[order[0]])
        for i in order[1:]:
            acc.merge(SketchBundle.from_bytes(blobs[i]))
        return acc

    def tree(level):
        while len(level) > 1:
            level = [level[i].merge(level[i + 1]) if i + 1 < len(level) else level[i]
                     for i in range(0, len(level), 2)]
        return level[0]

    merged = [in_order(list(range(64)))]
    for seed in (1, 2, 3):
        order = list(range(64))
        random.Random(seed).shuffle(order)
        merged.append(in_order(order))
    merged.append(tree([SketchBundle.from_bytes(raw) for raw in reversed(blobs)]))
    want = merged[0].to_bytes()
    assert all(m.to_bytes() == want for m in merged[1:])
    reports = [drift_report(ref, m) for m in merged]
    assert all(r == reports[0] for r in reports[1:])


def _brute_psi(p_counts, q_counts, eps):
    p = np.maximum(p_counts / p_counts.sum(), eps)
    q = np.maximum(q_counts / q_counts.sum(), eps)
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def test_drift_report_matches_brute_force():
    """KS, PSI, chi-square and token PSI against numpy over the raw
    arrays the bundles were built from."""
    vocab = 3000
    ref_b, new_b = _batches(21, 12, vocab), _batches(22, 9, vocab, shift=0.05)
    rep = drift_report(_bundle(ref_b, vocab), _bundle(new_b, vocab))
    x = np.sort(np.concatenate([b[0] for b in ref_b]))
    y = np.sort(np.concatenate([b[0] for b in new_b]))
    tx = np.concatenate([b[1] for b in ref_b])
    ty = np.concatenate([b[1] for b in new_b])

    grid = np.union1d(x, y)
    ks = np.max(np.abs(np.searchsorted(x, grid, side="right") / len(x)
                       - np.searchsorted(y, grid, side="right") / len(y)))

    n = len(x)
    edges = np.array([x[math.ceil(i * n / 10) - 1] for i in range(1, 10)])
    bins_x = np.bincount(np.searchsorted(edges, x, side="left"), minlength=10)
    bins_y = np.bincount(np.searchsorted(edges, y, side="left"), minlength=10)
    psi = _brute_psi(bins_x, bins_y, 1e-6)

    cx = np.bincount(tx[(tx >= 0) & (tx < vocab)], minlength=vocab)
    cy = np.bincount(ty[(ty >= 0) & (ty < vocab)], minlength=vocab)
    top = sorted(range(vocab), key=lambda t: (-cx[t], t))[:100]
    bx = np.append(cx[top], cx.sum() - cx[top].sum())
    by = np.append(cy[top], cy.sum() - cy[top].sum())
    # 2 x 101 contingency table: expected = row total x column total / N
    obs = np.array([bx, by], dtype=np.float64)
    exp = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
    chi2 = float(np.sum((obs - exp) ** 2 / exp))

    assert rep["rows_ref"] == len(x) and rep["rows_new"] == len(y)
    assert rep["ks_stat"] == pytest.approx(ks, rel=1e-12)
    assert rep["ks_pvalue"] == pytest.approx(ks_pvalue(ks, len(x), len(y)), rel=1e-12)
    assert rep["psi"] == pytest.approx(psi, rel=1e-9)
    assert rep["chi2_stat"] == pytest.approx(chi2, rel=1e-9)
    assert rep["chi2_pvalue"] == pytest.approx(chi2_pvalue(chi2, 100), rel=1e-9)
    assert rep["psi_tokens"] == pytest.approx(_brute_psi(bx, by, 1e-9), rel=1e-9)
    assert rep["ks_stat"] > 0 and rep["psi"] > 0 and rep["chi2_stat"] > 0


def test_drift_report_with_a_zero_row_side_is_defined_and_not_drifted():
    rng = np.random.default_rng(6)
    ref = SketchBundle.empty(1000)
    ref.add_batch(rng.normal(100, 10, 500), rng.integers(0, 1000, 2000))
    empty = SketchBundle.empty(1000)
    for a, b in ((ref, empty), (empty, ref), (empty, SketchBundle.empty(1000))):
        rep = drift_report(a, b)
        json.dumps(rep, allow_nan=False)
        assert rep["ks_stat"] == rep["chi2_stat"] == rep["psi"] == rep["psi_tokens"] == 0.0
        assert rep["ks_pvalue"] == rep["chi2_pvalue"] == 1.0
        assert not any(rep[k] for k in rep if k.endswith("_drifted"))
        assert (rep["rows_ref"], rep["rows_new"]) == (a.rows, b.rows)


def test_from_bytes_refuses_other_layouts():
    # the pickled bundle layout older versions wrote
    old = pickle.dumps({"d": b"", "f": b"", "c": b"", "r": 0}, protocol=4)
    with pytest.raises(ValueError, match="not an exact drift summary"):
        SketchBundle.from_bytes(old)
    n_tok = ValueCounts.of(np.array([1.0]))
    out_of_range = SketchBundle(2, n_tok, ValueCounts(np.array([3]), np.array([1])))
    with pytest.raises(ValueError, match="token ids outside"):
        SketchBundle.from_bytes(out_of_range.to_bytes())
    unsorted = SketchBundle(10, n_tok, ValueCounts(np.array([3, 1]), np.array([1, 1])))
    with pytest.raises(ValueError, match="sorted and distinct"):
        SketchBundle.from_bytes(unsorted.to_bytes())
