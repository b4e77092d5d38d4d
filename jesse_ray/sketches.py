"""Exact drift summaries, drift statistics (no scipy) and sketches.

The reference has no distribution machinery (it validates one document at
a time); these are the corpus-scale extension demanded by the north star.
A partition's drift summary (:class:`SketchBundle`) is exact counts of
the ``n_tok`` values and of the token ids, two domains the sequences spec
bounds.  Merging is addition, so the summary, its bytes and the KS, PSI
and chi-square statistics derived from it do not depend on block arrival
or merge order.  ``TDigest``, ``CountMin`` and ``HyperLogLog`` serve the
catalog's sketch queries and the distinct-count stage.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa


# ---------------------------------------------------------------------------
# t-digest (merging digest, arcsine scale function)


class TDigest:
    """Merging t-digest for streaming quantiles/CDF.

    Public-knowledge algorithm (Dunning & Ertl, "Computing Extremely
    Accurate Quantiles Using t-Digests", arXiv:1902.04023): centroids
    (mean, weight) kept sorted; a merge pass re-clusters subject to the
    k1 (arcsine) scale-function size bound.
    """

    __slots__ = ("compression", "means", "weights", "count", "_buf")

    def __init__(self, compression: int = 200):
        self.compression = compression
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self.count = 0.0
        self._buf: list[np.ndarray] = []

    def _k1(self, q: float) -> float:
        # scalar fast path for the sequential merge loop: a numpy
        # round-trip per centroid costs 20x (measured 13.5s of a 19s
        # sketch pass before this)
        q = 0.0 if q < 0.0 else (1.0 if q > 1.0 else q)
        return (self.compression / (2 * math.pi)) * math.asin(2.0 * q - 1.0)

    def add(self, values: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        values = np.asarray(values, dtype=np.float64)
        keep = ~np.isnan(values)
        values = values[keep]
        if len(values) == 0:
            return
        weights = np.ones(len(values)) if weights is None else np.asarray(weights, dtype=np.float64)[keep]
        self._buf.append(np.stack([values, weights]))
        self.count += float(weights.sum())
        if sum(b.shape[1] for b in self._buf) > 16 * self.compression:
            self._flush()

    def _flush(self) -> None:
        if not self._buf:
            return
        bm = np.concatenate([b[0] for b in self._buf])
        bw = np.concatenate([b[1] for b in self._buf])
        self._buf = []
        means = np.concatenate([self.means, bm])
        weights = np.concatenate([self.weights, bw])
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()
        # merge pass: greedily absorb while the k-size bound allows
        new_m: list[float] = []
        new_w: list[float] = []
        cum = 0.0
        cur_m, cur_w = float(means[0]), float(weights[0])
        k0 = self._k1(0.0)
        ml, wl = means[1:].tolist(), weights[1:].tolist()
        for m, w in zip(ml, wl):
            q2 = (cum + cur_w + w) / total
            if self._k1(q2) - k0 <= 1.0:
                cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
                cur_w += w
            else:
                new_m.append(cur_m)
                new_w.append(cur_w)
                cum += cur_w
                k0 = self._k1(cum / total)
                cur_m, cur_w = m, w
        new_m.append(cur_m)
        new_w.append(cur_w)
        self.means = np.asarray(new_m)
        self.weights = np.asarray(new_w)

    def merge(self, other: "TDigest") -> "TDigest":
        other._flush()
        if len(other.means):
            self._buf.append(np.stack([other.means, other.weights]))
            self.count += float(other.weights.sum())
            self._flush()
        return self

    def quantile(self, q: float) -> float:
        self._flush()
        if len(self.means) == 0:
            return float("nan")
        cum = np.cumsum(self.weights) - self.weights / 2.0
        total = self.weights.sum()
        return float(np.interp(q, cum / total, self.means))

    def to_bytes(self) -> bytes:
        self._flush()
        return pickle.dumps(
            {"c": self.compression, "m": self.means, "w": self.weights, "n": self.count},
            protocol=4,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TDigest":
        d = pickle.loads(raw)
        td = cls(d["c"])
        td.means, td.weights, td.count = d["m"], d["w"], d["n"]
        return td


# ---------------------------------------------------------------------------
# count-min sketch (point frequencies of an unbounded key domain)


_CM_P = (1 << 61) - 1  # Mersenne prime for universal hashing


class CountMin:
    """Count-min sketch (Cormode & Muthukrishnan 2005): d rows of w
    counters, universal hashes (a*x + b) mod p mod w with fixed seeds."""

    __slots__ = ("w", "d", "table", "a", "b", "total")

    def __init__(self, width: int = 16384, depth: int = 4, seed: int = 7):
        self.w, self.d = width, depth
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _CM_P, size=depth, dtype=np.int64)
        self.b = rng.integers(0, _CM_P, size=depth, dtype=np.int64)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    def _hash(self, keys: np.ndarray, row: int) -> np.ndarray:
        # (a*x + b) mod p via the Mersenne identity (p = 2^61-1, so
        # 2^61 ≡ 1): shift/add instead of the integer-division unit,
        # which this sandbox executes ~30x slower on cold pages.  Width
        # is a power of two, so the final fold is a mask.
        M = np.uint64(_CM_P)
        with np.errstate(over="ignore"):
            y = keys.astype(np.uint64) * np.uint64(self.a[row]) + np.uint64(self.b[row])
            h = (y & M) + (y >> np.uint64(61))
            h -= M * (h >= M)
        return (h & np.uint64(self.w - 1)).astype(np.int64)

    def add(self, keys: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        keys = np.asarray(keys)
        if len(keys) == 0:
            return
        if counts is None:
            # pre-aggregate within the batch: unique + counts, so np.add.at
            # touches each distinct key once
            keys, counts = np.unique(keys, return_counts=True)
        for r in range(self.d):
            np.add.at(self.table[r], self._hash(keys, r), counts)
        self.total += int(counts.sum())

    def query(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        est = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
        for r in range(self.d):
            est = np.minimum(est, self.table[r][self._hash(keys, r)])
        return est


# ---------------------------------------------------------------------------
# exact value counts: the drift summary


@dataclass(eq=False)
class ValueCounts:
    """Exact counts of a bounded domain: sorted distinct ``keys`` with
    positive int64 ``counts``.  Merging is addition, so every merge
    order gives the same keys and counts."""

    keys: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "ValueCounts":
        keys, counts = np.unique(values, return_counts=True)
        return cls(keys, counts.astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "ValueCounts") -> "ValueCounts":
        # add the counts of shared keys and insert the other keys where
        # they sort (np.insert keeps equal positions in the given order)
        a, b = self.keys, other.keys
        pos = np.searchsorted(a, b)
        hit = a[np.minimum(pos, len(a) - 1)] == b if len(a) else np.zeros(len(b), dtype=bool)
        counts = self.counts.copy()
        counts[pos[hit]] += other.counts[hit]
        self.keys = np.insert(a, pos[~hit], b[~hit])
        self.counts = np.insert(counts, pos[~hit], other.counts[~hit])
        return self

    def _below(self, x: np.ndarray, side: str) -> np.ndarray:
        """How many counted values are < x (side "left") or <= x ("right")."""
        return np.concatenate([[0], np.cumsum(self.counts)])[np.searchsorted(self.keys, x, side=side)]

    def at(self, x: np.ndarray) -> np.ndarray:
        """The count of each value of ``x`` (0 for one never counted)."""
        return self._below(x, "right") - self._below(x, "left")

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Exact empirical CDF: the share of counted values ``<= x``."""
        return self._below(x, "right") / self.total


# ---------------------------------------------------------------------------
# statistics (hand-rolled, public formulas), exact over the counts; a side
# with nothing counted scores 0 (p-value 1): no evidence of drift


def ks_pvalue(d_stat: float, n1: float, n2: float) -> float:
    """Asymptotic two-sample KS p-value (Kolmogorov distribution,
    Smirnov's approximation as in standard references); 1 when either
    sample is empty."""
    if n1 <= 0 or n2 <= 0:
        return 1.0
    ne = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d_stat
    if lam < 1e-9:
        return 1.0
    s = 0.0
    for k in range(1, 101):
        term = 2 * (-1) ** (k - 1) * math.exp(-2 * (k * lam) ** 2)
        s += term
        if abs(term) < 1e-12:
            break
    return float(min(max(s, 0.0), 1.0))


def _gammainc_upper_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) via series / continued
    fraction (standard numerical method, cf. Abramowitz & Stegun 6.5)."""
    if x < 0 or a <= 0:
        return float("nan")
    if x == 0:
        return 1.0
    gln = math.lgamma(a)
    if x < a + 1.0:
        # series for P(a,x), return 1 - P
        ap, summ, delt = a, 1.0 / a, 1.0 / a
        for _ in range(500):
            ap += 1.0
            delt *= x / ap
            summ += delt
            if abs(delt) < abs(summ) * 1e-14:
                break
        p = summ * math.exp(-x + a * math.log(x) - gln)
        return max(0.0, 1.0 - p)
    # continued fraction for Q(a,x) (Lentz's method)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < 1e-14:
            break
    return h * math.exp(-x + a * math.log(x) - gln)


def chi2_pvalue(stat: float, dof: int) -> float:
    if dof <= 0:
        return 1.0
    return float(_gammainc_upper_reg(dof / 2.0, stat / 2.0))


def ks_statistic(a: ValueCounts, b: ValueCounts) -> float:
    """Two-sample KS statistic: max |F_a − F_b| over the union of the
    observed values."""
    if not a.total or not b.total:
        return 0.0
    grid = np.union1d(a.keys, b.keys)
    return float(np.max(np.abs(a.cdf(grid) - b.cdf(grid))))


def psi_deciles(ref: ValueCounts, new: ValueCounts, *, bins: int = 10,
                eps: float = 1e-6) -> float:
    """Population stability index over ``bins`` reference-quantile bins
    (the standard scorecard-monitoring drift metric: PSI = Σ (p−q)·ln(p/q);
    industry convention flags > 0.2 as a significant shift, 0.1–0.2 as
    moderate).  The edges are the reference's lower discrete quantiles
    at i/bins (``sorted[ceil(i·n/bins) − 1]``); bin i is (edge_{i−1},
    edge_i], and an empty bin's share clamps to ``eps``."""
    if not ref.total or not new.total:
        return 0.0
    n = ref.total
    ranks = [-(-i * n // bins) for i in range(1, bins)]  # integer ceil(i·n/bins)
    edges = ref.keys[np.searchsorted(np.cumsum(ref.counts), ranks)]
    p = np.maximum(np.diff(np.concatenate([[0.0], ref.cdf(edges), [1.0]])), eps)
    q = np.maximum(np.diff(np.concatenate([[0.0], new.cdf(edges), [1.0]])), eps)
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def _topk_bins(ref: ValueCounts, new: ValueCounts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each side's token counts over k + 1 bins: the reference's top-k
    token ids (ties broken by the smaller id) and one tail bin."""
    top = np.argsort(-ref.counts, kind="stable")[:k]  # keys ascend: ties keep the smaller id
    r, n = ref.counts[top], new.at(ref.keys[top])
    return np.append(r, ref.total - r.sum()), np.append(n, new.total - n.sum())


def chi2_topk(ref: ValueCounts, new: ValueCounts, k: int = 100) -> tuple[float, float]:
    """Two-sample chi-square test of homogeneity (statistic, p_value):
    the 2 × (k + 1) contingency table of both sides' counts over
    :func:`_topk_bins`, with k degrees of freedom.  Both sides are
    samples, so a reference of any size leaves a same-distribution
    sample undrifted.  A bin empty on both sides is dropped."""
    if not ref.total or not new.total:
        return 0.0, 1.0
    obs = np.vstack(_topk_bins(ref, new, k)).astype(np.float64)
    obs = obs[:, obs.sum(axis=0) > 0]
    exp = obs.sum(axis=1, keepdims=True) * obs.sum(axis=0) / obs.sum()
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, chi2_pvalue(stat, obs.shape[1] - 1)


def psi_topk(ref: ValueCounts, new: ValueCounts, k: int = 100, *, eps: float = 1e-9) -> float:
    """PSI over the same k + 1 bins as :func:`chi2_topk`, each share
    clamped to ``eps`` and renormalised."""
    if not ref.total or not new.total:
        return 0.0
    p, q = _topk_bins(ref, new, k)
    p, q = np.maximum(p / ref.total, eps), np.maximum(q / new.total, eps)
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


# ---------------------------------------------------------------------------
# combined per-partition drift summary


#: the canonical byte layout of a SketchBundle: one Arrow IPC row
_BUNDLE_SCHEMA = pa.schema([("vocab", pa.int64()), ("n_tok", pa.list_(pa.float64())),
                            ("n_tok_count", pa.list_(pa.int64())), ("token", pa.list_(pa.int64())),
                            ("token_count", pa.list_(pa.int64()))])


def _one_list(values: np.ndarray) -> pa.ListArray:
    return pa.ListArray.from_arrays(pa.array([0, len(values)], type=pa.int32()), pa.array(values))


@dataclass
class SketchBundle:
    """What one partition contributes to the drift check: exact counts
    of the ``n_tok`` values (any number; NaN is skipped) and of the
    token ids in ``[0, vocab)`` (ids outside are not counted)."""

    vocab: int
    n_tok: ValueCounts
    tokens: ValueCounts

    @classmethod
    def empty(cls, vocab: int = 50_000) -> "SketchBundle":
        return cls(vocab, ValueCounts.of(np.empty(0, dtype=np.float64)),
                   ValueCounts.of(np.empty(0, dtype=np.int64)))

    @property
    def rows(self) -> int:
        """The number of ``n_tok`` values counted."""
        return self.n_tok.total

    def add_batch(self, n_tok: np.ndarray, flat_tokens: np.ndarray) -> None:
        n_tok = np.asarray(n_tok, dtype=np.float64)
        # + 0.0 turns -0.0 into 0.0, so the two zeros are one key
        self.n_tok.merge(ValueCounts.of(n_tok[~np.isnan(n_tok)] + 0.0))
        ok = (flat_tokens >= 0) & (flat_tokens < self.vocab)
        counts = np.bincount(flat_tokens if ok.all() else flat_tokens[ok])
        ids = np.flatnonzero(counts)
        self.tokens.merge(ValueCounts(ids, counts[ids]))

    def merge(self, other: "SketchBundle") -> "SketchBundle":
        if other.vocab != self.vocab:
            raise ValueError(f"drift summaries over different vocabularies: {self.vocab} vs {other.vocab}")
        self.n_tok.merge(other.n_tok)
        self.tokens.merge(other.tokens)
        return self

    def to_bytes(self) -> bytes:
        """Arrow IPC of one row: the vocab and both sorted count lists.
        Equal summaries give equal bytes."""
        t = pa.Table.from_arrays(
            [pa.array([self.vocab], type=pa.int64()),
             _one_list(self.n_tok.keys), _one_list(self.n_tok.counts),
             _one_list(self.tokens.keys), _one_list(self.tokens.counts)],
            schema=_BUNDLE_SCHEMA,
        )
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, _BUNDLE_SCHEMA) as w:
            w.write_table(t)
        return sink.getvalue().to_pybytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SketchBundle":
        """Parse ``to_bytes`` output; anything else raises ValueError."""
        try:
            t = pa.ipc.open_stream(raw).read_all()
        except pa.ArrowException as e:
            raise ValueError(f"not an exact drift summary ({e})") from None
        if t.schema != _BUNDLE_SCHEMA or t.num_rows != 1 or any(c.null_count for c in t.columns):
            raise ValueError(f"not an exact drift summary (schema {t.schema}, {t.num_rows} rows)")
        vocab = t["vocab"][0].as_py()
        cols = [t[c].combine_chunks().flatten().to_numpy() for c in _BUNDLE_SCHEMA.names[1:]]
        n_tok, tokens = ValueCounts(*cols[:2]), ValueCounts(*cols[2:])
        for vc in (n_tok, tokens):
            if len(vc.keys) != len(vc.counts) or np.any(vc.counts <= 0) or np.any(np.diff(vc.keys) <= 0):
                raise ValueError("malformed drift summary: keys must be sorted and distinct, counts positive")
        if len(tokens.keys) and (tokens.keys[0] < 0 or tokens.keys[-1] >= vocab):
            raise ValueError(f"malformed drift summary: token ids outside [0, {vocab})")
        return cls(vocab, n_tok, tokens)


#: the drift gate: chi-square and PSI over the reference's top TOPK
#: tokens plus a tail bin; a p-value below ALPHA or a PSI above
#: PSI_THRESHOLD flags drift
TOPK, ALPHA, PSI_THRESHOLD = 100, 0.01, 0.2


def drift_report(ref: SketchBundle, new: SketchBundle) -> dict:
    """KS and PSI on the ``n_tok`` counts; two-sample chi-square and PSI
    over the reference's top-k tokens plus a tail bin.  Every value is
    exact and finite; a side with zero rows reports no drift."""
    ks = ks_statistic(ref.n_tok, new.n_tok)
    ksp = ks_pvalue(ks, ref.rows, new.rows)
    c2, c2p = chi2_topk(ref.tokens, new.tokens, k=TOPK)
    psi = psi_deciles(ref.n_tok, new.n_tok)
    psi_tok = psi_topk(ref.tokens, new.tokens, k=TOPK)
    return {
        "ks_stat": ks,
        "ks_pvalue": ksp,
        "ks_drifted": bool(ksp < ALPHA),
        "chi2_stat": c2,
        "chi2_pvalue": c2p,
        "chi2_drifted": bool(c2p < ALPHA),
        "psi": psi,
        "psi_drifted": bool(psi > PSI_THRESHOLD),
        "psi_tokens": psi_tok,
        "psi_tokens_drifted": bool(psi_tok > PSI_THRESHOLD),
        "rows_ref": ref.rows,
        "rows_new": new.rows,
    }


def hll_idx_rank(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) for pre-hashed uint64 values — the single
    source of the HLL register math, shared by ``HyperLogLog.add_hashes``
    and the vectorized grouped partial (stages/distinct.py) so their
    estimates are bit-identical."""
    h = h.astype(np.uint64, copy=False)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h & np.uint64((1 << (64 - p)) - 1)
    rank = np.empty(len(h), dtype=np.uint8)
    zero = w == 0
    rank[zero] = 64 - p + 1
    nz = ~zero
    if nz.any():
        # floor(log2) is exact for ints < 2^53; 64-p <= 52 bits here
        hsb = np.floor(np.log2(w[nz].astype(np.float64))).astype(np.int64)
        rank[nz] = ((64 - p) - hsb).astype(np.uint8)
    return idx, rank


class HyperLogLog:
    """HyperLogLog cardinality sketch (Flajolet et al. 2007, with the
    small-range linear-counting correction from the original paper).

    2^p one-byte registers; fully mergeable (elementwise max), so a
    corpus-wide distinct count is per-batch partials + the shuffle-free
    coalescing tree (stages/distinct.py) — no groupby, no sort, ~4 KB
    per partial at p=12 (relative error ~1.04/sqrt(2^p) ≈ 1.6%).

    Input is PRE-HASHED uint64 values (hashutil / fmix64 upstream);
    vectorized throughout: the register index is the top ``p`` bits, the
    rank is the leading-zero count of the remaining bits via exact
    float64 log2 (valid because 64-p <= 52 bits for p >= 12).
    """

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12):
        if not 12 <= p <= 18:
            raise ValueError("p must be in [12, 18] (rank math needs 64-p <= 52)")
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        if len(h) == 0:
            return
        idx, rank = hll_idx_rank(h, self.p)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("cannot merge HLLs of different precision")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)  # p >= 7 constant
        inv = np.ldexp(1.0, -self.registers.astype(np.int64))  # 2^-reg, exact
        raw = alpha * m * m / inv.sum()
        if raw <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                return m * np.log(m / zeros)  # linear counting
        return raw

    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HyperLogLog":
        h = cls(raw[0])
        h.registers = np.frombuffer(raw[1:], dtype=np.uint8).copy()
        return h
