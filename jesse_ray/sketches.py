"""Mergeable distribution sketches + drift statistics (no scipy).

The reference has no distribution machinery (it validates one document at
a time); these are the corpus-scale extension demanded by the north star:
per-partition t-digest over ``n_tok`` and token-frequency sketches
(exact bincount while the vocab is bounded; count-min as the unbounded
scale path), merged via tree aggregation, then a two-sample KS test on
the digests and a chi-square test on top-k token frequencies.

All sketches are (a) built per Arrow batch with numpy kernels, (b)
mergeable (associative + commutative), (c) serializable to plain numpy
buffers so they ride the object store cheaply.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np


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

    # -- scale function k1 and its inverse bound --
    def _k(self, q: np.ndarray) -> np.ndarray:
        return (self.compression / (2 * math.pi)) * np.arcsin(2 * np.clip(q, 0, 1) - 1)

    def _k1(self, q: float) -> float:
        # scalar fast path for the sequential merge loop: a numpy
        # round-trip per centroid costs 20x (measured 13.5s of a 19s
        # sketch pass before this)
        q = 0.0 if q < 0.0 else (1.0 if q > 1.0 else q)
        return (self.compression / (2 * math.pi)) * math.asin(2.0 * q - 1.0)

    def add(self, values: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        if weights is None:
            weights = np.ones(len(values))
        self._buf.append(np.stack([values, np.asarray(weights, dtype=np.float64)]))
        self.count += float(weights.sum()) if weights is not None else len(values)
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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._flush()
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if len(self.means) == 0:
            return np.full(len(x), np.nan)
        cum = np.cumsum(self.weights) - self.weights / 2.0
        total = self.weights.sum()
        return np.clip(np.interp(x, self.means, cum / total, left=0.0, right=1.0), 0, 1)

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
# count-min sketch (unbounded-vocab scale path for token frequencies)


_CM_P = (1 << 61) - 1  # Mersenne prime for universal hashing


class CountMin:
    """Count-min sketch (Cormode & Muthukrishnan 2005): d rows of w
    counters, universal hashes (a*x + b) mod p mod w with fixed seeds so
    independently-built sketches are mergeable by elementwise addition."""

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

    def merge(self, other: "CountMin") -> "CountMin":
        # addition is a merge only over identical shapes and hashes
        if (self.w, self.d) != (other.w, other.d):
            raise ValueError(f"CountMin shapes differ: {self.d}x{self.w} vs {other.d}x{other.w}")
        if not (np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b)):
            raise ValueError("CountMin hash seeds differ")
        self.table += other.table
        self.total += other.total
        return self

    def to_bytes(self) -> bytes:
        return pickle.dumps({"w": self.w, "d": self.d, "t": self.table, "n": self.total}, protocol=4)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CountMin":
        d = pickle.loads(raw)
        cm = cls(d["w"], d["d"])
        cm.table, cm.total = d["t"], d["n"]
        return cm


# ---------------------------------------------------------------------------
# exact bounded-vocab frequency vector (mergeable; used while vocab fits)


class FreqVector:
    __slots__ = ("counts", "total")

    def __init__(self, vocab: int):
        self.counts = np.zeros(vocab, dtype=np.int64)
        self.total = 0

    def add(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys)
        ok = (keys >= 0) & (keys < len(self.counts))
        self.counts += np.bincount(keys[ok], minlength=len(self.counts))
        self.total += int(ok.sum())

    def merge(self, other: "FreqVector") -> "FreqVector":
        self.counts += other.counts
        self.total += other.total
        return self

    def topk(self, k: int) -> np.ndarray:
        return np.argsort(self.counts)[::-1][:k]

    def to_bytes(self) -> bytes:
        return pickle.dumps({"c": self.counts, "n": self.total}, protocol=4)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FreqVector":
        d = pickle.loads(raw)
        fv = cls(len(d["c"]))
        fv.counts, fv.total = d["c"], d["n"]
        return fv


# ---------------------------------------------------------------------------
# statistics (hand-rolled, public formulas)


def ks_statistic(d1: TDigest, d2: TDigest, grid: Optional[np.ndarray] = None) -> float:
    """Two-sample KS statistic estimated from two digests: max |CDF1-CDF2|
    over the union of centroid locations."""
    d1._flush()
    d2._flush()
    if grid is None:
        grid = np.unique(np.concatenate([d1.means, d2.means]))
    if len(grid) == 0:
        return 0.0
    return float(np.max(np.abs(d1.cdf(grid) - d2.cdf(grid))))


def ks_pvalue(d_stat: float, n1: float, n2: float) -> float:
    """Asymptotic two-sample KS p-value (Kolmogorov distribution,
    Smirnov's approximation as in standard references)."""
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


def chi2_topk(ref: FreqVector, new: FreqVector, k: int = 100) -> tuple[float, float]:
    """Chi-square goodness-of-fit of the new corpus's token distribution
    vs the reference's, over the reference's top-k tokens (+ tail bucket).
    Returns (statistic, p_value)."""
    top = ref.topk(k)
    ref_top = ref.counts[top].astype(np.float64)
    new_top = new.counts[top].astype(np.float64)
    ref_tail = float(ref.total - ref_top.sum())
    new_tail = float(new.total - new_top.sum())
    obs = np.append(new_top, max(new_tail, 0.0))
    exp_p = np.append(ref_top, max(ref_tail, 0.0))
    exp_p = exp_p / max(exp_p.sum(), 1.0)
    exp = exp_p * max(obs.sum(), 1.0)
    keep = exp > 1e-9
    stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    dof = int(keep.sum()) - 1
    return stat, chi2_pvalue(stat, dof)


# ---------------------------------------------------------------------------
# combined per-partition sketch bundle


@dataclass
class SketchBundle:
    """What one partition contributes to the drift check: a t-digest over
    ``n_tok``, an exact token-frequency vector (bounded vocab) and a
    count-min (the unbounded scale path)."""

    digest: TDigest
    freq: FreqVector
    cmin: CountMin
    rows: int = 0

    @classmethod
    def empty(cls, vocab: int = 50_000, compression: int = 200, cm_width: int = 16384) -> "SketchBundle":
        return cls(TDigest(compression), FreqVector(vocab), CountMin(cm_width), 0)

    def add_batch(self, n_tok: np.ndarray, flat_tokens: np.ndarray) -> None:
        self.digest.add(n_tok)
        # ONE bincount serves both the exact frequency vector and the
        # count-min update (keys = the ≤vocab nonzero ids, not the raw
        # token stream) — replaces a per-batch np.unique over millions
        # of tokens, whose sort-allocations dominated the stage under
        # this sandbox's cold-page tax
        vocab = len(self.freq.counts)
        ok = (flat_tokens >= 0) & (flat_tokens < vocab)
        in_range = flat_tokens if ok.all() else flat_tokens[ok]
        counts = np.bincount(in_range, minlength=vocab)
        self.freq.counts += counts
        self.freq.total += int(len(in_range))
        nz = np.flatnonzero(counts)
        if len(nz):
            self.cmin.add(nz, counts[nz])
        if len(in_range) != len(flat_tokens):
            self.cmin.add(flat_tokens[~ok])  # out-of-range tokens are rare
        self.rows += len(n_tok)

    def merge(self, other: "SketchBundle") -> "SketchBundle":
        self.digest.merge(other.digest)
        self.freq.merge(other.freq)
        self.cmin.merge(other.cmin)
        self.rows += other.rows
        return self

    def to_bytes(self) -> bytes:
        return pickle.dumps(
            {
                "d": self.digest.to_bytes(),
                "f": self.freq.to_bytes(),
                "c": self.cmin.to_bytes(),
                "r": self.rows,
            },
            protocol=4,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SketchBundle":
        d = pickle.loads(raw)
        return cls(
            TDigest.from_bytes(d["d"]),
            FreqVector.from_bytes(d["f"]),
            CountMin.from_bytes(d["c"]),
            d["r"],
        )


def psi_deciles(ref: TDigest, new: TDigest, *, bins: int = 10,
                eps: float = 1e-6) -> float:
    """Population stability index over ``bins`` reference-quantile bins
    (the standard scorecard-monitoring drift metric: PSI = Σ (p−q)·ln(p/q);
    industry convention flags > 0.2 as a significant shift, 0.1–0.2 as
    moderate).  Bin edges come from the REFERENCE digest's quantiles, so
    the reference mass is ~1/bins per bin by construction and the new
    corpus's mass per bin comes from its digest CDF at the same edges."""
    edges = np.array([ref.quantile(i / bins) for i in range(1, bins)])
    ref_cdf = np.concatenate([[0.0], ref.cdf(edges), [1.0]])
    new_cdf = np.concatenate([[0.0], new.cdf(edges), [1.0]])
    p = np.maximum(np.diff(ref_cdf), eps)
    q = np.maximum(np.diff(new_cdf), eps)
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def psi_freq(ref: FreqVector, new: FreqVector, *, eps: float = 1e-9) -> float:
    """PSI over the full token-frequency vectors (ids unseen on both
    sides clamp to the same eps and contribute exactly 0)."""
    p = ref.counts.astype(np.float64)
    q = new.counts.astype(np.float64)
    p = np.maximum(p / max(p.sum(), 1.0), eps)
    q = np.maximum(q / max(q.sum(), 1.0), eps)
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def drift_report(ref: SketchBundle, new: SketchBundle, *, topk: int = 100,
                 ks_alpha: float = 0.01, chi2_alpha: float = 0.01,
                 psi_threshold: float = 0.2) -> dict:
    ks = ks_statistic(ref.digest, new.digest)
    ksp = ks_pvalue(ks, ref.rows, new.rows)
    c2, c2p = chi2_topk(ref.freq, new.freq, k=topk)
    psi = psi_deciles(ref.digest, new.digest)
    psi_tok = psi_freq(ref.freq, new.freq)
    return {
        "ks_stat": ks,
        "ks_pvalue": ksp,
        "ks_drifted": bool(ksp < ks_alpha),
        "chi2_stat": c2,
        "chi2_pvalue": c2p,
        "chi2_drifted": bool(c2p < chi2_alpha),
        "psi": psi,
        "psi_drifted": bool(psi > psi_threshold),
        "psi_tokens": psi_tok,
        "psi_tokens_drifted": bool(psi_tok > psi_threshold),
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
