"""Text-analysis stages for training-data pipelines over ``documents``.

All stages are vectorized ``map_batches`` callables; the stateful ones
(compiled regex banks, stopword tables) are actor-pool classes with the
expensive setup in ``__init__`` — once per actor, never per batch.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.rounding import round_half_away

# ---------------------------------------------------------------------------
# token counting


def add_token_counts(ds: Dataset, text_col: str = "text", *, batch_size: int = 4096) -> Dataset:
    """Whitespace token count + a BPE-ish subword estimate (regex word/
    punct split), vectorized in Arrow."""

    def count(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        ws = pc.list_value_length(pc.split_pattern(txt, " "))
        # BPE-ish: count word/number/punct pieces (GPT-2-style pretokenizer
        # shape: runs of letters, runs of digits, single punct marks)
        pieces = pc.list_value_length(
            pc.extract_regex_span_all(txt, r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")
        ) if hasattr(pc, "extract_regex_span_all") else pc.count_substring_regex(
            txt, r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
        )
        return batch.append_column("n_words", ws).append_column(
            "n_pieces", pc.cast(pieces, pa.int64())
        )

    return ds.map_batches(count, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# quality scoring (length / punctuation / stopword ratios)

_STOPWORDS = (
    "the a an and or of to in is are was were be been it this that with as for on at by "
    "from not but they he she we you i his her its their our your"
).split()


class QualityScorer:
    """Per-document quality features, fully vectorized in Arrow.

    The stopword value-set and regex patterns are built once per worker
    (Ray caches the deserialized callable per process — the analogue of
    the reference's pre-compiled re_options discipline,
    src/jesse_lib.erl:127-139); per batch everything is pyarrow.compute
    kernels + one bincount per feature — no per-row Python.
    """

    def __init__(self):
        self.stop = pa.array(sorted(_STOPWORDS), type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        n = len(txt)
        n_chars = pc.utf8_length(txt)
        n_alpha = pc.utf8_length(pc.replace_substring_regex(txt, "[^A-Za-z]", ""))
        n_punct = pc.count_substring_regex(txt, r"[^\w\s]")
        # words: [A-Za-z']+ runs, flattened with parent indices
        words = pc.extract_regex_all(txt, r"(?P<w>[A-Za-z']+)") if hasattr(pc, "extract_regex_all") else None
        if words is not None:
            flat = pc.list_flatten(words)
            flat = pc.struct_field(flat, "w") if pa.types.is_struct(flat.type) else flat
            parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        else:  # older pyarrow: split on the complement
            split = pc.split_pattern_regex(pc.fill_null(txt, ""), r"[^A-Za-z']+")
            flat0 = pc.list_flatten(split)
            parent0 = pc.list_parent_indices(split).to_numpy(zero_copy_only=False)
            keep = pc.greater(pc.utf8_length(flat0), 0).to_numpy(zero_copy_only=False)
            flat = flat0.filter(pa.array(keep))
            parent = parent0[keep]
        n_words = np.bincount(parent, minlength=n).astype(np.int64)
        is_stop = pc.is_in(pc.utf8_lower(flat), value_set=self.stop).to_numpy(zero_copy_only=False)
        n_stop = np.bincount(parent[is_stop], minlength=n).astype(np.int64)
        wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        sum_wlen = np.bincount(parent, weights=wlen, minlength=n)
        nc = np.maximum(n_chars.to_numpy(zero_copy_only=False), 1).astype(np.float64)
        nw = np.maximum(n_words, 1).astype(np.float64)
        return (
            batch.append_column("q_len", n_chars.cast(pa.int64()))
            .append_column("q_alpha_ratio", pa.array(n_alpha.to_numpy(zero_copy_only=False) / nc))
            .append_column("q_punct_ratio", pa.array(n_punct.to_numpy(zero_copy_only=False) / nc))
            .append_column("q_stop_ratio", pa.array(n_stop / nw))
            .append_column(
                "q_mean_word_len",
                pa.array(np.where(n_words > 0, sum_wlen / nw, 0.0)),
            )
        )

    @staticmethod
    def apply(ds: Dataset, *, batch_size: Optional[int] = None, **_ignored) -> Dataset:
        return ds.map_batches(
            QualityScorer(),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=batch_size,
        )


# ---------------------------------------------------------------------------
# language identification (n-gram / stopword heuristic — no models in sandbox)

_LANG_MARKERS: dict[str, list[str]] = {
    "en": [" the ", " and ", " of ", " to ", " is "],
    "de": [" der ", " die ", " und ", " ist ", " das "],
    "fr": [" le ", " la ", " les ", " est ", " une "],
    "es": [" el ", " los ", " es ", " una ", " que "],
    "it": [" il ", " che ", " di ", " una ", " per "],
}


class LangId:
    """Actor-pool heuristic language ID: score = count of language-marker
    function words per language; argmax wins, 'und' (undetermined) when no
    marker hits.  Deterministic, model-free."""

    def __init__(self):
        self.markers = {lang: [re.escape(m) for m in ms] for lang, ms in _LANG_MARKERS.items()}
        self.rx = {lang: re.compile("|".join(ms)) for lang, ms in self.markers.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        txt = " " + batch["text"].astype(str).str.lower() + " "
        scores = np.zeros((len(batch), len(self.rx)), dtype=np.int64)
        langs = list(self.rx)
        for j, lang in enumerate(langs):
            scores[:, j] = txt.str.count(self.rx[lang]).to_numpy()
        best = scores.argmax(axis=1)
        hit = scores.max(axis=1) > 0
        batch = batch.copy()
        batch["lang_pred"] = np.where(hit, np.asarray(langs, dtype=object)[best], "und")
        return batch

    @staticmethod
    def apply(ds: Dataset, *, concurrency: int = 4, batch_size: int = 2048) -> Dataset:
        return ds.map_batches(
            LangId, batch_format="pandas", batch_size=batch_size, concurrency=concurrency
        )


# ---------------------------------------------------------------------------
# document fingerprinting (rolling hash)


def add_fingerprints(ds: Dataset, text_col: str = "text", *, window: int = 8, batch_size: int = 4096) -> Dataset:
    """Deterministic 64-bit document fingerprint: min of rolling
    (Rabin-Karp-style) hashes over byte windows — stable under small
    position shifts, usable for winnowing-style near-dup candidates."""

    def fp(batch: pa.Table) -> pa.Table:
        out = np.zeros(batch.num_rows, dtype=np.uint64)
        texts = batch[text_col].to_pylist()
        B = np.uint64(1000003)
        for i, t in enumerate(texts):
            b = np.frombuffer((t or "").encode("utf-8", "ignore"), dtype=np.uint8)
            if len(b) < window:
                h = np.uint64(0)
                for x in b:
                    h = h * B + np.uint64(x)
                out[i] = h
                continue
            # vectorized rolling hash: polynomial over each window
            powers = B ** np.arange(window - 1, -1, -1, dtype=np.uint64)
            mat = np.lib.stride_tricks.sliding_window_view(b, window).astype(np.uint64)
            hashes = (mat * powers).sum(axis=1)
            out[i] = hashes.min()
        return batch.append_column("fingerprint", pa.array(out, type=pa.uint64()))

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# repetition stats (Gopher-style quality rules, Rae et al. 2021: documents
# dominated by a single repeated word/n-gram are low-quality)


def add_repetition_stats(ds: Dataset, text_col: str = "text", *, batch_size: int = 4096) -> Dataset:
    """Per-document repetition features as INTEGERS (exact, no float
    discipline needed): ``top_word_cnt`` (occurrences of the most
    frequent word), ``n_words`` (total), ``n_distinct_words``.

    The Gopher-style gate "most frequent word covers ≥ X% of the doc"
    is then the integer predicate ``100*top_word_cnt >= X*n_words``.

    Vectorized: one space-split per batch (matching DuckDB
    ``string_split(text, ' ')`` for the oracle twin), per-(doc, word)
    counts via Arrow's C++ ``Table.group_by``, then numpy segment max /
    bincount — no per-row Python."""

    def rep(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        words = pc.split_pattern(pc.fill_null(txt, ""), " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        n_words = np.bincount(parent, minlength=n).astype(np.int64)
        pairs = pa.table({"p": pa.array(parent, type=pa.int64()), "w": flat})
        cnt = pairs.group_by(["p", "w"]).aggregate([([], "count_all")])
        p = cnt["p"].to_numpy(zero_copy_only=False)
        c = cnt["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        top = np.zeros(n, dtype=np.int64)
        np.maximum.at(top, p, c)
        n_distinct = np.bincount(p, minlength=n).astype(np.int64)
        return (
            batch.append_column("top_word_cnt", pa.array(top, type=pa.int64()))
            .append_column("n_words", pa.array(n_words, type=pa.int64()))
            .append_column("n_distinct_words", pa.array(n_distinct, type=pa.int64()))
        )

    return ds.map_batches(rep, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


#: Gopher stop words (Rae et al. 2021, "Scaling Language Models:
#: Methods, Analysis & Insights from Training Gopher", §A1.1: a doc
#: must contain ≥2 of these to pass the quality filter).
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def add_gopher_stats(
    ds: Dataset,
    text_col: str = "text",
    *,
    min_words: int = 50,
    max_words: int = 100_000,
    min_mean_word_len: int = 3,
    max_mean_word_len: int = 10,
    batch_size: Optional[int] = None,
) -> Dataset:
    """Gopher-style document quality rules (Rae et al. 2021 §A1.1) as
    INTEGER-EXACT per-document stats plus the combined ``gopher_pass``
    gate:

    - ``n_words`` in [min_words, max_words] (space-split, DuckDB
      ``string_split(text, ' ')`` parity — same convention as
      :func:`add_repetition_stats`);
    - mean word length in [min,max]: the integer predicate
      ``min*n_words <= sum_word_len <= max*n_words``;
    - symbol-to-word ratio ≤ 0.1 for ``#`` and ``...`` (the ellipsis
      form): ``10*n_sym <= n_words``;
    - ≥80% of words contain an alphabetic character:
      ``10*n_alpha_words >= 8*n_words``;
    - ≥2 Gopher stop words present (:data:`GOPHER_STOPWORDS`).

    All stats are exact integers so the SQL twin hashes identically (no
    float discipline).  Vectorized: one split per batch, flat-word
    regex/hash-probe kernels + ``np.bincount`` per rule — no per-row
    Python."""
    stop_arr = pa.array(GOPHER_STOPWORDS, type=pa.string())

    def stats(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        words = pc.split_pattern(txt, " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        n_words = np.bincount(parent, minlength=n).astype(np.int64)
        wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        sum_word_len = np.bincount(parent, weights=wlen, minlength=n).astype(np.int64)
        alpha = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(zero_copy_only=False)
        n_alpha = np.bincount(parent, weights=alpha, minlength=n).astype(np.int64)
        stop = pc.is_in(pc.utf8_lower(flat), value_set=stop_arr).to_numpy(zero_copy_only=False)
        n_stop = np.bincount(parent, weights=stop, minlength=n).astype(np.int64)
        n_sym = (
            pc.count_substring(txt, "#").to_numpy(zero_copy_only=False).astype(np.int64)
            + pc.count_substring(txt, "...").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        ok = (
            (n_words >= min_words)
            & (n_words <= max_words)
            & (min_mean_word_len * n_words <= sum_word_len)
            & (sum_word_len <= max_mean_word_len * n_words)
            & (10 * n_sym <= n_words)
            & (10 * n_alpha >= 8 * n_words)
            & (n_stop >= 2)
        )
        return (
            batch.append_column("n_words", pa.array(n_words, type=pa.int64()))
            .append_column("sum_word_len", pa.array(sum_word_len, type=pa.int64()))
            .append_column("n_alpha_words", pa.array(n_alpha, type=pa.int64()))
            .append_column("n_stop_words", pa.array(n_stop, type=pa.int64()))
            .append_column("n_sym", pa.array(n_sym, type=pa.int64()))
            .append_column("gopher_pass", pa.array(ok.astype(np.int64), type=pa.int64()))
        )

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def add_dup_line_stats(
    ds: Dataset,
    text_col: str = "text",
    *,
    sep: str = "\n",
    max_dup_char_frac_pct: int = 20,
    batch_size: Optional[int] = None,
) -> Dataset:
    """WITHIN-document duplicate-line stats (the Gopher/MassiveText
    "fraction of characters in duplicate lines" repetition rule — Rae et
    al. 2021 §A1.1 — complementing the CROSS-document scrub in
    ``dedup.dedup_lines``): per document, the number of line instances
    whose value occurs ≥2 times in that document and the characters they
    cover, all as exact integers; ``dup_line_pass`` is the integer gate
    ``100*chars_dup <= pct*chars_total``.

    ``sep`` parameterizes line granularity (use ``" "`` for single-line
    corpora — word granularity, same semantics).  Vectorized: one split,
    one Arrow ``group_by([doc, line])`` with count+char sums, then
    ``np.bincount`` per doc."""

    def stats(batch: pa.Table) -> pa.Table:
        txt = _combine_col(batch[text_col])
        lines = pc.split_pattern(pc.fill_null(txt, ""), sep)
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines)
        n = batch.num_rows
        g = pa.table(
            {"p": parent, "line": flat, "len": pc.utf8_length(flat).cast(pa.int64())}
        ).group_by(["p", "line"]).aggregate([("len", "sum"), ([], "count_all")])
        p = g["p"].to_numpy(zero_copy_only=False)
        cnt = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        chars = g["len_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        dup = cnt >= 2
        n_lines = np.bincount(p, weights=cnt, minlength=n).astype(np.int64)
        n_dup = np.bincount(p[dup], weights=cnt[dup], minlength=n).astype(np.int64)
        c_tot = np.bincount(p, weights=chars, minlength=n).astype(np.int64)
        c_dup = np.bincount(p[dup], weights=chars[dup], minlength=n).astype(np.int64)
        ok = 100 * c_dup <= max_dup_char_frac_pct * c_tot
        return (
            batch.append_column("n_lines", pa.array(n_lines, type=pa.int64()))
            .append_column("n_dup_lines", pa.array(n_dup, type=pa.int64()))
            .append_column("chars_total", pa.array(c_tot, type=pa.int64()))
            .append_column("chars_dup", pa.array(c_dup, type=pa.int64()))
            .append_column("dup_line_pass", pa.array(ok.astype(np.int64), type=pa.int64()))
        )

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# scrubbing / redaction (PII patterns + term blocklists)

#: default PII bank — public, conventional patterns (email / ipv4 /
#: NANP-style phone).  All RE2-compatible so Arrow and the DuckDB twin
#: (also RE2) match byte-for-byte.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "[IP]"),
    ("phone", r"\b[0-9]{3}[-.][0-9]{3}[-.][0-9]{4}\b", "[PHONE]"),
]


class Scrubber:
    """Actor-pool redaction stage: a bank of (name, RE2 pattern,
    replacement) rules applied in order to the text column; per-rule hit
    counts appended as ``scrub_<name>`` int64 columns and the redacted
    text as ``<text_col>_scrubbed``.

    Patterns are validated/held once per actor in ``__init__``; per
    batch the work is two RE2 kernels per rule
    (``count_substring_regex`` + ``replace_substring_regex``) — no
    Python row loop.  For a word blocklist pass
    ``[("block", r"\\b(bad1|bad2)\\b", "[X]")]``."""

    def __init__(self, patterns: list[tuple[str, str, str]] | None = None, text_col: str = "text"):
        self.patterns = list(patterns) if patterns is not None else list(PII_PATTERNS)
        self.text_col = text_col
        for _name, pat, _repl in self.patterns:  # fail fast at actor start
            re.compile(pat)

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = batch[self.text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        out = txt
        for name, pat, repl in self.patterns:
            hits = pc.count_substring_regex(out, pat).cast(pa.int64())
            out = pc.replace_substring_regex(out, pat, repl)
            batch = batch.append_column(f"scrub_{name}", hits)
        return batch.append_column(f"{self.text_col}_scrubbed", out)

    @staticmethod
    def apply(ds: Dataset, patterns: list[tuple[str, str, str]] | None = None, *,
              text_col: str = "text", concurrency: int = 4, batch_size: int = 2048) -> Dataset:
        return ds.map_batches(
            Scrubber, fn_constructor_args=(patterns, text_col),
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=batch_size, concurrency=concurrency,
        )


# ---------------------------------------------------------------------------
# document frequency (vocabulary / IDF building block)


def document_frequency_topk(
    ds: Dataset,
    *,
    k: int = 20,
    text_col: str = "text",
    doc_col: str = "doc_id",
    n_parts: int = 64,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Top-k words by DOCUMENT frequency (number of documents containing
    the word — the IDF denominator of TF-IDF).  Fully vectorized map
    side: Arrow lowercase + RE2 ``\\W+`` split (DuckDB's regex engine is
    also RE2, so the oracle twin tokenizes identically) → per-batch
    distinct (doc, word) via ``group_by`` (exact globally because each
    document's row lives in exactly one batch) → per-batch word counts.
    The shuffle then carries (word, partial df) rows on a coarse
    word-hash partition and the driver merges ≤ n_parts × k candidates
    (relational.topk_from_partials)."""
    from jesse_ray.pipelines.relational import topk_from_partials

    def partial(batch: pa.Table) -> pa.Table:
        doc, flat, _parent = _doc_words(batch, text_col, doc_col)
        distinct = pa.table({"doc": doc, "elem": flat}).group_by(["doc", "elem"]).aggregate([])
        g = distinct.select(["elem"]).group_by("elem").aggregate([([], "count_all")])
        return g.rename_columns(["elem", "__pc"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    return topk_from_partials(partials, k, elem_alias="word", count_alias="df", n_parts=n_parts)


def _combine_col(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _doc_words(batch: pa.Table, text_col: str, doc_col: str):
    """(doc, word, parent) arrays under the df/tf-idf tokenization
    convention: lowercase, RE2 ``\\W+`` split, empty tokens dropped
    (DuckDB's regexp engine is also RE2 — twins tokenize identically)."""
    text = _combine_col(batch[text_col])
    low = pc.utf8_lower(pc.fill_null(text, ""))
    words = pc.split_pattern_regex(low, r"\W+")
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words)
    nonempty = pc.greater(pc.utf8_length(flat), 0)
    doc = _combine_col(batch[doc_col]).take(parent)
    return doc.filter(nonempty), flat.filter(nonempty), parent.filter(nonempty)


def document_frequencies(
    ds: Dataset,
    *,
    text_col: str = "text",
    doc_col: str = "doc_id",
    n_parts: int = 64,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """FULL ``(word, df)`` document-frequency table (the IDF model for
    TF-IDF scoring) — :func:`document_frequency_topk` without the top-k
    cut.  Same two-phase shape: per-batch distinct (doc, word) then word
    counts (exact globally because a document's row lives in exactly one
    batch), coarse word-hash partition merge; the word vocabulary is
    bounded, so returning it to the driver is the standard broadcastable
    -model assumption (cf. :func:`unigram_model`)."""
    def partial(batch: pa.Table) -> pa.Table:
        doc, flat, _parent = _doc_words(batch, text_col, doc_col)
        distinct = pa.table({"doc": doc, "word": flat}).group_by(["doc", "word"]).aggregate([])
        g = distinct.select(["word"]).group_by("word").aggregate([([], "count_all")])
        return g.rename_columns(["word", "__pc"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("word", sort=False)["__pc"].sum().reset_index()
        return m.rename(columns={"__pc": "df"})

    merged = map_key_buckets(partials, ["word"], merge, n_parts=n_parts)
    out = pa.concat_tables(merged.iter_batches(batch_format="pyarrow"))
    return pa.table({"word": out["word"], "df": out["df"].cast(pa.int64())})


class TfIdfTopTerm:
    """Per-document top TF-IDF term under a broadcast (word, idf)
    model: per-batch tf via one Arrow ``group_by``, one hash probe for
    idf, then a vectorized per-document argmax (sort + run-length first
    row — no per-row Python).  Scores are rounded to 6 decimals BEFORE
    ranking so the ordering is reproducible across engines (ties break
    by word ascending)."""

    def __init__(self, model_ref, text_col: str, doc_col: str):
        self._model_ref = model_ref
        self._model = None
        self.text_col = text_col
        self.doc_col = doc_col

    def _resolve(self):
        import ray

        m = self._model_ref
        self._model = ray.get(m) if not isinstance(m, tuple) else m

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._model is None:
            self._resolve()
        words_arr, idf = self._model
        doc, flat, parent = _doc_words(batch, self.text_col, self.doc_col)
        tf = pa.table({"p": parent, "doc": doc, "word": flat}).group_by(
            ["p", "doc", "word"]
        ).aggregate([([], "count_all")])
        idx = pc.index_in(tf["word"], value_set=words_arr)
        w_idf = np.where(
            idx.is_valid().to_numpy(zero_copy_only=False),
            idf[pc.fill_null(idx, 0).to_numpy(zero_copy_only=False).astype(np.int64)],
            0.0,  # out-of-model words carry no signal
        )
        score = tf["count_all"].to_numpy(zero_copy_only=False).astype(np.float64) * w_idf
        t = pa.table(
            {
                "doc_id": tf["doc"],
                "top_word": tf["word"],
                "score": pa.array(round_half_away(score, 6), type=pa.float64()),
                "__p": tf["p"],
            }
        ).sort_by([("__p", "ascending"), ("score", "descending"), ("top_word", "ascending")])
        if t.num_rows == 0:
            return t.drop_columns(["__p"])
        p = _combine_col(t["__p"]).to_numpy(zero_copy_only=False)
        first = np.zeros(len(p), dtype=bool)
        first[0] = True
        first[1:] = p[1:] != p[:-1]
        return t.filter(pa.array(first)).drop_columns(["__p"])


def add_tfidf_top_term(
    ds: Dataset,
    df_table: pa.Table,
    n_docs: int,
    *,
    text_col: str = "text",
    doc_col: str = "doc_id",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Top TF-IDF term per document: ``score = tf(w, d) * ln(N / df(w))``
    with ``df_table`` from :func:`document_frequencies` broadcast once.
    Documents with no words under the tokenization drop out (same as the
    SQL twin's join)."""
    import ray

    df = df_table["df"].to_numpy(zero_copy_only=False).astype(np.float64)
    idf = np.log(float(n_docs) / df)
    payload = (_combine_col(df_table["word"]), idf)
    ref = ray.put(payload) if ray.is_initialized() else payload
    return ds.map_batches(
        TfIdfTopTerm(ref, text_col, doc_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# unigram language-model quality scoring (CCNet-style perplexity proxy,
# Wenzek et al. 2020 — here a unigram model, so the model is a word-count
# table and the score is exactly SQL-checkable)


def unigram_model(ds: Dataset, text_col: str = "text", *, n_parts: int = 64,
                  batch_size: int = 16384) -> pa.Table:
    """Corpus-wide word-count table ``(word, cnt)`` — the unigram LM.

    Two-phase: per-batch counts via Arrow's C++ ``group_by`` (combiner),
    then a coarse word-hash partition merge — the document_frequency
    shuffle shape.  The FULL vocabulary is returned to the driver: a
    word vocab is bounded (~1e6-1e8 even for a 100 TB corpus — the
    standard assumption that makes n-gram LM scoring broadcastable,
    cf. CCNet), unlike the corpus itself."""
    def partial(batch: pa.Table) -> pa.Table:
        text = _combine_col(batch[text_col])
        words = pc.split_pattern(pc.fill_null(text, ""), " ")
        flat = pc.list_flatten(words)
        g = pa.table({"word": flat}).group_by("word").aggregate([([], "count_all")])
        return g.rename_columns(["word", "__pc"])

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("word", sort=False)["__pc"].sum().reset_index()
        return m.rename(columns={"__pc": "cnt"})

    merged = map_key_buckets(partials, ["word"], merge, n_parts=n_parts)
    out = pa.concat_tables(merged.iter_batches(batch_format="pyarrow"))
    return pa.table({"word": out["word"], "cnt": out["cnt"].cast(pa.int64())})


class UnigramScorer:
    """Per-document mean log-probability under a broadcast unigram
    model.  The model (word array + logprob array) is ``ray.put`` once;
    per batch the lookup is one C++ hash probe (``pc.index_in``) and one
    weighted bincount — no Python per row.  Out-of-vocabulary words get
    ``ln(1/(total+1))`` (documented add-one floor)."""

    def __init__(self, model_ref, text_col: str, out_col: str):
        self._model_ref = model_ref
        self._model = None
        self.text_col = text_col
        self.out_col = out_col

    def _resolve(self):
        import ray

        m = self._model_ref
        m = ray.get(m) if not isinstance(m, tuple) else m
        words, lp, oov = m
        self._model = (words, lp, oov)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._model is None:
            self._resolve()
        words_arr, lp, oov = self._model
        text = _combine_col(batch[self.text_col])
        words = pc.split_pattern(pc.fill_null(text, ""), " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        idx = pc.fill_null(pc.index_in(flat, value_set=words_arr), len(lp) - 1)
        w_lp = lp[idx.to_numpy(zero_copy_only=False).astype(np.int64)]
        # oov slot is appended at lp[-1]
        sums = np.bincount(parent, weights=w_lp, minlength=n)
        cnts = np.maximum(np.bincount(parent, minlength=n), 1)
        return batch.append_column(self.out_col, pa.array(sums / cnts, type=pa.float64()))


def add_unigram_logprob(ds: Dataset, model: pa.Table, *, text_col: str = "text",
                        out_col: str = "mean_lp", batch_size: int = 4096) -> Dataset:
    """Score every document with the mean ln P(word) under ``model``
    (a ``(word, cnt)`` table from :func:`unigram_model`)."""
    import ray

    cnt = model["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
    total = cnt.sum()
    lp = np.log(cnt / total)
    oov = np.log(1.0 / (total + 1.0))
    words = _combine_col(model["word"])
    payload = (words, np.concatenate([lp, [oov]]), oov)
    ref = ray.put(payload) if ray.is_initialized() else payload
    return ds.map_batches(
        UnigramScorer(ref, text_col, out_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )


def _batch_bigrams(batch: pa.Table, text_col: str):
    """(w1, w2, parent) arrays of consecutive-word pairs per document —
    one split + two zero-copy slices, no per-row Python."""
    text = _combine_col(batch[text_col])
    words = pc.split_pattern(pc.fill_null(text, ""), " ")
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    if len(flat) < 2:
        empty = pa.array([], type=pa.string())
        return empty, empty, np.empty(0, dtype=np.int64)
    same = pa.array(parent[1:] == parent[:-1])
    w1 = flat.slice(0, len(flat) - 1).filter(same)
    w2 = flat.slice(1).filter(same)
    return w1, w2, parent[:-1][parent[1:] == parent[:-1]]


def bigram_model(ds: Dataset, text_col: str = "text", *, n_parts: int = 64,
                 batch_size: int = 16384) -> pa.Table:
    """Corpus-wide bigram-count table ``(w1, w2, cnt)`` — the bigram LM
    (the KenLM-style n-gram scoring shape, n=2 so the model stays an
    exactly-SQL-checkable count table).  Same two-phase build as
    :func:`unigram_model`: per-batch Arrow ``group_by`` combiner, coarse
    key-hash partition merge; the bigram vocabulary is bounded (the
    standard n-gram-LM broadcastability assumption), unlike the corpus."""
    def partial(batch: pa.Table) -> pa.Table:
        w1, w2, _ = _batch_bigrams(batch, text_col)
        g = pa.table({"w1": w1, "w2": w2}).group_by(["w1", "w2"]).aggregate([([], "count_all")])
        return g.rename_columns(["w1", "w2", "__pc"])

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["w1", "w2"], sort=False)["__pc"].sum().reset_index()
        return m.rename(columns={"__pc": "cnt"})

    merged = map_key_buckets(partials, ["w1", "w2"], merge, n_parts=n_parts)
    out = pa.concat_tables(merged.iter_batches(batch_format="pyarrow"))
    return pa.table({"w1": out["w1"], "w2": out["w2"], "cnt": out["cnt"].cast(pa.int64())})


class BigramScorer:
    """Per-document mean conditional log-probability
    ``mean ln P(w_i | w_{i-1})`` under a broadcast bigram model, where
    ``P(w2|w1) = cnt(w1,w2) / cnt(w1,*)`` (prefix-count denominator, so
    the conditionals normalize).  One hash probe (``pc.index_in`` on the
    joined key) + one weighted bincount per batch; unseen bigrams score
    the documented floor ``ln(1/(total_bigrams+1))``.  Documents with
    no bigrams (< 2 words) score 0.0."""

    def __init__(self, model_ref, text_col: str, out_col: str):
        self._model_ref = model_ref
        self._model = None
        self.text_col = text_col
        self.out_col = out_col

    def _resolve(self):
        import ray

        m = self._model_ref
        self._model = ray.get(m) if not isinstance(m, tuple) else m

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._model is None:
            self._resolve()
        keys_arr, lp, floor = self._model
        w1, w2, parent = _batch_bigrams(batch, self.text_col)
        n = batch.num_rows
        if len(w1):
            key = pc.binary_join_element_wise(w1, w2, "\x1f")
            idx = pc.fill_null(pc.index_in(key, value_set=keys_arr), len(lp) - 1)
            b_lp = lp[idx.to_numpy(zero_copy_only=False).astype(np.int64)]
            sums = np.bincount(parent, weights=b_lp, minlength=n)
            cnts = np.bincount(parent, minlength=n)
        else:
            sums = np.zeros(n)
            cnts = np.zeros(n, dtype=np.int64)
        mean = sums / np.maximum(cnts, 1)
        return batch.append_column(self.out_col, pa.array(mean, type=pa.float64()))


def add_bigram_logprob(ds: Dataset, model: pa.Table, *, text_col: str = "text",
                       out_col: str = "mean_lp2", batch_size: int = 4096) -> Dataset:
    """Score every document with its mean bigram conditional logprob
    under ``model`` (a ``(w1, w2, cnt)`` table from
    :func:`bigram_model`).  The per-prefix totals are derived from the
    model itself on the driver (one small group_by over the model)."""
    import ray

    pfx = model.group_by("w1").aggregate([("cnt", "sum")])
    cnt = model["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
    total = cnt.sum()
    p_idx = pc.index_in(model["w1"], value_set=_combine_col(pfx["w1"]))
    p_cnt = pfx["cnt_sum"].to_numpy(zero_copy_only=False).astype(np.float64)[
        p_idx.to_numpy(zero_copy_only=False).astype(np.int64)
    ]
    lp = np.log(cnt / p_cnt)
    floor = np.log(1.0 / (total + 1.0))
    keys = pc.binary_join_element_wise(
        _combine_col(model["w1"]), _combine_col(model["w2"]), "\x1f"
    )
    payload = (keys, np.concatenate([lp, [floor]]), floor)
    ref = ray.put(payload) if ray.is_initialized() else payload
    return ds.map_batches(
        BigramScorer(ref, text_col, out_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )


def normalize_text(
    ds: Dataset,
    text_col: str = "text",
    *,
    out_col: str = "text_norm",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Canonical text normalization before hashing/dedup (the standard
    near-dup preprocessing: Lee et al. 2022 "Deduplicating Training
    Data Makes Language Models Better" normalizes case/punct/space
    before MinHash): lowercase → non-alphanumerics to spaces →
    collapse runs of spaces → trim.  All RE2-executable Arrow kernels
    (DuckDB's regexp engine is also RE2, so the SQL twin normalizes
    byte-identically)."""

    def norm(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        low = pc.utf8_lower(pc.fill_null(text, ""))
        stripped = pc.replace_substring_regex(low, r"[^a-z0-9 ]", " ")
        collapsed = pc.replace_substring_regex(stripped, r" +", " ")
        trimmed = pc.utf8_trim(collapsed, " ")
        return batch.append_column(out_col, trimmed)

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def add_char_entropy(
    ds: Dataset,
    *,
    text_col: str = "text",
    out_col: str = "char_entropy",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Per-document Shannon entropy over CODEPOINTS (bits/char) — the
    classic cheap gibberish/boilerplate filter (low entropy = repeated
    filler, very high = random noise).

    Vectorized with no per-row Python: the batch's UTF-8 bytes are read
    straight off the Arrow values buffer (one slice, one ``decode`` +
    ``utf-32-le`` re-encode per BATCH — both single C passes), per-doc
    codepoint counts come from the Arrow ``utf8_length`` kernel, and
    per-(doc, codepoint) counting is one ``np.unique`` over
    ``doc_idx << 21 | codepoint`` packed keys (codepoints < 0x110000
    fit in 21 bits).  Empty/null text scores 0.0."""

    def ent(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(_combine_col(batch[text_col]), "")
        n = len(text)
        lens = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.zeros(n, dtype=np.float64)
        if lens.sum() > 0:
            offs = np.frombuffer(text.buffers()[1], dtype=np.int32)
            data = np.frombuffer(text.buffers()[2], dtype=np.uint8)
            b0, b1 = offs[text.offset], offs[text.offset + n]
            cps = np.frombuffer(
                data[b0:b1].tobytes().decode("utf-8").encode("utf-32-le"),
                dtype=np.uint32,
            ).astype(np.int64)
            parent = np.repeat(np.arange(n, dtype=np.int64), lens)
            uk, cnt = np.unique((parent << np.int64(21)) | cps, return_counts=True)
            doc = (uk >> np.int64(21)).astype(np.int64)
            p = cnt / lens[doc]
            np.add.at(out, doc, -p * np.log2(p))
        return batch.append_column(out_col, pa.array(out, type=pa.float64()))

    return ds.map_batches(ent, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def dsir_log_ratio_model(
    target: Dataset,
    source: Dataset,
    *,
    text_col: str = "text",
) -> pa.Table:
    """DSIR importance-weight model (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling" — method only):
    per-word ``log_ratio = ln p_target(w) - ln p_source(w)`` with add-1
    smoothing over the UNION vocabulary.  Both sides are built with the
    :func:`unigram_model` two-phase shuffle (combiner before the coarse
    word-hash merge); the driver-side outer join is over the bounded
    vocabulary, never the corpus.  DSIR proper hashes n-grams into 2^k
    buckets to bound the feature space; with a bounded word vocab the
    exact-word variant is the same estimator and stays SQL-checkable."""
    ct = unigram_model(target, text_col)
    cs = unigram_model(source, text_col)
    t = ct.to_pandas().set_index("word")["cnt"]
    s = cs.to_pandas().set_index("word")["cnt"]
    vocab = t.index.union(s.index)
    tc = t.reindex(vocab, fill_value=0).to_numpy(dtype=np.float64)
    sc = s.reindex(vocab, fill_value=0).to_numpy(dtype=np.float64)
    T, S, V = tc.sum(), sc.sum(), float(len(vocab))
    lr = np.log((tc + 1.0) / (T + V)) - np.log((sc + 1.0) / (S + V))
    return pa.table(
        {
            "word": pa.array(vocab, type=pa.string()),
            "log_ratio": pa.array(lr, type=pa.float64()),
            # OOV floor for words in neither side (possible when scoring
            # a third corpus): both numerators are the +1 smoothing mass.
            "__oov": pa.array(np.full(len(vocab), np.log(1.0 / (T + V)) - np.log(1.0 / (S + V)))),
        }
    )


class DsirScorer:
    """Per-document DSIR importance log-weight under a broadcast
    (word, log_ratio) model: sum of log_ratio over word OCCURRENCES
    (DSIR's feature-count dot product).  One ``pc.index_in`` hash probe
    + one weighted bincount per batch — no Python per row."""

    def __init__(self, model_ref, text_col: str, out_col: str):
        self._model_ref = model_ref
        self._model = None
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._model is None:
            import ray

            m = self._model_ref
            self._model = ray.get(m) if not isinstance(m, tuple) else m
        words_arr, lr = self._model
        text = _combine_col(batch[self.text_col])
        words = pc.split_pattern(pc.fill_null(text, ""), " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        idx = pc.fill_null(pc.index_in(flat, value_set=words_arr), len(lr) - 1)
        w_lr = lr[idx.to_numpy(zero_copy_only=False).astype(np.int64)]
        sums = np.bincount(parent, weights=w_lr, minlength=batch.num_rows)
        return batch.append_column(self.out_col, pa.array(sums, type=pa.float64()))


def add_dsir_weight(
    ds: Dataset,
    model: pa.Table,
    *,
    text_col: str = "text",
    out_col: str = "dsir_lw",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Score every document with its DSIR importance log-weight under
    ``model`` (from :func:`dsir_log_ratio_model`); the model is
    broadcast once (``ray.put``), resolved once per worker."""
    import ray

    lr = model["log_ratio"].to_numpy(zero_copy_only=False).astype(np.float64)
    oov = float(model["__oov"][0].as_py()) if model.num_rows else 0.0
    payload = (_combine_col(model["word"]), np.concatenate([lr, [oov]]))
    ref = ray.put(payload) if ray.is_initialized() else payload
    return ds.map_batches(
        DsirScorer(ref, text_col, out_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )


def add_ngram_repetition_stats(
    ds: Dataset,
    *,
    text_col: str = "text",
    n_top: int = 2,
    n_dup: int = 5,
    batch_size: Optional[int] = None,
) -> Dataset:
    """Gopher's n-gram repetition features (Rae et al. 2021 §A1.1) as
    exact INTEGER character counts (the fraction gates become integer
    predicates, no float discipline): ``top{n_top}_chars`` = occurrences
    × char-length of the most frequent ``n_top``-gram (ties on count
    broken toward the larger coverage), ``dup{n_dup}_chars`` = Σ over
    ``n_dup``-grams occurring ≥2× of occurrences × char-length, and
    ``n_chars`` (codepoints of the text, the fraction denominator).

    Vectorized: one space-split per batch, n-gram strings built by
    ``binary_join_element_wise`` over shifted views of the flat word
    array (no per-row Python), per-(doc, n-gram) counts via Arrow's C++
    ``group_by``, then numpy segment max / masked segment sums.  A doc
    with fewer than n words scores 0."""

    def grams(flat: pa.Array, parent: np.ndarray, n: int):
        L = len(flat)
        if L < n:
            return None, None
        m = L - n + 1
        parts = [flat.slice(k, m) for k in range(n - 1)] + [flat.slice(n - 1, m), " "]
        g = pc.binary_join_element_wise(*parts)
        ok = parent[: m] == parent[n - 1:]
        return g.filter(pa.array(ok)), parent[:m][ok]

    def stats(batch: pa.Table) -> pa.Table:
        txt = _combine_col(batch[text_col])
        txt = pc.fill_null(txt, "")
        nrows = batch.num_rows
        words = pc.split_pattern(txt, " ")
        flat = pc.list_flatten(words)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        out = {}
        for n, kind in ((n_top, "top"), (n_dup, "dup")):
            col = np.zeros(nrows, dtype=np.int64)
            g, gp = grams(flat, parent, n)
            if g is not None and len(g):
                t = pa.table({"p": pa.array(gp, type=pa.int64()), "g": g})
                cnt = t.group_by(["p", "g"]).aggregate([([], "count_all")])
                p = cnt["p"].to_numpy(zero_copy_only=False)
                c = cnt["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
                nch = pc.utf8_length(cnt["g"]).to_numpy(zero_copy_only=False).astype(np.int64)
                cover = c * nch
                if kind == "top":
                    mc = np.zeros(nrows, dtype=np.int64)
                    np.maximum.at(mc, p, c)
                    atmax = c == mc[p]
                    np.maximum.at(col, p[atmax], cover[atmax])
                else:
                    dup = c >= 2
                    np.add.at(col, p[dup], cover[dup])
            out[f"{kind}{n}_chars"] = col
        res = batch.append_column("n_chars", pc.utf8_length(txt).cast(pa.int64()))
        for name, col in out.items():
            res = res.append_column(name, pa.array(col, type=pa.int64()))
        return res

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def ngram_novelty_stats(
    ds: Dataset,
    *,
    n: int = 3,
    text_col: str = "text",
    doc_col: str = "doc_id",
    n_parts: int = 64,
    batch_size: Optional[int] = None,
) -> Dataset:
    """Cross-document verbatim-overlap rate: per document, how many of
    its word ``n``-gram OCCURRENCES are "shared" (the n-gram appears in
    ≥2 distinct documents) vs total — 1 − shared/total is the novelty
    fraction used to down-weight boilerplate-heavy documents.

    Scale shape (no broadcast — the n-gram space is NOT
    vocabulary-bounded): per-batch combiner collapses to distinct
    (doc, gram, count) rows; shuffle 1 co-locates each gram on a coarse
    gram-hash partition, where df(gram) = row count (a (doc, gram) pair
    is globally unique after the combiner because a document's row
    lives in exactly one batch) and per-doc partials are reduced; 
    shuffle 2 merges the ≤ n_parts partials per document on a coarse
    doc-hash partition.  Output: (doc, total_grams, shared_grams)
    integers.  Docs with < n words have no n-grams and are absent from
    the output (mirror any SQL twin accordingly)."""
    def partial(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(_combine_col(batch[text_col]), "")
        words = pc.split_pattern(txt, " ")
        flat = pc.list_flatten(words)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        L = len(flat)
        empty = pa.table(
            {
                doc_col: pa.array([], type=batch.schema.field(doc_col).type),
                "g": pa.array([], type=pa.string()),
                "c": pa.array([], type=pa.int64()),
            }
        )
        if L < n:
            return empty
        m = L - n + 1
        parts = [flat.slice(k, m) for k in range(n - 1)] + [flat.slice(n - 1, m), " "]
        g = pc.binary_join_element_wise(*parts)
        ok = parent[:m] == parent[n - 1 :]
        g = g.filter(pa.array(ok))
        gp = parent[:m][ok]
        if not len(g):
            return empty
        doc = _combine_col(batch[doc_col]).take(pa.array(gp))
        cnt = pa.table({doc_col: doc, "g": g}).group_by([doc_col, "g"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                doc_col: cnt[doc_col],
                "g": cnt["g"],
                "c": cnt["count_all"].cast(pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)

    def per_gram_part(g: pd.DataFrame) -> pd.DataFrame:
        df_per_g = g.groupby("g", sort=False)["c"].transform("size")
        shared = g["c"].where(df_per_g >= 2, 0)
        out = pd.DataFrame({doc_col: g[doc_col], "total": g["c"], "shared": shared})
        agg = out.groupby(doc_col, sort=False).sum().reset_index()
        return agg

    doc_partials = map_key_buckets(partials, ["g"], per_gram_part, n_parts=n_parts)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(doc_col, sort=False)[["total", "shared"]].sum().reset_index()
        return agg.rename(columns={"total": "total_grams", "shared": "shared_grams"})

    return map_key_buckets(doc_partials, [doc_col], merge, n_parts=n_parts)


class BackoffScorer:
    """Per-document mean Stupid-Backoff conditional score (Brants et
    al. 2007, "Large Language Models in Machine Translation" — method
    only): seen bigram → ln(c(w1,w2)/c(w1,·)); unseen → ln(0.4 ·
    c(w2)/N); w2 out of vocabulary → ln(0.4/(N+1)).  Two hash probes +
    one weighted bincount per batch; docs with < 2 words score 0."""

    def __init__(self, model_ref, text_col: str, out_col: str):
        self._model_ref = model_ref
        self._model = None
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._model is None:
            import ray

            m = self._model_ref
            self._model = ray.get(m) if not isinstance(m, tuple) else m
        bg_keys, bg_lp, uni_words, uni_bk, floor = self._model
        w1, w2, parent = _batch_bigrams(batch, self.text_col)
        n = batch.num_rows
        if len(w1):
            key = pc.binary_join_element_wise(w1, w2, "\x1f")
            bidx = pc.index_in(key, value_set=bg_keys)
            hit = pc.is_valid(bidx).to_numpy(zero_copy_only=False)
            bi = pc.fill_null(bidx, 0).to_numpy(zero_copy_only=False).astype(np.int64)
            uidx = pc.index_in(w2, value_set=uni_words)
            uhit = pc.is_valid(uidx).to_numpy(zero_copy_only=False)
            ui = pc.fill_null(uidx, 0).to_numpy(zero_copy_only=False).astype(np.int64)
            lp = np.where(hit, bg_lp[bi], np.where(uhit, uni_bk[ui], floor))
            sums = np.bincount(parent, weights=lp, minlength=n)
            cnts = np.bincount(parent, minlength=n)
        else:
            sums = np.zeros(n)
            cnts = np.zeros(n, dtype=np.int64)
        mean = sums / np.maximum(cnts, 1)
        return batch.append_column(self.out_col, pa.array(mean, type=pa.float64()))


def add_backoff_logprob(
    ds: Dataset,
    bigram: pa.Table,
    unigram: pa.Table,
    *,
    alpha: float = 0.4,
    text_col: str = "text",
    out_col: str = "mean_sb",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Score documents with the mean Stupid-Backoff conditional under a
    broadcast (bigram, unigram) model pair — the honest small-scale
    stand-in for CCNet's KenLM perplexity filter.  Both model tables
    may come from a DIFFERENT corpus slice than the one scored (the
    point of backoff)."""
    import ray

    cnt = bigram["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
    pfx = bigram.group_by("w1").aggregate([("cnt", "sum")])
    p_idx = pc.index_in(bigram["w1"], value_set=_combine_col(pfx["w1"]))
    p_cnt = pfx["cnt_sum"].to_numpy(zero_copy_only=False).astype(np.float64)[
        p_idx.to_numpy(zero_copy_only=False).astype(np.int64)
    ]
    bg_lp = np.log(cnt / p_cnt)
    bg_keys = pc.binary_join_element_wise(
        _combine_col(bigram["w1"]), _combine_col(bigram["w2"]), "\x1f"
    )
    ucnt = unigram["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
    N = ucnt.sum()
    uni_bk = np.log(alpha * ucnt / N)
    floor = float(np.log(alpha / (N + 1.0)))
    payload = (bg_keys, bg_lp, _combine_col(unigram["word"]), uni_bk, floor)
    ref = ray.put(payload) if ray.is_initialized() else payload
    return ds.map_batches(
        BackoffScorer(ref, text_col, out_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )


def conjunctive_search(
    ds: "Dataset",
    terms: Sequence[str],
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    k: int = 20,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Ad-hoc conjunctive (AND-of-terms) full-text search ranked by
    summed term frequency — the query-side half of an inverted index,
    run as one streaming scan instead of an index build (for a handful
    of query terms, scanning beats materializing postings: nothing but
    per-batch top-k candidates ever leaves the workers, no shuffle at
    all; the index-BUILD half lives in ``document_frequency_topk``).

    Per batch (vectorized): one ``split_pattern`` (``string_split(text,
    ' ')`` oracle parity) + ``list_flatten``, then one Arrow equality
    mask + ``np.bincount`` over parent indices per query term — tf of
    every term for every doc in the batch with no per-row Python.  Docs
    are rows, so a doc's whole tf vector is computed in whichever batch
    holds it.  Each batch emits at most ``k`` candidate rows
    ``(key, score)``; the driver merges ``k × n_blocks`` rows.

    Ranking: score = Σ tf(term) over the query terms, ties broken
    ascending on ``key`` — deterministic."""
    terms = list(terms)

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        words = pc.split_pattern(pc.fill_null(txt, ""), " ")
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(batch)
        parents = np.repeat(np.arange(n, dtype=np.int64), lens)
        flat = pc.list_flatten(words)
        score = np.zeros(n, dtype=np.int64)
        present = np.ones(n, dtype=bool)
        for t in terms:
            hit = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(parents[hit], minlength=n)
            score += tf
            present &= tf > 0
        keys = batch[key_col].to_numpy(zero_copy_only=False)[present]
        sc = score[present]
        order = np.lexsort((keys, -sc))[:k]
        return pa.table({key_col: pa.array(keys[order], type=batch.schema.field(key_col).type),
                         "score": pa.array(sc[order], type=pa.int64())})

    cand = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)
    batches = list(cand.iter_batches(batch_format="pyarrow"))
    merged = pa.concat_tables(batches) if batches else pa.table(
        {key_col: pa.array([], type=pa.int64()), "score": pa.array([], type=pa.int64())})
    return merged.sort_by([("score", "descending"), (key_col, "ascending")]).slice(0, k)


def bm25_search(
    ds: "Dataset",
    terms: Sequence[str],
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Disjunctive (OR-of-terms) BM25 ranked retrieval (Robertson/
    Walker Okapi BM25, the Lucene ``+1`` idf smoothing so idf > 0 even
    for df > N/2): score(d) = Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1−b +
    b·dl/avgdl)), idf(t) = ln(1 + (N−df+0.5)/(df+0.5)).

    Two streaming passes, no shuffle, nothing corpus-sized on the
    driver:

    1. STATS: one scan emitting a single partial row per batch —
       (n_docs, total_words, df per query term, each via one vectorized
       equality mask + de-duplicated parent hit count) — driver sums
       ~n_blocks tiny rows into (N, avgdl, df_t).  At 100 TB this pass
       is an embarrassingly parallel read of the text column only.
    2. SCORE: same scan shape as :func:`conjunctive_search` but
       disjunctive and float-scored with the broadcast stats; each
       batch emits at most ``k`` candidate rows, the driver merges
       k × n_blocks.

    Scores are rounded to 6 decimals BEFORE ranking so the SQL twin
    (same formula in DuckDB, same libm doubles) orders identically;
    ties break ascending on ``key_col``."""
    terms = list(terms)

    def stats_partial(batch: pa.Table) -> pa.Table:
        txt = _combine_col(batch[text_col])
        words = pc.split_pattern(pc.fill_null(txt, ""), " ")
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(words)
        n = len(batch)
        parents = np.repeat(np.arange(n, dtype=np.int64), lens)
        cols = {
            "__n": pa.array([n], type=pa.int64()),
            "__wsum": pa.array([int(lens.sum())], type=pa.int64()),
        }
        for i, t in enumerate(terms):
            hit = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            df = int((np.bincount(parents[hit], minlength=n) > 0).sum())
            cols[f"__df{i}"] = pa.array([df], type=pa.int64())
        return pa.table(cols)

    parts = list(
        ds.map_batches(stats_partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size).iter_batches(batch_format="pyarrow")
    )
    stats = pa.concat_tables(parts)
    N = int(pc.sum(stats["__n"]).as_py() or 0)
    if N == 0:
        return pa.table({key_col: pa.array([], type=pa.int64()),
                         "score": pa.array([], type=pa.float64())})
    avgdl = (pc.sum(stats["__wsum"]).as_py() or 0) / N
    idf = np.array(
        [np.log(1.0 + (N - d + 0.5) / (d + 0.5))
         for d in (int(pc.sum(stats[f"__df{i}"]).as_py() or 0) for i in range(len(terms)))],
        dtype=np.float64,
    )

    def score_partial(batch: pa.Table) -> pa.Table:
        txt = _combine_col(batch[text_col])
        words = pc.split_pattern(pc.fill_null(txt, ""), " ")
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(words)
        n = len(batch)
        parents = np.repeat(np.arange(n, dtype=np.int64), lens)
        norm = k1 * (1.0 - b + b * (lens / avgdl))  # per-doc length norm
        score = np.zeros(n, dtype=np.float64)
        any_hit = np.zeros(n, dtype=bool)
        for i, t in enumerate(terms):
            hit = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(parents[hit], minlength=n).astype(np.float64)
            score += idf[i] * (tf * (k1 + 1.0)) / (tf + norm)
            any_hit |= tf > 0
        score = round_half_away(score, 6)
        keys = batch[key_col].to_numpy(zero_copy_only=False)[any_hit]
        sc = score[any_hit]
        order = np.lexsort((keys, -sc))[:k]
        return pa.table({key_col: pa.array(keys[order], type=batch.schema.field(key_col).type),
                         "score": pa.array(sc[order], type=pa.float64())})

    cand = ds.map_batches(score_partial, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)
    batches = list(cand.iter_batches(batch_format="pyarrow"))
    merged = pa.concat_tables(batches) if batches else pa.table(
        {key_col: pa.array([], type=pa.int64()), "score": pa.array([], type=pa.float64())})
    return merged.sort_by([("score", "descending"), (key_col, "ascending")]).slice(0, k)


def add_readability(
    ds: Dataset,
    *,
    text_col: str = "text",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Flesch-reading-ease-style readability scoring (a standard cheap
    quality signal next to the Gopher rules): per document, whitespace
    words, ``[.!?]+`` sentence terminators and vowel-group syllable
    proxies are counted with three RE2 ``count_substring_regex`` kernel
    passes (no Python per row), and

        ``flesch = 206.835 - 1.015*(words/sents) - 84.6*(syll/words)``

    is evaluated in float64 exactly as written so an SQL twin using the
    same formula is bit-comparable.  Documents with zero sentences or
    zero words keep null ``flesch`` (un-scorable, filtered by callers).

    Analogous role to the reference's per-value format checks
    (src/jesse_validator_draft4.erl format dispatch): a cheap
    string-shape scorer, here as a corpus-scale column stage."""

    def score(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(_combine_col(batch[text_col]), "")
        w = pc.count_substring_regex(text, r"\S+").cast(pa.int64())
        s = pc.count_substring_regex(text, r"[.!?]+").cast(pa.int64())
        y = pc.count_substring_regex(text, r"[aeiouyAEIOUY]+").cast(pa.int64())
        wn = w.to_numpy(zero_copy_only=False).astype(np.float64)
        sn = s.to_numpy(zero_copy_only=False).astype(np.float64)
        yn = y.to_numpy(zero_copy_only=False).astype(np.float64)
        ok = (wn > 0) & (sn > 0)
        fl = np.full(len(wn), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            fl[ok] = 206.835 - 1.015 * (wn[ok] / sn[ok]) - 84.6 * (yn[ok] / wn[ok])
        return batch.append_column("n_words", w) \
                    .append_column("n_sents", s) \
                    .append_column("n_syll", y) \
                    .append_column("flesch", pa.array(fl, type=pa.float64(), from_pandas=True))

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def rake_word_scores(
    ds: Dataset,
    *,
    text_col: str = "text",
    stopwords: tuple = GOPHER_STOPWORDS,
    n_parts: int = 64,
    batch_size: Optional[int] = None,
) -> Dataset:
    """RAKE word scores (Rose et al. 2010 "Automatic Keyword Extraction
    from Individual Documents"): documents split into candidate PHRASES
    at stopword boundaries; for every word, ``freq`` counts its phrase
    occurrences and ``deg`` sums the lengths of the phrases it appears
    in (both exact integers — the ``deg/freq`` ratio is left to the
    caller so engine↔oracle comparisons stay on integer ground).

    Vectorized per batch: one Arrow split, stopword membership via
    ``is_in``, phrase ids from a boundary cumsum, phrase lengths via
    bincount, per-word partials via pandas groupby over the exploded
    (word, phrase_len) frame; ONE coarse word-hash shuffle merges the
    partials exactly."""
    stop_arr = pa.array(sorted(set(stopwords)))

    def partial(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(_combine_col(batch[text_col]), "")
        words = pc.split_pattern(text, " ")
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(words)
        low = pc.utf8_lower(flat)
        is_stop = pc.is_in(low, value_set=stop_arr).to_numpy(zero_copy_only=False)
        n = len(lens)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        nf = len(is_stop)
        if nf == 0:
            return pa.table({"word": pa.array([], type=pa.string()),
                             "freq": pa.array([], type=pa.int64()),
                             "deg": pa.array([], type=pa.int64())})
        # phrase id: a non-stop word starts a phrase if it follows a
        # stopword or a doc start; stopwords belong to no phrase
        prev_stop = np.ones(nf, dtype=bool)
        prev_stop[1:] = is_stop[:-1]
        doc_start = np.zeros(nf, dtype=bool)
        doc_start[off[:-1][lens > 0]] = True
        starts = (~is_stop) & (prev_stop | doc_start)
        pid = np.cumsum(starts) - 1
        pid[is_stop] = -1
        keep = pid >= 0
        if not keep.any():
            return pa.table({"word": pa.array([], type=pa.string()),
                             "freq": pa.array([], type=pa.int64()),
                             "deg": pa.array([], type=pa.int64())})
        plen = np.bincount(pid[keep])
        import pandas as pd

        df = pd.DataFrame({"word": low.to_pandas()[keep],
                           "plen": plen[pid[keep]]})
        g = df.groupby("word", sort=False).agg(freq=("plen", "size"),
                                               deg=("plen", "sum")).reset_index()
        return pa.table({"word": pa.array(g["word"], type=pa.string()),
                         "freq": pa.array(g["freq"].to_numpy(dtype=np.int64)),
                         "deg": pa.array(g["deg"].to_numpy(dtype=np.int64))})

    def merge(g) -> "pa.Table":
        import pandas as pd

        m = g.groupby("word", sort=False)[["freq", "deg"]].sum().reset_index()
        return pa.Table.from_pandas(m, preserve_index=False).cast(
            pa.schema([("word", pa.string()), ("freq", pa.int64()), ("deg", pa.int64())]))

    return map_key_buckets(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                                          batch_size=batch_size),
                           ["word"], merge, n_parts=n_parts)


def add_encoding_audit(
    ds: Dataset,
    *,
    text_col: str = "text",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Per-document encoding-quality audit — the standard web-crawl
    hygiene gate that runs before any content filter:

    - ``n_replacement``: U+FFFD replacement characters (a decoder
      already gave up on those bytes upstream);
    - ``n_control``: C0/C1 control codepoints excluding tab/newline/CR
      (binary junk inside "text");
    - ``n_mojibake``: classic UTF-8-decoded-as-Latin-1 artifacts
      (``\\u00c3`` + continuation range, ``\\u00e2\\u20ac`` quote family);
    - ``enc_ok``: 1 iff all three counts are zero.

    All counts are Arrow RE2 / substring kernels per batch — no per-row
    Python.  Counting (not just flagging) matters at corpus scale: the
    repair decision (drop vs strip vs re-decode) keys on artifact
    density, not presence."""
    ctrl_pat = "[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f\\x7f]|[\\x80-\\x9f]"
    moji_pat = "Ã[ -¿]|â€"

    def audit(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(_combine_col(batch[text_col]), "")
        rep = pc.count_substring(text, "�").cast(pa.int64())
        ctl = pc.count_substring_regex(text, ctrl_pat).cast(pa.int64())
        moj = pc.count_substring_regex(text, moji_pat).cast(pa.int64())
        ok = pc.cast(
            pc.and_(pc.and_(pc.equal(rep, 0), pc.equal(ctl, 0)), pc.equal(moj, 0)),
            pa.int64())
        return (batch.append_column("n_replacement", rep)
                     .append_column("n_control", ctl)
                     .append_column("n_mojibake", moj)
                     .append_column("enc_ok", ok))

    return ds.map_batches(audit, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


#: major Unicode script blocks, in the fixed dominance-priority order
#: (argmax tie-break = first listed); RE2 ``\x{...}`` class syntax is
#: shared verbatim with the DuckDB twins
SCRIPT_BLOCKS = [
    ("latin", "[A-Za-z\\x{00C0}-\\x{024F}]"),
    ("cyrillic", "[\\x{0400}-\\x{04FF}]"),
    ("greek", "[\\x{0370}-\\x{03FF}]"),
    ("arabic", "[\\x{0600}-\\x{06FF}]"),
    ("hebrew", "[\\x{0590}-\\x{05FF}]"),
    ("devanagari", "[\\x{0900}-\\x{097F}]"),
    ("hangul", "[\\x{AC00}-\\x{D7AF}\\x{1100}-\\x{11FF}]"),
    ("cjk", "[\\x{4E00}-\\x{9FFF}\\x{3040}-\\x{30FF}]"),
]


def add_script_profile(
    ds: Dataset,
    *,
    text_col: str = "text",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Per-document Unicode-SCRIPT profile: codepoint counts for the
    major script blocks plus the dominant script (``none`` when no
    script codepoint occurs).  Complements the stopword lang-ID — script
    mixing inside one document is the cheap signal for embedded foreign
    quotes, spam keyword stuffing, and wrong-language contamination that
    word-level lang-ID misses.  One Arrow RE2 count kernel per block per
    batch; dominance = first-listed argmax, replicated exactly by the
    SQL twin's CASE chain."""

    def profile(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(_combine_col(batch[text_col]), "")
        counts = [pc.count_substring_regex(text, pat).cast(pa.int64())
                  for _, pat in SCRIPT_BLOCKS]
        mat = np.stack([c.to_numpy(zero_copy_only=False) for c in counts])
        best = np.argmax(mat, axis=0)  # first max wins — the priority order
        names = np.array([n for n, _ in SCRIPT_BLOCKS] + ["none"], dtype=object)
        best = np.where(mat.max(axis=0) > 0, best, len(SCRIPT_BLOCKS))
        out = batch
        for (name, _), c in zip(SCRIPT_BLOCKS, counts):
            out = out.append_column(f"n_{name}", c)
        return out.append_column(
            "dominant_script", pa.array(names[best], type=pa.string()))

    return ds.map_batches(profile, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def add_compression_ratio(ds, *, text_col: str = "text",
                          out_col: str = "zratio", level: int = 6):
    """Append zlib-compressibility per document: compressed_bytes /
    raw_bytes (UTF-8).  A classic cheap curation signal — highly
    repetitive/template text compresses far below natural prose
    (ratios ≲ 0.3 flag boilerplate; random noise sits near 1).  Pure
    stdlib zlib, one pass; the per-doc loop is irreducible (DEFLATE is
    per-payload) but each call is C-level.  Empty/null text gets ratio
    1.0 (nothing to judge)."""
    import zlib

    def score(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        out = np.ones(len(texts), dtype=np.float64)
        for i, t in enumerate(texts):
            if t:
                raw = t.encode("utf-8")
                out[i] = len(zlib.compress(raw, level)) / len(raw)
        return batch.append_column(out_col, pa.array(out, type=pa.float64()))

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
