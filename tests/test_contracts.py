"""Argument and data contracts fail with ``ValueError``, not a bare
``assert`` that ``python -O`` strips."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray


def _texts():
    return ray.data.from_arrow(pa.table({"doc_id": [0, 1], "text": ["a b c d", "a b c e"]}))


def test_sliding_window_rejects_uneven_slide(ray_session):
    from jesse_ray.pipelines.relational import sliding_window

    ds = ray.data.from_arrow(pa.table({"ts": pa.array([0], type=pa.timestamp("us"))}))
    with pytest.raises(ValueError, match="multiple of slide_s"):
        sliding_window(ds, "ts", window_s=7200, slide_s=3000)


def test_grouped_rolling_rejects_band_overflow(ray_session):
    """Two key runs in one part with a window near 2^62 us pass int64
    when banded; the guard must see it rather than wrap around."""
    from jesse_ray.pipelines.relational import grouped_rolling

    base = np.datetime64("2024-01-01T00:00:00", "us")
    df = pd.DataFrame({"user_id": [1, 2], "ts": [base, base], "value": [1.0, 2.0]})
    # raised in a Ray task: the RayTaskError is also a ValueError
    with pytest.raises(ValueError, match="rolling band overflow"):
        grouped_rolling(ray.data.from_pandas(df), "user_id", "ts", "value",
                        window_us=2**62, n_parts=1).to_pandas()


def test_top_k_elements_rejects_non_power_of_two_parts(ray_session):
    from jesse_ray.pipelines.relational import top_k_elements

    ds = ray.data.from_arrow(pa.table({"tokens": [[1, 2, 2]]}))
    with pytest.raises(ValueError, match="power of two"):
        top_k_elements(ds, "tokens", k=1, n_parts=6)


def test_interval_count_join_rejects_non_power_of_two_parts(ray_session):
    from jesse_ray.pipelines.relational import interval_count_join

    points = ray.data.from_arrow(pa.table({"id": [1], "t": [5]}))
    intervals = ray.data.from_arrow(pa.table({"s": [0], "e": [10]}))
    with pytest.raises(ValueError, match="power of two"):
        interval_count_join(points, intervals, point_col="t", id_col="id", start_col="s",
                            end_col="e", max_len_us=10, n_parts=12)


def test_lsh_candidate_pairs_rejects_uneven_bands(ray_session):
    from jesse_ray.functions.dedup import lsh_candidate_pairs

    with pytest.raises(ValueError, match="multiple of bands"):
        lsh_candidate_pairs(_texts(), num_hashes=64, bands=10)


def test_simhash_near_dups_rejects_hamming_at_blocks(ray_session):
    from jesse_ray.functions.dedup import simhash_near_dups

    with pytest.raises(ValueError, match="max_hamming < blocks"):
        simhash_near_dups(_texts(), max_hamming=4, blocks=4)


def test_token_lsh_candidate_pairs_rejects_uneven_bands(ray_session):
    from jesse_ray.functions.dedup import token_lsh_candidate_pairs

    ds = ray.data.from_arrow(pa.table({"doc_id": [0], "tokens": [[1, 2, 3]]}))
    with pytest.raises(ValueError, match="multiple of bands"):
        token_lsh_candidate_pairs(ds, num_hashes=64, bands=7)


def test_no_assert_statements_in_library():
    """``python -O`` strips ``assert``: no budget, self-check or input
    contract in the library may rest on one."""
    import ast
    from pathlib import Path

    import jesse_ray

    pkg = Path(jesse_ray.__file__).resolve().parent
    hits = [
        f"{path.relative_to(pkg.parent)}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert hits == []


def test_only_hashutil_tags_key_buckets():
    """One key-to-bucket decision: the ``__part`` tag column and the
    ``groupby("__part")`` over it appear only in ``jesse_ray/hashutil.py``
    (``map_key_buckets``); every other key-grouped stage calls it."""
    import re
    from pathlib import Path

    import jesse_ray

    pkg = Path(jesse_ray.__file__).resolve().parent
    tag = re.compile(r"""["']__part""")
    hits = [
        f"{path.relative_to(pkg.parent)}:{lineno}"
        for path in sorted(pkg.rglob("*.py"))
        if path.name != "hashutil.py" or path.parent != pkg
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if tag.search(line)
    ]
    assert hits == []
    src = (pkg / "hashutil.py").read_text()
    assert src.count('groupby("__part")') == 1
