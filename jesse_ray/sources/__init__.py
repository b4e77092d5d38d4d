"""Sources/sinks — thin wrappers around Ray Data readers with the
pruning and block-sizing discipline the corpus needs."""

from jesse_ray.sources.parquet import (
    read_corpus,
    read_feather,
    read_orc,
    read_sequences,
    read_table,
    write_partitioned,
)

__all__ = [
    "read_corpus",
    "read_feather",
    "read_orc",
    "read_sequences",
    "read_table",
    "write_partitioned",
]
