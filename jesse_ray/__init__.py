"""jesse_ray — a Ray-Data-native schema + constraint validation engine.

A from-scratch re-expression of the *semantics* of for-GET/jesse (an
Erlang JSON-Schema validator, reference at /root/reference) as a
distributed, columnar validation engine over Parquet tables of
pre-tokenized training sequences:

    doc_id: string, tokens: list<int32>, n_tok: int32, source: string

Instead of jesse's recursive one-document-at-a-time walk
(reference: src/jesse_schema_validator.erl:82-98), a declarative
``TableSpec`` is compiled once on the driver into a chain of vectorized
pyarrow predicates that run inside ``Dataset.map_batches`` over
zero-copy Arrow batches.  Corpus-level checks (key uniqueness,
referential integrity, distribution drift) that have no analogue in the
single-document reference are expressed as Ray Data groupbys, broadcast
lookups inside the fused validation pass, and mergeable sketches.

Error records keep field-for-field parity with jesse's
``{data_invalid, Schema, ErrorType, Value, Path}`` tuples
(reference: src/jesse_error.erl:85-92): each violation row carries
``(doc_id, path, error, value_json, schema_fragment)``.
"""

from jesse_ray.errors import *  # noqa: F401,F403
from jesse_ray.spec import ColumnSpec, TableSpec, ReferentialRule, ConsistencyRule
from jesse_ray.compiler import compile_spec, CompiledSpec
from jesse_ray.engine import ValidationEngine, validate_dataset

__all__ = [
    "ColumnSpec",
    "TableSpec",
    "ReferentialRule",
    "ConsistencyRule",
    "compile_spec",
    "CompiledSpec",
    "ValidationEngine",
    "validate_dataset",
]

__version__ = "0.1.0"
