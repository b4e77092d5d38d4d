"""Declarative validation specs — the engine's "schema" abstraction.

A ``TableSpec`` is the columnar analogue of a draft-04 JSON Schema for an
object (reference semantics: src/jesse_validator_draft4.erl:84-260, the
``check_value`` keyword dispatch loop): every Parquet column plays the
role of an object property, and each ``ColumnSpec`` carries the draft-04
keyword constraints that apply to the values in that column.  Table-level
rules (key uniqueness, referential membership against a dimension table,
cross-column consistency) extend the per-document semantics to corpus
scale.

Specs are pure data: they are compiled once on the driver
(:mod:`jesse_ray.compiler`) and the compiled artifact is shipped to
workers via closure capture / ``ray.put`` — the columnar analogue of
jesse's node-local ETS schema store (reference: src/jesse_database.erl:165-220),
which is unnecessary here because a validation run's spec is immutable.

``$ref`` handling: the reference resolves refs at validation time with a
state swap (src/jesse_state.erl:207-303).  We instead *flatten refs at
spec-load time* (`from_json_schema` inlines ``definitions``-local refs)
so the data plane never sees a ref — compile-time work on the driver.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from jesse_ray import errors as E

#: draft-04 primitive type names (reference: src/jesse_schema_validator.hrl:85-93)
PRIMITIVE_TYPES = {"string", "number", "integer", "boolean", "object", "array", "null"}


@dataclass
class ColumnSpec:
    """Draft-04 keyword constraints for one column.

    Semantics follow the reference validator keyword-for-keyword
    (citations per field).  ``None`` means "keyword absent ⇒ no check",
    matching the reference's skip-unknown/skip-absent behavior
    (src/jesse_validator_draft4.erl:259-260).
    """

    # type — membership in primitive types; integer ⊂ number
    # (src/jesse_validator_draft4.erl:288-318)
    type: Optional[str | list[str]] = None
    # required — presence/non-null (src/jesse_validator_draft4.erl:1044-1058)
    required: bool = False
    # enum — deep-equality membership, 1.0 == 1 (src/jesse_validator_draft4.erl:960-970,
    # equality src/jesse_lib.erl:177-181,219-261)
    enum: Optional[list[Any]] = None
    # const — draft-6 sugar for single-element enum (src/jesse_validator_draft6.erl:249-250)
    const: Any = None
    has_const: bool = False
    # minimum/maximum with draft-4 boolean exclusive modifiers
    # (src/jesse_validator_draft4.erl:149-184,723-770)
    minimum: Optional[float] = None
    exclusive_minimum: bool = False
    maximum: Optional[float] = None
    exclusive_maximum: bool = False
    # multipleOf — M > 0 else schema_invalid (src/jesse_validator_draft4.erl:1019-1029)
    multiple_of: Optional[float] = None
    # pattern — unanchored regex match (src/jesse_validator_draft4.erl:888-893)
    pattern: Optional[str] = None
    # minLength/maxLength — unicode codepoints (src/jesse_validator_draft4.erl:915-943)
    min_length: Optional[int] = None
    max_length: Optional[int] = None
    # minItems/maxItems — list length bounds (src/jesse_validator_draft4.erl:790-811)
    min_items: Optional[int] = None
    max_items: Optional[int] = None
    # uniqueItems — within-row distinctness (src/jesse_validator_draft4.erl:831-873)
    unique_items: bool = False
    # items (object form) — every element validates subspec
    # (src/jesse_validator_draft4.erl:542-557)
    items: Optional["ColumnSpec"] = None
    # items (array form) — positional subschemas; extras governed by
    # additionalItems: None/True = anything, False = no_extra_items_allowed,
    # ColumnSpec = extras validate it (src/jesse_validator_draft4.erl:558-603)
    items_positional: Optional[list["ColumnSpec"]] = None
    additional_items: Any = None
    # format — only the formats the reference actually checks:
    # date-time / email / ipv4 / ipv6; hostname & uri are accept-all no-ops
    # (src/jesse_validator_draft4.erl:975-1004)
    format: Optional[str] = None
    # combinators (src/jesse_validator_draft4.erl:1125-1242)
    all_of: Optional[list["ColumnSpec"]] = None
    any_of: Optional[list["ColumnSpec"]] = None
    one_of: Optional[list["ColumnSpec"]] = None
    not_: Optional["ColumnSpec"] = None
    # --- draft-3 deltas (SURVEY §2.4) ---
    # divisibleBy — like multipleOf but divisor 0 is a DATA error
    # ``not_divisible``, not schema_invalid (src/jesse_validator_draft3.erl:860-869)
    divisible_by: Optional[float] = None
    # disallow — negated type membership ⇒ ``not_allowed``
    # (src/jesse_validator_draft3.erl:878-889); union members may embed
    # SCHEMAS (same union semantics as draft-3 ``type``,
    # src/jesse_validator_draft3.erl:304-328) — value matches ANY member
    # (primitive or schema) ⇒ not_allowed
    disallow: Optional[str | list[str]] = None
    disallow_schemas: Optional[list["ColumnSpec"]] = None
    # --- draft-6 deltas ---
    # contains — some array element validates subspec; empty array fails
    # with atom ``data_invalid`` (src/jesse_validator_draft6.erl:151-156,569-587)
    contains: Optional["ColumnSpec"] = None
    # draft-3 union types may embed SCHEMAS next to primitive names:
    # value passes `type` if any primitive matches OR any embedded schema
    # validates (src/jesse_validator_draft3.erl:295-328)
    type_schemas: Optional[list["ColumnSpec"]] = None
    # nested object properties — validates STRUCT column fields with the
    # reference's recursive per-property semantics (absent/null field ⇒
    # skip unless listed in ``required_props``,
    # src/jesse_validator_draft4.erl:380-400,1044-1058)
    properties: Optional[dict[str, "ColumnSpec"]] = None
    required_props: Optional[list[str]] = None
    # nested additionalProperties:false — undeclared STRUCT fields are
    # no_extra_properties_allowed (src/jesse_validator_draft4.erl:431-507);
    # static per Arrow struct type, so it fails every present row at once
    additional_props_allowed: bool = True
    # nested patternProperties — struct fields whose NAME matches the
    # regex validate the pattern's sub-schema; pattern-matched fields
    # also count as declared for additionalProperties
    # (src/jesse_validator_draft4.erl:405-426,431-507)
    pattern_props: Optional[dict[str, "ColumnSpec"]] = None

    def to_fragment(self) -> dict:
        """JSON-Schema-style fragment used in violation rows'
        ``schema_fragment`` column (the ``Schema`` element of the
        reference's 5-tuple, src/jesse_error.erl:85-92)."""
        frag: dict[str, Any] = {}
        if self.type is not None:
            frag["type"] = self.type
        if self.enum is not None:
            frag["enum"] = self.enum
        if self.has_const:
            frag["const"] = self.const
        if self.minimum is not None:
            frag["minimum"] = self.minimum
            if self.exclusive_minimum:
                frag["exclusiveMinimum"] = True
        if self.maximum is not None:
            frag["maximum"] = self.maximum
            if self.exclusive_maximum:
                frag["exclusiveMaximum"] = True
        if self.multiple_of is not None:
            frag["multipleOf"] = self.multiple_of
        if self.pattern is not None:
            frag["pattern"] = self.pattern
        if self.min_length is not None:
            frag["minLength"] = self.min_length
        if self.max_length is not None:
            frag["maxLength"] = self.max_length
        if self.min_items is not None:
            frag["minItems"] = self.min_items
        if self.max_items is not None:
            frag["maxItems"] = self.max_items
        if self.unique_items:
            frag["uniqueItems"] = True
        if self.items is not None:
            frag["items"] = self.items.to_fragment()
        if self.items_positional is not None:
            frag["items"] = [s.to_fragment() for s in self.items_positional]
        if self.additional_items is not None:
            frag["additionalItems"] = (
                self.additional_items.to_fragment()
                if isinstance(self.additional_items, ColumnSpec)
                else self.additional_items
            )
        if self.format is not None:
            frag["format"] = self.format
        if self.all_of is not None:
            frag["allOf"] = [s.to_fragment() for s in self.all_of]
        if self.any_of is not None:
            frag["anyOf"] = [s.to_fragment() for s in self.any_of]
        if self.one_of is not None:
            frag["oneOf"] = [s.to_fragment() for s in self.one_of]
        if self.not_ is not None:
            frag["not"] = self.not_.to_fragment()
        if self.divisible_by is not None:
            frag["divisibleBy"] = self.divisible_by
        if self.disallow is not None or self.disallow_schemas is not None:
            if self.disallow_schemas is None:
                frag["disallow"] = self.disallow
            else:
                prims = ([self.disallow] if isinstance(self.disallow, str)
                         else list(self.disallow or []))
                frag["disallow"] = prims + [s.to_fragment() for s in self.disallow_schemas]
        if self.contains is not None:
            frag["contains"] = self.contains.to_fragment()
        if self.type_schemas is not None:
            frag["type"] = (self.type if isinstance(self.type, list) else []) + [
                s.to_fragment() for s in self.type_schemas
            ]
        if self.properties is not None:
            frag["properties"] = {k: v.to_fragment() for k, v in self.properties.items()}
        if self.required_props:
            frag["required"] = list(self.required_props)
        if not self.additional_props_allowed:
            frag["additionalProperties"] = False
        if self.pattern_props is not None:
            frag["patternProperties"] = {k: v.to_fragment() for k, v in self.pattern_props.items()}
        return frag


@dataclass
class ReferentialRule:
    """Corpus-level referential check: ``column`` values must appear in an
    allowed-values dimension (anti-join rows become violations).

    This is the reference's ``enum`` keyword
    (src/jesse_validator_draft4.erl:960-970) applied against an *external*
    dimension table: the dimension is broadcast once (``ray.put``) and the
    membership test runs inside the fused validation pass.
    """

    column: str
    dim_path: Optional[str] = None  # parquet path of the dimension table
    dim_column: str = "value"
    dim_filter_column: Optional[str] = None  # boolean column; only True rows allowed
    values: Optional[list[Any]] = None  # inline alternative to dim_path
    error_atom: str = E.NOT_IN_ENUM


@dataclass
class ConsistencyRule:
    """Cross-column invariant.  Kinds:

    - ``list_len_eq``: ``len(list_column) == int_column`` — the corpus's
      ``n_tok == len(tokens)`` invariant, expressed with the reference's
      array-size semantics (minItems/maxItems, src/jesse_validator_draft4.erl:790-811);
      violations use atom ``wrong_size``.
    - ``str_len_eq``: ``utf8_len(str_column) == int_column`` (wrong_length).
    """

    kind: str
    left: str  # list/str column
    right: str  # int column
    name: Optional[str] = None
    error_atom: str = E.WRONG_SIZE


@dataclass
class ConditionalRule:
    """Table-level ``if``/``then``/``else`` — a draft-7-STYLE extension
    BEYOND the reference (jesse stops at draft-6; unknown keywords are
    ignored there, src/jesse_validator_draft4.erl:259-260, so schemas
    carrying it still load in both engines — the reference just skips
    the conditional).

    Semantics: rows whose ``if_`` columns ALL pass their sub-specs
    (value-level ``_spec_valid_mask``; a NULL condition value counts
    as NOT passing, since the condition tests the value, not mere
    presence) take the ``then_`` branch; every other row takes
    ``else_``.  Each branch is a column → ColumnSpec map; a row fails
    when any branch column's present value fails its sub-spec, or a
    branch column is absent from the batch entirely.  Violations use
    atom ``conditional_not_valid``.
    """

    if_: dict[str, "ColumnSpec"]
    then_: dict[str, "ColumnSpec"] = field(default_factory=dict)
    else_: dict[str, "ColumnSpec"] = field(default_factory=dict)
    name: str = "conditional"


@dataclass
class CustomCheck:
    """User-extension hook — the ``external_validator`` analogue
    (src/jesse.erl:71-72, run after all keywords at
    src/jesse_validator_draft4.erl:1356-1362): a batch predicate appended
    to the compiled check chain.

    ``fn(pa.Table) -> boolean ndarray`` returns True where the row
    PASSES.  Must be a picklable top-level callable (it ships to
    workers inside the compiled spec).
    """

    name: str
    fn: Callable[[Any], Any]
    error_atom: str = E.EXTERNAL
    #: column used for path + value_json in violation rows (falls back to
    #: the table's key column)
    column: Optional[str] = None


@dataclass
class TableSpec:
    """The full spec for one corpus table."""

    columns: dict[str, ColumnSpec] = field(default_factory=dict)
    key_column: Optional[str] = "doc_id"
    #: columns whose values must be unique across the whole corpus
    unique_keys: list[str] = field(default_factory=list)
    referential: list[ReferentialRule] = field(default_factory=list)
    consistency: list[ConsistencyRule] = field(default_factory=list)
    #: if/then/else cross-column conditionals (extension beyond the
    #: reference's draft-6 ceiling — see ConditionalRule)
    conditionals: list[ConditionalRule] = field(default_factory=list)
    #: additionalProperties:false analogue — unexpected Parquet columns are a
    #: schema-side failure at launch (src/jesse_validator_draft4.erl:431-507,
    #: mapped to compile-time per SURVEY §2.3)
    additional_columns_allowed: bool = True
    #: dependencies (array form): col present ⇒ others present
    #: (src/jesse_validator_draft4.erl:637-694)
    dependencies: dict[str, list[str]] = field(default_factory=dict)
    #: patternProperties analogue — regex → ColumnSpec, resolved against the
    #: actual Parquet column NAMES at launch (driver-side cross product of
    #: columns × patterns, src/jesse_validator_draft4.erl:405-426 mapped to
    #: compile time per SURVEY §2.3)
    column_patterns: dict[str, ColumnSpec] = field(default_factory=dict)
    #: min/maxProperties — column-count bounds, checked against the Parquet
    #: schema at launch (src/jesse_validator_draft4.erl:1073-1107)
    min_columns: Optional[int] = None
    max_columns: Optional[int] = None
    #: external_validator hooks (src/jesse.erl:71-72)
    custom_checks: list[CustomCheck] = field(default_factory=list)
    #: dependencies (schema form): col present ⇒ the ROW must satisfy the
    #: dependent sub-spec; the reference validates the enclosing object
    #: against the dependency schema (src/jesse_validator_draft4.erl:656-668)
    schema_dependencies: dict[str, "TableSpec"] = field(default_factory=dict)
    #: propertyNames (draft-6) — every column NAME must validate this
    #: sub-spec; mapped to a LAUNCH-TIME schema gate like
    #: additionalProperties (src/jesse_validator_draft6.erl:114-125,424-436)
    property_names: Optional[ColumnSpec] = None
    #: validation dialect: "draft3" | "draft4" (default) | "draft6".
    #: Gates the draft-6 leniencies (required may be [], integer accepts
    #: floats with zero fraction — src/jesse_validator_draft6.erl:344-355,1019-1023)
    dialect: str = "draft4"
    name: str = "spec"

    def resolve_patterns(self, column_names: list[str]) -> "TableSpec":
        """Expand ``column_patterns`` against the actual column names:
        each matching column gains the pattern's constraints (merged into
        any explicit ColumnSpec via allOf, mirroring the reference's
        additive patternProperties semantics,
        src/jesse_validator_draft4.erl:405-426).  Returns a new spec; the
        original is untouched."""
        if not self.column_patterns:
            return self
        import re as _re

        out = copy.deepcopy(self)
        out.column_patterns = {}
        for pat, sub in self.column_patterns.items():
            rx = _re.compile(pat)
            for col in column_names:
                if rx.search(col):
                    existing = out.columns.get(col)
                    if existing is None:
                        out.columns[col] = copy.deepcopy(sub)
                    else:
                        merged = copy.deepcopy(existing)
                        merged.all_of = (merged.all_of or []) + [copy.deepcopy(sub)]
                        out.columns[col] = merged
        return out

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "key_column": self.key_column,
            "columns": {k: v.to_fragment() for k, v in self.columns.items()},
            "required": sorted(k for k, v in self.columns.items() if v.required),
            "unique_keys": self.unique_keys,
            "dependencies": self.dependencies,
            "consistency": [
                {"kind": c.kind, "left": c.left, "right": c.right}
                for c in self.consistency
            ],
            "conditionals": [
                {
                    "if": {k: v.to_fragment() for k, v in r.if_.items()},
                    "then": {k: v.to_fragment() for k, v in r.then_.items()},
                    "else": {k: v.to_fragment() for k, v in r.else_.items()},
                }
                for r in self.conditionals
            ],
            "referential": [
                {"column": r.column, "dim_path": r.dim_path, "dim_column": r.dim_column}
                for r in self.referential
            ],
            "additionalColumnsAllowed": self.additional_columns_allowed,
            "patternProperties": {k: v.to_fragment() for k, v in self.column_patterns.items()},
            "minProperties": self.min_columns,
            "maxProperties": self.max_columns,
            "customChecks": [c.name for c in self.custom_checks],
            "schemaDependencies": {
                k: json.loads(v.to_json()) for k, v in self.schema_dependencies.items()
            },
            "propertyNames": self.property_names.to_fragment() if self.property_names else None,
            "dialect": self.dialect,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @property
    def version(self) -> str:
        """Content hash — the ``spec_version`` recorded in checkpoint
        manifests for lineage."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# JSON-Schema (draft-04 subset) loader


_KEYWORD_MAP: dict[str, Callable[[ColumnSpec, Any, dict], None]] = {}


def _root_dialect(root: dict) -> str:
    """Dialect of the root schema a keyword handler is compiling under
    (from_json_schema injects the effective ``$schema``, including the
    default_schema_ver fallback, before walking properties)."""
    uri = str(root.get("$schema", "")) if isinstance(root, dict) else ""
    if "draft-03" in uri or uri == "draft3":
        return "draft3"
    if "draft-06" in uri or uri == "draft6":
        return "draft6"
    return "draft4"


def _kw(name):
    def deco(fn):
        _KEYWORD_MAP[name] = fn
        return fn

    return deco


def _subspec(raw: Any, root: dict) -> ColumnSpec:
    return _column_from_schema(raw, root)


@_kw("type")
def _(c, v, root):
    if isinstance(v, str):
        if v not in PRIMITIVE_TYPES and v != "any":
            raise E.SchemaInvalidError(E.WRONG_TYPE_SPECIFICATION, f"type {v!r}")
        c.type = v
    elif isinstance(v, list):
        prims: list[str] = []
        schemas: list[ColumnSpec] = []
        for t in v:
            if isinstance(t, str) and (t in PRIMITIVE_TYPES or t == "any"):
                prims.append(t)
            elif isinstance(t, dict):
                # draft-3 union type with embedded schema members
                # (src/jesse_validator_draft3.erl:304-328)
                schemas.append(_subspec(t, root))
            else:
                raise E.SchemaInvalidError(E.WRONG_TYPE_SPECIFICATION, f"union member {t!r}")
        c.type = prims or None
        c.type_schemas = schemas or None
        if c.type is None and c.type_schemas is None:
            raise E.SchemaInvalidError(E.WRONG_TYPE_SPECIFICATION, "empty type union")
    else:
        raise E.SchemaInvalidError(E.WRONG_TYPE_SPECIFICATION, repr(v))


@_kw("enum")
def _(c, v, root):
    if not isinstance(v, list) or not v:
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, "enum must be a non-empty array")
    c.enum = v


@_kw("const")
def _(c, v, root):
    c.const, c.has_const = v, True


@_kw("minimum")
def _(c, v, root):
    c.minimum = v


@_kw("exclusiveMinimum")
def _(c, v, root):
    # draft-04 boolean modifier form only (src/jesse_validator_draft4.erl:149-159)
    c.exclusive_minimum = bool(v)


@_kw("maximum")
def _(c, v, root):
    c.maximum = v


@_kw("exclusiveMaximum")
def _(c, v, root):
    c.exclusive_maximum = bool(v)


@_kw("multipleOf")
def _(c, v, root):
    if not isinstance(v, (int, float)) or v <= 0:
        # M <= 0 is schema_invalid (src/jesse_validator_draft4.erl:1026-1029)
        raise E.SchemaInvalidError(E.WRONG_MULTIPLE_OF, "multipleOf must be > 0")
    c.multiple_of = v


@_kw("pattern")
def _(c, v, root):
    c.pattern = v


@_kw("minLength")
def _(c, v, root):
    c.min_length = v


@_kw("maxLength")
def _(c, v, root):
    c.max_length = v


@_kw("minItems")
def _(c, v, root):
    c.min_items = v


@_kw("maxItems")
def _(c, v, root):
    c.max_items = v


@_kw("uniqueItems")
def _(c, v, root):
    c.unique_items = bool(v)


@_kw("items")
def _(c, v, root):
    if isinstance(v, dict) or isinstance(v, bool):
        c.items = _subspec(v, root)
    elif isinstance(v, list):
        c.items_positional = [_subspec(s, root) for s in v]
    else:
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, f"items must be schema or array, got {v!r}")


@_kw("additionalItems")
def _(c, v, root):
    c.additional_items = v if isinstance(v, bool) else _subspec(v, root)


@_kw("format")
def _(c, v, root):
    c.format = v


@_kw("allOf")
def _(c, v, root):
    c.all_of = [_subspec(s, root) for s in v]


@_kw("anyOf")
def _(c, v, root):
    c.any_of = [_subspec(s, root) for s in v]


@_kw("oneOf")
def _(c, v, root):
    c.one_of = [_subspec(s, root) for s in v]


@_kw("not")
def _(c, v, root):
    c.not_ = _subspec(v, root)


@_kw("divisibleBy")
def _(c, v, root):
    # draft-3: divisor 0 is a DATA error (not_divisible), so 0 is kept
    # (src/jesse_validator_draft3.erl:860-869)
    c.divisible_by = v


@_kw("disallow")
def _(c, v, root):
    # draft-3 negated type (src/jesse_validator_draft3.erl:878-889);
    # array members may be primitive names OR embedded schemas — the
    # same union semantics as draft-3 type (draft3.erl:304-328)
    if isinstance(v, list):
        prims = [t for t in v if isinstance(t, str)]
        schemas = [t for t in v if isinstance(t, dict)]
        c.disallow = prims or None
        c.disallow_schemas = [_subspec(s, root) for s in schemas] or None
    else:
        c.disallow = v


@_kw("extends")
def _(c, v, root):
    # draft-3 extends ≈ allOf (src/jesse_validator_draft3.erl:902-921)
    subs = v if isinstance(v, list) else [v]
    c.all_of = (c.all_of or []) + [_subspec(s, root) for s in subs]


@_kw("contains")
def _(c, v, root):
    c.contains = _subspec(v, root)


@_kw("required")
def _(c, v, root):
    # draft-3 per-property required:true inside the property schema
    # (src/jesse_validator_draft3.erl:346-383) — DRAFT-3 ONLY: the
    # draft-4 validator treats a boolean here as a malformed array.
    # The draft-4 ARRAY form inside a column sub-schema governs a
    # NESTED object's properties (src/jesse_validator_draft4.erl:1044-1058).
    if isinstance(v, bool) and _root_dialect(root) == "draft3":
        c.required = v
    elif isinstance(v, list):
        c.required_props = [str(x) for x in v]


@_kw("properties")
def _(c, v, root):
    # nested object properties on a STRUCT column
    # (src/jesse_validator_draft4.erl:380-400)
    if not isinstance(v, dict):
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, "properties must be an object")
    c.properties = {k: _subspec(s, root) for k, s in v.items()}


@_kw("patternProperties")
def _(c, v, root):
    # nested patternProperties on a struct column sub-schema
    if not isinstance(v, dict):
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, "patternProperties must be an object")
    c.pattern_props = {k: _subspec(s, root) for k, s in v.items()}


@_kw("additionalProperties")
def _(c, v, root):
    # nested additionalProperties on a struct column sub-schema; only the
    # boolean-false gate is meaningful columnar-side (a schema form would
    # validate undeclared fields, which a fixed Arrow struct type can
    # declare but the loader maps to properties anyway)
    if v is False:
        c.additional_props_allowed = False


@_kw("examples")
def _(c, v, root):
    # draft-6: must be an array; contents are NOT validated
    # (src/jesse_validator_draft6.erl:157-165)
    if not isinstance(v, list):
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, "examples must be an array")


def _resolve_ref(raw: dict, root: dict, depth: int = 0) -> dict:
    """Inline ``$ref`` pointing into the root schema's ``definitions`` /
    local JSON Pointers; NON-local refs resolve through the pluggable
    schema loader at compile time (jesse's schema_loader_fun applied to
    remote refs, src/jesse_database.erl:305-336 — ``file://`` works
    everywhere; ``http(s)://`` wherever the driver has egress).
    Compile-time flattening replaces the reference's runtime state-swap
    resolution (src/jesse_state.erl:207-303); ``$ref`` short-circuits
    sibling keywords, as in the reference
    (src/jesse_validator_draft4.erl:86-87)."""
    if depth > 32:
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, "$ref recursion too deep")
    ref = raw.get("$ref")
    if ref is None:
        return raw
    if not ref.startswith("#"):
        uri, _, frag = ref.partition("#")
        from jesse_ray.engine import default_schema_loader

        remote = default_schema_loader(uri)
        if remote is None:
            raise E.SchemaInvalidError(
                E.SCHEMA_INVALID,
                f"unresolvable non-local $ref {ref!r} (loader miss; no egress in this sandbox)",
            )
        # the remote document becomes the new root; an optional fragment
        # walks into it like a local pointer.  Every local $ref nested
        # anywhere inside the returned subtree is INLINED here against
        # the remote root — the downstream keyword handlers only know the
        # main schema's root, so leaving remote-internal pointers in
        # place would resolve them against the wrong document.
        target = _resolve_ref({"$ref": f"#{frag}"} if frag else remote, remote, depth + 1)
        return _inline_local_refs(target, remote, depth + 1)
    target: Any = root
    for part in ref.lstrip("#/").split("/"):
        if not part:
            continue
        part = part.replace("~1", "/").replace("~0", "~")
        if not isinstance(target, dict) or part not in target:
            raise E.SchemaInvalidError(E.SCHEMA_INVALID, f"unresolvable $ref {ref!r}")
        target = target[part]
    return _resolve_ref(target, root, depth + 1)


def _inline_local_refs(node: Any, root: dict, ref_depth: int = 0) -> Any:
    """Deep-inline every local ``$ref`` in ``node`` against ``root``
    (used when a remote document is spliced into another schema, whose
    handlers would otherwise resolve the remote's internal pointers
    against the wrong root).  ``ref_depth`` counts only REF HOPS, not
    structural nesting — a deep but ref-free subtree must not trip the
    recursion guard; cyclic ref graphs still terminate because each
    resolution bumps the hop count."""
    if isinstance(node, dict):
        if "$ref" in node and isinstance(node["$ref"], str) and node["$ref"].startswith("#"):
            if ref_depth > 32:
                raise E.SchemaInvalidError(E.SCHEMA_INVALID, "$ref recursion too deep")
            node = _resolve_ref(node, root, ref_depth)
            ref_depth += 1
        return {k: _inline_local_refs(v, root, ref_depth) for k, v in node.items()}
    if isinstance(node, list):
        return [_inline_local_refs(v, root, ref_depth) for v in node]
    return node


def _column_from_schema(raw: Any, root: dict) -> ColumnSpec:
    if raw is True:  # draft-6 boolean schema: true ≡ {} (src/jesse_validator_draft6.erl:285-291)
        raw = {}
    elif raw is False:  # false ≡ {"not": {}}
        raw = {"not": {}}
    if not isinstance(raw, dict):
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, f"schema must be an object, got {raw!r}")
    raw = _resolve_ref(raw, root)
    c = ColumnSpec()
    for kw, v in raw.items():
        fn = _KEYWORD_MAP.get(kw)
        if fn is not None:
            fn(c, v, root)
        # unknown keywords ignored (src/jesse_validator_draft4.erl:259-260)
    return c


def from_json_schema(
    schema: dict,
    *,
    name: str = "spec",
    key_column: str = "doc_id",
    default_schema_ver: Optional[str] = None,
    meta_schema_ver: Optional[str] = None,
) -> TableSpec:
    """Build a TableSpec from a draft-04 object schema whose ``properties``
    are the table's columns.  ``required`` must be a non-empty array when
    present (src/jesse_validator_draft4.erl:1044-1047).

    ``$schema`` selects the dialect as in the reference
    (src/jesse_schema_validator.erl:56-58,82-98), with the id-tag rule
    enforced at load time: draft-4 schemas must use ``id`` (a ``$id``
    key is schema_invalid) and draft-6 schemas must use ``$id``
    (src/jesse_validator_draft4.erl:84-85, src/jesse_validator_draft6.erl:86-87).
    Keyword semantics follow the per-keyword draft notes in the field
    docs (draft-3/6 deltas are explicit ColumnSpec fields).

    ``default_schema_ver`` — jesse's option of the same name
    (src/jesse.erl:94-102, src/jesse_schema_validator.erl:56-62):
    dialect used when the schema carries no ``$schema`` tag (a URI or
    a "draft3"/"draft4"/"draft6" shorthand).  ``meta_schema_ver`` —
    jesse's meta-schema gate (src/jesse.erl:94-102): when given, the
    schema's declared dialect MUST match it, else schema_invalid
    (structural keyword validation — the rest of the reference's
    meta-schema check — happens in the keyword handlers, which raise
    schema_invalid on malformed keyword values).
    """
    schema = copy.deepcopy(schema)
    dialect_uri = str(schema.get("$schema", "")) or str(default_schema_ver or "")
    if meta_schema_ver is not None:
        want = str(meta_schema_ver)
        declared = str(schema.get("$schema", "")) or str(default_schema_ver or "")
        norm = lambda s: ("draft3" if "draft-03" in s or s == "draft3" else
                          "draft6" if "draft-06" in s or s == "draft6" else
                          "draft4" if "draft-04" in s or s == "draft4" else s)
        if norm(want) != norm(declared):
            raise E.SchemaInvalidError(
                E.SCHEMA_INVALID,
                f"meta_schema_ver {want!r} does not match schema dialect {declared!r}",
            )
    if "draft-04" in dialect_uri and "$id" in schema:
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, "draft-4 schema must use 'id', not '$id'")
    if "draft-06" in dialect_uri and "id" in schema:
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, "draft-6 schema must use '$id', not 'id'")
    spec = TableSpec(name=name, key_column=key_column)
    if "draft-03" in dialect_uri or dialect_uri == "draft3":
        spec.dialect = "draft3"
    elif "draft-06" in dialect_uri or dialect_uri == "draft6":
        spec.dialect = "draft6"
    if dialect_uri:
        # make the EFFECTIVE dialect (incl. the default_schema_ver
        # fallback) visible to keyword handlers via the root schema
        schema.setdefault("$schema", dialect_uri)
    props = schema.get("properties", {})
    for col, sub in props.items():
        spec.columns[col] = _column_from_schema(sub, schema)
    req = schema.get("required")
    if req is not None and not isinstance(req, bool):
        # draft-4 requires a NON-EMPTY array (src/jesse_validator_draft4.erl:1044-1047);
        # draft-6 allows [] (src/jesse_validator_draft6.erl:1019-1023)
        if not isinstance(req, list) or (len(req) == 0 and spec.dialect != "draft6"):
            raise E.SchemaInvalidError(E.WRONG_REQUIRED_ARRAY, "required must be a non-empty array")
        for col in req:
            spec.columns.setdefault(col, ColumnSpec()).required = True
    deps = schema.get("dependencies")
    if isinstance(deps, dict):
        for col, need in deps.items():
            if isinstance(need, list):
                spec.dependencies[col] = list(need)
            elif isinstance(need, dict):
                # schema-form: col present ⇒ row satisfies the dependent
                # schema (src/jesse_validator_draft4.erl:656-668)
                spec.schema_dependencies[col] = from_json_schema(
                    {**need, "$schema": dialect_uri} if dialect_uri else need,
                    name=f"{name}.dependencies.{col}",
                    key_column=key_column,
                )
            else:
                raise E.SchemaInvalidError(E.SCHEMA_INVALID, f"invalid dependency for {col!r}")
    if schema.get("additionalProperties") is False:
        spec.additional_columns_allowed = False
    if "propertyNames" in schema and spec.dialect == "draft6":
        # draft-6 keyword; draft-3/4 validators ignore it
        # (unknown-keyword rule, src/jesse_validator_draft4.erl:259-260)
        spec.property_names = _column_from_schema(schema["propertyNames"], schema)
    pat_props = schema.get("patternProperties")
    if isinstance(pat_props, dict):
        for pat, sub in pat_props.items():
            spec.column_patterns[pat] = _column_from_schema(sub, schema)
    # if/then/else — draft-7-STYLE extension beyond the reference's
    # draft-6 ceiling.  Condition and branches use the object form
    # {"properties": {col: subschema, ...}}; the reference ignores the
    # unknown keywords (src/jesse_validator_draft4.erl:259-260), so
    # schemas carrying them still load there (minus the conditional).
    if isinstance(schema.get("if"), dict):
        cond = {
            col: _column_from_schema(sub, schema)
            for col, sub in schema["if"].get("properties", {}).items()
        }

        def _branch(key: str) -> dict:
            node = schema.get(key)
            if not isinstance(node, dict):
                return {}
            return {
                col: _column_from_schema(sub, schema)
                for col, sub in node.get("properties", {}).items()
            }

        if cond:
            spec.conditionals.append(
                ConditionalRule(if_=cond, then_=_branch("then"), else_=_branch("else"))
            )
    if "minProperties" in schema:
        spec.min_columns = int(schema["minProperties"])
    if "maxProperties" in schema:
        spec.max_columns = int(schema["maxProperties"])
    # engine extension keyword (not in any draft): corpus-wide key
    # uniqueness — written by infer.to_json_schema, ignored by the
    # reference's keyword set
    uk = schema.get("uniqueKeys")
    if isinstance(uk, list):
        spec.unique_keys = [str(k) for k in uk]
    return spec


def sequences_spec(
    *,
    vocab_size: int = 50_000,
    min_tokens: int = 1,
    max_tokens: int = 2048,
    allowed_sources: Optional[list[str]] = None,
    allowed_sources_path: Optional[str] = None,
    doc_id_pattern: str = r"^doc-[0-9]{8}$",
) -> TableSpec:
    """The flagship corpus spec for the (doc_id, tokens, n_tok, source)
    table — BASELINE.json input_hint shape, FIXTURES.md F1 rules."""
    spec = TableSpec(name="sequences", key_column="doc_id")
    spec.columns["doc_id"] = ColumnSpec(type="string", required=True, pattern=doc_id_pattern)
    spec.columns["tokens"] = ColumnSpec(
        type="array",
        required=True,
        min_items=min_tokens,
        max_items=max_tokens,
        items=ColumnSpec(type="integer", minimum=0, maximum=vocab_size, exclusive_maximum=True),
    )
    spec.columns["n_tok"] = ColumnSpec(
        type="integer", required=True, minimum=min_tokens, maximum=max_tokens
    )
    spec.columns["source"] = ColumnSpec(type="string", required=True)
    spec.consistency.append(
        ConsistencyRule(kind="list_len_eq", left="tokens", right="n_tok", name="n_tok_eq_len")
    )
    spec.unique_keys = ["doc_id"]
    if allowed_sources is not None or allowed_sources_path is not None:
        spec.referential.append(
            ReferentialRule(
                column="source",
                values=allowed_sources,
                dim_path=allowed_sources_path,
                dim_column="source",
                dim_filter_column="active",
            )
        )
    return spec
