"""Materialized columnar metadata projections: stats as engine-side scans.

The corpus-statistics surface (paper Tables 1-6, Figures 4-5) used to be
computed by iterating Python ``Table`` objects one shard at a time —
re-parsing every table's JSON and re-inferring every column's dtype on
every run. A :class:`ColumnarProjection` materializes the metadata those
reports actually consume into typed, contiguous NumPy columns:

* per **table** — id, topic, repository, license, ``n_rows``, ``n_cols``
  (dictionary-encoded: a small string vocabulary plus int code arrays);
* per **column** — owning table, name, inferred atomic dtype;
* per **annotation** — owning table, method, ontology, column name,
  type label, confidence (rows stored in the exact order the Python
  reference iterates them, so order-sensitive reconstructions such as
  ``Counter.most_common`` tie-breaking are bit-identical);
* per **scrubbed PII column** — owning table, column name, PII label.

On top of the arrays sits a small vectorized kernel set
(:func:`count_by`, :func:`sum_by`, :func:`histogram`, :func:`quantiles`,
:func:`masked`) that the statistics reports are rewired onto, and a
predicate-pushdown path (:class:`TablePredicate` +
:meth:`ColumnarProjection.select_ids`) that lets ``corpus.filter()``
evaluate dtype/topic/annotation predicates on the columns and read only
the matching tables from the sharded store.

Projections persist through the :class:`~repro.storage.artifacts.
IndexArtifactStore` (``stats_*`` arrays plus a vocabulary payload),
fingerprint-guarded by the corpus ``content_fingerprint()`` — any
corpus change reads as a miss and the projection is rebuilt lazily.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from ..dataframe.dtypes import AtomicType
from .artifacts import IndexArtifactStore, corpus_artifacts, corpus_content_fingerprint, resolve

__all__ = [
    "ATOMIC_TYPES",
    "METHODS",
    "PROJECTION_ARTIFACT",
    "PROJECTION_VERSION",
    "ColumnarProjection",
    "TablePredicate",
    "count_by",
    "ensure_projection",
    "first_seen_counts",
    "histogram",
    "load_projection",
    "masked",
    "projection_fingerprint",
    "publish_projection",
    "quantiles",
    "sum_by",
]

#: Name of the persisted projection artifact.
PROJECTION_ARTIFACT = "stats-projection"
#: Bump on any layout change: the version lives in the artifact
#: fingerprint, so older projections read as a miss and are rebuilt.
PROJECTION_VERSION = 1

#: Fixed dtype vocabulary: codes index into ``AtomicType`` declaration order.
ATOMIC_TYPES: tuple[str, ...] = tuple(atomic.value for atomic in AtomicType)
#: Fixed method vocabulary: codes index into this tuple.
METHODS: tuple[str, ...] = ("syntactic", "semantic")


# -- aggregate kernels -------------------------------------------------------


def count_by(codes, size: int, mask=None) -> np.ndarray:
    """Occurrences of each code in ``[0, size)`` (int64, length ``size``).

    ``codes`` must be non-negative; pass ``mask`` to count a subset.
    """
    codes = np.asarray(codes)
    if mask is not None:
        codes = codes[np.asarray(mask)]
    if codes.size == 0:
        return np.zeros(size, dtype=np.int64)
    return np.bincount(codes, minlength=size).astype(np.int64, copy=False)[:size]


def sum_by(codes, weights, size: int, mask=None) -> np.ndarray:
    """Per-code sums of ``weights`` (length ``size``, weights' dtype).

    Integer weights accumulate in int64 (exact); float weights in
    float64. ``codes`` must be non-negative.
    """
    codes = np.asarray(codes)
    weights = np.asarray(weights)
    if mask is not None:
        mask = np.asarray(mask)
        codes, weights = codes[mask], weights[mask]
    dtype = np.int64 if np.issubdtype(weights.dtype, np.integer) else np.float64
    totals = np.zeros(size, dtype=dtype)
    np.add.at(totals, codes, weights)
    return totals


def histogram(values, bins) -> np.ndarray:
    """Counts of ``values`` per bin (thin, kernel-shaped ``np.histogram``)."""
    return np.histogram(np.asarray(values), bins=bins)[0]


def quantiles(values, qs) -> np.ndarray:
    """``np.quantile`` over ``values`` (zeros for an empty input)."""
    values = np.asarray(values, dtype=np.float64)
    qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
    if values.size == 0:
        return np.zeros(qs.shape, dtype=np.float64)
    return np.quantile(values, qs)


def masked(values, mask) -> np.ndarray:
    """Masked selection: the elements of ``values`` where ``mask`` holds."""
    return np.asarray(values)[np.asarray(mask)]


def first_seen_counts(codes) -> tuple[np.ndarray, np.ndarray]:
    """(distinct codes in first-occurrence order, their counts).

    First-occurrence order is what a Python ``Counter`` built by
    iteration exposes — and what ``Counter.most_common`` uses to break
    ties — so reconstructions from this kernel are order-identical to
    the iteration reference.
    """
    codes = np.asarray(codes)
    if codes.size == 0:
        return codes[:0], np.zeros(0, dtype=np.int64)
    uniq, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return uniq[order], counts[order].astype(np.int64, copy=False)


class _Vocab:
    """Dictionary encoder: first-seen strings get consecutive int codes.

    ``existing`` seeds the encoder with an already-assigned vocabulary
    (in code order), so an incremental rebuild re-issues identical codes
    for every known string and extends with fresh codes only for new
    ones — the invariant that lets extended code arrays concatenate onto
    committed ones.
    """

    def __init__(self, existing=()) -> None:
        self._codes: dict[str, int] = {value: code for code, value in enumerate(existing)}

    def code(self, value: str) -> int:
        code = self._codes.get(value)
        if code is None:
            code = self._codes[value] = len(self._codes)
        return code

    def values(self) -> tuple[str, ...]:
        return tuple(self._codes)


#: dtype of each persisted array field; the extension path concatenates
#: with these so an extended projection's arrays are dtype-identical to
#: a from-scratch scan's.
_ARRAY_DTYPES = {
    "n_rows": np.int64,
    "n_cols": np.int64,
    "topic_codes": np.int32,
    "repo_codes": np.int32,
    "license_codes": np.int32,
    "col_table": np.int64,
    "col_name": np.int32,
    "col_dtype": np.int8,
    "ann_table": np.int64,
    "ann_method": np.int8,
    "ann_ontology": np.int16,
    "ann_column": np.int32,
    "ann_label": np.int32,
    "ann_confidence": np.float64,
    "pii_table": np.int64,
    "pii_column": np.int32,
    "pii_label": np.int16,
}


def _scan_tables(tables, start_index: int, vocabs: dict) -> tuple[list, dict]:
    """The projection scan loop: one pass over ``tables`` into plain lists.

    ``start_index`` is the global index of the first yielded table (0
    for a full scan, the committed count for a tail scan), so row->table
    references are correct in both cases. ``vocabs`` maps each
    vocabulary field name to its (possibly pre-seeded) :class:`_Vocab`.
    Returns ``(table_ids, {array field -> list})``.
    """
    from ..core.annotation import AnnotationMethod

    methods = (AnnotationMethod.SYNTACTIC, AnnotationMethod.SEMANTIC)
    topics = vocabs["topics"]
    repos = vocabs["repositories"]
    licenses = vocabs["licenses"]
    names = vocabs["column_names"]
    ontologies = vocabs["ontologies"]
    labels = vocabs["type_labels"]
    pii_labels = vocabs["pii_labels"]

    table_ids: list[str] = []
    arrays: dict[str, list] = {name: [] for name in _ARRAY_DTYPES}

    for index, annotated in enumerate(tables, start=start_index):
        table = annotated.table
        table_ids.append(annotated.table_id)
        arrays["n_rows"].append(table.num_rows)
        arrays["n_cols"].append(table.num_columns)
        arrays["topic_codes"].append(topics.code(annotated.topic))
        arrays["repo_codes"].append(repos.code(annotated.repository))
        arrays["license_codes"].append(
            -1 if annotated.license_key is None else licenses.code(annotated.license_key)
        )
        for column in table.columns:
            arrays["col_table"].append(index)
            arrays["col_name"].append(names.code(column.name))
            arrays["col_dtype"].append(ATOMIC_TYPES.index(column.atomic_type.value))
        for method_code, method in enumerate(methods):
            for annotation in annotated.annotations.for_method(method):
                arrays["ann_table"].append(index)
                arrays["ann_method"].append(method_code)
                arrays["ann_ontology"].append(ontologies.code(annotation.ontology))
                arrays["ann_column"].append(names.code(annotation.column))
                arrays["ann_label"].append(labels.code(annotation.type_label))
                arrays["ann_confidence"].append(annotation.confidence)
        scrubbed = table.metadata.get("pii_scrubbed_types") or {}
        for column_name, label in scrubbed.items():
            arrays["pii_table"].append(index)
            arrays["pii_column"].append(names.code(column_name))
            arrays["pii_label"].append(pii_labels.code(label))

    return table_ids, arrays


# -- predicates --------------------------------------------------------------


@dataclass(frozen=True)
class TablePredicate:
    """A declarative table filter, evaluated on the columnar projection.

    Unset fields (``None``) do not constrain.
    :meth:`ColumnarProjection.select` evaluates it over the projection
    arrays without touching any table JSON; the per-table reference it
    must equal is a test oracle (property-tested).
    """

    topic: str | None = None
    repository: str | None = None
    license_key: str | None = None
    min_rows: int | None = None
    max_rows: int | None = None
    min_columns: int | None = None
    max_columns: int | None = None
    #: Require at least one column of this atomic type.
    dtype: AtomicType | str | None = None
    #: Require an annotation with this type label...
    annotation_label: str | None = None
    #: ...optionally restricted to one method ("syntactic"/"semantic").
    method: str | None = None
    #: Require (True) / forbid (False) scrubbed PII columns.
    pii: bool | None = None

    def _dtype_value(self) -> str | None:
        if self.dtype is None:
            return None
        return self.dtype.value if isinstance(self.dtype, AtomicType) else str(self.dtype)


# -- the projection ----------------------------------------------------------


@dataclass(frozen=True)
class ColumnarProjection:
    """Typed column arrays over a corpus' metadata (see module docstring).

    All arrays are parallel within their group; string-valued columns
    are dictionary-encoded against the vocabulary tuples. Annotation
    and PII rows are stored in reference iteration order (table order;
    within a table, methods syntactic-then-semantic, each in ontology
    insertion order), which makes order-sensitive reconstructions exact.
    """

    #: ``content_fingerprint()`` of the source store (None = in-memory).
    corpus_fingerprint: str | None = field(compare=False)
    table_ids: tuple[str, ...]
    # table-level arrays (length = table count)
    n_rows: np.ndarray
    n_cols: np.ndarray
    topic_codes: np.ndarray
    repo_codes: np.ndarray
    license_codes: np.ndarray  # -1 encodes a missing license
    # column-level arrays (length = total physical columns)
    col_table: np.ndarray
    col_name: np.ndarray
    col_dtype: np.ndarray  # codes into ATOMIC_TYPES
    # annotation-level arrays (length = total annotations)
    ann_table: np.ndarray
    ann_method: np.ndarray  # codes into METHODS
    ann_ontology: np.ndarray
    ann_column: np.ndarray  # codes into the shared column-name vocabulary
    ann_label: np.ndarray
    ann_confidence: np.ndarray
    # PII rows (length = total scrubbed columns)
    pii_table: np.ndarray
    pii_column: np.ndarray
    pii_label: np.ndarray
    # vocabularies (first-seen order)
    topics: tuple[str, ...]
    repositories: tuple[str, ...]
    licenses: tuple[str, ...]
    column_names: tuple[str, ...]
    ontologies: tuple[str, ...]
    type_labels: tuple[str, ...]
    pii_labels: tuple[str, ...]

    def __eq__(self, other) -> bool:  # arrays defeat dataclass ==
        if not isinstance(other, ColumnarProjection):
            return NotImplemented
        for spec in fields(self):
            if not spec.compare:
                continue
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, np.ndarray):
                if mine.shape != theirs.shape or not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    @property
    def table_count(self) -> int:
        return len(self.table_ids)

    @property
    def column_count(self) -> int:
        return int(self.col_table.size)

    @property
    def annotation_count(self) -> int:
        return int(self.ann_table.size)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_corpus(cls, corpus) -> "ColumnarProjection":
        """One streaming pass over ``corpus`` building every column array."""
        vocabs = {name: _Vocab() for name in _VOCAB_FIELDS[1:]}
        table_ids, arrays = _scan_tables(iter(corpus), 0, vocabs)
        return cls(
            corpus_fingerprint=corpus_content_fingerprint(corpus),
            table_ids=tuple(table_ids),
            **{name: np.asarray(values, dtype=_ARRAY_DTYPES[name])
               for name, values in arrays.items()},
            **{name: vocab.values() for name, vocab in vocabs.items()},
        )

    def extended(self, corpus) -> "ColumnarProjection | None":
        """This projection grown by ``corpus``'s tail, or ``None``.

        The incremental rebuild: when ``corpus`` extends the corpus this
        projection was built from (its table-id sequence starts with
        ``self.table_ids``, verified here without reading any shard),
        only the tail tables are scanned — whole committed shards are
        skipped via their manifest counts — and the new arrays are the
        committed ones with the tail's rows appended, identical to a
        from-scratch scan because the vocabularies are re-seeded in code
        order. Returns ``None`` when ``corpus`` is not an extension.
        """
        start = len(self.table_ids)
        store = corpus.store
        if tuple(islice(store.table_ids(), start)) != tuple(self.table_ids):
            return None
        iter_from = getattr(store, "iter_from", None)
        tail = iter_from(start) if iter_from is not None else islice(iter(corpus), start, None)
        vocabs = {
            name: _Vocab(getattr(self, name)) for name in _VOCAB_FIELDS[1:]
        }
        tail_ids, tail_arrays = _scan_tables(tail, start, vocabs)
        return ColumnarProjection(
            corpus_fingerprint=corpus_content_fingerprint(corpus),
            table_ids=tuple(self.table_ids) + tuple(tail_ids),
            **{
                name: np.concatenate(
                    [
                        np.asarray(getattr(self, name)),
                        np.asarray(values, dtype=_ARRAY_DTYPES[name]),
                    ]
                ).astype(_ARRAY_DTYPES[name], copy=False)
                for name, values in tail_arrays.items()
            },
            **{name: vocab.values() for name, vocab in vocabs.items()},
        )

    # -- column-level aggregates --------------------------------------------

    def dtype_counts(self) -> dict[str, int]:
        """Atomic type value -> physical column count (first-seen order)."""
        codes, counts = first_seen_counts(self.col_dtype)
        return {
            ATOMIC_TYPES[code]: int(count)
            for code, count in zip(codes.tolist(), counts.tolist())
        }

    # -- predicate pushdown --------------------------------------------------

    @staticmethod
    def _equals(codes: np.ndarray, vocabulary: tuple[str, ...], value: str) -> np.ndarray:
        """Mask of ``codes`` encoding ``value``; all-false when it is not in
        ``vocabulary`` (a code array may store ``-1`` for a missing value)."""
        if value not in vocabulary:
            return np.zeros(codes.shape, dtype=bool)
        return codes == vocabulary.index(value)

    def _tables_with(self, row_tables: np.ndarray, row_mask: np.ndarray) -> np.ndarray:
        """Boolean table mask: tables owning at least one masked row."""
        mask = np.zeros(self.table_count, dtype=bool)
        mask[np.unique(row_tables[row_mask])] = True
        return mask

    def select(self, predicate: TablePredicate) -> np.ndarray:
        """Boolean mask over tables satisfying ``predicate`` (columns only)."""
        mask = np.ones(self.table_count, dtype=bool)
        if predicate.topic is not None:
            mask &= self._equals(self.topic_codes, self.topics, predicate.topic)
        if predicate.repository is not None:
            mask &= self._equals(self.repo_codes, self.repositories, predicate.repository)
        if predicate.license_key is not None:
            mask &= self._equals(self.license_codes, self.licenses, predicate.license_key)
        if predicate.min_rows is not None:
            mask &= self.n_rows >= predicate.min_rows
        if predicate.max_rows is not None:
            mask &= self.n_rows <= predicate.max_rows
        if predicate.min_columns is not None:
            mask &= self.n_cols >= predicate.min_columns
        if predicate.max_columns is not None:
            mask &= self.n_cols <= predicate.max_columns
        wanted_dtype = predicate._dtype_value()
        if wanted_dtype is not None:
            row_mask = self._equals(self.col_dtype, ATOMIC_TYPES, wanted_dtype)
            mask &= self._tables_with(self.col_table, row_mask)
        if predicate.annotation_label is not None:
            row_mask = self._equals(self.ann_label, self.type_labels, predicate.annotation_label)
            if predicate.method is not None:
                row_mask &= self.ann_method == METHODS.index(predicate.method)
            mask &= self._tables_with(self.ann_table, row_mask)
        if predicate.pii is not None:
            has_pii = self._tables_with(self.pii_table, np.ones(self.pii_table.size, dtype=bool))
            mask &= has_pii if predicate.pii else ~has_pii
        return mask

    def select_ids(self, predicate: TablePredicate) -> list[str]:
        """Table ids satisfying ``predicate``, in corpus order."""
        return [self.table_ids[index] for index in np.flatnonzero(self.select(predicate))]

    # -- export --------------------------------------------------------------

    def to_parquet(self, directory: str | os.PathLike[str]) -> list[str]:
        """Export the projection as Parquet files (requires pyarrow).

        Writes ``tables/columns/annotations/pii.parquet`` under
        ``directory`` with vocabularies decoded back to strings, for
        external engines (DuckDB, Spark, pandas). Raises
        ``RuntimeError`` when pyarrow is not installed.
        """
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq
        except ImportError as error:  # pragma: no cover - env-dependent
            raise RuntimeError(
                "to_parquet requires pyarrow, which is not installed"
            ) from error

        def decode(codes: np.ndarray, vocabulary: tuple[str, ...]) -> list[str | None]:
            return [vocabulary[code] if code >= 0 else None for code in codes.tolist()]

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        frames = {
            "tables": {
                "table_id": list(self.table_ids),
                "topic": decode(self.topic_codes, self.topics),
                "repository": decode(self.repo_codes, self.repositories),
                "license": decode(self.license_codes, self.licenses),
                "n_rows": self.n_rows,
                "n_cols": self.n_cols,
            },
            "columns": {
                "table": self.col_table,
                "name": decode(self.col_name, self.column_names),
                "dtype": decode(self.col_dtype.astype(np.int32), ATOMIC_TYPES),
            },
            "annotations": {
                "table": self.ann_table,
                "method": decode(self.ann_method.astype(np.int32), METHODS),
                "ontology": decode(self.ann_ontology.astype(np.int32), self.ontologies),
                "column": decode(self.ann_column, self.column_names),
                "type_label": decode(self.ann_label, self.type_labels),
                "confidence": self.ann_confidence,
            },
            "pii": {
                "table": self.pii_table,
                "column": decode(self.pii_column, self.column_names),
                "label": decode(self.pii_label.astype(np.int32), self.pii_labels),
            },
        }
        written = []
        for name, columns in frames.items():
            path = directory / f"{name}.parquet"
            pq.write_table(pa.table(columns), path)
            written.append(str(path))
        return written


# -- persistence -------------------------------------------------------------

_ARRAY_FIELDS = (
    "n_rows",
    "n_cols",
    "topic_codes",
    "repo_codes",
    "license_codes",
    "col_table",
    "col_name",
    "col_dtype",
    "ann_table",
    "ann_method",
    "ann_ontology",
    "ann_column",
    "ann_label",
    "ann_confidence",
    "pii_table",
    "pii_column",
    "pii_label",
)
_VOCAB_FIELDS = (
    "table_ids",
    "topics",
    "repositories",
    "licenses",
    "column_names",
    "ontologies",
    "type_labels",
    "pii_labels",
)


def projection_fingerprint(corpus_fingerprint: str | None) -> dict:
    """The artifact guard: layout version plus corpus content hash."""
    return {
        "kind": "columnar-projection",
        "version": PROJECTION_VERSION,
        "corpus": corpus_fingerprint,
    }


def _encode_projection(projection: ColumnarProjection) -> dict:
    payload = {name: list(getattr(projection, name)) for name in _VOCAB_FIELDS}
    payload["version"] = PROJECTION_VERSION
    return {
        "arrays": {f"stats_{name}": getattr(projection, name) for name in _ARRAY_FIELDS},
        "payload": payload,
    }


def _decode_projection(loaded, corpus_fingerprint) -> ColumnarProjection | None:
    arrays = {}
    for name in _ARRAY_FIELDS:
        array = loaded.arrays.get(f"stats_{name}")
        if array is None:
            return None
        arrays[name] = array
    vocabularies = {name: tuple(loaded.payload.get(name, ())) for name in _VOCAB_FIELDS}
    return ColumnarProjection(
        corpus_fingerprint=corpus_fingerprint, **arrays, **vocabularies
    )


def _extend_projection(corpus, stale, boundary: int) -> ColumnarProjection | None:
    """A superseded projection grown by ``corpus``'s tail past ``boundary``.

    :meth:`ColumnarProjection.extended` re-checks the table-id prefix and
    scans only the tail tables — O(new tables).
    """
    projection = _decode_projection(stale, stale.fingerprint["corpus"])
    if projection is None or len(projection.table_ids) != boundary:
        return None
    return projection.extended(corpus)


def publish_projection(
    artifacts: IndexArtifactStore,
    projection: ColumnarProjection,
    corpus_fingerprint: str | None = None,
) -> None:
    """Persist ``projection`` as the ``stats_*`` artifact arrays.

    ``corpus_fingerprint`` overrides the projection's recorded
    fingerprint — used when publishing an in-memory corpus' projection
    into a directory it was just saved to.
    """
    fingerprint = corpus_fingerprint or projection.corpus_fingerprint
    if fingerprint is None:
        raise ValueError("cannot publish a projection without a corpus fingerprint")
    artifacts.publish(
        PROJECTION_ARTIFACT, projection_fingerprint(fingerprint), **_encode_projection(projection)
    )


def load_projection(
    artifacts: IndexArtifactStore, corpus_fingerprint: str
) -> ColumnarProjection | None:
    """The persisted projection for this corpus state, or None on any miss."""
    loaded = artifacts.load(PROJECTION_ARTIFACT, projection_fingerprint(corpus_fingerprint))
    return None if loaded is None else _decode_projection(loaded, corpus_fingerprint)


def ensure_projection(corpus, *, prune: bool = True) -> ColumnarProjection:
    """Resolve a current projection for ``corpus`` and attach it.

    A projection already attached to the corpus wins; otherwise it is
    resolved through :func:`~repro.storage.artifacts.resolve` against
    the artifact store the corpus's own storage owns — adopted from the
    ``stats-projection`` artifact, extended over the tail of a
    superseded one, or built with one full corpus scan and published
    (``prune`` as there). In-memory corpora and stores opened with
    ``use_artifacts=False`` only build. The result is attached to the
    corpus so subsequent statistics and filter calls stay engine-side.
    """
    attached = getattr(corpus, "projection", None)
    if attached is not None:
        return attached
    artifacts, fingerprint = corpus_artifacts(corpus)
    projection, _ = resolve(
        artifacts,
        PROJECTION_ARTIFACT,
        projection_fingerprint(fingerprint),
        corpus,
        decode=lambda loaded: _decode_projection(loaded, fingerprint),
        build=lambda: ColumnarProjection.from_corpus(corpus),
        encode=_encode_projection,
        extend=lambda stale, boundary: _extend_projection(corpus, stale, boundary),
        prune=prune,
    )
    attach = getattr(corpus, "attach_projection", None)
    if attach is not None:
        attach(projection)
    return projection
