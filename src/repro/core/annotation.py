"""Column annotation with semantic types (paper §3.4).

Two annotation methods are provided:

* :class:`SyntacticAnnotator` — normalises the column name (underscores,
  hyphens, camel-case, lower-casing) and matches it *exactly* against the
  normalised labels of the ontology. Matches carry confidence 1.0.
* :class:`SemanticAnnotator` — embeds the normalised column name and
  every ontology type label with a FastText-style character-n-gram model
  and annotates with the most similar type, keeping the cosine similarity
  as the annotation confidence. Annotations below a configurable
  threshold are discarded.

Both methods skip column names containing digits, because experiments in
the paper showed those produce spurious matches against types that
coincidentally contain a number.

Batches are the primary execution path: every annotator (and the
:class:`AnnotationPipeline`) exposes ``annotate_batch(tables)``, which
collects all column names across the batch, normalises and deduplicates
them once, and resolves them against each ontology with one batched
index query. ``annotate`` and ``annotate_column`` are thin wrappers over
the same resolution machinery, so their results are bit-identical to the
batched path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from ..config import DEFAULT_INDEX_CONFIG, AnnotationConfig, IndexConfig
from ..dataframe.table import Table
from ..embeddings.ann import PartitionedIndex, build_index
from ..embeddings.fasttext import FastTextModel
from ..embeddings.persist import embedder_fingerprint, encode_index, index_from_artifact
from ..embeddings.similarity import NearestNeighbourIndex
from ..errors import AnnotationError
from ..ontology.registry import load_ontologies
from ..ontology.types import Ontology, normalize_label
from ..storage.artifacts import IndexArtifactStore, fingerprint_digest, resolve

__all__ = [
    "AnnotationMethod",
    "ColumnAnnotation",
    "TableAnnotations",
    "SyntacticAnnotator",
    "SemanticAnnotator",
    "AnnotationPipeline",
    "annotate_table",
    "annotate_tables",
]


class AnnotationMethod(str, Enum):
    """The annotation method that produced a column annotation."""

    SYNTACTIC = "syntactic"
    SEMANTIC = "semantic"


@dataclass(frozen=True)
class ColumnAnnotation:
    """A single column annotation."""

    column: str
    type_label: str
    ontology: str
    method: AnnotationMethod
    #: Cosine similarity (semantic) or 1.0 (syntactic exact match).
    confidence: float

    def as_tuple(self) -> tuple[str, float]:
        """(type label, confidence) pair used by the PII scrubber."""
        return (self.type_label, self.confidence)


@dataclass
class TableAnnotations:
    """All annotations of one table, grouped by method and ontology."""

    table_id: str
    #: method -> ontology -> list of ColumnAnnotation
    annotations: dict[AnnotationMethod, dict[str, list[ColumnAnnotation]]] = field(
        default_factory=dict
    )

    def add(self, annotation: ColumnAnnotation) -> None:
        per_method = self.annotations.setdefault(annotation.method, {})
        per_method.setdefault(annotation.ontology, []).append(annotation)

    def for_method(self, method: AnnotationMethod, ontology: str | None = None) -> list[ColumnAnnotation]:
        """Annotations of one method, optionally restricted to one ontology."""
        per_method = self.annotations.get(method, {})
        if ontology is not None:
            return list(per_method.get(ontology, []))
        result: list[ColumnAnnotation] = []
        for annotations in per_method.values():
            result.extend(annotations)
        return result

    def all(self) -> list[ColumnAnnotation]:
        """Every annotation across methods and ontologies."""
        result: list[ColumnAnnotation] = []
        for per_method in self.annotations.values():
            for annotations in per_method.values():
                result.extend(annotations)
        return result

    def column_types(
        self, method: AnnotationMethod, ontology: str
    ) -> dict[str, tuple[str, float]]:
        """column name -> (type label, confidence) for one method+ontology."""
        return {
            annotation.column: (annotation.type_label, annotation.confidence)
            for annotation in self.for_method(method, ontology)
        }

    def annotated_column_fraction(self, method: AnnotationMethod, n_columns: int) -> float:
        """Fraction of the table's columns annotated by ``method`` (any ontology)."""
        if n_columns == 0:
            return 0.0
        columns = {annotation.column for annotation in self.for_method(method)}
        return len(columns) / n_columns

    def pii_view(self) -> dict[str, list[tuple[str, float]]]:
        """column -> [(type, confidence), ...] across everything (for the scrubber)."""
        view: dict[str, list[tuple[str, float]]] = {}
        for annotation in self.all():
            view.setdefault(annotation.column, []).append(annotation.as_tuple())
        return view


def _contains_digit(text: str) -> bool:
    return any(char.isdigit() for char in text)


def preprocess_column_name(name: str) -> str:
    """Normalise a column name for matching (paper §3.4)."""
    return normalize_label(name)


class _ColumnNameAnnotator:
    """Shared batch machinery of both annotation methods.

    Subclasses define :meth:`resolve_normalized` — mapping a list of
    normalised column names to ``(type label, confidence)`` hits — and
    inherit the per-column / per-table / per-batch entry points, which
    all funnel through that single resolution primitive.
    """

    method: AnnotationMethod
    ontology: Ontology
    skip_numeric_column_names: bool

    def resolve_normalized(
        self, names: Sequence[str]
    ) -> dict[str, tuple[str, float] | None]:
        """normalised name -> (type label, confidence), or None for a miss."""
        raise NotImplementedError

    def _eligible_normalized(self, column_name: str) -> str | None:
        """The normalised form of an annotatable name, else None."""
        if not column_name or not column_name.strip():
            return None
        if self.skip_numeric_column_names and _contains_digit(column_name):
            return None
        return preprocess_column_name(column_name) or None

    def _annotation(self, column_name: str, hit: tuple[str, float]) -> ColumnAnnotation:
        label, confidence = hit
        return ColumnAnnotation(
            column=column_name,
            type_label=label,
            ontology=self.ontology.name,
            method=self.method,
            confidence=confidence,
        )

    def annotate_column(self, column_name: str) -> ColumnAnnotation | None:
        """Annotate a single column name; None when nothing matches."""
        normalized = self._eligible_normalized(column_name)
        if normalized is None:
            return None
        hit = self.resolve_normalized([normalized])[normalized]
        if hit is None:
            return None
        return self._annotation(column_name, hit)

    def annotate(self, table: Table) -> list[ColumnAnnotation]:
        """Annotate every column of ``table`` (missing matches are skipped)."""
        return self.annotate_batch([table])[0]

    def _collect_eligible(self, tables: Sequence[Table]) -> list[tuple[int, str, str]]:
        """(table index, column name, normalised name) for annotatable columns.

        Eligibility (and normalisation) is memoised per distinct column
        name — names repeat heavily across a corpus batch.
        """
        memo: dict[str, str | None] = {}
        eligible: list[tuple[int, str, str]] = []
        for table_index, table in enumerate(tables):
            for name in table.header:
                if name in memo:
                    normalized = memo[name]
                else:
                    normalized = memo[name] = self._eligible_normalized(name)
                if normalized is not None:
                    eligible.append((table_index, name, normalized))
        return eligible

    def _annotate_eligible(
        self, eligible: list[tuple[int, str, str]], n_tables: int
    ) -> list[list[ColumnAnnotation]]:
        """Resolve pre-collected eligible names and fan results back out."""
        resolved = self.resolve_normalized([normalized for _, _, normalized in eligible])
        results: list[list[ColumnAnnotation]] = [[] for _ in range(n_tables)]
        for table_index, name, normalized in eligible:
            hit = resolved[normalized]
            if hit is not None:
                results[table_index].append(self._annotation(name, hit))
        return results

    def annotate_batch(self, tables: Sequence[Table]) -> list[list[ColumnAnnotation]]:
        """Annotate every column of every table with one resolution pass.

        All eligible column names across the batch are normalised and
        deduplicated once, resolved together, and fanned back out to the
        tables in header order — the same annotations ``annotate`` would
        produce table by table.
        """
        return self._annotate_eligible(self._collect_eligible(tables), len(tables))


class SyntacticAnnotator(_ColumnNameAnnotator):
    """Exact-match annotation of normalised column names against an ontology."""

    method = AnnotationMethod.SYNTACTIC

    def __init__(self, ontology: Ontology, skip_numeric_column_names: bool = True) -> None:
        self.ontology = ontology
        self.skip_numeric_column_names = skip_numeric_column_names

    def resolve_normalized(
        self, names: Sequence[str]
    ) -> dict[str, tuple[str, float] | None]:
        """Exact lookups against the ontology's normalised label table."""
        resolved: dict[str, tuple[str, float] | None] = {}
        for name in names:
            if name in resolved:
                continue
            match = self.ontology.match_normalized(name)
            resolved[name] = None if match is None else (match.label, 1.0)
        return resolved


#: Ontology label indexes embedded in this process, keyed by the digest of
#: their artifact fingerprint (see :class:`SemanticAnnotator`). The lock
#: makes concurrent constructors wait for one embedding instead of each
#: embedding (and evicting) on their own.
_LABEL_INDEX_CACHE: dict[str, NearestNeighbourIndex] = {}
_LABEL_INDEX_CACHE_MAX = 8
_LABEL_INDEX_LOCK = threading.Lock()


class SemanticAnnotator(_ColumnNameAnnotator):
    """Embedding-based annotation using a FastText-style model.

    The ontology label index (one embedded vector per type label) can be
    persisted to an :class:`~repro.storage.artifacts.IndexArtifactStore`
    and mmap'd back — guarded by the embedding model's configuration and
    a hash of the label list, so an ontology or model change always
    rebuilds. Query results over a loaded index are bit-identical to a
    freshly embedded one.

    An index embedded in memory is also kept in a bounded process-wide
    memo keyed by the digest of that same artifact fingerprint (encoder,
    ontology name and labels digest, and the ANN build config when the
    partitioned tier is active), so every later annotator with the same
    fingerprint reuses it instead of re-embedding every label. A resolved
    artifact still wins over the memo, and mmap'd artifacts are never
    memoised. A partitioned index is handed out as a per-annotator view
    over the shared arrays, so ``nprobe`` and probe statistics never
    leak between holders.
    """

    method = AnnotationMethod.SEMANTIC

    def __init__(
        self,
        ontology: Ontology,
        model: FastTextModel | None = None,
        similarity_threshold: float = 0.5,
        skip_numeric_column_names: bool = True,
        artifacts: IndexArtifactStore | None = None,
        index_config: IndexConfig | None = None,
    ) -> None:
        if not 0.0 <= similarity_threshold <= 1.0:
            raise AnnotationError("similarity_threshold must be within [0, 1]")
        self.ontology = ontology
        self.model = model or FastTextModel()
        self.similarity_threshold = similarity_threshold
        self.skip_numeric_column_names = skip_numeric_column_names
        self.index_config = index_config if index_config is not None else DEFAULT_INDEX_CONFIG
        self._index = self._resolve_index(artifacts)

    def _index_fingerprint(self, labels: list[str]) -> dict:
        fingerprint = {
            "kind": "ontology-index",
            "encoder": embedder_fingerprint(self.model),
            "ontology": {
                "name": self.ontology.name,
                "labels_digest": self.ontology.labels_digest,
            },
        }
        # Ontologies are usually far below the tier's scale gate, so this
        # section (and the partitioned tier) only appears for very large
        # custom ontologies — stock fingerprints stay unchanged.
        if self.index_config.tier_active(len(labels)):
            fingerprint["ann"] = self.index_config.build_fingerprint()
        return fingerprint

    def _resolve_index(
        self, artifacts: IndexArtifactStore | None = None, build=None
    ) -> NearestNeighbourIndex:
        """Resolve this ontology's label index through ``artifacts``.

        ``build`` overrides how a miss is filled (default: the memoised
        embedding, :meth:`_embedded_index`).
        """
        labels = self.ontology.labels()
        fingerprint = self._index_fingerprint(labels)
        index, _ = resolve(
            artifacts,
            f"ontology-{self.ontology.name}",
            fingerprint,
            None,
            decode=lambda loaded: self._decode_index(loaded, labels),
            build=build or (lambda: self._embedded_index(labels, fingerprint)),
            encode=encode_index,
        )
        return index

    def _decode_index(self, loaded, labels: list[str]) -> NearestNeighbourIndex | None:
        index = index_from_artifact(loaded, self.index_config.nprobe)
        if index is None or index.labels != list(labels):
            return None
        return index

    def _embedded_index(self, labels: list[str], fingerprint: dict) -> NearestNeighbourIndex:
        """The in-memory label index for ``fingerprint``, embedded at most once."""
        key = fingerprint_digest(fingerprint)
        with _LABEL_INDEX_LOCK:
            index = _LABEL_INDEX_CACHE.get(key)
            if index is None:
                vectors = self.model.embed_batch([normalize_label(label) for label in labels])
                index = build_index(labels, vectors, self.index_config)
                if len(_LABEL_INDEX_CACHE) >= _LABEL_INDEX_CACHE_MAX:
                    _LABEL_INDEX_CACHE.pop(next(iter(_LABEL_INDEX_CACHE)))
                _LABEL_INDEX_CACHE[key] = index
        if isinstance(index, PartitionedIndex):
            index = index.view(self.index_config.nprobe)
        return index

    def index_stats(self) -> dict:
        """The ontology index's instrumentation snapshot."""
        return self._index.stats()

    def resolve_normalized(
        self, names: Sequence[str]
    ) -> dict[str, tuple[str, float] | None]:
        """One batched embed + one batched index query for distinct names."""
        unique = list(dict.fromkeys(names))
        if not unique:
            return {}
        matrix = self.model.embed_batch(unique)
        hits = self._index.query_batch(matrix, top_k=1)
        resolved: dict[str, tuple[str, float] | None] = {}
        for name, row in zip(unique, hits):
            if not row:
                resolved[name] = None
                continue
            label, similarity = row[0]
            if similarity < self.similarity_threshold:
                resolved[name] = None
            else:
                resolved[name] = (label, float(min(max(similarity, 0.0), 1.0)))
        return resolved


class AnnotationPipeline:
    """Runs both annotation methods against every configured ontology.

    ``artifacts`` optionally persists/resolves the semantic annotators'
    ontology label indexes through an
    :class:`~repro.storage.artifacts.IndexArtifactStore`, skipping the
    embed-every-label construction cost on warm starts.
    """

    def __init__(
        self,
        config: AnnotationConfig | None = None,
        artifacts: IndexArtifactStore | None = None,
        index_config: IndexConfig | None = None,
    ) -> None:
        self.config = config or AnnotationConfig()
        self.config.validate()
        self._ontologies = load_ontologies(self.config.ontologies)
        model = FastTextModel(
            dim=self.config.embedding_dim, ngram_sizes=self.config.ngram_sizes
        )
        self.syntactic = {
            name: SyntacticAnnotator(
                ontology, skip_numeric_column_names=self.config.skip_numeric_column_names
            )
            for name, ontology in self._ontologies.items()
        }
        self.semantic = {
            name: SemanticAnnotator(
                ontology,
                model=model,
                similarity_threshold=self.config.semantic_similarity_threshold,
                skip_numeric_column_names=self.config.skip_numeric_column_names,
                artifacts=artifacts,
                index_config=index_config,
            )
            for name, ontology in self._ontologies.items()
        }

    def publish_artifacts(self, artifacts: IndexArtifactStore) -> None:
        """Persist every semantic annotator's ontology index (no-op if current).

        Store-targeted builds call this before worker processes spawn, so
        every worker resolves the indexes with one mmap (publishing is
        best-effort: a read-only directory degrades to per-process builds).
        """
        for annotator in self.semantic.values():
            annotator._resolve_index(artifacts, build=lambda: annotator._index)

    def annotate(self, table: Table) -> TableAnnotations:
        """Annotate ``table`` with both methods against every ontology."""
        return self.annotate_batch([table])[0]

    def annotate_batch(self, tables: Sequence[Table]) -> list[TableAnnotations]:
        """Annotate a batch of tables with one resolution pass per annotator.

        Column names are collected across the whole batch, deduplicated,
        and resolved with a single batched index query per ontology and
        method; results are bit-identical to ``annotate`` per table. The
        eligibility/normalisation pass is shared across annotators with
        the same skip rule (all of them, under one config).
        """
        results = [TableAnnotations(table_id=table.table_id) for table in tables]
        eligible_by_skip_rule: dict[bool, list[tuple[int, str, str]]] = {}
        for annotator_group in (self.syntactic, self.semantic):
            for annotator in annotator_group.values():
                skip_rule = annotator.skip_numeric_column_names
                eligible = eligible_by_skip_rule.get(skip_rule)
                if eligible is None:
                    eligible = eligible_by_skip_rule[skip_rule] = annotator._collect_eligible(tables)
                per_table = annotator._annotate_eligible(eligible, len(tables))
                for result, annotations in zip(results, per_table):
                    for annotation in annotations:
                        result.add(annotation)
        return results


#: Built pipelines keyed by their configuration: constructing a pipeline
#: embeds every ontology label, so repeated ``annotate_table`` calls with
#: the same (or default) config must not rebuild the semantic indexes.
_PIPELINE_CACHE: dict[AnnotationConfig, AnnotationPipeline] = {}
_PIPELINE_CACHE_MAX = 8


def _pipeline_for(config: AnnotationConfig | None) -> AnnotationPipeline:
    key = config if config is not None else AnnotationConfig()
    pipeline = _PIPELINE_CACHE.get(key)
    if pipeline is None:
        if len(_PIPELINE_CACHE) >= _PIPELINE_CACHE_MAX:
            _PIPELINE_CACHE.pop(next(iter(_PIPELINE_CACHE)))
        pipeline = AnnotationPipeline(key)
        _PIPELINE_CACHE[key] = pipeline
    return pipeline


def annotate_table(table: Table, config: AnnotationConfig | None = None) -> TableAnnotations:
    """Annotate a single table with the default (or given) configuration.

    Pipelines are cached per configuration because building the semantic
    annotators embeds every ontology label once.
    """
    return _pipeline_for(config).annotate(table)


def annotate_tables(
    tables: Sequence[Table], config: AnnotationConfig | None = None
) -> list[TableAnnotations]:
    """Annotate a batch of tables with the default (or given) configuration."""
    return _pipeline_for(config).annotate_batch(tables)
