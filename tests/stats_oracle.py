"""The streaming-scan reference for every corpus statistic.

``src/`` computes Tables 1-5 and Figure 4a, and evaluates
:class:`~repro.storage.columnar.TablePredicate` filters, one way: on
the columnar projection (:func:`~repro.storage.columnar.ensure_projection`
resolves one for any corpus). This module keeps the per-table iteration
those were first written as, so tests can hold the columnar path
to *exact* equality with it — Counter insertion order, float bit
patterns and ``most_common`` tie-breaking included — and the stats
benchmark can time it as its scan baseline. Every function makes one
streaming pass over ``corpus`` and parses each table.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.annotation import AnnotationMethod
from repro.core.corpus import GitTablesCorpus
from repro.core.curation import CurationReport
from repro.core.stats import AnnotationStatistics, CorpusStatistics, MethodOntologyStats
from repro.dataframe.dtypes import AtomicType
from repro.storage.columnar import TablePredicate

__all__ = [
    "annotation_statistics",
    "corpus_statistics",
    "curation_report",
    "dimension_cdf",
    "predicate_matches",
]


def corpus_statistics(corpus: GitTablesCorpus) -> CorpusStatistics:
    """The streaming Python iteration reference (one pass, parses tables)."""
    row_counts = []
    col_counts = []
    atomic_counts: Counter[str] = Counter()
    for annotated in corpus:
        table = annotated.table
        row_counts.append(table.num_rows)
        col_counts.append(table.num_columns)
        for column in table.columns:
            atomic_counts[column.atomic_type.value] += 1

    table_count = len(corpus)
    total_rows = int(sum(row_counts))
    total_columns = int(sum(col_counts))
    total_columns_nonzero = max(total_columns, 1)

    coarse: Counter[str] = Counter()
    for type_value, count in atomic_counts.items():
        coarse[AtomicType(type_value).coarse] += count
    fractions = {
        bucket: coarse.get(bucket, 0) / total_columns_nonzero
        for bucket in ("numeric", "string", "other")
    }

    repo_counts = corpus.repositories()
    repo_values = np.array(list(repo_counts.values())) if repo_counts else np.array([0])
    at_most_5 = float(np.mean(repo_values <= 5)) if repo_counts else 0.0

    return CorpusStatistics(
        table_count=table_count,
        total_rows=total_rows,
        total_columns=total_columns,
        avg_rows=total_rows / table_count if table_count else 0.0,
        avg_cols=total_columns / table_count if table_count else 0.0,
        avg_cells=(
            sum(r * c for r, c in zip(row_counts, col_counts)) / table_count
            if table_count
            else 0.0
        ),
        median_rows=float(np.median(row_counts)) if row_counts else 0.0,
        median_cols=float(np.median(col_counts)) if col_counts else 0.0,
        atomic_type_fractions=fractions,
        atomic_type_counts=dict(atomic_counts),
        tables_per_repository_mean=float(repo_values.mean()) if repo_counts else 0.0,
        repositories_with_at_most_5_tables_fraction=at_most_5,
    )


def annotation_statistics(
    corpus: GitTablesCorpus,
    popular_type_column_threshold: int = 5,
) -> AnnotationStatistics:
    """The streaming Python iteration reference (one pass, parses tables)."""
    methods = (AnnotationMethod.SYNTACTIC, AnnotationMethod.SEMANTIC)
    ontologies = ("dbpedia", "schema_org")

    annotated_tables: Counter[tuple[str, str]] = Counter()
    annotated_columns: Counter[tuple[str, str]] = Counter()
    type_counts: dict[tuple[str, str], Counter] = {
        (method.value, ontology): Counter() for method in methods for ontology in ontologies
    }
    coverage_per_table: dict[str, list[float]] = {method.value: [] for method in methods}
    similarity_scores: dict[str, list[float]] = {ontology: [] for ontology in ontologies}

    for annotated in corpus:
        n_columns = annotated.table.num_columns
        for method in methods:
            coverage_per_table[method.value].append(
                annotated.annotations.annotated_column_fraction(method, n_columns)
            )
            for ontology in ontologies:
                annotations = annotated.annotations.for_method(method, ontology)
                if annotations:
                    annotated_tables[(method.value, ontology)] += 1
                    annotated_columns[(method.value, ontology)] += len(annotations)
                    for annotation in annotations:
                        type_counts[(method.value, ontology)][annotation.type_label] += 1
                        if method is AnnotationMethod.SEMANTIC:
                            similarity_scores[ontology].append(annotation.confidence)

    per_method_ontology = []
    for method in methods:
        for ontology in ontologies:
            key = (method.value, ontology)
            counts = type_counts[key]
            per_method_ontology.append(
                MethodOntologyStats(
                    method=method.value,
                    ontology=ontology,
                    annotated_tables=annotated_tables[key],
                    annotated_columns=annotated_columns[key],
                    unique_types=len(counts),
                    types_above_threshold=sum(
                        1 for count in counts.values() if count > popular_type_column_threshold
                    ),
                )
            )

    mean_coverage = {
        method: float(np.mean(values)) if values else 0.0
        for method, values in coverage_per_table.items()
    }

    return AnnotationStatistics(
        table_count=len(corpus),
        per_method_ontology=tuple(per_method_ontology),
        mean_coverage=mean_coverage,
        coverage_per_table=coverage_per_table,
        similarity_scores=similarity_scores,
        type_counts=type_counts,
    )


def curation_report(corpus) -> CurationReport:
    """The streaming iteration reference over table metadata."""
    report = CurationReport()
    for annotated in corpus:
        table = annotated.table
        report.tables_processed += 1
        report.columns_total += table.num_columns
        scrubbed_types = table.metadata.get("pii_scrubbed_types") or {}
        if scrubbed_types:
            report.tables_scrubbed += 1
            report.columns_scrubbed += len(scrubbed_types)
            for label in scrubbed_types.values():
                report.scrubbed_by_type[label] = report.scrubbed_by_type.get(label, 0) + 1
    return report


def dimension_cdf(
    corpus: GitTablesCorpus, axis: str = "rows", points: int = 40
) -> list[tuple[float, int]]:
    """Cumulative table counts over a dimension, from parsed tables."""
    if axis not in ("rows", "columns"):
        raise ValueError("axis must be 'rows' or 'columns'")
    values = np.array(
        [
            annotated.table.num_rows if axis == "rows" else annotated.table.num_columns
            for annotated in corpus
        ]
    )
    if values.size == 0:
        return []
    grid = np.unique(np.logspace(0, np.log10(max(values.max(), 2)), points).astype(int))
    if grid[-1] < values.max():
        grid = np.append(grid, values.max())
    ordered = np.sort(values)
    return [(float(point), int(np.searchsorted(ordered, point, side="right"))) for point in grid]


def predicate_matches(predicate: TablePredicate, annotated) -> bool:
    """Pure-Python reference evaluation of ``predicate`` against one ``AnnotatedTable``."""
    if predicate.topic is not None and annotated.topic != predicate.topic:
        return False
    if predicate.repository is not None and annotated.repository != predicate.repository:
        return False
    if predicate.license_key is not None and annotated.license_key != predicate.license_key:
        return False
    table = annotated.table
    if predicate.min_rows is not None and table.num_rows < predicate.min_rows:
        return False
    if predicate.max_rows is not None and table.num_rows > predicate.max_rows:
        return False
    if predicate.min_columns is not None and table.num_columns < predicate.min_columns:
        return False
    if predicate.max_columns is not None and table.num_columns > predicate.max_columns:
        return False
    wanted_dtype = predicate._dtype_value()
    if wanted_dtype is not None and not any(
        column.atomic_type.value == wanted_dtype for column in table.columns
    ):
        return False
    if predicate.annotation_label is not None:
        if predicate.method is None:
            annotations = annotated.annotations.all()
        else:
            annotations = annotated.annotations.for_method(AnnotationMethod(predicate.method))
        if not any(
            annotation.type_label == predicate.annotation_label for annotation in annotations
        ):
            return False
    if predicate.pii is not None:
        scrubbed = bool(table.metadata.get("pii_scrubbed_types"))
        if scrubbed is not predicate.pii:
            return False
    return True
