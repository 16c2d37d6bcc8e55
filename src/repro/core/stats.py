"""Corpus and annotation statistics (paper §4.1).

These functions compute every number reported in the paper's analysis
section for a given corpus: table/row/column counts (Tables 1-2), atomic
data type distribution (Table 4), per-method/per-ontology annotation
statistics (Table 5), the cumulative dimension distributions (Figure 4a),
annotation coverage per table (Figure 4b), confidence-score distributions
(Figure 4c), top-k annotated types (Figure 5), and tables-per-repository
statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..dataframe.dtypes import AtomicType
from ..storage.columnar import (
    METHODS,
    ColumnarProjection,
    count_by,
    ensure_projection,
    first_seen_counts,
    masked,
)
from .corpus import GitTablesCorpus

__all__ = ["CorpusStatistics", "AnnotationStatistics", "dimension_cdf", "top_types"]


@dataclass(frozen=True)
class CorpusStatistics:
    """Structural statistics of a corpus (Tables 1, 2 and 4; Figure 4a)."""

    table_count: int
    total_rows: int
    total_columns: int
    avg_rows: float
    avg_cols: float
    avg_cells: float
    median_rows: float
    median_cols: float
    #: Coarse atomic type distribution: numeric / string / other fractions.
    atomic_type_fractions: dict[str, float]
    #: Fine-grained atomic type counts.
    atomic_type_counts: dict[str, int]
    #: Tables-per-repository distribution summary.
    tables_per_repository_mean: float
    repositories_with_at_most_5_tables_fraction: float

    @classmethod
    def from_corpus(cls, corpus: GitTablesCorpus) -> "CorpusStatistics":
        """Compute statistics for ``corpus`` on its columnar projection.

        The projection is resolved (and attached) through
        :func:`~repro.storage.columnar.ensure_projection`: a current one
        is reused, a loaded store adopts the one it persisted, and only
        a missing or stale one is rebuilt (and published to the store).
        """
        return cls.from_projection(ensure_projection(corpus))

    @classmethod
    def from_projection(cls, projection: ColumnarProjection) -> "CorpusStatistics":
        """Compute statistics from materialized columns (no table parsing)."""
        table_count = projection.table_count
        total_rows = int(projection.n_rows.sum())
        total_columns = int(projection.n_cols.sum())
        total_columns_nonzero = max(total_columns, 1)

        atomic_counts = projection.dtype_counts()
        coarse: Counter[str] = Counter()
        for type_value, count in atomic_counts.items():
            coarse[AtomicType(type_value).coarse] += count
        fractions = {
            bucket: coarse.get(bucket, 0) / total_columns_nonzero
            for bucket in ("numeric", "string", "other")
        }

        has_repos = bool(projection.repositories)
        repo_values = (
            count_by(projection.repo_codes, len(projection.repositories))
            if has_repos
            else np.array([0])
        )
        at_most_5 = float(np.mean(repo_values <= 5)) if has_repos else 0.0

        return cls(
            table_count=table_count,
            total_rows=total_rows,
            total_columns=total_columns,
            avg_rows=total_rows / table_count if table_count else 0.0,
            avg_cols=total_columns / table_count if table_count else 0.0,
            avg_cells=(
                int((projection.n_rows * projection.n_cols).sum()) / table_count
                if table_count
                else 0.0
            ),
            median_rows=float(np.median(projection.n_rows)) if table_count else 0.0,
            median_cols=float(np.median(projection.n_cols)) if table_count else 0.0,
            atomic_type_fractions=fractions,
            atomic_type_counts=atomic_counts,
            tables_per_repository_mean=float(repo_values.mean()) if has_repos else 0.0,
            repositories_with_at_most_5_tables_fraction=at_most_5,
        )

    def as_table1_row(self, name: str = "GitTables", source: str = "CSVs from GitHub") -> dict:
        """One row of paper Table 1."""
        return {
            "name": name,
            "table_source": source,
            "n_tables": self.table_count,
            "avg_rows": round(self.avg_rows, 1),
            "avg_cols": round(self.avg_cols, 1),
        }

    def as_table4_rows(self) -> dict[str, float]:
        """Coarse atomic type percentages (paper Table 4)."""
        return {
            bucket: round(100.0 * fraction, 1)
            for bucket, fraction in self.atomic_type_fractions.items()
        }


@dataclass(frozen=True)
class MethodOntologyStats:
    """Annotation statistics for one (method, ontology) pair (Table 5)."""

    method: str
    ontology: str
    annotated_tables: int
    annotated_columns: int
    unique_types: int
    types_above_threshold: int

    def as_row(self) -> dict:
        return {
            "method": self.method,
            "ontology": self.ontology,
            "annotated_tables": self.annotated_tables,
            "annotated_columns": self.annotated_columns,
            "unique_types": self.unique_types,
            "types_above_threshold": self.types_above_threshold,
        }


@dataclass(frozen=True)
class AnnotationStatistics:
    """Annotation statistics of a corpus (Table 5; Figures 4b, 4c, 5)."""

    table_count: int
    per_method_ontology: tuple[MethodOntologyStats, ...]
    #: method -> fraction of columns annotated, averaged over tables (Fig 4b).
    mean_coverage: dict[str, float]
    #: method -> list of per-table coverage fractions (Fig 4b histogram input).
    coverage_per_table: dict[str, list[float]] = field(repr=False, default_factory=dict)
    #: ontology -> list of semantic-annotation confidence scores (Fig 4c).
    similarity_scores: dict[str, list[float]] = field(repr=False, default_factory=dict)
    #: (method, ontology) -> Counter of type labels (Fig 5 input).
    type_counts: dict[tuple[str, str], Counter] = field(repr=False, default_factory=dict)

    @classmethod
    def from_corpus(
        cls,
        corpus: GitTablesCorpus,
        popular_type_column_threshold: int = 5,
    ) -> "AnnotationStatistics":
        """Compute annotation statistics for ``corpus``.

        ``popular_type_column_threshold`` plays the role of the paper's
        "# types (#columns > 1K)" row, scaled down for smaller corpora.
        Computed on the projection :func:`~repro.storage.columnar.
        ensure_projection` resolves for ``corpus`` (a loaded store adopts
        its persisted one).
        """
        return cls.from_projection(
            ensure_projection(corpus),
            popular_type_column_threshold=popular_type_column_threshold,
        )

    @classmethod
    def from_projection(
        cls,
        projection: ColumnarProjection,
        popular_type_column_threshold: int = 5,
    ) -> "AnnotationStatistics":
        """Compute annotation statistics from materialized columns.

        Annotation rows are stored in reference iteration order, so the
        reconstructed ``Counter`` insertion order — and with it
        ``most_common`` tie-breaking — matches a per-table scan exactly.
        """
        ontologies = ("dbpedia", "schema_org")
        table_count = projection.table_count

        # Per-table coverage: distinct annotated column names per
        # (table, method), over annotations from *every* ontology.
        distinct = np.zeros((table_count, len(METHODS)), dtype=np.int64)
        if projection.ann_table.size:
            triples = np.stack(
                [
                    projection.ann_table,
                    projection.ann_method.astype(np.int64),
                    projection.ann_column.astype(np.int64),
                ],
                axis=1,
            )
            unique_triples = np.unique(triples, axis=0)
            keys = unique_triples[:, 0] * len(METHODS) + unique_triples[:, 1]
            distinct = count_by(keys, table_count * len(METHODS)).reshape(
                table_count, len(METHODS)
            )
        safe_cols = np.where(projection.n_cols > 0, projection.n_cols, 1)
        coverage = distinct / safe_cols[:, None]
        coverage[projection.n_cols == 0] = 0.0
        coverage_per_table = {
            method: coverage[:, index].tolist() for index, method in enumerate(METHODS)
        }

        type_counts: dict[tuple[str, str], Counter] = {}
        annotated_tables: dict[tuple[str, str], int] = {}
        annotated_columns: dict[tuple[str, str], int] = {}
        similarity_scores: dict[str, list[float]] = {ontology: [] for ontology in ontologies}
        for method_code, method in enumerate(METHODS):
            for ontology in ontologies:
                key = (method, ontology)
                ontology_code = (
                    projection.ontologies.index(ontology)
                    if ontology in projection.ontologies
                    else -1
                )
                row_mask = (projection.ann_method == method_code) & (
                    projection.ann_ontology == ontology_code
                )
                counter: Counter = Counter()
                codes, counts = first_seen_counts(masked(projection.ann_label, row_mask))
                for code, count in zip(codes.tolist(), counts.tolist()):
                    counter[projection.type_labels[code]] = count
                type_counts[key] = counter
                annotated_columns[key] = int(row_mask.sum())
                annotated_tables[key] = int(np.unique(masked(projection.ann_table, row_mask)).size)
                if method == "semantic":
                    similarity_scores[ontology] = masked(
                        projection.ann_confidence, row_mask
                    ).tolist()

        per_method_ontology = []
        for method in METHODS:
            for ontology in ontologies:
                key = (method, ontology)
                counts = type_counts[key]
                per_method_ontology.append(
                    MethodOntologyStats(
                        method=method,
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

        return cls(
            table_count=table_count,
            per_method_ontology=tuple(per_method_ontology),
            mean_coverage=mean_coverage,
            coverage_per_table=coverage_per_table,
            similarity_scores=similarity_scores,
            type_counts=type_counts,
        )

    def stats_for(self, method: str, ontology: str) -> MethodOntologyStats:
        """Statistics of one (method, ontology) pair."""
        for stats in self.per_method_ontology:
            if stats.method == method and stats.ontology == ontology:
                return stats
        raise KeyError((method, ontology))

    def unique_type_count(self, method: str) -> int:
        """Unique types annotated by a method across both ontologies."""
        labels: set[str] = set()
        for (stat_method, _ontology), counts in self.type_counts.items():
            if stat_method == method:
                labels.update(counts)
        return len(labels)

    def as_table5_rows(self) -> list[dict]:
        """Rows of paper Table 5."""
        return [stats.as_row() for stats in self.per_method_ontology]


def dimension_cdf(corpus: GitTablesCorpus, axis: str = "rows", points: int = 40) -> list[tuple[float, int]]:
    """Cumulative table counts over a dimension (paper Figure 4a).

    Returns (dimension value, number of tables with dimension <= value)
    pairs over log-spaced dimension values, computed on the projection
    :func:`~repro.storage.columnar.ensure_projection` resolves.
    """
    if axis not in ("rows", "columns"):
        raise ValueError("axis must be 'rows' or 'columns'")
    projection = ensure_projection(corpus)
    values = np.asarray(projection.n_rows if axis == "rows" else projection.n_cols)
    if values.size == 0:
        return []
    grid = np.unique(np.logspace(0, np.log10(max(values.max(), 2)), points).astype(int))
    if grid[-1] < values.max():
        grid = np.append(grid, values.max())
    # One sort instead of a corpus-sized comparison per grid point:
    # searchsorted(side="right") counts values <= point exactly.
    ordered = np.sort(values)
    return [(float(point), int(np.searchsorted(ordered, point, side="right"))) for point in grid]


def top_types(
    stats: AnnotationStatistics, method: str, ontology: str, k: int = 25
) -> list[tuple[str, int]]:
    """The ``k`` most frequently annotated types (paper Figure 5)."""
    counts = stats.type_counts.get((method, ontology), Counter())
    return counts.most_common(k)
