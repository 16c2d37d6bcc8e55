"""Content curation: PII anonymisation (paper §3.3, 'Content curation').

Columns annotated with PII semantic types from Schema.org are replaced
with fake values generated by the Faker substrate. The paper reports that
0.3% of all columns end up containing fake values, small enough not to
shift the corpus data distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..anonymize.pii_scrubber import PIIScrubber, ScrubReport
from ..anonymize.provider import FakeDataProvider
from ..config import CurationConfig
from ..dataframe.table import Table
from .annotation import TableAnnotations

__all__ = ["CurationResult", "CurationReport", "ContentCurator"]


@dataclass
class CurationResult:
    """The curated table plus its scrub report."""

    table: Table
    scrub_report: ScrubReport


@dataclass
class CurationReport:
    """Aggregate PII statistics across the corpus (feeds paper Table 3)."""

    tables_processed: int = 0
    tables_scrubbed: int = 0
    columns_total: int = 0
    columns_scrubbed: int = 0
    #: PII type -> number of columns scrubbed with that type.
    scrubbed_by_type: dict[str, int] = field(default_factory=dict)

    @property
    def scrubbed_column_fraction(self) -> float:
        """Fraction of all columns containing fake values (paper: 0.3%)."""
        if self.columns_total == 0:
            return 0.0
        return self.columns_scrubbed / self.columns_total

    def type_percentages(self) -> dict[str, float]:
        """PII type -> percentage of all columns annotated with it (Table 3)."""
        if self.columns_total == 0:
            return {}
        return {
            label: 100.0 * count / self.columns_total
            for label, count in sorted(
                self.scrubbed_by_type.items(), key=lambda item: -item[1]
            )
        }

    @classmethod
    def from_corpus(cls, corpus) -> "CurationReport":
        """Rebuild curation statistics from a (re)loaded corpus.

        Every scrubbed table records its scrubbed columns and their PII
        types in table metadata, so the report is derivable without the
        build session. Computed on the projection
        :func:`~repro.storage.columnar.ensure_projection` resolves for
        ``corpus`` (a loaded store adopts its persisted one), without
        pruning: an extension's result may be read before the engines
        have delta-refreshed from their superseded artifacts.
        """
        from ..storage.columnar import ensure_projection

        return cls.from_projection(ensure_projection(corpus, prune=False))

    @classmethod
    def from_projection(cls, projection) -> "CurationReport":
        """Curation statistics from a materialized columnar projection."""
        import numpy as np

        from ..storage.columnar import first_seen_counts

        report = cls()
        report.tables_processed = projection.table_count
        report.columns_total = int(projection.n_cols.sum())
        report.tables_scrubbed = int(np.unique(projection.pii_table).size)
        report.columns_scrubbed = int(projection.pii_table.size)
        codes, counts = first_seen_counts(projection.pii_label)
        report.scrubbed_by_type = {
            projection.pii_labels[code]: int(count)
            for code, count in zip(codes.tolist(), counts.tolist())
        }
        return report


class ContentCurator:
    """Applies PII anonymisation to annotated tables."""

    def __init__(self, config: CurationConfig | None = None, seed: int = 0) -> None:
        self.config = config or CurationConfig()
        self.config.validate()
        provider = FakeDataProvider(seed=seed)
        self._scrubber = PIIScrubber(
            provider=provider, confidence_threshold=self.config.pii_confidence_threshold
        )

    def curate(
        self, table: Table, annotations: TableAnnotations, report: CurationReport | None = None
    ) -> CurationResult:
        """Anonymise PII columns of one table (no-op when disabled)."""
        if report is not None:
            report.tables_processed += 1
            report.columns_total += table.num_columns

        if not self.config.anonymize_pii:
            return CurationResult(table=table, scrub_report=ScrubReport())

        curated, scrub_report = self._scrubber.scrub(table, annotations.pii_view())

        if report is not None and scrub_report.scrubbed_count:
            report.tables_scrubbed += 1
            report.columns_scrubbed += scrub_report.scrubbed_count
            for column, label in scrub_report.scrubbed_types.items():
                report.scrubbed_by_type[label] = report.scrubbed_by_type.get(label, 0) + 1
        return CurationResult(table=curated, scrub_report=scrub_report)
