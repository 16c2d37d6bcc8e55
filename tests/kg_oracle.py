"""The value-copying reference for the table-to-KG matching benchmark.

:class:`~repro.applications.kg_matching.KGMatchingBenchmark` records each
curated column as coordinates into the corpus (table ordinal, column
position, ontology and gold-type codes) and reads its values on first
use. This module keeps the curation it was first written as — one
streaming pass that copies every target column's values — so tests can
hold the array-backed benchmark to exact equality with it.
"""

from __future__ import annotations

from repro.applications.kg_matching import BenchmarkColumn
from repro.core.annotation import AnnotationMethod

__all__ = ["curate"]


def curate(corpus, min_columns=3, min_rows=5, max_tables=None):
    """``(n_tables, columns)`` of the benchmark, values copied out."""
    columns: list[BenchmarkColumn] = []
    n_tables = 0
    for annotated in corpus:
        table = annotated.table
        if table.num_columns < min_columns or table.num_rows < min_rows:
            continue
        added = False
        for ontology in ("dbpedia", "schema_org"):
            for annotation in annotated.annotations.for_method(
                AnnotationMethod.SYNTACTIC, ontology
            ):
                try:
                    column = table.column(annotation.column)
                except KeyError:
                    continue
                columns.append(
                    BenchmarkColumn(
                        table_id=annotated.table_id,
                        column_name=annotation.column,
                        values=column.values,
                        ontology=ontology,
                        gold_type=annotation.type_label,
                    )
                )
                added = True
        if added:
            n_tables += 1
            if max_tables is not None and n_tables >= max_tables:
                break
    return n_tables, columns
