"""Experiment E13: table-to-KG matching benchmark (Figure 6a)."""

from __future__ import annotations

from .context import get_context
from .registry import ExperimentResult, register_experiment

__all__ = ["run_fig6a"]

_PAPER_FIG6A = [
    {"observation": "precision and recall stay low across all participating systems"},
    {"observation": "Schema.org precision slightly higher, thanks to pattern-matching methods"},
    {"observation": "benchmark: 1,101 tables, >=3 columns and >=5 rows, 122 DBpedia / 59 Schema.org types"},
]


@register_experiment("fig6a")
def run_fig6a(scale: str = "default") -> ExperimentResult:
    """Figure 6a: precision/recall of KG matchers on the curated benchmark."""
    context = get_context(scale)
    session = context.session
    benchmark = session.kg_benchmark(min_columns=3, min_rows=5)
    rows = []
    for score in session.match_kg_all(min_columns=3, min_rows=5):
        rows.append(
            {
                "system": score.matcher,
                "ontology": score.ontology,
                "precision": round(score.precision, 3),
                "recall": round(score.recall, 3),
                "f1": round(score.f1, 3),
                "columns": score.n_columns,
            }
        )
    rows.append(
        {
            "system": "(benchmark size)",
            "ontology": "both",
            "precision": benchmark.n_tables,
            "recall": benchmark.n_columns,
            "f1": len(benchmark.distinct_types("dbpedia")),
            "columns": len(benchmark.distinct_types("schema_org")),
        }
    )
    return ExperimentResult(
        experiment_id="fig6a",
        title="Table-to-KG matching results on the GitTables benchmark (Figure 6a)",
        rows=rows,
        paper_reference=_PAPER_FIG6A,
        notes=(
            "Value-linking systems abstain on most database-like columns, so "
            "recall collapses even when precision on the few linked columns is fine."
        ),
    )
