"""Experiment E7: semantic column type detection (Table 7)."""

from __future__ import annotations

from ..applications.type_detection import TypeDetectionExperiment
from .context import get_context
from .registry import ExperimentResult, register_experiment

__all__ = ["run_table7"]

_PAPER_TABLE7 = [
    {"train_corpus": "GitTables", "eval_corpus": "GitTables", "f1_macro": 0.86},
    {"train_corpus": "VizNet", "eval_corpus": "VizNet", "f1_macro": 0.77},
    {"train_corpus": "VizNet", "eval_corpus": "GitTables", "f1_macro": 0.66},
]

_SCALE_SETTINGS = {
    "small": {"columns_per_type": 30, "epochs": 15},
    "default": {"columns_per_type": 60, "epochs": 25},
    "large": {"columns_per_type": 120, "epochs": 30},
}


@register_experiment("table7")
def run_table7(scale: str = "default") -> ExperimentResult:
    """Table 7: F1 of type detection models across train/eval corpora."""
    context = get_context(scale)
    settings = _SCALE_SETTINGS.get(scale, _SCALE_SETTINGS["default"])
    # Store-backed corpora persist their sampled feature matrices, so
    # repeated runs mmap them back instead of re-scanning the corpus.
    experiment = TypeDetectionExperiment(seed=context.seed, **settings)
    results = experiment.run_table7(context.session.corpus, context.viznet)
    rows = [result.as_table7_row() for result in results]
    return ExperimentResult(
        experiment_id="table7",
        title="F1 scores of semantic type detection models across corpora",
        rows=rows,
        paper_reference=_PAPER_TABLE7,
        notes=(
            "The within-corpus models score high while the VizNet-trained model "
            "drops sharply when evaluated on GitTables — Web-table models do not "
            "transfer to database-like tables."
        ),
    )
