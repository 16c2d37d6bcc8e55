"""Semantic column type detection (paper §5.1, Table 7).

The paper trains Sherlock on columns sampled from GitTables for five
semantic types (address, class, status, name, description), reaching a
macro F1 of 0.86 with 5-fold cross-validation; the same model trained on
VizNet columns reaches 0.77 on VizNet but only 0.66 when evaluated on
GitTables, showing that Web-table models do not transfer.

This module implements the column sampling, featurisation, training and
the three train/evaluate corpus combinations of Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._rand import derive_rng
from ..core.annotation import AnnotationMethod
from ..core.corpus import GitTablesCorpus
from ..ml.crossval import StratifiedKFold
from ..ml.features import ColumnFeaturizer
from ..ml.metrics import f1_score_macro
from ..ml.neural import MLPClassifier
from ..storage.artifacts import corpus_artifacts, resolve

__all__ = ["TypeDetectionResult", "TypeDetectionExperiment", "DEFAULT_TARGET_TYPES"]

#: The five semantic types used in the paper's experiment.
DEFAULT_TARGET_TYPES: tuple[str, ...] = ("address", "class", "status", "name", "description")


@dataclass(frozen=True)
class TypeDetectionResult:
    """Macro F1 of one train/evaluate corpus combination."""

    train_corpus: str
    eval_corpus: str
    fold_f1_scores: tuple[float, ...]
    n_samples_train: int
    n_samples_eval: int

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.fold_f1_scores))

    @property
    def std_f1(self) -> float:
        return float(np.std(self.fold_f1_scores))

    def as_table7_row(self) -> dict:
        return {
            "train_corpus": self.train_corpus,
            "eval_corpus": self.eval_corpus,
            "f1_macro": round(self.mean_f1, 2),
            "f1_std": round(self.std_f1, 2),
        }


@dataclass
class _LabelledColumns:
    """Sampled, labelled, featurised columns of one corpus."""

    corpus_name: str
    labels: np.ndarray
    features: np.ndarray
    n_samples: int = field(init=False)

    def __post_init__(self) -> None:
        self.n_samples = len(self.labels)


def _encode_features(data: _LabelledColumns) -> dict:
    return {
        "arrays": {"features": data.features},
        "payload": {"labels": data.labels.tolist(), "corpus_name": data.corpus_name},
    }


def _decode_features(loaded, corpus_name: str) -> _LabelledColumns | None:
    if "features" not in loaded.arrays:
        return None
    return _LabelledColumns(
        corpus_name=loaded.payload.get("corpus_name", corpus_name),
        labels=np.array(loaded.payload.get("labels", [])),
        features=loaded.arrays["features"],
    )


class TypeDetectionExperiment:
    """Runs the Table 7 experiment for arbitrary corpora."""

    def __init__(
        self,
        target_types: tuple[str, ...] = DEFAULT_TARGET_TYPES,
        columns_per_type: int = 100,
        n_splits: int = 5,
        featurizer: ColumnFeaturizer | None = None,
        epochs: int = 30,
        seed: int = 0,
    ) -> None:
        self.target_types = tuple(target_types)
        self.columns_per_type = columns_per_type
        self.n_splits = n_splits
        self.featurizer = featurizer or ColumnFeaturizer()
        self.epochs = epochs
        self.seed = seed

    # -- sampling -----------------------------------------------------------

    def _annotated_type(self, annotated, column_name: str) -> str | None:
        """The semantic type of a column, preferring syntactic annotations."""
        for method in (AnnotationMethod.SYNTACTIC, AnnotationMethod.SEMANTIC):
            for annotation in annotated.annotations.for_method(method):
                if annotation.column == column_name and annotation.type_label in self.target_types:
                    return annotation.type_label
        return None

    def _sampling_fingerprint(self, corpus_fingerprint: str | None, corpus_name: str) -> dict:
        """Everything that shapes the sampled feature matrix."""
        return {
            "kind": "type-features",
            "featurizer": self.featurizer.config_fingerprint(),
            "target_types": list(self.target_types),
            "columns_per_type": int(self.columns_per_type),
            "seed": int(self.seed),
            # The sampling RNG is derived from the corpus name as well.
            "corpus_name": corpus_name,
            "corpus": corpus_fingerprint,
        }

    def sample_labelled_columns(self, corpus: GitTablesCorpus) -> _LabelledColumns:
        """Sample up to ``columns_per_type`` deduplicated columns per type.

        One streaming pass over the corpus: works unchanged over lazy
        disk-backed stores, holding only the sampled column values. Over
        a corpus whose store owns artifacts the sampled feature matrix
        is resolved through :func:`~repro.storage.artifacts.resolve` in
        that store, so repeated experiments skip the corpus pass; the
        train and eval corpora of a transfer experiment each cache in
        their own store. Publishing skips the corpus-keyed prune, so it
        never retires the store's other indexes.
        """
        artifacts, corpus_fingerprint = corpus_artifacts(corpus)
        data, _ = resolve(
            artifacts,
            f"type-features-{(corpus_fingerprint or '')[:12]}",
            self._sampling_fingerprint(corpus_fingerprint, corpus.name),
            corpus,
            decode=lambda loaded: _decode_features(loaded, corpus.name),
            build=lambda: self._sample(corpus),
            encode=_encode_features,
            prune=False,
        )
        return data

    def _sample(self, corpus: GitTablesCorpus) -> _LabelledColumns:
        per_type: dict[str, list[tuple]] = {label: [] for label in self.target_types}
        seen: set[tuple] = set()
        for annotated in corpus:
            for column in annotated.table.columns:
                label = self._annotated_type(annotated, column.name)
                if label is None:
                    continue
                key = (label, column.name, column.values[:5])
                if key in seen:
                    continue
                seen.add(key)
                per_type[label].append(column.values)

        rng = derive_rng(self.seed, "type-detection-sample", corpus.name)
        values_list: list[tuple] = []
        labels: list[str] = []
        for label in self.target_types:
            pool = per_type[label]
            if not pool:
                continue
            if len(pool) > self.columns_per_type:
                picks = rng.choice(len(pool), size=self.columns_per_type, replace=False)
                pool = [pool[i] for i in sorted(picks)]
            values_list.extend(pool)
            labels.extend([label] * len(pool))

        return _LabelledColumns(
            corpus_name=corpus.name,
            labels=np.array(labels),
            features=self.featurizer.featurize_many(values_list),
        )

    # -- experiments ----------------------------------------------------------

    def _model(self) -> MLPClassifier:
        return MLPClassifier(hidden_sizes=(128, 64), epochs=self.epochs, seed=self.seed)

    def within_corpus(self, corpus: GitTablesCorpus, name: str | None = None) -> TypeDetectionResult:
        """Train and evaluate on the same corpus with k-fold CV."""
        data = self.sample_labelled_columns(corpus)
        if data.n_samples < self.n_splits * 2:
            raise ValueError(
                f"not enough labelled columns ({data.n_samples}) for {self.n_splits}-fold CV"
            )
        scores: list[float] = []
        for train_index, test_index in StratifiedKFold(self.n_splits, seed=self.seed).split(data.labels):
            model = self._model()
            model.fit(data.features[train_index], data.labels[train_index])
            predictions = model.predict(data.features[test_index])
            scores.append(f1_score_macro(data.labels[test_index], predictions))
        corpus_name = name or corpus.name
        return TypeDetectionResult(
            train_corpus=corpus_name,
            eval_corpus=corpus_name,
            fold_f1_scores=tuple(scores),
            n_samples_train=data.n_samples,
            n_samples_eval=data.n_samples,
        )

    def cross_corpus(
        self,
        train_corpus: GitTablesCorpus,
        eval_corpus: GitTablesCorpus,
        train_name: str | None = None,
        eval_name: str | None = None,
    ) -> TypeDetectionResult:
        """Train on one corpus and evaluate on another (transfer setting)."""
        train_data = self.sample_labelled_columns(train_corpus)
        eval_data = self.sample_labelled_columns(eval_corpus)
        if train_data.n_samples == 0 or eval_data.n_samples == 0:
            raise ValueError("both corpora must contain labelled columns")
        model = self._model()
        model.fit(train_data.features, train_data.labels)
        # Only evaluate on types the model has seen during training.
        known = set(model.classes_.tolist())
        mask = np.array([label in known for label in eval_data.labels])
        predictions = model.predict(eval_data.features[mask])
        score = f1_score_macro(eval_data.labels[mask], predictions)
        return TypeDetectionResult(
            train_corpus=train_name or train_corpus.name,
            eval_corpus=eval_name or eval_corpus.name,
            fold_f1_scores=(score,),
            n_samples_train=train_data.n_samples,
            n_samples_eval=int(mask.sum()),
        )

    def run_table7(
        self, gittables: GitTablesCorpus, viznet: GitTablesCorpus
    ) -> list[TypeDetectionResult]:
        """The three rows of paper Table 7."""
        return [
            self.within_corpus(gittables, name="GitTables"),
            self.within_corpus(viznet, name="VizNet"),
            self.cross_corpus(viznet, gittables, train_name="VizNet", eval_name="GitTables"),
        ]
