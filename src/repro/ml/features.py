"""Sherlock-style column featurisation (paper §4.2 and §5.1).

The paper extracts 1,188 features per column: character-level
distributions aggregated over the column's values, global statistics
(entropy, fraction of unique values, value-length statistics, numeric
summaries), and aggregated word embeddings. This module reproduces the
same three feature families on top of the FastText substrate:

* character features — for each of 50 tracked characters, the
  (mean, std, min, max, median, sum, any, all) of its per-value count
  → 400 features;
* global statistics — 27 features;
* word-embedding aggregates — element-wise mean, std, min and max of the
  per-value embeddings (4 × embedding dim).

With the default 64-dimensional embedding this yields 683 features; the
feature *families* and their roles match Sherlock, which is what the
experiments need (the exact dimensionality of the paper's extractor is an
artefact of its 50-d GloVe embeddings and a larger character set).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..dataframe.dtypes import is_missing
from ..dataframe.table import Column
from ..embeddings.fasttext import FastTextModel
from ..errors import FeatureExtractionError

__all__ = ["ColumnFeaturizer", "FeatureVector", "TRACKED_CHARACTERS"]

#: Characters whose per-value counts are tracked (Sherlock tracks all
#: ASCII; we keep the most informative ones, including '@' which the
#: paper calls out explicitly).
TRACKED_CHARACTERS = tuple("abcdefghijklmnopqrstuvwxyz0123456789") + (
    "@", ".", ",", "-", "_", "/", ":", "(", ")", "%", "$", "#", "&", "+",
)

_CHAR_AGGREGATES = ("mean", "std", "min", "max", "median", "sum", "any", "all")


@dataclass(frozen=True)
class FeatureVector:
    """A named feature vector for one column."""

    names: tuple[str, ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values.tolist()))


def _entropy(counts: Counter) -> float:
    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _safe_stats(values: np.ndarray) -> tuple[float, float, float, float, float]:
    if values.size == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    return (
        float(values.mean()),
        float(values.std()),
        float(values.min()),
        float(values.max()),
        float(np.median(values)),
    )


def _skewness(values: np.ndarray) -> float:
    if values.size < 3:
        return 0.0
    std = values.std()
    if std == 0:
        return 0.0
    return float(np.mean(((values - values.mean()) / std) ** 3))


def _kurtosis(values: np.ndarray) -> float:
    if values.size < 4:
        return 0.0
    std = values.std()
    if std == 0:
        return 0.0
    return float(np.mean(((values - values.mean()) / std) ** 4) - 3.0)


class ColumnFeaturizer:
    """Extracts a fixed-length feature vector from a table column."""

    def __init__(
        self,
        embedding_model: FastTextModel | None = None,
        max_values: int = 100,
        include_embeddings: bool = True,
        include_char_features: bool = True,
        include_statistics: bool = True,
    ) -> None:
        if not (include_embeddings or include_char_features or include_statistics):
            raise FeatureExtractionError("at least one feature family must be enabled")
        self.model = embedding_model or FastTextModel(dim=64)
        self.max_values = max_values
        self.include_embeddings = include_embeddings
        self.include_char_features = include_char_features
        self.include_statistics = include_statistics
        self._names = tuple(self._feature_names())

    # -- feature names ------------------------------------------------------

    def _feature_names(self) -> list[str]:
        names: list[str] = []
        if self.include_char_features:
            for char in TRACKED_CHARACTERS:
                for aggregate in _CHAR_AGGREGATES:
                    names.append(f"char[{char}]_{aggregate}")
        if self.include_statistics:
            names.extend(
                [
                    "n_values", "n_missing", "missing_fraction", "n_distinct",
                    "distinct_fraction", "entropy", "length_mean", "length_std",
                    "length_min", "length_max", "length_median", "numeric_fraction",
                    "numeric_mean", "numeric_std", "numeric_min", "numeric_max",
                    "numeric_median", "numeric_skewness", "numeric_kurtosis",
                    "alpha_fraction", "digit_fraction", "space_fraction",
                    "punct_fraction", "upper_fraction", "token_count_mean",
                    "starts_with_digit_fraction", "url_like_fraction",
                ]
            )
        if self.include_embeddings:
            for aggregate in ("mean", "std", "min", "max"):
                names.extend(f"emb_{aggregate}_{i}" for i in range(self.model.dim))
        return names

    @property
    def n_features(self) -> int:
        return len(self._names)

    def config_fingerprint(self) -> dict:
        """JSON identity of everything that shapes the feature vectors.

        Used to guard persisted feature matrices (see
        :mod:`repro.storage.artifacts`): two featurizers with equal
        fingerprints produce bit-identical features for the same values.
        """
        from ..embeddings.persist import embedder_fingerprint

        return {
            "model": embedder_fingerprint(self.model),
            "max_values": int(self.max_values),
            "include_embeddings": bool(self.include_embeddings),
            "include_char_features": bool(self.include_char_features),
            "include_statistics": bool(self.include_statistics),
        }

    # -- extraction ----------------------------------------------------------

    def _string_values(self, values) -> list[str]:
        strings = [str(value) for value in values if not is_missing(value)]
        return strings[: self.max_values]

    def _char_features(self, strings: list[str]) -> list[float]:
        features: list[float] = []
        if not strings:
            return [0.0] * (len(TRACKED_CHARACTERS) * len(_CHAR_AGGREGATES))
        counts_per_char = {char: np.zeros(len(strings)) for char in TRACKED_CHARACTERS}
        for position, text in enumerate(strings):
            counter = Counter(text.lower())
            for char in TRACKED_CHARACTERS:
                if char in counter:
                    counts_per_char[char][position] = counter[char]
        for char in TRACKED_CHARACTERS:
            counts = counts_per_char[char]
            mean, std, minimum, maximum, median = _safe_stats(counts)
            features.extend(
                [
                    mean, std, minimum, maximum, median,
                    float(counts.sum()),
                    float(np.any(counts > 0)),
                    float(np.all(counts > 0)),
                ]
            )
        return features

    def _statistics(self, values, strings: list[str]) -> list[float]:
        total = len(values)
        n_missing = sum(1 for value in values if is_missing(value))
        lengths = np.array([len(text) for text in strings], dtype=float)
        numeric = []
        for text in strings:
            try:
                numeric.append(float(text.replace(",", "")))
            except ValueError:
                continue
        numeric_array = np.array(numeric, dtype=float)

        char_total = max(1, int(lengths.sum()))
        alpha = sum(sum(char.isalpha() for char in text) for text in strings)
        digits = sum(sum(char.isdigit() for char in text) for text in strings)
        spaces = sum(text.count(" ") for text in strings)
        uppers = sum(sum(char.isupper() for char in text) for text in strings)
        puncts = sum(
            sum(not char.isalnum() and not char.isspace() for char in text) for text in strings
        )

        length_mean, length_std, length_min, length_max, length_median = _safe_stats(lengths)
        numeric_mean, numeric_std, numeric_min, numeric_max, numeric_median = _safe_stats(
            numeric_array
        )

        return [
            float(total),
            float(n_missing),
            n_missing / total if total else 0.0,
            float(len(set(strings))),
            len(set(strings)) / len(strings) if strings else 0.0,
            _entropy(Counter(strings)),
            length_mean, length_std, length_min, length_max, length_median,
            len(numeric) / len(strings) if strings else 0.0,
            numeric_mean, numeric_std, numeric_min, numeric_max, numeric_median,
            _skewness(numeric_array), _kurtosis(numeric_array),
            alpha / char_total, digits / char_total, spaces / char_total,
            puncts / char_total, uppers / char_total,
            float(np.mean([len(text.split()) for text in strings])) if strings else 0.0,
            float(np.mean([text[:1].isdigit() for text in strings])) if strings else 0.0,
            float(np.mean([text.startswith(("http://", "https://")) for text in strings]))
            if strings
            else 0.0,
        ]

    def _embedding_features(self, strings: list[str]) -> list[float]:
        dim = self.model.dim
        if not strings:
            return [0.0] * (4 * dim)
        matrix = self.model.embed_batch(strings[:50])
        return (
            matrix.mean(axis=0).tolist()
            + matrix.std(axis=0).tolist()
            + matrix.min(axis=0).tolist()
            + matrix.max(axis=0).tolist()
        )

    def featurize_values(self, values) -> FeatureVector:
        """Featurise a raw sequence of cell values."""
        values = list(values)
        strings = self._string_values(values)
        features: list[float] = []
        if self.include_char_features:
            features.extend(self._char_features(strings))
        if self.include_statistics:
            features.extend(self._statistics(values, strings))
        if self.include_embeddings:
            features.extend(self._embedding_features(strings))
        vector = np.array(features, dtype=float)
        vector[~np.isfinite(vector)] = 0.0
        return FeatureVector(names=self._names, values=vector)

    def featurize_column(self, column: Column) -> FeatureVector:
        """Featurise a :class:`~repro.dataframe.table.Column`."""
        return self.featurize_values(column.values)

    def featurize_many(self, columns) -> np.ndarray:
        """Featurise several columns into a (n_columns, n_features) matrix."""
        vectors = [self.featurize_values(getattr(col, "values", col)).values for col in columns]
        if not vectors:
            return np.zeros((0, self.n_features))
        return np.vstack(vectors)
