"""Table-to-KG matching benchmark and baseline matchers (paper §5.3, Figure 6a).

The paper curates 1,101 GitTables tables (each with at least 3 columns
and 5 rows) whose target columns carry syntactic DBpedia/Schema.org
annotations, and submits them to the SemTab column-type-annotation (CTA)
challenge. Participating systems rely on linking *cell values* to
knowledge-graph entities, which works for Web tables but fails for
GitTables-style database tables — precision and recall stay low
(Figure 6a).

Here we build the benchmark from any GitTables corpus and implement two
representative baseline matchers:

* :class:`ValueLinkingMatcher` — links cell values to a KG entity
  lexicon (country names, city names, person names, …) and aggregates
  entity types to a column annotation; the canonical SemTab approach.
* :class:`PatternMatcher` — recognises structural types (email, URL,
  date, postal code) with regular expressions; explains why Schema.org
  precision is slightly higher in the paper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core.annotation import AnnotationMethod
from ..core.corpus import GitTablesCorpus
from ..github.values import ValuePools
from ..storage.artifacts import corpus_artifacts, resolve

__all__ = [
    "BenchmarkColumn",
    "KGMatchingBenchmark",
    "MatcherScore",
    "PatternMatcher",
    "ValueLinkingMatcher",
    "evaluate_matcher",
]

#: Curated ontologies in curation order; ``ontologies`` codes index it.
_ONTOLOGIES = ("dbpedia", "schema_org")
_ARRAY_KEYS = ("tables", "positions", "ontologies", "types")


@dataclass(frozen=True)
class BenchmarkColumn:
    """One target column of the CTA benchmark."""

    table_id: str
    column_name: str
    values: tuple
    ontology: str
    gold_type: str


@dataclass(eq=False)
class KGMatchingBenchmark:
    """The curated benchmark dataset (paper: 1,101 tables, ≥3 cols, ≥5 rows).

    It references the corpus instead of copying it: target column ``i``
    is entry ``i`` of the aligned int ``arrays`` (table ordinal in
    ``corpus.table_ids()``, column position, ontology code into
    ``_ONTOLOGIES``, gold-type code into ``gold_types``). Counts come
    from the arrays; cell values are read when :attr:`columns` is first
    accessed.
    """

    corpus: GitTablesCorpus = field(repr=False)
    #: The curation thresholds this benchmark was built with (recorded
    #: so the benchmark can republish itself to an artifact store).
    min_columns: int = 3
    min_rows: int = 5
    max_tables: int | None = None
    #: Size of the source corpus at curation time — lets the facade skip
    #: republishing a benchmark whose corpus has since grown.
    corpus_size: int = 0
    n_tables: int = 0
    gold_types: list[str] = field(default_factory=list)
    arrays: dict = field(default_factory=dict, repr=False)

    @property
    def artifact_name(self) -> str:
        suffix = "" if self.max_tables is None else f"-t{self.max_tables}"
        return f"kg-benchmark-c{self.min_columns}-r{self.min_rows}{suffix}"

    def _fingerprint(self, corpus_fingerprint: str | None) -> dict:
        return {
            "kind": "kg-benchmark",
            "min_columns": int(self.min_columns),
            "min_rows": int(self.min_rows),
            "max_tables": self.max_tables,
            "corpus": corpus_fingerprint,
        }

    def _encode(self) -> dict:
        payload = {"n_tables": self.n_tables, "gold_types": self.gold_types}
        return {"arrays": self.arrays, "payload": payload}

    def _decode(self, loaded) -> "KGMatchingBenchmark | None":
        if not set(_ARRAY_KEYS) <= loaded.arrays.keys() or "gold_types" not in loaded.payload:
            return None
        self.n_tables = int(loaded.payload["n_tables"])
        self.gold_types = list(loaded.payload["gold_types"])
        self.arrays = {key: loaded.arrays[key] for key in _ARRAY_KEYS}
        return self

    def _curate(self) -> "KGMatchingBenchmark":
        entries: list[tuple[int, int, int, int]] = []
        vocabulary: dict[str, int] = {}
        for ordinal, annotated in enumerate(self.corpus):
            table = annotated.table
            if table.num_columns < self.min_columns or table.num_rows < self.min_rows:
                continue
            first = len(entries)
            for code, ontology in enumerate(_ONTOLOGIES):
                for annotation in annotated.annotations.for_method(
                    AnnotationMethod.SYNTACTIC, ontology
                ):
                    try:
                        position = table.column_index(annotation.column)
                    except KeyError:
                        continue
                    gold = vocabulary.setdefault(annotation.type_label, len(vocabulary))
                    entries.append((ordinal, position, code, gold))
            if len(entries) > first:
                self.n_tables += 1
                if self.max_tables is not None and self.n_tables >= self.max_tables:
                    break
        self.gold_types = list(vocabulary)
        columns = np.array(entries, dtype=np.int64).reshape(-1, len(_ARRAY_KEYS)).T.copy()
        self.arrays = dict(zip(_ARRAY_KEYS, columns))
        return self

    @classmethod
    def from_corpus(
        cls,
        corpus: GitTablesCorpus,
        min_columns: int = 3,
        min_rows: int = 5,
        max_tables: int | None = None,
    ) -> "KGMatchingBenchmark":
        """Curate benchmark columns from a corpus.

        Target columns are those with a *syntactic* annotation — the most
        reliable gold labels available, as in the paper. The corpus is
        consumed in one streaming pass (disk-backed stores are never
        materialized) that records where each target column is, not its
        values. Over a corpus whose store owns artifacts the arrays are
        resolved through :func:`~repro.storage.artifacts.resolve`, so
        reloads skip the corpus scan entirely.
        """
        benchmark = cls(corpus, min_columns, min_rows, max_tables, corpus_size=len(corpus))
        artifacts, corpus_fingerprint = corpus_artifacts(corpus)
        resolve(
            artifacts,
            benchmark.artifact_name,
            benchmark._fingerprint(corpus_fingerprint),
            corpus,
            decode=benchmark._decode,
            build=benchmark._curate,
            encode=KGMatchingBenchmark._encode,
        )
        return benchmark

    @property
    def n_columns(self) -> int:
        return len(self.arrays["tables"])

    @cached_property
    def columns(self) -> list[BenchmarkColumn]:
        """Every target column with its values.

        Tables are fetched with ``corpus.get`` in ascending ordinal
        order (curation order), so each benchmark table is decoded once.
        """
        table_ids = list(self.corpus.table_ids())
        columns: list[BenchmarkColumn] = []
        current, table = -1, None
        for ordinal, position, ontology, gold in zip(
            *(self.arrays[key].tolist() for key in _ARRAY_KEYS)
        ):
            if ordinal != current:
                current, table = ordinal, self.corpus.get(table_ids[ordinal]).table
            columns.append(
                BenchmarkColumn(
                    table_id=table_ids[ordinal],
                    column_name=table.header[position],
                    values=tuple(row[position] for row in table.rows),
                    ontology=_ONTOLOGIES[ontology],
                    gold_type=self.gold_types[gold],
                )
            )
        return columns

    def columns_for(self, ontology: str) -> list[BenchmarkColumn]:
        return [column for column in self.columns if column.ontology == ontology]

    def distinct_types(self, ontology: str) -> set[str]:
        codes = zip(self.arrays["ontologies"].tolist(), self.arrays["types"].tolist())
        return {self.gold_types[gold] for code, gold in codes if _ONTOLOGIES[code] == ontology}


@dataclass(frozen=True)
class MatcherScore:
    """Precision/recall of one matcher on one ontology's benchmark columns."""

    matcher: str
    ontology: str
    precision: float
    recall: float
    n_columns: int
    n_predicted: int

    @property
    def f1(self) -> float:
        denominator = self.precision + self.recall
        if denominator == 0:
            return 0.0
        return 2 * self.precision * self.recall / denominator


class ValueLinkingMatcher:
    """Annotates a column by linking its cell values to KG entities.

    The entity lexicon maps known entity surface forms (country names,
    city names, first/last names, species, organisations) to a semantic
    type. The column is annotated with the majority entity type if at
    least ``min_support`` of its values link to an entity; otherwise no
    annotation is produced. Database-style columns (identifiers, numeric
    measures, codes, timestamps) link to nothing, so the matcher abstains
    on most of GitTables — the failure mode Figure 6a reports.
    """

    name = "value-linking"

    def __init__(self, min_support: float = 0.5) -> None:
        self.min_support = min_support
        self._lexicon: dict[str, str] = {}
        self._add_entities((name for name, _ in ValuePools.COUNTRIES), "country")
        self._add_entities((name for name, _ in ValuePools.CITIES), "city")
        self._add_entities(ValuePools.FIRST_NAMES, "name")
        self._add_entities(ValuePools.LAST_NAMES, "name")
        self._add_entities(ValuePools.SPECIES, "species")
        self._add_entities(ValuePools.GENERA, "genus")
        self._add_entities((name for name, _ in ValuePools.ETHNICITIES), "ethnicity")
        self._add_entities(ValuePools.TEAMS, "team")
        self._add_entities(ValuePools.BRANDS, "company")
        self._add_entities(ValuePools.LANGUAGES, "language")
        self._add_entities(ValuePools.COURSES, "subject")
        self._add_entities(ValuePools.ARTISTS, "artist")
        self._add_entities(ValuePools.GENRES, "genre")

    def _add_entities(self, surface_forms, entity_type: str) -> None:
        for form in surface_forms:
            self._lexicon[str(form).strip().lower()] = entity_type

    def _link_value(self, value: str) -> str | None:
        """Link one cell value to an entity type (exact, then token-level)."""
        exact = self._lexicon.get(value)
        if exact is not None:
            return exact
        token_types = [self._lexicon.get(token) for token in value.split()]
        token_types = [t for t in token_types if t is not None]
        if token_types and len(token_types) >= max(1, len(value.split()) // 2):
            return token_types[0]
        return None

    def _annotate(self, values, memo: dict[str, str | None]) -> str | None:
        non_empty = [str(value).strip().lower() for value in values if str(value).strip()]
        if not non_empty:
            return None
        linked: dict[str, int] = {}
        for value in non_empty:
            if value in memo:
                entity_type = memo[value]
            else:
                entity_type = memo[value] = self._link_value(value)
            if entity_type is not None:
                linked[entity_type] = linked.get(entity_type, 0) + 1
        if not linked:
            return None
        best_type, count = max(linked.items(), key=lambda item: item[1])
        if count / len(non_empty) < self.min_support:
            return None
        return best_type

    def annotate_column(self, values) -> str | None:
        """Predict a semantic type for a column of values, or abstain."""
        return self._annotate(values, {})

    def annotate_columns(self, columns) -> list[str | None]:
        """Batch prediction: one linking memo shared across all columns.

        Cell values repeat heavily across a benchmark's columns, so
        memoising value→entity links turns the batch into one lexicon
        pass over the distinct values.
        """
        memo: dict[str, str | None] = {}
        return [self._annotate(values, memo) for values in columns]


class PatternMatcher:
    """Annotates columns whose values match structural patterns."""

    name = "pattern-matching"

    _PATTERNS: tuple[tuple[str, re.Pattern], ...] = (
        ("email", re.compile(r"^[\w.+-]+@[\w-]+\.[\w.]+$")),
        ("url", re.compile(r"^https?://")),
        ("date", re.compile(r"^\d{4}-\d{2}-\d{2}")),
        ("postal code", re.compile(r"^\d{5}(-\d{4})?$")),
        ("telephone", re.compile(r"^\+?[\d\s()-]{7,}$")),
    )

    def __init__(self, min_support: float = 0.8) -> None:
        self.min_support = min_support

    def annotate_column(self, values) -> str | None:
        """Predict a structural type for a column of values, or abstain."""
        non_empty = [str(value).strip() for value in values if str(value).strip()]
        if not non_empty:
            return None
        for type_label, pattern in self._PATTERNS:
            matches = sum(1 for value in non_empty if pattern.match(value))
            if matches / len(non_empty) >= self.min_support:
                return type_label
        return None


def _type_matches(predicted: str, gold: str) -> bool:
    """Whether a predicted type counts as correct for a gold type.

    SemTab scoring accepts the exact type; we additionally accept a match
    when one label is contained in the other ("name" vs "person name"),
    which is *generous* to the matchers — their scores stay low anyway.
    """
    predicted = predicted.strip().lower()
    gold = gold.strip().lower()
    if predicted == gold:
        return True
    return predicted in gold.split() or gold in predicted.split()


def evaluate_matcher(
    matcher, benchmark: KGMatchingBenchmark, ontology: str
) -> MatcherScore:
    """Precision/recall of a matcher on one ontology's benchmark columns.

    Precision counts correct predictions among produced annotations;
    recall counts correct predictions among all gold-annotated columns
    (abstentions hurt recall), following the SemTab CTA protocol.

    Matchers exposing ``annotate_columns`` are evaluated in one batch
    call; plain ``annotate_column`` matchers are looped per column.
    """
    columns = benchmark.columns_for(ontology)
    if not columns:
        raise ValueError(f"benchmark has no columns for ontology {ontology!r}")
    annotate_columns = getattr(matcher, "annotate_columns", None)
    if annotate_columns is not None:
        predictions = annotate_columns([column.values for column in columns])
    else:
        predictions = [matcher.annotate_column(column.values) for column in columns]
    predicted = 0
    correct = 0
    for column, prediction in zip(columns, predictions):
        if prediction is None:
            continue
        predicted += 1
        if _type_matches(prediction, column.gold_type):
            correct += 1
    precision = correct / predicted if predicted else 0.0
    recall = correct / len(columns)
    return MatcherScore(
        matcher=getattr(matcher, "name", matcher.__class__.__name__),
        ontology=ontology,
        precision=float(precision),
        recall=float(recall),
        n_columns=len(columns),
        n_predicted=predicted,
    )
