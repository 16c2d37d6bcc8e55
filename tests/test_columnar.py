"""The columnar analytics engine: projection ≡ scan, persistence, pushdown.

The contract under test is exact equality: every statistic computed from
the materialized :class:`~repro.storage.columnar.ColumnarProjection`
must be *identical* — including Counter insertion order, float bit
patterns and tie-breaking — to the streaming per-table reference kept
as the test oracle in :mod:`tests.stats_oracle`. Property tests drive
randomized corpora (empty corpora and all-null columns included)
through the projection, the public ``from_corpus`` entry points (which
resolve a missing or stale projection themselves) and the oracle;
deterministic tests cover artifact persistence, fingerprint staleness,
prune-on-publish, predicate pushdown and the no-JSON-parsed cold-load
guarantee.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import GitTables
from repro.core.annotation import AnnotationMethod, ColumnAnnotation, TableAnnotations
from repro.core.corpus import AnnotatedTable, GitTablesCorpus
from repro.core.curation import CurationReport
from repro.core.stats import AnnotationStatistics, CorpusStatistics, dimension_cdf, top_types
from repro.dataframe.table import Table
from repro.storage.artifacts import IndexArtifactStore, corpus_content_fingerprint
from repro.storage.columnar import (
    ColumnarProjection,
    TablePredicate,
    count_by,
    ensure_projection,
    first_seen_counts,
    histogram,
    load_projection,
    masked,
    publish_projection,
    quantiles,
    sum_by,
)
from tests import stats_oracle as oracle

_TOPICS = ("thing", "organism", "order", "event")
_REPOS = ("octo/data", "acme/tables", "lab/sets")
_LICENSES = ("mit", "apache-2.0", "gpl-3.0", None)
_HEADER_NAMES = ("id", "status", "country", "name", "price", "note")
_CELLS = ("1", "7", "x", "ok", "3.5", "true", "", "na")
_TYPE_LABELS = ("status", "name", "country", "price", "city", "id")
_ONTOLOGIES = ("dbpedia", "schema_org")
_PII_LABELS = ("email", "name", "birth date")


@st.composite
def annotated_table(draw, index: int) -> AnnotatedTable:
    table_id = f"t{index:03d}"
    n_cols = draw(st.integers(min_value=1, max_value=4))
    header = [draw(st.sampled_from(_HEADER_NAMES)) for _ in range(n_cols)]
    n_rows = draw(st.integers(min_value=0, max_value=5))
    rows = [[draw(st.sampled_from(_CELLS)) for _ in header] for _ in range(n_rows)]
    metadata = {}
    pii_columns = draw(
        st.lists(
            st.tuples(st.sampled_from(header), st.sampled_from(_PII_LABELS)),
            max_size=2,
        )
    )
    if pii_columns:
        metadata["pii_scrubbed_types"] = dict(pii_columns)
    annotations = TableAnnotations(table_id=table_id)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        annotations.add(
            ColumnAnnotation(
                column=draw(st.sampled_from(header)),
                type_label=draw(st.sampled_from(_TYPE_LABELS)),
                ontology=draw(st.sampled_from(_ONTOLOGIES)),
                method=draw(st.sampled_from(list(AnnotationMethod))),
                confidence=draw(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
                ),
            )
        )
    return AnnotatedTable(
        table=Table(header, rows, table_id=table_id, metadata=metadata),
        annotations=annotations,
        topic=draw(st.sampled_from(_TOPICS)),
        repository=draw(st.sampled_from(_REPOS)),
        source_url=f"https://github.com/example/{table_id}.csv",
        license_key=draw(st.sampled_from(_LICENSES)),
    )


@st.composite
def corpora(draw, max_tables: int = 6) -> GitTablesCorpus:
    corpus = GitTablesCorpus(name="prop")
    for index in range(draw(st.integers(min_value=0, max_value=max_tables))):
        corpus.add(draw(annotated_table(index)))
    return corpus


@st.composite
def predicates(draw) -> TablePredicate:
    return TablePredicate(
        topic=draw(st.sampled_from((None,) + _TOPICS)),
        repository=draw(st.sampled_from((None,) + _REPOS)),
        license_key=draw(st.sampled_from((None, "mit", "unseen-license"))),
        min_rows=draw(st.sampled_from((None, 0, 2, 9))),
        max_rows=draw(st.sampled_from((None, 0, 3))),
        min_columns=draw(st.sampled_from((None, 2))),
        max_columns=draw(st.sampled_from((None, 3))),
        dtype=draw(st.sampled_from((None, "integer", "string", "empty"))),
        annotation_label=draw(st.sampled_from((None, "country", "price", "unseen"))),
        method=draw(st.sampled_from((None, "syntactic", "semantic"))),
        pii=draw(st.sampled_from((None, True, False))),
    )


def _one_unlicensed_table() -> GitTablesCorpus:
    """One table without a licence: the counter-example that once made a
    predicate on an unseen licence select every unlicensed table."""
    corpus = GitTablesCorpus(name="unlicensed")
    corpus.add(
        AnnotatedTable(
            table=Table(["id"], [["1"]], table_id="t0"),
            annotations=TableAnnotations(table_id="t0"),
            topic="thing",
            repository="octo/data",
            source_url="https://github.com/example/t0.csv",
            license_key=None,
        )
    )
    return corpus


def _scan_ids(corpus, predicate: TablePredicate) -> list[str]:
    return [
        annotated.table_id for annotated in corpus if oracle.predicate_matches(predicate, annotated)
    ]


def _assert_resolved_statistics_equal_oracle(corpus) -> None:
    """The public entry points resolve a current projection and ≡ the oracle."""
    assert CorpusStatistics.from_corpus(corpus) == oracle.corpus_statistics(corpus)
    assert corpus.projection is not None
    assert AnnotationStatistics.from_corpus(corpus) == oracle.annotation_statistics(corpus)
    assert CurationReport.from_corpus(corpus) == oracle.curation_report(corpus)
    for axis in ("rows", "columns"):
        assert dimension_cdf(corpus, axis=axis) == oracle.dimension_cdf(corpus, axis=axis)


class TestProjectionEqualsScan:
    """Property: every aggregate off the arrays ≡ the streaming reference."""

    @given(corpus=corpora(), late=annotated_table(99))
    @settings(max_examples=40, deadline=None)
    def test_statistics_identical(self, corpus, late):
        projection = ColumnarProjection.from_corpus(corpus)
        assert CorpusStatistics.from_projection(projection) == oracle.corpus_statistics(corpus)
        assert AnnotationStatistics.from_projection(projection) == oracle.annotation_statistics(
            corpus
        )
        assert CurationReport.from_projection(projection) == oracle.curation_report(corpus)
        # An in-memory corpus with no projection: from_corpus attaches one.
        assert corpus.projection is None
        _assert_resolved_statistics_equal_oracle(corpus)
        # Growing the corpus makes the attached projection stale; the same
        # calls must rebuild it and match the oracle of the grown corpus.
        stale = corpus.projection
        corpus.add(late)
        assert corpus.projection is None
        _assert_resolved_statistics_equal_oracle(corpus)
        assert corpus.projection is not stale

    @given(corpus=corpora())
    @settings(max_examples=25, deadline=None)
    def test_cdf_and_top_types_identical(self, corpus):
        projection = ColumnarProjection.from_corpus(corpus)
        scan_stats = oracle.annotation_statistics(corpus)
        proj_stats = AnnotationStatistics.from_projection(projection)
        for method in ("syntactic", "semantic"):
            for ontology in ("dbpedia", "schema_org"):
                assert top_types(proj_stats, method, ontology, k=25) == top_types(
                    scan_stats, method, ontology, k=25
                )
        corpus.attach_projection(projection)
        for axis in ("rows", "columns"):
            assert dimension_cdf(corpus, axis=axis) == oracle.dimension_cdf(corpus, axis=axis)

    @given(corpus=corpora(), predicate=predicates())
    @settings(max_examples=40, deadline=None)
    @example(corpus=_one_unlicensed_table(), predicate=TablePredicate(license_key="mit"))
    def test_predicate_pushdown_identical(self, corpus, predicate):
        projection = ColumnarProjection.from_corpus(corpus)
        assert projection.select_ids(predicate) == _scan_ids(corpus, predicate)

    @pytest.mark.parametrize(
        "predicate",
        [
            TablePredicate(license_key="mit"),
            TablePredicate(topic="unseen"),
            TablePredicate(repository="unseen/repo"),
            TablePredicate(dtype="unseen-dtype"),
            TablePredicate(annotation_label="unseen"),
        ],
    )
    def test_value_absent_from_vocabulary_selects_nothing(self, predicate):
        corpus = _one_unlicensed_table()
        assert _scan_ids(corpus, predicate) == []
        assert ColumnarProjection.from_corpus(corpus).select_ids(predicate) == []

    def test_empty_corpus(self):
        corpus = GitTablesCorpus(name="empty")
        projection = ColumnarProjection.from_corpus(corpus)
        assert projection.table_count == 0
        assert CorpusStatistics.from_projection(projection) == oracle.corpus_statistics(corpus)
        assert AnnotationStatistics.from_projection(projection) == oracle.annotation_statistics(
            corpus
        )
        assert CurationReport.from_projection(projection) == oracle.curation_report(corpus)
        assert projection.select_ids(TablePredicate(min_rows=1)) == []

    def test_all_null_columns(self):
        corpus = GitTablesCorpus(name="nulls")
        table = Table(
            ["empty_a", "empty_b"],
            [["", "na"], ["null", ""], ["nan", "none"]],
            table_id="all-null",
        )
        corpus.add(
            AnnotatedTable(
                table=table,
                annotations=TableAnnotations(table_id="all-null"),
                topic="thing",
                repository="octo/data",
                source_url="u",
                license_key=None,
            )
        )
        projection = ColumnarProjection.from_corpus(corpus)
        scan = oracle.corpus_statistics(corpus)
        assert CorpusStatistics.from_projection(projection) == scan
        assert scan.atomic_type_counts.get("empty") == 2
        assert projection.select_ids(TablePredicate(dtype="empty")) == ["all-null"]


class TestKernels:
    def test_count_by_matches_bincount_semantics(self):
        codes = np.array([2, 0, 2, 1, 2], dtype=np.int64)
        assert count_by(codes, 4).tolist() == [1, 1, 3, 0]
        mask = np.array([True, False, True, True, False])
        assert count_by(codes, 4, mask=mask).tolist() == [0, 1, 2, 0]
        assert count_by(np.array([], dtype=np.int64), 3).tolist() == [0, 0, 0]

    def test_sum_by_is_exact_for_ints(self):
        codes = np.array([0, 1, 0, 1], dtype=np.int64)
        weights = np.array([10**15, 3, 7, 4], dtype=np.int64)
        sums = sum_by(codes, weights, 2)
        assert sums.dtype == np.int64
        assert sums.tolist() == [10**15 + 7, 7]

    def test_histogram_matches_numpy(self):
        values = np.array([0.1, 0.5, 0.9, 0.5])
        bins = np.linspace(0.0, 1.0, 5)
        assert histogram(values, bins).tolist() == np.histogram(values, bins=bins)[0].tolist()

    def test_quantiles_empty_is_zeros(self):
        assert quantiles(np.array([]), [0.25, 0.5, 0.75]).tolist() == [0.0, 0.0, 0.0]
        assert quantiles(np.array([1.0, 3.0]), 0.5).tolist() == [2.0]

    def test_masked_selects(self):
        values = np.array([1, 2, 3])
        assert masked(values, np.array([True, False, True])).tolist() == [1, 3]

    def test_first_seen_counts_preserves_encounter_order(self):
        codes = np.array([5, 1, 5, 3, 1, 5], dtype=np.int64)
        uniq, counts = first_seen_counts(codes)
        assert uniq.tolist() == [5, 1, 3]
        assert counts.tolist() == [3, 2, 1]
        uniq, counts = first_seen_counts(np.array([], dtype=np.int64))
        assert uniq.tolist() == [] and counts.tolist() == []


def _disk_corpus(tmp_path, n: int = 12):
    """A sharded on-disk corpus built from n synthetic tables."""
    from tests.test_storage import _annotated

    corpus = GitTablesCorpus(name="disk")
    for index in range(n):
        corpus.add(_annotated(f"t{index:03d}", topic="id" if index % 2 else "organism"))
    store_dir = tmp_path / "corpus"
    corpus.save(store_dir, shard_size=4)
    return GitTablesCorpus.load(store_dir), store_dir


class TestPersistenceAndStaleness:
    def test_publish_load_roundtrip(self, tmp_path):
        corpus, store_dir = _disk_corpus(tmp_path)
        fingerprint = corpus_content_fingerprint(corpus)
        artifacts = IndexArtifactStore.for_corpus_dir(store_dir)
        projection = ColumnarProjection.from_corpus(corpus)
        publish_projection(artifacts, projection, corpus_fingerprint=fingerprint)
        loaded = load_projection(IndexArtifactStore.for_corpus_dir(store_dir), fingerprint)
        assert loaded == projection
        assert loaded.table_ids == projection.table_ids
        assert loaded.topics == projection.topics

    def test_publish_requires_fingerprint(self, tmp_path):
        corpus = GitTablesCorpus(name="mem")
        projection = ColumnarProjection.from_corpus(corpus)
        artifacts = IndexArtifactStore(tmp_path / "artifacts")
        with pytest.raises(ValueError):
            publish_projection(artifacts, projection, corpus_fingerprint=None)

    def test_ensure_projection_attaches_and_reuses(self, tmp_path):
        corpus, store_dir = _disk_corpus(tmp_path)
        built = ensure_projection(corpus)
        assert corpus.projection is built
        # A second resolution returns the attached instance untouched.
        assert ensure_projection(corpus) is built
        # A fresh corpus over the same store mmaps the published copy.
        reloaded = GitTablesCorpus.load(store_dir)
        assert ensure_projection(reloaded) == built

    def test_attached_projection_goes_stale_on_mutation(self):
        from tests.test_storage import _annotated, _corpus

        corpus = _corpus(5)
        projection = ColumnarProjection.from_corpus(corpus)
        corpus.attach_projection(projection)
        assert corpus.projection is projection
        corpus.add(_annotated("late-arrival"))
        assert corpus.projection is None
        # The stale projection is rebuilt and sees the new table.
        assert CorpusStatistics.from_corpus(corpus).table_count == 6

    def test_out_of_band_mutation_misses_then_rebuilds(self, tmp_path):
        from tests.legacy_layout import append_out_of_band
        from tests.test_storage import _annotated

        corpus, store_dir = _disk_corpus(tmp_path)
        old_fingerprint = corpus_content_fingerprint(corpus)
        ensure_projection(corpus)

        append_out_of_band(store_dir, [_annotated("out-of-band")])

        mutated = GitTablesCorpus.load(store_dir)
        new_fingerprint = corpus_content_fingerprint(mutated)
        assert new_fingerprint != old_fingerprint
        artifacts = IndexArtifactStore.for_corpus_dir(store_dir)
        assert load_projection(artifacts, new_fingerprint) is None
        rebuilt = ensure_projection(mutated)
        assert rebuilt.table_count == len(mutated)
        assert CorpusStatistics.from_projection(rebuilt) == oracle.corpus_statistics(mutated)

    def test_prune_removes_corpus_keyed_artifacts_only(self, tmp_path):
        import json
        import shutil

        artifacts = IndexArtifactStore(tmp_path / "artifacts")
        artifacts.publish("ontology-index", {"model": "fasttext"}, payload={"k": 1})
        artifacts.publish("current-stats", {"kind": "x", "corpus": "bbb"}, payload={"k": 3})
        # Hand-roll a stale corpus-keyed artifact: publish() itself would
        # have swept it already (tested below), so write it directly.
        stale = artifacts.directory / "old-stats"
        shutil.copytree(artifacts.directory / "current-stats", stale)
        meta_path = stale / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["fingerprint"]["corpus"] = "aaa"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        removed = artifacts.prune("bbb")
        assert removed == ["old-stats"]
        assert sorted(artifacts.names()) == ["current-stats", "ontology-index"]

    def test_publish_prunes_superseded_fingerprints(self, tmp_path):
        artifacts = IndexArtifactStore(tmp_path / "artifacts")
        artifacts.publish("stats-a", {"kind": "x", "corpus": "aaa"}, payload={})
        artifacts.publish("keep-me", {"model": "fasttext"}, payload={})
        # Publishing under a new corpus fingerprint sweeps the stale one.
        artifacts.publish("stats-b", {"kind": "x", "corpus": "bbb"}, payload={})
        assert sorted(artifacts.names()) == ["keep-me", "stats-b"]


class TestColdLoadReadsOnlyArrays:
    def test_stats_after_cold_load_parse_no_table_json(self, tmp_path, monkeypatch):
        import repro.storage.sharded as sharded
        from tests.test_storage import _corpus

        corpus = _corpus(16)
        store_dir = tmp_path / "corpus"
        GitTables.from_corpus(corpus).save(store_dir, shard_size=4)

        reference_corpus = GitTablesCorpus.load(store_dir)
        reference_stats = oracle.corpus_statistics(reference_corpus)
        reference_ann = oracle.annotation_statistics(reference_corpus)
        reference_curation = oracle.curation_report(reference_corpus)
        reference_cdf = oracle.dimension_cdf(reference_corpus, axis="rows")

        session = GitTables.load(store_dir)

        def _no_json_allowed(path, byte_count):
            raise AssertionError(f"table JSON parsed during columnar stats: {path}")

        monkeypatch.setattr(sharded, "_read_shard_lines", _no_json_allowed)
        assert session.stats() == reference_stats
        assert session.annotation_stats() == reference_ann
        assert CurationReport.from_corpus(session.corpus) == reference_curation
        assert dimension_cdf(session.corpus, axis="rows") == reference_cdf
        # The guard is live: reading any table goes through the patched reader.
        with pytest.raises(AssertionError, match="table JSON parsed"):
            list(session.corpus)


class TestCorpusFilterPushdown:
    def test_filter_accepts_predicate_and_matches_callable(self):
        from tests.test_storage import _corpus

        corpus = _corpus(9)
        predicate = TablePredicate(topic="organism", min_rows=1)
        corpus.attach_projection(ColumnarProjection.from_corpus(corpus))
        fast = [annotated.table_id for annotated in corpus.filter(predicate)]
        corpus._projection = None
        slow = [annotated.table_id for annotated in corpus.filter(predicate)]
        assert corpus.projection is not None  # the filter resolved a projection
        callable_path = [
            annotated.table_id
            for annotated in corpus.filter(partial(oracle.predicate_matches, predicate))
        ]
        assert fast == slow == callable_path
        assert fast  # the predicate selects something

    def test_pushdown_decodes_only_selected_tables(self, tmp_path, monkeypatch):
        from tests.test_storage import _corpus, _count_decodes

        _corpus(16).save(tmp_path / "corpus", shard_size=4)
        projection = ColumnarProjection.from_corpus(GitTablesCorpus.load(tmp_path / "corpus"))
        corpus = GitTablesCorpus.load(tmp_path / "corpus")
        corpus.attach_projection(projection)
        decoded = _count_decodes(monkeypatch)
        result = corpus.filter(TablePredicate(topic="organism"))
        assert [annotated.table_id for annotated in result] == decoded
        assert len(decoded) == len(result) == 8

    def test_filter_without_projection_builds_none(self):
        from tests.test_storage import _corpus

        corpus = _corpus(4)
        assert corpus.projection is None
        subset = corpus.filter(TablePredicate(topic="id"))
        assert {annotated.topic for annotated in subset} == {"id"}


class TestParquetExport:
    def test_to_parquet_writes_decoded_tables(self, tmp_path):
        pytest.importorskip("pyarrow")
        from tests.test_storage import _corpus

        projection = ColumnarProjection.from_corpus(_corpus(6))
        written = projection.to_parquet(tmp_path / "parquet")
        assert sorted(path.name for path in written) == [
            "annotations.parquet",
            "columns.parquet",
            "pii.parquet",
            "tables.parquet",
        ]

    def test_to_parquet_raises_cleanly_without_pyarrow(self, tmp_path, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def _no_pyarrow(name, *args, **kwargs):
            if name.startswith("pyarrow"):
                raise ImportError("pyarrow is not installed")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", _no_pyarrow)
        from tests.test_storage import _corpus

        projection = ColumnarProjection.from_corpus(_corpus(2))
        with pytest.raises(RuntimeError, match="pyarrow"):
            projection.to_parquet(tmp_path / "parquet")
