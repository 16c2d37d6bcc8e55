"""The table-to-KG benchmark as ordinal arrays over the corpus.

The benchmark stores where each target column is — never its values —
and reads values through ``corpus.get`` on first use. These tests hold
it to exact equality with the value-copying curation kept in
``tests/kg_oracle.py``, in memory and over a sharded store, built and
adopted; and they pin the cold-start contract: loading and warming a
session reads no benchmark artifact and decodes no table.
"""

from collections import Counter

import numpy as np
import pytest

from repro.api import GitTables
from repro.applications.kg_matching import KGMatchingBenchmark, ValueLinkingMatcher, evaluate_matcher
from repro.core.corpus import AnnotatedTable, GitTablesCorpus
from repro.storage import IndexArtifactStore, corpus_content_fingerprint
from tests import kg_oracle as oracle
from tests.test_artifacts import _Ledger

THRESHOLDS = [
    {"min_columns": 3, "min_rows": 5},
    {"min_columns": 2, "min_rows": 2},
    {"min_columns": 3, "min_rows": 5, "max_tables": 3},
]


@pytest.fixture(scope="module")
def kg_store(gittables_corpus, tmp_path_factory):
    """The session corpus saved as a sharded store of 4-table shards."""
    directory = tmp_path_factory.mktemp("kg-benchmark") / "store"
    gittables_corpus.save(directory, shard_size=4)
    return directory


@pytest.fixture
def store_copy(kg_store, tmp_path):
    import shutil

    directory = tmp_path / "store"
    shutil.copytree(kg_store, directory)
    return directory


def _decoded_tables(monkeypatch) -> Counter:
    """Count ``AnnotatedTable.from_dict`` decodes per table id."""
    decoded: Counter = Counter()
    decode = AnnotatedTable.from_dict.__func__

    def counting(cls, payload):
        decoded[payload["table_id"]] += 1
        return decode(cls, payload)

    monkeypatch.setattr(AnnotatedTable, "from_dict", classmethod(counting))
    return decoded


def _assert_matches_oracle(benchmark, corpus, thresholds):
    n_tables, columns = oracle.curate(corpus, **thresholds)
    assert benchmark.n_tables == n_tables
    assert benchmark.n_columns == len(columns)
    for ontology in ("dbpedia", "schema_org"):
        gold = {column.gold_type for column in columns if column.ontology == ontology}
        assert benchmark.distinct_types(ontology) == gold
    assert benchmark.columns == columns


@pytest.mark.parametrize("thresholds", THRESHOLDS, ids=["c3-r5", "c2-r2", "t3"])
class TestOracleEquivalence:
    def test_in_memory_corpus(self, gittables_corpus, thresholds):
        benchmark = KGMatchingBenchmark.from_corpus(gittables_corpus, **thresholds)
        assert benchmark.n_columns > 0
        _assert_matches_oracle(benchmark, gittables_corpus, thresholds)

    def test_sharded_store_built_and_adopted(self, store_copy, thresholds, monkeypatch):
        ledger = _Ledger(monkeypatch)
        for _ in range(2):
            corpus = GitTablesCorpus.load(store_copy)
            benchmark = KGMatchingBenchmark.from_corpus(corpus, **thresholds)
            _assert_matches_oracle(benchmark, corpus, thresholds)
        assert [outcome for outcome, _, _ in ledger.of("kg-benchmark")] == ["built", "adopted"]


class TestArrayFormat:
    def test_empty_benchmark_publishes_and_adopts(self, store_copy, monkeypatch):
        ledger = _Ledger(monkeypatch)
        artifacts = IndexArtifactStore.for_corpus_dir(store_copy)
        for _ in range(2):
            benchmark = KGMatchingBenchmark.from_corpus(
                GitTablesCorpus.load(store_copy), min_columns=10**6
            )
            assert benchmark.n_tables == 0 and benchmark.n_columns == 0
            assert benchmark.columns == [] and benchmark.distinct_types("dbpedia") == set()
            with pytest.raises(ValueError):
                evaluate_matcher(ValueLinkingMatcher(), benchmark, "dbpedia")
        assert [outcome for outcome, _, _ in ledger.of("kg-benchmark")] == ["built", "adopted"]
        loaded = artifacts.load(benchmark.artifact_name)
        assert loaded.arrays and all(array.shape == (0,) for array in loaded.arrays.values())

    def test_old_value_copy_artifact_is_rebuilt(self, store_copy, monkeypatch):
        corpus = GitTablesCorpus.load(store_copy)
        artifacts = corpus.artifacts
        n_tables, columns = oracle.curate(corpus)
        probe = KGMatchingBenchmark(corpus)
        old_payload = {
            "n_tables": n_tables,
            "columns": [
                {
                    "table_id": column.table_id,
                    "column_name": column.column_name,
                    "values": list(column.values),
                    "ontology": column.ontology,
                    "gold_type": column.gold_type,
                }
                for column in columns
            ],
        }
        artifacts.publish(
            probe.artifact_name,
            probe._fingerprint(corpus_content_fingerprint(corpus)),
            payload=old_payload,
        )
        ledger = _Ledger(monkeypatch)
        benchmark = KGMatchingBenchmark.from_corpus(corpus)
        assert [outcome for outcome, _, _ in ledger.of(probe.artifact_name)] == ["built"]
        assert benchmark.columns == columns
        republished = artifacts.load(probe.artifact_name)
        assert sorted(republished.payload) == ["gold_types", "n_tables"]
        assert sorted(republished.arrays) == ["ontologies", "positions", "tables", "types"]
        assert {array.shape for array in republished.arrays.values()} == {(len(columns),)}


class TestSession:
    def test_warm_and_search_touch_no_benchmark(self, store_copy, monkeypatch):
        session = GitTables.load(store_copy).warm()
        session.kg_benchmark()  # publish a benchmark a cold start could adopt
        loads: list[str] = []
        original = IndexArtifactStore.load

        def recording(self, name, *args, **kwargs):
            loads.append(name)
            return original(self, name, *args, **kwargs)

        monkeypatch.setattr(IndexArtifactStore, "load", recording)
        decoded = _decoded_tables(monkeypatch)
        GitTables.load(store_copy).warm().search("status and sales amount per product", k=5)
        assert loads and not [name for name in loads if name.startswith("kg-benchmark")]
        assert sum(decoded.values()) == 0

    def test_adopted_benchmark_decodes_each_table_once_when_matched(
        self, store_copy, monkeypatch
    ):
        GitTables.load(store_copy).kg_benchmark()  # publish
        decoded = _decoded_tables(monkeypatch)
        session = GitTables.load(store_copy)
        benchmark = session.kg_benchmark()
        counts = (benchmark.n_tables, benchmark.n_columns, benchmark.distinct_types("dbpedia"))
        assert sum(decoded.values()) == 0 and counts[1] > 0
        scores = session.match_kg_all()
        tables = {column.table_id for column in benchmark.columns}
        assert len(tables) == benchmark.n_tables
        assert dict(decoded) == dict.fromkeys(tables, 1)
        artifact_free = GitTablesCorpus.load(store_copy, use_artifacts=False)
        assert scores == GitTables.from_corpus(artifact_free).match_kg_all()

    def test_save_republishes_the_session_benchmark(self, store_copy, tmp_path):
        session = GitTables.load(store_copy)
        benchmark = session.kg_benchmark()
        target = tmp_path / "copy"
        session.save(target, shard_size=8)
        artifacts = IndexArtifactStore.for_corpus_dir(target)
        assert benchmark.artifact_name in artifacts.names()
        reloaded = GitTables.load(target).kg_benchmark()
        assert reloaded.columns == benchmark.columns
        assert np.array_equal(reloaded.arrays["tables"], benchmark.arrays["tables"])

    def test_benchmark_survives_compaction(self, store_copy):
        session = GitTables.load(store_copy)
        benchmark = session.kg_benchmark()
        _, expected = oracle.curate(session.corpus)
        session.compact(shard_size=8)
        assert session.kg_benchmark() is benchmark
        assert benchmark.columns == expected
