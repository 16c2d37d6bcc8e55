"""A store-backed corpus owns its artifacts: no entry point rebuilds them.

Every public entry point that resolves a derived artifact over a freshly
loaded store must adopt the published version: zero
``ColumnarProjection.from_corpus`` builds and zero
``SentenceEncoder.embed_many`` calls. A store opened with
``use_artifacts=False`` must read no artifact and leave the artifact
directory exactly as it found it, also across ``compact()``. Builds and
extensions never *create* the columnar stats projection: nothing during
construction reads it, so it is resolved on first statistics use.
"""

from __future__ import annotations

import shutil

import pytest

from repro.api import GitTables
from repro.config import PipelineConfig
from repro.core.curation import CurationReport
from repro.core.stats import AnnotationStatistics, CorpusStatistics, dimension_cdf
from repro.embeddings.sentence import SentenceEncoder
from repro.experiments.context import ExperimentContext
from repro.github.content import GeneratorConfig
from repro.storage.artifacts import IndexArtifactStore
from repro.storage.columnar import PROJECTION_ARTIFACT, ColumnarProjection, TablePredicate

QUERY = "status and sales amount per product"
PREFIX = ["order_id", "order_date", "status"]
TYPE_OPTIONS = {"columns_per_type": 20, "epochs": 3, "n_splits": 2, "seed": 3}


def _count_calls(monkeypatch, cls, method: str) -> list:
    """Record every call of ``cls.method`` (a classmethod or a method)."""
    calls: list = []
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        original = raw.__func__

        def counting(owner, *args, **kwargs):
            calls.append(args)
            return original(owner, *args, **kwargs)

        monkeypatch.setattr(cls, method, classmethod(counting))
    else:

        def counting(self, *args, **kwargs):
            calls.append(args)
            return raw(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counting)
    return calls


@pytest.fixture(scope="module")
def context_store(tmp_path_factory):
    """A small-scale experiment store with every artifact published once."""
    root = tmp_path_factory.mktemp("owned-artifacts")
    context = ExperimentContext(scale="small", store_dir=str(root))
    directory = context.corpus_store_dir()
    _ = context.pipeline_result
    session = GitTables.load(directory)
    session.warm()
    session.stats()
    session.kg_benchmark()
    session.detect_types(**TYPE_OPTIONS)
    return root, directory


#: entry point -> a call over a freshly loaded session.
ENTRY_POINTS = {
    "GitTables.stats": lambda s: s.stats(),
    "GitTables.annotation_stats": lambda s: s.annotation_stats(),
    "GitTables.search": lambda s: s.search(QUERY, k=5),
    "GitTables.complete_schema": lambda s: s.complete_schema(PREFIX, k=5),
    "GitTables.kg_benchmark": lambda s: s.kg_benchmark().n_columns,
    "GitTables.detect_types": lambda s: s.detect_types(**TYPE_OPTIONS),
    "GitTablesCorpus.filter": lambda s: s.corpus.filter(TablePredicate(min_rows=5)),
    "CorpusStatistics.from_corpus": lambda s: CorpusStatistics.from_corpus(s.corpus),
    "AnnotationStatistics.from_corpus": lambda s: AnnotationStatistics.from_corpus(s.corpus),
    "dimension_cdf": lambda s: dimension_cdf(s.corpus),
    "CurationReport.from_corpus": lambda s: CurationReport.from_corpus(s.corpus),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_loaded_store_adopts_without_rebuilding(entry, context_store, monkeypatch):
    _, directory = context_store
    session = GitTables.load(directory)
    builds = _count_calls(monkeypatch, ColumnarProjection, "from_corpus")
    embeds = _count_calls(monkeypatch, SentenceEncoder, "embed_many")
    ENTRY_POINTS[entry](session)
    assert len(builds) == 0, f"{entry} built a columnar projection"
    # Search and completion embed only their query text.
    corpus_embeds = [args for args in embeds if len(args[0]) > len(PREFIX)]
    assert corpus_embeds == [], f"{entry} re-embedded the corpus"


def test_experiment_context_projection_adopts(context_store, monkeypatch):
    root, _ = context_store
    context = ExperimentContext(scale="small", store_dir=str(root))
    builds = _count_calls(monkeypatch, ColumnarProjection, "from_corpus")
    embeds = _count_calls(monkeypatch, SentenceEncoder, "embed_many")
    context.gittables_projection()
    assert builds == [] and embeds == []


def _artifact_bytes(directory) -> dict:
    root = IndexArtifactStore.for_corpus_dir(directory).directory
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_use_artifacts_false_reads_and_writes_no_artifact(context_store, tmp_path, monkeypatch):
    _, source = context_store
    directory = tmp_path / "store"
    shutil.copytree(source, directory)
    before = _artifact_bytes(directory)
    assert before, "the fixture store publishes artifacts"
    loads = _count_calls(monkeypatch, IndexArtifactStore, "load")
    session = GitTables.load(directory, use_artifacts=False)
    session.corpus.filter(TablePredicate(min_rows=5))
    session.stats()
    session.search(QUERY, k=5)
    session.complete_schema(PREFIX, k=5)
    report = session.compact(shard_size=7)
    assert report["rewritten"]
    # The reopened corpus keeps the setting.
    session.corpus.filter(TablePredicate(min_rows=5))
    session.stats()
    session.search(QUERY, k=5)
    assert loads == []
    assert session.artifacts is None
    assert _artifact_bytes(directory) == before


def test_build_and_extends_never_create_the_projection(tmp_path, monkeypatch):
    """A one-process build plus three extends, with no statistics call,
    publish search and completion but neither build nor extend a
    projection."""
    builds = _count_calls(monkeypatch, ColumnarProjection, "from_corpus")
    extensions = _count_calls(monkeypatch, ColumnarProjection, "extended")
    directory = tmp_path / "store"
    session = GitTables.build(
        PipelineConfig(target_tables=16, seed=7),
        generator_config=GeneratorConfig(n_repositories=200, mean_rows=25, seed=7),
        batch_size=4,
        store_dir=directory,
        shard_size=8,
        processes=1,
    )
    session.warm()
    for target in (18, 21, 24):
        session.extend(target_tables=target, shard_size=8)
    assert len(session.corpus) == 24
    artifacts = IndexArtifactStore.for_corpus_dir(directory)
    assert PROJECTION_ARTIFACT not in artifacts.names()
    assert artifacts.names(), "the engines publish their artifacts"
    assert builds == [] and extensions == []
