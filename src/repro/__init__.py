"""Reproduction of *GitTables: A Large-Scale Corpus of Relational Tables*.

Two public layers front everything:

* :mod:`repro.pipeline` — the streaming stage-graph API. The paper's
  Figure-1 pipeline (extraction → parsing → filtering → annotation →
  curation) is a composable graph of pull-driven generator stages; the
  runner streams tables in configurable batches, stops the whole graph
  the moment the corpus target is met, and collects per-stage counters
  and timings into a :class:`~repro.pipeline.PipelineReport`.
* :class:`GitTables` — the session facade. It owns a built corpus and
  lazily constructs the paper's applications behind uniform methods,
  sharing the embedding and index caches between them.

Quickstart::

    from repro import GitTables, PipelineConfig

    gt = GitTables.build(PipelineConfig.small())
    print(len(gt), "tables;", gt.pipeline_report.summary())

    gt.search("status and sales amount per product", k=3)   # data search §5.3
    gt.complete_schema(["order_id", "order_date"], k=5)     # completion §5.2
    gt.detect_types(columns_per_type=30, epochs=10)         # type detection §5.1
    gt.match_kg(ontology="dbpedia")                         # KG matching §5.3

:class:`CorpusBuilder` is the builder behind the facade: its ``build``
runs the streaming pipeline and returns a :class:`PipelineResult` (the
corpus plus the per-stage reports). ``processes=N`` is the one way to
parallelise a build: it fans a store build out across worker processes.

Corpus storage is pluggable (:mod:`repro.storage`): the corpus container
delegates to an in-memory dict, a lazy sharded-JSONL reader, or the
append-only sharded writer used by resumable builds —
``GitTables.build(config, store_dir="corpus/")`` streams to disk, can be
killed and resumed, and serves applications without loading the corpus
into memory.

Substrates: ``dataframe``, ``wordnet``, ``ontology``, ``embeddings``,
``anonymize``, ``github``; corpus construction in ``core``; storage
backends in ``storage``; ML components in ``ml``; the applications in
``applications``; evaluation datasets in ``benchdata``; experiment
drivers regenerating every paper table and figure in ``experiments``.
"""

from .api import GitTables
from .config import (
    AnnotationConfig,
    CurationConfig,
    ExtractionConfig,
    PipelineConfig,
    ServingConfig,
)
from .core.corpus import AnnotatedTable, GitTablesCorpus
from .core.pipeline import CorpusBuilder, PipelineResult
from .core.stats import AnnotationStatistics, CorpusStatistics
from .dataframe import Table, parse_csv
from .pipeline import Pipeline, PipelineReport, Stage, StageContext
from .serving import QueryService
from .storage import CorpusStore, InMemoryStore, ShardedCorpusWriter, ShardedJsonlStore

__all__ = [
    "AnnotatedTable",
    "AnnotationConfig",
    "AnnotationStatistics",
    "CorpusBuilder",
    "CorpusStatistics",
    "CorpusStore",
    "CurationConfig",
    "ExtractionConfig",
    "GitTables",
    "GitTablesCorpus",
    "InMemoryStore",
    "Pipeline",
    "PipelineConfig",
    "PipelineReport",
    "PipelineResult",
    "QueryService",
    "ServingConfig",
    "ShardedCorpusWriter",
    "ShardedJsonlStore",
    "Stage",
    "StageContext",
    "Table",
    "parse_csv",
]

__version__ = "2.0.0"
