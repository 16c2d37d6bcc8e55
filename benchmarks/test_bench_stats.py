"""Benchmark: corpus statistics off the columnar projection vs a scan.

Builds a 5k-table sharded corpus (deterministic synthetic tables with
annotations and PII metadata — no pipeline, no RNG), then times the full
statistics surface twice:

* **scan** — cold ``GitTablesCorpus.load()`` followed by the streaming
  references of the test oracle :mod:`tests.stats_oracle`
  (``corpus_statistics``, ``annotation_statistics``,
  ``curation_report``, ``dimension_cdf`` on both axes) and
  ``top_types``, which parse every table's JSON out of the shards;
* **columnar** — cold ``GitTables.load()`` followed by the same surface
  through the materialized projection (``stats()``,
  ``annotation_stats()``, ``CurationReport.from_corpus`` with the
  projection attached, ``dimension_cdf`` on the dimension arrays), which
  reads only the mmap'd ``stats_*`` arrays.

The acceptance gate is a ≥5x speedup (target ≥10x) with *exactly* equal
results — same Counter insertion order, same float bit patterns.

``scripts/bench.py --suite stats`` reuses these helpers to write the
``BENCH_stats.json`` perf baseline. The pytest wrapper is marked
``slow`` and therefore excluded from the tier-1 run (see
``[tool.pytest.ini_options]`` in pyproject.toml).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.api import GitTables
from repro.core.annotation import AnnotationMethod, ColumnAnnotation, TableAnnotations
from repro.core.corpus import AnnotatedTable, GitTablesCorpus
from repro.core.curation import CurationReport
from repro.core.stats import dimension_cdf, top_types
from repro.dataframe.table import Table
from repro.storage.columnar import ColumnarProjection, publish_projection
from repro.storage.artifacts import IndexArtifactStore, corpus_content_fingerprint
from tests import stats_oracle as oracle

N_TABLES = 5000
SHARD_SIZE = 256
MIN_SPEEDUP = 5.0

_TOPICS = ("order", "organism", "event", "place", "report")
_LICENSES = ("mit", "apache-2.0", "gpl-3.0", None)
_TYPE_LABELS = ("id", "status", "name", "country", "price", "date", "city", "code")
_PII_LABELS = ("email", "name", "birth date")


def _synthetic_table(index: int) -> AnnotatedTable:
    """One deterministic annotated table; everything derives from ``index``."""
    table_id = f"bench-{index:05d}"
    n_cols = 3 + index % 5
    n_rows = 1 + (index * 7) % 40
    header = [f"col_{position}" for position in range(n_cols)]
    rows = [
        [
            str((index + row_index * position) % 97)
            if position % 3 != 2
            else f"v{(index + row_index) % 13}"
            for position in range(n_cols)
        ]
        for row_index in range(n_rows)
    ]
    metadata = {"rank": index % 11}
    if index % 7 == 0:
        metadata["pii_scrubbed_types"] = {
            header[0]: _PII_LABELS[index % len(_PII_LABELS)],
        }
    annotations = TableAnnotations(table_id=table_id)
    for position in range(0, n_cols, 2):
        label = _TYPE_LABELS[(index + position) % len(_TYPE_LABELS)]
        annotations.add(
            ColumnAnnotation(
                column=header[position],
                type_label=label,
                ontology="dbpedia" if position % 4 == 0 else "schema_org",
                method=AnnotationMethod.SYNTACTIC if index % 2 else AnnotationMethod.SEMANTIC,
                confidence=0.5 + ((index + position) % 50) / 100.0,
            )
        )
        if index % 3 == 0:
            annotations.add(
                ColumnAnnotation(
                    column=header[position],
                    type_label=label,
                    ontology="schema_org",
                    method=AnnotationMethod.SEMANTIC,
                    confidence=0.6 + ((index * position) % 40) / 100.0,
                )
            )
    return AnnotatedTable(
        table=Table(header, rows, table_id=table_id, metadata=metadata),
        annotations=annotations,
        topic=_TOPICS[index % len(_TOPICS)],
        repository=f"org{index % 37}/repo{index % 113}",
        source_url=f"https://github.com/bench/{table_id}.csv",
        license_key=_LICENSES[index % len(_LICENSES)],
    )


def _full_surface_scan(corpus) -> tuple:
    """The whole statistics surface through the streaming references."""
    corpus_stats = oracle.corpus_statistics(corpus)
    annotation_stats = oracle.annotation_statistics(corpus)
    curation = oracle.curation_report(corpus)
    cdfs = tuple(oracle.dimension_cdf(corpus, axis=axis) for axis in ("rows", "columns"))
    tops = tuple(
        tuple(top_types(annotation_stats, method, ontology, k=25))
        for method in ("syntactic", "semantic")
        for ontology in ("dbpedia", "schema_org")
    )
    return corpus_stats, annotation_stats, curation, cdfs, tops


def _full_surface_columnar(session) -> tuple:
    """The same surface through the columnar engine (arrays only)."""
    corpus_stats = session.stats()
    annotation_stats = session.annotation_stats()
    curation = CurationReport.from_corpus(session.corpus)
    cdfs = tuple(dimension_cdf(session.corpus, axis=axis) for axis in ("rows", "columns"))
    tops = tuple(
        tuple(top_types(annotation_stats, method, ontology, k=25))
        for method in ("syntactic", "semantic")
        for ontology in ("dbpedia", "schema_org")
    )
    return corpus_stats, annotation_stats, curation, cdfs, tops


def run_stats_benchmark(n_tables: int = N_TABLES, shard_size: int = SHARD_SIZE) -> dict:
    """Time scan vs columnar over a freshly built sharded corpus."""
    corpus = GitTablesCorpus(name="bench-stats")
    for index in range(n_tables):
        corpus.add(_synthetic_table(index))

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        corpus.save(store_dir, shard_size=shard_size)

        # One-time projection build + publish (amortized across sessions).
        started = perf_counter()
        on_disk = GitTablesCorpus.load(store_dir)
        projection = ColumnarProjection.from_corpus(on_disk)
        publish_projection(
            IndexArtifactStore.for_corpus_dir(store_dir),
            projection,
            corpus_fingerprint=corpus_content_fingerprint(on_disk),
        )
        build_publish_seconds = perf_counter() - started

        # Scan arm: cold load, stream every table out of the shards.
        started = perf_counter()
        scan_corpus = GitTablesCorpus.load(store_dir)
        scan_results = _full_surface_scan(scan_corpus)
        scan_seconds = perf_counter() - started

        # Columnar arm: cold load, mmap the projection, read arrays.
        started = perf_counter()
        session = GitTables.load(store_dir)
        columnar_results = _full_surface_columnar(session)
        columnar_seconds = perf_counter() - started

    return {
        "n_tables": n_tables,
        "n_columns": projection.column_count,
        "n_annotations": projection.annotation_count,
        "shard_size": shard_size,
        "build_publish_seconds": build_publish_seconds,
        "scan_seconds": scan_seconds,
        "columnar_seconds": columnar_seconds,
        "speedup": scan_seconds / columnar_seconds,
        "results_equal": columnar_results == scan_results,
    }


@pytest.mark.slow
def test_columnar_stats_speedup():
    result = run_stats_benchmark()
    print(
        f"\nstats surface over {result['n_tables']} tables "
        f"({result['n_columns']} columns, {result['n_annotations']} annotations): "
        f"scan {result['scan_seconds']:.3f}s | "
        f"columnar {result['columnar_seconds']:.3f}s | "
        f"speedup {result['speedup']:.1f}x | "
        f"one-time build+publish {result['build_publish_seconds']:.3f}s"
    )
    assert result["results_equal"], "columnar statistics differ from the streaming scan"
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"columnar speedup {result['speedup']:.1f}x below the {MIN_SPEEDUP}x gate"
    )
