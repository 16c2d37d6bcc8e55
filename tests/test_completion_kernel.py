"""The vectorised schema-completion kernel against its per-candidate oracle.

:meth:`NearestCompletion.complete` must return exactly the list
:func:`completion_oracle.complete` returns — same schemas, same order,
bit-identical ``prefix_distance`` floats — for any prefix and any ``k``,
on the exact flat path and on the coarse (partitioned) candidate tier.
Prefixes are drawn from seeded generators: 1–8 names mixing corpus
attributes with out-of-vocabulary names, and ``k`` in {1, 3, 10, more
than the candidates}. A hand-built corpus of repeated schemas under
shuffled table ids pins the tie-break by table id.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.applications.schema_completion import NearestCompletion
from repro.config import IndexConfig
from repro.core.annotation import TableAnnotations
from repro.core.corpus import AnnotatedTable, GitTablesCorpus
from repro.dataframe.table import Table
from tests import completion_oracle

OUT_OF_VOCABULARY = ["", "zzqx", "qwertyuiop", "attribute_9000", "ünïcødé", "x y z"]

#: name -> IndexConfig of each tier the kernel runs on.
TIERS = {
    "flat": None,
    "coarse-partial": IndexConfig(min_rows=1, nprobe=2),
    "coarse-full": IndexConfig(min_rows=1, nprobe=10**6),
}


def _prefixes(completer: NearestCompletion, seed: int, count: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    schemas = [schema for _, schema in completer._schemas]
    vocabulary = sorted({name for schema in schemas for name in schema})
    prefixes = []
    for _ in range(count):
        length = rng.randint(1, 8)
        if rng.random() < 0.5:
            # A real schema's head, possibly with a name swapped out.
            prefix = list(rng.choice(schemas)[:length])
            if rng.random() < 0.5:
                prefix[rng.randrange(len(prefix))] = rng.choice(OUT_OF_VOCABULARY)
        else:
            prefix = [
                rng.choice(OUT_OF_VOCABULARY) if rng.random() < 0.3 else rng.choice(vocabulary)
                for _ in range(length)
            ]
        prefixes.append(tuple(prefix))
    return prefixes


def _ks(completer: NearestCompletion) -> list[int]:
    return [1, 3, 10, len(completer) + 7]


def _assert_matches_oracle(completer: NearestCompletion, prefixes) -> None:
    for prefix in prefixes:
        for k in _ks(completer):
            expected = completion_oracle.complete(completer, prefix, k=k)
            assert completer.complete(prefix, k=k) == expected, (prefix, k)


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_equals_oracle_on_the_pipeline_corpus(gittables_corpus, tier, seed):
    completer = NearestCompletion(gittables_corpus, index_config=TIERS[tier])
    _assert_matches_oracle(completer, _prefixes(completer, seed, count=60))
    if tier != "flat":
        assert completer.index_stats()["tier"] == "partitioned"


def _tied_corpus() -> GitTablesCorpus:
    """Each schema three times, under table ids that do not sort in insertion order."""
    schemas = [
        ["name", "email", "city", "country", "phone"],
        ["order id", "product", "price", "quantity"],
        ["species", "genus", "family", "order", "kingdom", "phylum"],
        ["date", "open", "high", "low", "close", "volume", "adj close", "ticker"],
    ]
    rng = random.Random(11)
    ids = [f"table-{number:03d}" for number in range(len(schemas) * 3)]
    rng.shuffle(ids)
    corpus = GitTablesCorpus()
    for table_id, header in zip(ids, schemas * 3):
        corpus.add(
            AnnotatedTable(
                table=Table(header, [["x"] * len(header)], table_id=table_id),
                annotations=TableAnnotations(table_id=table_id),
                topic="tied",
                repository="octo/tied",
                source_url=f"https://github.com/octo/tied/{table_id}.csv",
            )
        )
    return corpus


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_tied_distances_break_by_table_id(tier):
    completer = NearestCompletion(_tied_corpus(), index_config=TIERS[tier])
    prefixes = _prefixes(completer, seed=3, count=40) + [("",), ("", "")]
    _assert_matches_oracle(completer, prefixes)
    # An empty name embeds to the zero vector: every candidate ties at
    # distance 1.0 and the order is the table-id order alone.
    everything = completer.complete(("",), k=len(completer))
    assert {c.prefix_distance for c in everything} == {1.0}
    assert [c.table_id for c in everything] == sorted(c.table_id for c in everything)
    # Repeated schemas tie exactly and come back in table-id order.
    top = completer.complete(("name", "email"), k=3)
    assert len({c.prefix_distance for c in top}) == 1
    assert [c.table_id for c in top] == sorted(c.table_id for c in top)


def test_prefix_longer_than_every_schema_returns_nothing():
    completer = NearestCompletion(_tied_corpus())
    prefix = tuple(f"name {i}" for i in range(9))
    assert completer.complete(prefix, k=5) == [] == completion_oracle.complete(
        completer, prefix, k=5
    )


def test_id_rank_is_built_on_first_complete(gittables_corpus):
    completer = NearestCompletion(gittables_corpus)
    assert completer._id_rank is None
    completer.complete(("name",), k=2)
    ranks = completer._id_rank
    ids = [table_id for table_id, _ in completer._schemas]
    assert [ids[i] for i in np.argsort(ranks)] == sorted(ids)
