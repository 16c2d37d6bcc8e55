"""Property-based tests (hypothesis) on core data structures and invariants."""

import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rand import derive_seed, stable_hash
from repro.config import AnnotationConfig
from repro.core.annotation import AnnotationPipeline
from repro.dataframe.dtypes import AtomicType, infer_column_type, infer_value_type
from repro.dataframe.io import table_to_csv
from repro.dataframe.parser import parse_csv
from repro.dataframe.table import Table
from repro.embeddings.fasttext import FastTextModel
from repro.embeddings.sentence import SentenceEncoder
from repro.embeddings.similarity import NearestNeighbourIndex, cosine_similarity
from repro.ontology.types import normalize_label

# Cell text without characters that require CSV quoting and without
# missing-value tokens; used for round-trip properties.
_plain_cell = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() and s.strip().lower() not in {"na", "nan", "null", "none"})

_header_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7F),
    min_size=1,
    max_size=10,
)

_word = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=16,
)


class TestCSVRoundTripProperties:
    # Single-column CSV files contain no delimiter at all, so the sniffer
    # cannot (and should not) guess one; round-trip properties therefore
    # start at two columns.
    @given(
        header=st.lists(_header_name, min_size=2, max_size=6, unique=True),
        n_rows=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_serialise_then_parse_preserves_shape_and_values(self, header, n_rows, data):
        rows = [
            [data.draw(_plain_cell) for _ in header]
            for _ in range(n_rows)
        ]
        table = Table(header, rows)
        parsed, _ = parse_csv(table_to_csv(table))
        assert parsed.num_rows == table.num_rows
        assert parsed.num_columns == table.num_columns
        assert [list(row) for row in parsed.rows] == [list(row) for row in table.rows]

    @given(
        header=st.lists(_header_name, min_size=2, max_size=5, unique=True),
        n_rows=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_cells_containing_delimiters_survive_round_trip(self, header, n_rows, data):
        rows = [
            [data.draw(_plain_cell) + ", extra" for _ in header]
            for _ in range(n_rows)
        ]
        table = Table(header, rows)
        parsed, _ = parse_csv(table_to_csv(table))
        assert parsed.rows == table.rows


class TestDtypeProperties:
    @given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_integer_columns_infer_numeric(self, values):
        inferred = infer_column_type([str(value) for value in values])
        assert inferred.is_numeric

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_float_columns_infer_numeric(self, values):
        inferred = infer_column_type([repr(float(value)) for value in values])
        assert inferred.is_numeric

    @given(_word)
    @settings(max_examples=60, deadline=None)
    def test_every_value_gets_exactly_one_atomic_type(self, value):
        assert infer_value_type(value) in AtomicType

    @given(st.lists(_word, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_column_type_is_stable_under_repetition(self, values):
        assert infer_column_type(values) == infer_column_type(values * 2)


class TestNormalizationProperties:
    @given(_word)
    @settings(max_examples=60, deadline=None)
    def test_normalize_is_idempotent(self, text):
        once = normalize_label(text)
        assert normalize_label(once) == once

    @given(_word)
    @settings(max_examples=60, deadline=None)
    def test_normalize_is_case_insensitive(self, text):
        assert normalize_label(text.upper()) == normalize_label(text.lower())

    @given(st.lists(_word, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_separator_choice_does_not_matter(self, tokens):
        with_underscores = "_".join(tokens)
        with_hyphens = "-".join(tokens)
        assert normalize_label(with_underscores) == normalize_label(with_hyphens)


class TestEmbeddingProperties:
    @given(_word)
    @settings(max_examples=40, deadline=None)
    def test_embedding_is_deterministic(self, text):
        model = FastTextModel(dim=32)
        assert np.allclose(model.embed(text), model.embed(text))

    @given(_word)
    @settings(max_examples=40, deadline=None)
    def test_self_similarity_is_one_for_nonempty_tokens(self, text):
        model = FastTextModel(dim=32)
        if model.embed(text).any():
            assert model.similarity(text, text) > 0.999

    @given(_word, _word)
    @settings(max_examples=40, deadline=None)
    def test_similarity_is_symmetric_and_bounded(self, left, right):
        model = FastTextModel(dim=32)
        forward = model.similarity(left, right)
        backward = model.similarity(right, left)
        assert abs(forward - backward) < 1e-9
        assert -1.0 - 1e-9 <= forward <= 1.0 + 1e-9

    @given(st.lists(_word, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_schema_embeddings_are_unit_or_zero(self, attributes):
        encoder = SentenceEncoder(dim=32)
        vector = encoder.embed_schema(attributes)
        norm = np.linalg.norm(vector)
        assert norm == 0.0 or abs(norm - 1.0) < 1e-9

    @given(_word, _word)
    @settings(max_examples=30, deadline=None)
    def test_cosine_similarity_bounds(self, left, right):
        model = FastTextModel(dim=16)
        similarity = cosine_similarity(model.embed(left), model.embed(right))
        assert -1.0 - 1e-9 <= similarity <= 1.0 + 1e-9


#: Column-name alphabet mixing letters, digits, separators and spaces so
#: the strategies hit the skip rules (digits, empty, normalisation).
_column_name = st.text(
    alphabet=st.sampled_from(list("abcdefgh_- 0123XY")), min_size=0, max_size=14
)

#: One shared pipeline: building one embeds every ontology label.
_BATCH_PIPELINE = AnnotationPipeline(AnnotationConfig())


class TestBatchAnnotationProperties:
    @given(
        headers=st.lists(
            st.lists(_column_name, min_size=1, max_size=6), min_size=1, max_size=4
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_annotate_batch_equals_per_column_annotate(self, headers):
        tables = [
            Table(
                header=header,
                rows=[["x"] * len(header)],
                table_id=f"prop-{i}",
            )
            for i, header in enumerate(headers)
        ]
        batched = _BATCH_PIPELINE.annotate_batch(tables)
        assert batched == [_BATCH_PIPELINE.annotate(table) for table in tables]
        for table, annotations in zip(tables, batched):
            for group in (_BATCH_PIPELINE.syntactic, _BATCH_PIPELINE.semantic):
                for annotator in group.values():
                    expected = [
                        annotation
                        for annotation in (
                            annotator.annotate_column(name) for name in table.header
                        )
                        if annotation is not None
                    ]
                    produced = [
                        annotation
                        for annotation in annotations.for_method(
                            annotator.method, annotator.ontology.name
                        )
                    ]
                    assert produced == expected


class TestQueryBatchProperties:
    @given(
        n_labels=st.integers(min_value=0, max_value=12),
        n_queries=st.integers(min_value=0, max_value=8),
        top_k=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=2**16),
        zero_rows=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_query_batch_equals_row_wise_query(
        self, n_labels, n_queries, top_k, seed, zero_rows
    ):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n_labels, 8))
        index = NearestNeighbourIndex([f"l{i}" for i in range(n_labels)], vectors)
        queries = rng.standard_normal((n_queries, 8))
        if zero_rows and n_queries:
            queries[0] = 0.0
        batched = index.query_batch(queries, top_k=top_k)
        assert batched == [index.query(queries[i], top_k=top_k) for i in range(n_queries)]
        for row in batched:
            assert len(row) == min(top_k, n_labels)
            scores = [score for _, score in row]
            assert scores == sorted(scores, reverse=True)


_SERVING_STATE: dict = {}


def _serving_state(corpus):
    """One session + in-process service shared across hypothesis examples."""
    if "service" not in _SERVING_STATE:
        from repro import GitTables

        session = GitTables.from_corpus(corpus)
        _SERVING_STATE["session"] = session
        _SERVING_STATE["service"] = session.serve(workers=0, max_wait_ms=5.0)
    return _SERVING_STATE["session"], _SERVING_STATE["service"]


class TestServingBitIdentityProperties:
    """Micro-batched serving must be bit-identical to single-shot calls.

    The batcher may coalesce the submitted queries into any window
    split; whatever the grouping, each response must equal the result
    of calling the session directly with the same arguments.
    """

    @given(
        queries=st.lists(_word, min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_search_equals_single_shot(self, gittables_corpus, queries, k):
        session, service = _serving_state(gittables_corpus)
        futures = [service.submit_search(query, k=k) for query in queries]
        results = [future.result(timeout=60) for future in futures]
        assert results == [session.search(query, k=k) for query in queries]

    @given(
        prefix=st.lists(_header_name, min_size=1, max_size=4),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_completion_equals_single_shot(self, gittables_corpus, prefix, k):
        session, service = _serving_state(gittables_corpus)
        served = service.complete_schema(prefix, k=k)
        assert served == session.complete_schema(prefix, k=k)


class TestSeedingProperties:
    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_stable_hash_is_deterministic(self, a, b):
        assert stable_hash(a, b) == stable_hash(a, b)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.text(max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_derived_seeds_are_32_bit(self, seed, namespace):
        derived = derive_seed(seed, namespace)
        assert 0 <= derived < 2**32


class TestTableInvariants:
    @given(
        header=st.lists(_header_name, min_size=1, max_size=6, unique=True),
        n_rows=st.integers(min_value=0, max_value=10),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_columns_are_consistent_with_rows(self, header, n_rows, data):
        rows = [[data.draw(_plain_cell) for _ in header] for _ in range(n_rows)]
        table = Table(header, rows)
        assert len(table.columns) == len(header)
        for position, column in enumerate(table.columns):
            assert list(column.values) == [row[position] for row in rows]
        assert table.num_cells == table.num_rows * table.num_columns


class TestManifestLogMergeProperties:
    """Per-worker delta-log merging (process-parallel builds).

    Workers append commit records to disjoint ``manifest-<k>.log`` files;
    a resumed coordinator replays them and finalize merges them in
    stream order into the published layout. The properties: *any*
    interleaving of worker commits finalizes to identical bytes; the
    published statistics equal a serial accumulation over the same
    tables; every table location in the published manifest resolves to
    the right bytes; and a torn final record in one worker's log is
    invisible to every other worker.
    """

    SHARD_SIZE = 3

    @staticmethod
    def _table(index: int):
        from repro.core.annotation import TableAnnotations
        from repro.core.corpus import AnnotatedTable

        table = Table(
            ["id", "status", "note"][: 2 + index % 2],
            [["1", "OPEN", "x"][: 2 + index % 2]] * (1 + index % 3),
            table_id=f"t{index:03d}",
        )
        return AnnotatedTable(
            table=table,
            annotations=TableAnnotations(table_id=table.table_id),
            topic=("order", "organism", "vehicle")[index % 3],
            repository=f"octo/repo{index % 2}",
            source_url=f"https://github.com/octo/data/blob/main/t{index}.csv",
            license_key="mit",
        )

    def _plan(self, data, n_workers: int, n_tables: int):
        """Draw per-worker commit chunks plus a legal interleaving."""
        owners = [
            data.draw(st.integers(min_value=0, max_value=n_workers - 1))
            for _ in range(n_tables)
        ]
        per_worker: dict[int, list[int]] = {w: [] for w in range(n_workers)}
        for index, owner in enumerate(owners):
            per_worker[owner].append(index)
        commits: dict[int, list[list[int]]] = {}
        for worker, indices in per_worker.items():
            chunks: list[list[int]] = []
            cursor = 0
            while cursor < len(indices):
                size = data.draw(st.integers(min_value=1, max_value=4))
                chunks.append(indices[cursor : cursor + size])
                cursor += size
            commits[worker] = chunks
        return commits

    def _draw_interleaving(self, data, commits):
        remaining = {worker: list(chunks) for worker, chunks in commits.items()}
        order: list[tuple[int, list[int]]] = []
        while any(remaining.values()):
            ready = sorted(worker for worker, chunks in remaining.items() if chunks)
            worker = data.draw(st.sampled_from(ready))
            order.append((worker, remaining[worker].pop(0)))
        return order

    def _execute(self, directory, order):
        from repro.storage import ShardedCorpusWriter

        writers: dict[int, ShardedCorpusWriter] = {}
        for worker, chunk in order:
            writer = writers.get(worker)
            if writer is None:
                writer = writers[worker] = ShardedCorpusWriter(
                    directory, shard_size=self.SHARD_SIZE, worker=worker
                )
            tables = [self._table(index) for index in chunk]
            writer.extend(tables)
            writer.commit(
                done=chunk, indices={t.source_url: i for t, i in zip(tables, chunk)}
            )
        for writer in writers.values():
            writer.close()

    def _finalized(self, directory, n_tables: int) -> dict:
        """Replay the logs and finalize them as a resumed coordinator would."""
        from types import SimpleNamespace

        from repro.storage.parallel import _CoordinatorRun, _read_store_state

        state = _read_store_state(Path(directory))
        state.header["shard_size"] = self.SHARD_SIZE
        parent = SimpleNamespace(
            builder=SimpleNamespace(config=SimpleNamespace(target_tables=n_tables)), fault=None
        )
        _CoordinatorRun(parent, Path(directory), (), {}, state).finalize()
        return json.loads((Path(directory) / "manifest.json").read_text(encoding="utf-8"))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_merge_is_invariant_under_commit_interleaving(self, data, tmp_path_factory):
        from repro.storage._io import directory_file_bytes

        n_workers = data.draw(st.integers(min_value=1, max_value=3))
        n_tables = data.draw(st.integers(min_value=0, max_value=14))
        commits = self._plan(data, n_workers, n_tables)
        manifests, files = [], []
        for _attempt in range(2):
            directory = tmp_path_factory.mktemp("merge")
            order = self._draw_interleaving(data, commits)
            self._execute(directory, order)
            manifests.append(self._finalized(directory, n_tables))
            files.append(directory_file_bytes(directory))
        # Identical finalized bytes, manifest and shards alike.
        assert files[0] == files[1]
        merged = manifests[0]
        assert set(merged["tables"]) == {f"t{i:03d}" for i in range(n_tables)}
        # Statistics equal a serial accumulation over the same tables.
        expected = {"total_rows": 0, "total_columns": 0, "topics": {}, "repositories": {}}
        for index in range(n_tables):
            annotated = self._table(index)
            expected["total_rows"] += annotated.table.num_rows
            expected["total_columns"] += annotated.table.num_columns
            expected["topics"][annotated.topic] = (
                expected["topics"].get(annotated.topic, 0) + 1
            )
            expected["repositories"][annotated.repository] = (
                expected["repositories"].get(annotated.repository, 0) + 1
            )
        assert merged["stats"] == expected
        # Shard states are consistent: counts sum to the table count and
        # byte counts match the files on disk.
        assert sum(entry["count"] for entry in merged["shards"]) == n_tables

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_merged_locations_resolve_to_the_right_tables(self, data, tmp_path_factory):
        from repro.storage import ShardedJsonlStore

        n_workers = data.draw(st.integers(min_value=1, max_value=3))
        n_tables = data.draw(st.integers(min_value=1, max_value=12))
        commits = self._plan(data, n_workers, n_tables)
        directory = tmp_path_factory.mktemp("resolve")
        self._execute(directory, self._draw_interleaving(data, commits))
        self._finalized(directory, n_tables)
        store = ShardedJsonlStore(directory)
        for index in range(n_tables):
            annotated = store.get(f"t{index:03d}")
            assert annotated is not None
            assert annotated.to_dict() == self._table(index).to_dict()

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_torn_final_record_only_affects_its_worker(self, data, tmp_path_factory):
        from repro.storage.parallel import _read_store_state, worker_log_filename

        n_workers = data.draw(st.integers(min_value=2, max_value=3))
        n_tables = data.draw(st.integers(min_value=2, max_value=12))
        commits = self._plan(data, n_workers, n_tables)
        directory = tmp_path_factory.mktemp("torn")
        self._execute(directory, self._draw_interleaving(data, commits))
        intact = _read_store_state(Path(directory))
        victims = [worker for worker, chunks in commits.items() if chunks]
        if not victims:
            return
        victim = data.draw(st.sampled_from(sorted(victims)))
        log_path = Path(directory) / worker_log_filename(victim)
        lines = log_path.read_bytes().splitlines(keepends=True)
        cut = data.draw(st.integers(min_value=1, max_value=max(1, len(lines[-1]) - 1)))
        log_path.write_bytes(b"".join(lines[:-1]) + lines[-1][:cut])
        torn = _read_store_state(Path(directory))
        # Every other worker's state is untouched...
        for worker in torn.worker_states:
            if worker != victim:
                assert torn.worker_states[worker] == intact.worker_states[worker]
                assert torn.worker_done[worker] == intact.worker_done[worker]
        # ...and the victim lost exactly its final record.
        lost = commits[victim][-1]
        assert torn.worker_done[victim] == intact.worker_done[victim] - set(lost)
        surviving = set(torn.worker_states[victim]["tables"])
        assert surviving == set(intact.worker_states[victim]["tables"]) - {
            f"t{i:03d}" for i in lost
        }


class TestTopKSelectionProperties:
    """The vectorized top-k kernel against the per-row reference.

    ``top_k_ids_scores`` replaced a per-query Python loop (argpartition
    + per-row lexsort). The property: for any similarity matrix — ties,
    duplicates, negatives, zero rows included — the batched single-
    lexsort kernel returns byte-for-byte what the loop returned.
    """

    @staticmethod
    def _reference(similarities: np.ndarray, top_k: int) -> list:
        """The pre-vectorization per-row selection, verbatim semantics."""
        n_queries, n = similarities.shape
        if n == 0:
            return [[] for _ in range(n_queries)]
        top_k = min(top_k, n)
        if top_k == 1:
            best = np.argmax(similarities, axis=1)
            return [
                [(int(index), float(row[index]))]
                for index, row in zip(best, similarities)
            ]
        if top_k < n:
            candidates = np.argpartition(-similarities, top_k - 1, axis=1)[:, :top_k]
        else:
            candidates = np.tile(np.arange(n), (n_queries, 1))
        results = []
        for row, row_candidates in zip(similarities, candidates):
            scores = row[row_candidates]
            order = np.lexsort((row_candidates, -scores))
            results.append([(int(row_candidates[i]), float(scores[i])) for i in order])
        return results

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_selection_matches_per_row_reference(self, data):
        from repro.embeddings.similarity import top_k_ids_scores

        n_queries = data.draw(st.integers(min_value=1, max_value=6))
        n = data.draw(st.integers(min_value=1, max_value=12))
        top_k = data.draw(st.integers(min_value=1, max_value=15))
        # Coarse values on purpose: quantizing to eighths forces score
        # ties, the regime where tie-break order actually matters.
        cells = data.draw(
            st.lists(
                st.integers(min_value=-8, max_value=8),
                min_size=n_queries * n,
                max_size=n_queries * n,
            )
        )
        similarities = np.array(cells, dtype=float).reshape(n_queries, n) / 8.0
        assert top_k_ids_scores(similarities, min(top_k, n)) == self._reference(
            similarities, top_k
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_partitioned_rerank_scores_match_flat_bitwise(self, data):
        from repro.config import IndexConfig
        from repro.embeddings.ann import PartitionedIndex

        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
        n = data.draw(st.integers(min_value=1, max_value=40))
        dim = data.draw(st.integers(min_value=2, max_value=8))
        n_partitions = data.draw(st.integers(min_value=1, max_value=8))
        nprobe = data.draw(st.integers(min_value=1, max_value=8))
        vectors = rng.standard_normal((n, dim))
        flat = NearestNeighbourIndex(list(range(n)), vectors)
        ann = PartitionedIndex.from_flat(
            flat,
            IndexConfig(
                min_rows=1, n_partitions=n_partitions, nprobe=nprobe, holdout_queries=0
            ),
        )
        queries = rng.standard_normal((3, dim))
        exact = flat.top_k_batch(queries, top_k=n)
        for exact_row, approx_row in zip(exact, ann.top_k_batch(queries, top_k=n)):
            exact_scores = dict(exact_row)
            for label, score in approx_row:
                assert score == exact_scores[label]
        # Full probe is not merely bit-identical on shared hits: it IS
        # the flat result, boundary ties included.
        assert ann.top_k_batch(queries, top_k=5, nprobe=n_partitions) == flat.top_k_batch(
            queries, top_k=5
        )
