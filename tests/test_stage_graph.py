"""Tests for the streaming stage-graph pipeline API (repro.pipeline)."""

from itertools import islice

import pytest

from repro.config import PipelineConfig
from repro.core.annotation import AnnotationPipeline
from repro.core.curation import ContentCurator
from repro.core.filtering import TableFilter
from repro.core.pipeline import CorpusBuilder
from repro.github.content import GeneratorConfig
from repro.pipeline import (
    AnnotateStage,
    BatchStage,
    CurateStage,
    FilterStage,
    FunctionStage,
    MapStage,
    ParseStage,
    Pipeline,
    StageContext,
)


class TestComposition:
    def test_stage_ordering_is_application_order(self):
        pipeline = Pipeline(
            [
                FunctionStage(lambda x: x + 1, name="inc"),
                FunctionStage(lambda x: x * 10, name="scale"),
            ]
        )
        assert pipeline.stage_names == ("inc", "scale")
        outcome = pipeline.run(range(4))
        assert outcome.items == [10, 20, 30, 40]

    def test_then_and_insert_compose(self):
        pipeline = Pipeline([FunctionStage(lambda x: x * 10, name="scale")])
        pipeline.then(lambda x: x + 1, name="inc").insert(
            0, FunctionStage(lambda x: x - 1, name="dec")
        )
        assert pipeline.stage_names == ("dec", "scale", "inc")
        assert pipeline.run([2]).items == [11]

    def test_duplicate_stage_names_rejected(self):
        pipeline = Pipeline([FunctionStage(lambda x: x, name="same")])
        with pytest.raises(ValueError):
            pipeline.then(lambda x: x, name="same")

    def test_function_stage_drops_none(self):
        pipeline = Pipeline([FunctionStage(lambda x: x if x % 2 else None, name="odd")])
        assert pipeline.run(range(6)).items == [1, 3, 5]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([]).run([1])

    def test_context_state_shared_between_stages(self):
        class Publisher:
            name = "publisher"

            def process(self, items, ctx):
                ctx.publish("seen", [])
                for item in items:
                    ctx.state["seen"].append(item)
                    yield item

        outcome = Pipeline([Publisher()]).run([1, 2, 3])
        assert outcome.context.state["seen"] == [1, 2, 3]


class TestStreaming:
    def test_poisoned_item_past_limit_is_never_touched(self):
        pulled_poison = []

        def source():
            yield from range(5)
            pulled_poison.append(True)
            yield 999

        pipeline = Pipeline([FunctionStage(lambda x: x * 2, name="double")], batch_size=2)
        outcome = pipeline.run(source(), limit=5)
        assert outcome.items == [0, 2, 4, 6, 8]
        assert not pulled_poison
        assert outcome.report.stopped_early

    def test_runner_batches_bound_materialization(self):
        pipeline = Pipeline([FunctionStage(lambda x: x, name="id")], batch_size=8)
        outcome = pipeline.run(range(30))
        report = outcome.report
        assert report.peak_batch_items <= 8
        assert report.batches == 4
        assert report.items_collected == 30

    def test_limit_zero_batch_boundary(self):
        pipeline = Pipeline([FunctionStage(lambda x: x, name="id")], batch_size=4)
        outcome = pipeline.run(range(100), limit=4)
        assert len(outcome.items) == 4

    def test_poisoned_extracted_file_never_parsed(self, small_config):
        """A poisoned upstream file past the corpus target is never pulled."""
        builder = CorpusBuilder(
            small_config, generator_config=GeneratorConfig.small(seed=11)
        )
        from repro.wordnet.topics import select_topics

        topics = select_topics(4, seed=11).topics
        files, _ = builder.extractor.extract(list(topics))
        assert len(files) > 10

        pulled_poison = []

        def poisoned_source():
            yield from files
            pulled_poison.append(True)
            yield object()  # would crash ParseStage if ever processed

        pipeline = Pipeline(
            [
                ParseStage(),
                FilterStage(TableFilter(small_config.curation)),
                AnnotateStage(AnnotationPipeline(small_config.annotation)),
                CurateStage(ContentCurator(small_config.curation, seed=small_config.seed)),
            ],
            batch_size=4,
        )
        # Every extracted file can satisfy a limit of 1 long before the
        # poison; the graph must stop pulling at the limit.
        outcome = pipeline.run(poisoned_source(), config=small_config, limit=1)
        assert len(outcome.items) == 1
        assert not pulled_poison

    def test_no_wasted_annotation_past_target(self):
        """Satellite fix: annotation pulls exactly target_tables items."""
        config = PipelineConfig(target_tables=10)
        result = CorpusBuilder(config, generator_config=GeneratorConfig.small(seed=5)).build()
        report = result.pipeline_report
        assert len(result.corpus) == 10
        assert report.stage("annotation").items_in == 10
        assert report.stage("curation").items_out == 10
        # The legacy builder extracted all 40 default topics up front; the
        # streaming one stops pulling topics once the target is met.
        assert report.stage("extraction").items_in < config.extraction.topic_count
        # Early stop must still flush the extraction stage's finally-block
        # fields (the runner closes the generator chain deterministically).
        assert result.extraction_report.api_requests > 0

    def test_reused_pipeline_resets_legacy_reports(self, small_config):
        """Running one Pipeline twice must not accumulate legacy reports."""
        builder = CorpusBuilder(
            small_config, generator_config=GeneratorConfig.small(seed=23)
        )
        from repro.wordnet.topics import select_topics

        topics = select_topics(2, seed=23).topics
        files, _ = builder.extractor.extract(list(topics))
        pipeline = Pipeline(
            [ParseStage(), FilterStage(TableFilter(small_config.curation))], batch_size=8
        )
        first = pipeline.run(files, config=small_config)
        second = pipeline.run(files, config=small_config)
        for outcome in (first, second):
            parsing = outcome.report.stage_reports["parsing"]
            assert parsing.attempted == outcome.report.stage("parsing").items_in
            filtering = outcome.report.stage_reports["filtering"]
            assert filtering.evaluated == outcome.report.stage("filtering").items_in


class TestReportReconciliation:
    def test_counters_match_legacy_reports(self, pipeline_result):
        report = pipeline_result.pipeline_report
        assert report is not None
        assert report.stage_names == (
            "extraction",
            "parsing",
            "filtering",
            "annotation",
            "curation",
        )

        assert report.stage("extraction").items_out == (
            pipeline_result.extraction_report.files_downloaded
        )
        parsing = report.stage("parsing")
        assert parsing.items_in == pipeline_result.parsing_report.attempted
        assert parsing.items_out == pipeline_result.parsing_report.parsed
        filtering = report.stage("filtering")
        assert filtering.items_in == pipeline_result.filter_report.evaluated
        assert filtering.items_out == pipeline_result.filter_report.kept
        curation = report.stage("curation")
        assert curation.items_in == pipeline_result.curation_report.tables_processed
        assert curation.items_out == len(pipeline_result.corpus)

    def test_legacy_report_objects_registered(self, pipeline_result):
        report = pipeline_result.pipeline_report
        assert report.stage_reports["parsing"] is pipeline_result.parsing_report
        assert report.stage_reports["filtering"] is pipeline_result.filter_report
        assert report.stage_reports["extraction"] is pipeline_result.extraction_report
        assert report.stage_reports["curation"] is pipeline_result.curation_report

    def test_timings_and_rows(self, pipeline_result):
        report = pipeline_result.pipeline_report
        assert report.total_seconds > 0
        assert all(metrics.seconds >= 0 for metrics in report.stages.values())
        rows = report.as_rows()
        assert [row["stage"] for row in rows] == list(report.stage_names)
        assert "extraction" in report.summary()

    def test_peak_batch_is_bounded(self, pipeline_result):
        report = pipeline_result.pipeline_report
        assert 0 < report.peak_batch_items <= report.batch_size


class _DoublingBatchStage:
    """A toy batch stage recording the chunk shapes it received."""

    name = "double"

    def __init__(self):
        self.chunks: list[int] = []

    def process_batch(self, batch, ctx):
        self.chunks.append(len(batch))
        return [item * 2 for item in batch]


class TestMapStage:
    def test_batch_stages_satisfy_protocol(self):
        assert isinstance(_DoublingBatchStage(), BatchStage)
        assert isinstance(ParseStage(), BatchStage)
        parse_map = MapStage(ParseStage())
        assert parse_map.name == "parsing"

    def test_sequential_chunking(self):
        stage = _DoublingBatchStage()
        outcome = Pipeline([MapStage(stage, chunk_size=4)]).run(range(10))
        assert outcome.items == [i * 2 for i in range(10)]
        assert stage.chunks == [4, 4, 2]

    def test_counters_reconcile_with_per_item_stage(self):
        outcome = Pipeline([MapStage(_DoublingBatchStage(), chunk_size=4)]).run(range(10))
        metrics = outcome.report.stage("double")
        assert metrics.items_in == 10
        assert metrics.items_out == 10

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            MapStage(_DoublingBatchStage(), chunk_size=0)

    def test_map_wrapped_parse_stage_resets_reports(self, small_config):
        builder = CorpusBuilder(
            small_config, generator_config=GeneratorConfig.small(seed=23)
        )
        from repro.wordnet.topics import select_topics

        topics = select_topics(2, seed=23).topics
        files, _ = builder.extractor.extract(list(topics))
        pipeline = Pipeline([MapStage(ParseStage(), chunk_size=8)])
        first = pipeline.run(files, config=small_config)
        second = pipeline.run(files, config=small_config)
        for outcome in (first, second):
            parsing = outcome.report.stage_reports["parsing"]
            assert parsing.attempted == outcome.report.stage("parsing").items_in
            assert parsing.parsed == outcome.report.stage("parsing").items_out

    def test_annotate_process_batch_equals_per_item(self, small_config):
        builder = CorpusBuilder(
            small_config, generator_config=GeneratorConfig.small(seed=31)
        )
        from repro.wordnet.topics import select_topics

        topics = select_topics(2, seed=31).topics
        files, _ = builder.extractor.extract(list(topics))
        parsed, _ = builder.parser.parse_all(files[:12])
        stage = AnnotateStage(AnnotationPipeline(small_config.annotation))
        ctx = StageContext()
        batched = stage.process_batch(parsed, ctx)
        per_item = list(stage.process(iter(parsed), ctx))
        assert [candidate.annotations for candidate in batched] == [
            candidate.annotations for candidate in per_item
        ]


class _ChunkSpy:
    """Records the table count of every ``AnnotationPipeline.annotate_batch`` call."""

    def __init__(self, monkeypatch):
        self.chunks: list[int] = []
        original = AnnotationPipeline.annotate_batch

        def spying(annotator, tables):
            self.chunks.append(len(tables))
            return original(annotator, tables)

        monkeypatch.setattr(AnnotationPipeline, "annotate_batch", spying)


class TestAnnotationChunks:
    """``AnnotateStage`` annotates in chunks of at most ``ctx.remaining`` tables."""

    @pytest.fixture()
    def extracted(self, small_config):
        from repro.wordnet.topics import select_topics

        builder = CorpusBuilder(small_config, generator_config=GeneratorConfig.small(seed=11))
        files, _ = builder.extractor.extract(list(select_topics(4, seed=11).topics))
        return files

    def _graph(self, config) -> Pipeline:
        return Pipeline(
            [
                ParseStage(),
                FilterStage(TableFilter(config.curation)),
                AnnotateStage(AnnotationPipeline(config.annotation)),
                CurateStage(ContentCurator(config.curation, seed=config.seed)),
            ],
            batch_size=4,
        )

    def test_limit_bounds_the_chunks(self, small_config, extracted, monkeypatch):
        spy = _ChunkSpy(monkeypatch)
        outcome = self._graph(small_config).run(extracted, config=small_config, limit=7)
        assert outcome.report.stage("parsing").items_in < len(extracted)  # upstream had more
        assert len(outcome.items) == 7
        assert sum(spy.chunks) == 7 == outcome.report.stage("annotation").items_in
        assert spy.chunks[0] == 7  # the run's whole remainder, in one pass
        assert outcome.context.remaining is None

    def test_caller_cap_splits_the_chunks(self, small_config, extracted, monkeypatch):
        spy = _ChunkSpy(monkeypatch)
        ctx = StageContext(config=small_config, remaining=3)
        outcome = self._graph(small_config).run(extracted, ctx=ctx, limit=7)
        assert len(outcome.items) == 7
        assert spy.chunks == [3, 4]  # the cap, then the limit's remainder

    def test_unbounded_stream_annotates_one_table_per_pull(self, small_config, extracted, monkeypatch):
        spy = _ChunkSpy(monkeypatch)
        ctx = StageContext(config=small_config)
        stream = self._graph(small_config).stream(extracted, ctx)
        pulled = [next(stream) for _ in range(3)]
        stream.close()
        assert len(pulled) == 3
        assert spy.chunks == [1, 1, 1]
        assert ctx.report.stage("annotation").items_in == 3

    def test_chunked_corpus_equals_table_at_a_time(self, small_config, extracted):
        chunked = self._graph(small_config).run(extracted, config=small_config, limit=9)
        one_at_a_time = list(islice(self._graph(small_config).stream(extracted, StageContext()), 9))
        assert [table.to_dict() for table in chunked.items] == [
            table.to_dict() for table in one_at_a_time
        ]


class TestBuilderOverGraph:
    def test_builder_exposes_composable_pipeline(self):
        builder = CorpusBuilder(
            PipelineConfig(target_tables=5), generator_config=GeneratorConfig.small(seed=3)
        )
        pipeline = builder.pipeline()
        assert pipeline.stage_names == (
            "extraction",
            "parsing",
            "filtering",
            "annotation",
            "curation",
        )
        # Custom observer stages slot in without touching the builder.
        seen = []
        pipeline.insert(3, FunctionStage(lambda p: (seen.append(p), p)[1], name="observe"))
        from repro.wordnet.topics import select_topics

        topics = select_topics(builder.config.extraction.topic_count, seed=builder.config.seed)
        outcome = pipeline.run(topics.topics, config=builder.config, limit=5)
        assert len(outcome.items) == 5
        assert len(seen) == 5

    def test_streamed_corpus_matches_legacy_contents(self):
        """Same seed → identical corpus contents via facade and legacy paths."""
        config = PipelineConfig(target_tables=12, seed=77)
        generator = GeneratorConfig(n_repositories=60, mean_rows=30, seed=77)
        first = CorpusBuilder(config, generator_config=generator).build()
        second = CorpusBuilder(config, generator_config=generator, batch_size=3).build()
        assert [a.table_id for a in first.corpus] == [a.table_id for a in second.corpus]
        for one, two in zip(first.corpus, second.corpus):
            assert one.table.header == two.table.header
            assert one.table.rows == two.table.rows
            assert [a.type_label for a in one.annotations.all()] == [
                a.type_label for a in two.annotations.all()
            ]

    def test_default_stage_context(self):
        ctx = StageContext()
        assert ctx.config is None
        ctx.publish("k", 1)
        assert ctx.state["k"] == 1
