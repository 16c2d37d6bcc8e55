"""Unit tests for the extraction stage (repro.core.extraction)."""

import pytest

from repro.config import ExtractionConfig
from repro.core.extraction import CSVExtractor, build_topic_query, segment_query
from repro.github.client import GitHubClient
from repro.github.search import SearchQuery


class TestTopicQueries:
    def test_build_topic_query_excludes_forks_by_default(self):
        query = build_topic_query("object")
        assert query.term == "object"
        assert query.extension == "csv"
        assert not query.include_forks

    def test_build_topic_query_can_include_forks(self):
        assert build_topic_query("object", exclude_forks=False).include_forks


class TestSegmentQuery:
    def test_small_result_set_is_not_segmented(self):
        query = SearchQuery(term="id")
        assert segment_query(query, total_count=500, result_window=1000) == [query]

    def test_large_result_set_is_segmented_by_size(self):
        query = SearchQuery(term="id")
        segments = segment_query(
            query, total_count=5000, result_window=1000, segment_bytes=50 * 1024,
            max_file_size=438 * 1024,
        )
        assert len(segments) > 1
        assert all(segment.size_min is not None for segment in segments)

    def test_segments_cover_the_full_size_range_without_overlap(self):
        query = SearchQuery(term="id")
        segments = segment_query(query, total_count=10_000, max_file_size=1000, segment_bytes=100)
        assert segments[0].size_min == 0
        assert segments[-1].size_max == 1000
        for previous, current in zip(segments, segments[1:]):
            assert current.size_min == previous.size_max + 1

    def test_more_results_means_more_segments(self):
        query = SearchQuery(term="id")
        few = segment_query(query, total_count=3000, max_file_size=100_000)
        many = segment_query(query, total_count=100_000, max_file_size=100_000)
        assert len(many) >= len(few)


class TestCSVExtractor:
    @pytest.fixture()
    def extractor(self, github_instance):
        config = ExtractionConfig(topic_count=4, result_window=200, page_size=50)
        return CSVExtractor(GitHubClient(github_instance), config)

    def test_collect_urls_deduplicates(self, extractor):
        urls = extractor.collect_urls("id")
        assert len(urls) == len(set(urls))

    def test_extract_topic_returns_files_with_content(self, extractor):
        files = extractor.extract_topic("id")
        assert files
        assert all(file.content for file in files)
        assert all(file.topic == "id" for file in files)

    def test_extract_deduplicates_across_topics(self, extractor):
        files, report = extractor.extract(["id", "value"])
        urls = [file.url for file in files]
        assert len(urls) == len(set(urls))
        assert report.files_downloaded == len(files)
        assert report.total_urls >= report.files_downloaded

    def test_report_counts_queries_per_topic(self, extractor):
        _, report = extractor.extract(["id"])
        assert "id" in report.initial_counts
        assert report.segmented_queries["id"] >= 1
        assert report.api_requests > 0

    def test_extraction_respects_file_size_cap(self, extractor):
        files, _ = extractor.extract(["id"])
        assert all(file.size_bytes <= extractor.config.max_file_size for file in files)
