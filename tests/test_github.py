"""Unit tests for the GitHub simulator (repro.github)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GITHUB_MAX_FILE_SIZE, GITHUB_PAGE_SIZE, GITHUB_RESULT_WINDOW
from repro.dataframe.parser import parse_csv
from repro.errors import CSVParseError, RateLimitExceeded, ResultWindowExceeded, SearchQueryError
from repro.github.client import GitHubClient, RateLimiter
from repro.github.content import ContentGenerator, GeneratorConfig, TABLE_TEMPLATES
from repro.github.instance import GitHubInstance, build_instance
from repro.github.licenses import LICENSES, is_permissive, license_by_key
from repro.github.models import RepoFile, Repository
from repro.github.search import SearchAPI, SearchQuery
from tests import search_oracle


class TestLicenses:
    def test_catalogue_contains_mit(self):
        assert license_by_key("mit").permissive

    def test_non_permissive_licenses_exist(self):
        assert any(not license.permissive for license in LICENSES)

    def test_is_permissive_accepts_objects_keys_and_none(self):
        assert is_permissive("apache-2.0")
        assert is_permissive(license_by_key("mit"))
        assert not is_permissive(None)
        assert not is_permissive("proprietary")
        assert not is_permissive("not-a-license")


class TestModels:
    def test_file_size_and_extension(self):
        file = RepoFile(path="data/x.CSV", content="a,b\n1,2\n")
        assert file.size_bytes == len("a,b\n1,2\n")
        assert file.extension == "csv"

    def test_repository_url(self):
        repo = Repository(owner="octo", name="data")
        file = RepoFile(path="d.csv", content="a\n")
        assert repo.url_for(file) == "https://github.com/octo/data/blob/main/d.csv"


class TestContentGenerator:
    def test_repository_count(self):
        generator = ContentGenerator(GeneratorConfig(n_repositories=40, seed=1))
        repos = generator.generate_repositories()
        assert len(repos) == 40

    def test_forks_reference_their_source(self):
        generator = ContentGenerator(GeneratorConfig(n_repositories=60, fork_fraction=0.2, seed=2))
        repos = generator.generate_repositories()
        forks = [repo for repo in repos if repo.is_fork]
        assert forks, "expected some forked repositories"
        originals = {repo.full_name for repo in repos if not repo.is_fork}
        assert all(fork.forked_from in originals for fork in forks)

    def test_generated_files_are_mostly_parseable(self):
        instance = build_instance(GeneratorConfig(n_repositories=60, seed=3))
        parsed = 0
        failed = 0
        for _, file in instance.iter_files():
            try:
                parse_csv(file.content)
                parsed += 1
            except CSVParseError:
                failed += 1
        assert parsed / (parsed + failed) > 0.9

    def test_generation_is_deterministic(self):
        config = GeneratorConfig(n_repositories=20, seed=4)
        first = build_instance(config)
        second = build_instance(config)
        assert first.file_count == second.file_count
        url = next(iter(first.iter_files()))[0].url_for(next(iter(first.iter_files()))[1])
        assert first.raw_content(url) == second.raw_content(url)

    def test_templates_cover_expected_domains(self):
        keys = {template.key for template in TABLE_TEMPLATES}
        assert {"biology", "orders", "employees", "sensor", "census"} <= keys

    def test_scaled_to_files(self):
        config = GeneratorConfig().scaled_to_files(700)
        assert config.n_repositories == int(700 / GeneratorConfig().mean_files_per_repo)


class TestInstance:
    def test_file_lookup_by_url(self, github_instance):
        repository, file = next(iter(github_instance.iter_files()))
        url = repository.url_for(file)
        assert github_instance.raw_content(url) == file.content
        assert github_instance.file_at(url)[1] is file

    def test_unknown_url_raises(self, github_instance):
        with pytest.raises(KeyError):
            github_instance.raw_content("https://github.com/nobody/none/blob/main/x.csv")

    def test_repository_lookup(self, github_instance):
        repository, _ = next(iter(github_instance.iter_files()))
        assert github_instance.repository(repository.full_name) is repository
        assert github_instance.repository("nobody/none") is None

    def test_csv_file_count(self, github_instance):
        assert github_instance.csv_file_count() <= github_instance.file_count


class TestSearchQuery:
    def test_parse_full_query(self):
        query = SearchQuery.parse('q="id" extension:csv size:50..100 fork:false')
        assert query.term == "id"
        assert query.extension == "csv"
        assert (query.size_min, query.size_max) == (50, 100)
        assert not query.include_forks

    def test_round_trip_to_string(self):
        query = SearchQuery(term="object", size_min=0, size_max=10)
        assert SearchQuery.parse(query.to_string()) == query

    def test_empty_term_rejected(self):
        with pytest.raises(SearchQueryError):
            SearchQuery(term="  ")

    def test_inconsistent_size_range_rejected(self):
        with pytest.raises(SearchQueryError):
            SearchQuery(term="id", size_min=10, size_max=None)
        with pytest.raises(SearchQueryError):
            SearchQuery(term="id", size_min=10, size_max=5)

    def test_with_size_range(self):
        segmented = SearchQuery(term="id").with_size_range(0, 99)
        assert (segmented.size_min, segmented.size_max) == (0, 99)


class TestSearchAPI:
    def test_id_query_returns_results(self, github_instance):
        api = SearchAPI(github_instance)
        response = api.search(SearchQuery(term="id"))
        assert response.total_count > 0
        assert all(item.url.startswith("https://github.com/") for item in response.items)

    def test_size_qualifier_filters(self, github_instance):
        api = SearchAPI(github_instance)
        response = api.search(SearchQuery(term="id", size_min=0, size_max=500))
        assert all(item.size_bytes <= 500 for item in response.items)

    def test_large_files_never_returned(self, github_instance):
        api = SearchAPI(github_instance)
        response = api.search(SearchQuery(term="id"))
        assert all(item.size_bytes <= GITHUB_MAX_FILE_SIZE for item in response.items)

    def test_fork_exclusion_reduces_results(self, github_instance):
        api = SearchAPI(github_instance)
        with_forks = api.total_count(SearchQuery(term="id", include_forks=True))
        without_forks = api.total_count(SearchQuery(term="id", include_forks=False))
        assert without_forks <= with_forks

    def test_result_window_is_enforced(self, github_instance):
        api = SearchAPI(github_instance, result_window=10, page_size=5)
        query = SearchQuery(term="id")
        total = api.total_count(query)
        if total > 10:
            response = api.search(query, page=1)
            assert response.incomplete_results
            with pytest.raises(ResultWindowExceeded):
                api.search(query, page=4)

    def test_pagination_traverses_window(self, github_instance):
        client = GitHubClient(github_instance, SearchAPI(github_instance, result_window=30, page_size=10))
        items = client.search_all_pages(SearchQuery(term="id"))
        assert len(items) <= 30
        assert len({item.url for item in items}) == len(items)

    def test_invalid_page_rejected(self, github_instance):
        api = SearchAPI(github_instance)
        with pytest.raises(SearchQueryError):
            api.search(SearchQuery(term="id"), page=0)


def _assert_search_equals_oracle(api: SearchAPI, query: SearchQuery) -> None:
    """Count, every page (and one past the last) and any window refusal equal the oracle."""
    total = search_oracle.total_count(api, query)
    assert api.total_count(query) == total
    last_page = -(-total // api.page_size) + 1
    for page in range(1, last_page + 1):
        try:
            expected = search_oracle.search(api, query, page)
        except ResultWindowExceeded as refused:
            with pytest.raises(ResultWindowExceeded) as raised:
                api.search(query, page)
            assert str(raised.value) == str(refused)
        else:
            assert api.search(query, page) == expected


def _instance(*repositories: tuple[bool, list[RepoFile]]) -> GitHubInstance:
    return GitHubInstance(
        [
            Repository(owner="octo", name=f"repo{k}", is_fork=is_fork, files=files)
            for k, (is_fork, files) in enumerate(repositories)
        ]
    )


_TOPICS = ("biology", "orders", "sensor", "Census")
_HEADER_WORDS = ("id", "name", "Price", "GENE", "région", "date")
_PATH_FRAGMENTS = ("data", "bio", "Orders", "raw")
_UNKNOWN_WORDS = ("zzz", "quux")


@st.composite
def _repo_file(draw) -> RepoFile:
    path = "/".join(draw(st.lists(st.sampled_from(_PATH_FRAGMENTS), min_size=1, max_size=2)))
    path += draw(st.sampled_from([".csv", ".CSV", ".txt", ""]))
    header = ",".join(draw(st.lists(st.sampled_from(_HEADER_WORDS), min_size=1, max_size=3)))
    header = draw(st.sampled_from([header, header.upper()]))
    ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    body = draw(st.sampled_from(["", "1,2\n", "é,ü\n3,4\n", "id,x"]))
    topics = frozenset(draw(st.lists(st.sampled_from(_TOPICS), max_size=2)))
    return RepoFile(path=path, content=header + ending + body, topics=topics)


@st.composite
def _search_case(draw) -> tuple[SearchAPI, list[SearchQuery]]:
    instance = _instance(
        *draw(
            st.lists(
                st.tuples(st.booleans(), st.lists(_repo_file(), max_size=6)), min_size=1, max_size=4
            )
        )
    )
    sizes = sorted({row.item.size_bytes for row in instance.search_rows} | {0})
    near_size = st.sampled_from(sizes).flatmap(lambda size: st.sampled_from([size - 1, size, size + 1]))
    api = SearchAPI(
        instance,
        result_window=draw(st.sampled_from([GITHUB_RESULT_WINDOW, 1, 3, 5])),
        page_size=draw(st.sampled_from([GITHUB_PAGE_SIZE, 1, 2, 3])),
        max_file_size=draw(st.one_of(st.just(GITHUB_MAX_FILE_SIZE), near_size)),
    )
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        term = draw(st.sampled_from(_TOPICS + _HEADER_WORDS + _PATH_FRAGMENTS + _UNKNOWN_WORDS))
        bounds = draw(st.one_of(st.none(), st.tuples(near_size, near_size).map(sorted)))
        queries.append(
            SearchQuery(
                term=draw(st.sampled_from([term, term.upper(), term.lower()])),
                extension=draw(st.sampled_from([None, "csv", "txt"])),
                size_min=None if bounds is None else bounds[0],
                size_max=None if bounds is None else bounds[1],
                include_forks=draw(st.booleans()),
            )
        )
    # Back to the first query: a memo of the last query must not answer it.
    return api, queries + queries[:1]


class TestSearchMatchesOracle:
    """Search over the per-file rows equals the per-file scan it replaced."""

    @given(case=_search_case())
    @settings(max_examples=150, deadline=None)
    def test_generated_instances_and_queries(self, case):
        api, queries = case
        for query in queries:
            _assert_search_equals_oracle(api, query)

    def test_explicit_cases(self):
        no_newline = RepoFile(path="a/plain.csv", content="id,Width")
        crlf = RepoFile(path="b/crlf.csv", content="Id,Depth\r\n1,2\r\n")
        upper = RepoFile(path="c/upper.csv", content="SPECIES,COUNT\nx,1\n", topics=frozenset({"biology"}))
        forked = RepoFile(path="d/forked.csv", content="id,species\n1,x\n")
        instance = _instance((False, [no_newline, crlf, upper]), (True, [forked]))
        api = SearchAPI(instance, result_window=2, page_size=1)

        def urls(query: SearchQuery, api: SearchAPI = api) -> set[str]:
            _assert_search_equals_oracle(api, query)
            return {item.path for item in search_oracle.all_matches(api, query)}

        # A term only in an uppercase header; a header that ends the file;
        # the \r of a CRLF header stays part of the first line.
        assert urls(SearchQuery(term="count")) == {"c/upper.csv"}
        assert urls(SearchQuery(term="width")) == {"a/plain.csv"}
        assert urls(SearchQuery(term="depth\r")) == {"b/crlf.csv"}
        # Size bounds hit exactly at both ends.
        size = upper.size_bytes
        assert urls(SearchQuery(term="count", size_min=size, size_max=size)) == {"c/upper.csv"}
        assert urls(SearchQuery(term="count", size_min=size + 1, size_max=size + 9)) == set()
        assert urls(SearchQuery(term="count", size_min=0, size_max=size - 1)) == set()
        # A file of exactly max_file_size is returned, one a byte larger is not.
        exact = SearchAPI(instance, max_file_size=size)
        assert urls(SearchQuery(term="count"), exact) == {"c/upper.csv"}
        smaller = SearchAPI(instance, max_file_size=size - 1)
        assert urls(SearchQuery(term="count"), smaller) == set()
        assert urls(SearchQuery(term="count", size_min=0, size_max=size), smaller) == set()
        # Forks included and excluded.
        assert urls(SearchQuery(term="species", include_forks=True)) == {"c/upper.csv", "d/forked.csv"}
        assert urls(SearchQuery(term="species", include_forks=False)) == {"c/upper.csv"}
        # More matches than the window: the window refusal equals the oracle's.
        assert len(urls(SearchQuery(term="id", include_forks=True))) == 3


class _CountingRows(list):
    """Search rows that count how often a scan walks them."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestOneScanPerQuery:
    """A query's count and pages share one scan; nothing is shared beyond one API object."""

    def test_count_and_pages_share_one_walk(self, github_instance, monkeypatch):
        rows = _CountingRows(github_instance.search_rows)
        monkeypatch.setattr(github_instance, "search_rows", rows)
        api = SearchAPI(github_instance, page_size=5)
        query = SearchQuery(term="id")
        total = api.total_count(query)
        pages = 1
        while api.search(query, page=pages).has_next_page:
            pages += 1
        assert total > 5 and pages > 1
        assert rows.walks == 1

        api.total_count(SearchQuery(term="id", size_min=0, size_max=500))
        assert rows.walks == 2
        api.search(query)
        assert rows.walks == 3

        SearchAPI(github_instance, page_size=5).total_count(query)
        assert rows.walks == 4


class TestRateLimiter:
    def test_allows_up_to_budget(self):
        limiter = RateLimiter(requests_per_window=3, window_seconds=60)
        for _ in range(3):
            limiter.check()
        with pytest.raises(RateLimitExceeded):
            limiter.check()

    def test_budget_recovers_after_window(self):
        limiter = RateLimiter(requests_per_window=2, window_seconds=10)
        limiter.check()
        limiter.check()
        assert limiter.wait_time() > 0
        limiter.advance(11)
        assert limiter.wait_time() == 0
        limiter.check()

    def test_cannot_move_clock_backwards(self):
        with pytest.raises(ValueError):
            RateLimiter().advance(-1)


class TestGitHubClient:
    def test_client_paces_itself_instead_of_failing(self, github_instance):
        client = GitHubClient(
            github_instance,
            rate_limiter=RateLimiter(requests_per_window=5, window_seconds=60),
            seconds_per_request=1.0,
        )
        query = SearchQuery(term="id")
        for _ in range(12):
            client.total_count(query)
        assert client.request_count == 12
        assert client.total_wait_seconds > 0

    def test_raw_content_roundtrip(self, github_instance):
        client = GitHubClient(github_instance)
        repository, file = next(iter(github_instance.iter_files()))
        assert client.raw_content(repository.url_for(file)) == file.content
