"""The simulated GitHub instance: hosts repositories and serves content."""

from __future__ import annotations

from typing import NamedTuple

from .content import ContentGenerator, GeneratorConfig
from .models import RepoFile, Repository, SearchResultItem

__all__ = ["GitHubInstance", "build_instance"]


class SearchRow(NamedTuple):
    """One file as the Search API filters it, derived once per instance."""

    item: SearchResultItem
    extension: str
    is_fork: bool
    topics: frozenset[str]
    path_lower: str
    #: Up to the first ``\n``; a ``\r`` before it is kept.
    first_line_lower: str


class GitHubInstance:
    """An in-memory GitHub hosting a set of repositories.

    Provides raw-content retrieval by URL (the analogue of
    ``raw.githubusercontent.com``) plus repository metadata lookup; the
    Search API (:mod:`repro.github.search`) filters its ``search_rows``,
    one per file in :meth:`iter_files` order, built once here.
    """

    def __init__(self, repositories: list[Repository]) -> None:
        self.repositories = list(repositories)
        self._by_full_name: dict[str, Repository] = {}
        self._file_index: dict[str, tuple[Repository, RepoFile]] = {}
        for repository in self.repositories:
            self._by_full_name[repository.full_name] = repository
            for file in repository.files:
                self._file_index[repository.url_for(file)] = (repository, file)
        self.search_rows: list[SearchRow] = []
        for url, (repository, file) in self._file_index.items():
            newline = file.content.find("\n")
            first_line = file.content if newline < 0 else file.content[:newline]
            item = SearchResultItem(repository.full_name, file.path, url, file.size_bytes)
            fields = (file.extension, repository.is_fork, file.topics, file.path.lower(), first_line.lower())
            self.search_rows.append(SearchRow(item, *fields))

    # -- repository metadata ----------------------------------------------

    def __len__(self) -> int:
        return len(self.repositories)

    def repository(self, full_name: str) -> Repository | None:
        """Look up a repository by ``owner/name``."""
        return self._by_full_name.get(full_name)

    @property
    def file_count(self) -> int:
        """Total number of files across all repositories."""
        return len(self._file_index)

    def csv_file_count(self) -> int:
        """Number of files with a ``.csv`` extension."""
        return sum(1 for _, file in self._file_index.values() if file.extension == "csv")

    def iter_files(self):
        """Iterate over (repository, file) pairs."""
        return iter(self._file_index.values())

    # -- raw content ------------------------------------------------------

    def raw_content(self, url: str) -> str:
        """Return the raw contents of the file at ``url``.

        Raises ``KeyError`` for unknown URLs, mirroring a 404.
        """
        entry = self._file_index.get(url)
        if entry is None:
            raise KeyError(f"unknown file URL: {url}")
        return entry[1].content

    def file_at(self, url: str) -> tuple[Repository, RepoFile]:
        """Return the (repository, file) pair behind ``url``."""
        entry = self._file_index.get(url)
        if entry is None:
            raise KeyError(f"unknown file URL: {url}")
        return entry


#: Most recently generated instance, keyed by its (frozen, hashable)
#: generator config. Bounded to a single entry: the common repeat
#: pattern is many sessions over one configuration, not many configs.
_instance_cache: dict[GeneratorConfig, GitHubInstance] = {}


def build_instance(config: GeneratorConfig | None = None) -> GitHubInstance:
    """Generate a synthetic GitHub instance from a generator config.

    Memoized per config: generation is deterministic and instances are
    read-only once built, so repeated sessions in one process — an
    epoch extension reopening the corpus it grew from, a benchmark's
    rebuild arm, a worker pool warming per-worker sessions — share one
    instance instead of each paying the O(files) content generation.
    """
    key = config if config is not None else GeneratorConfig()
    cached = _instance_cache.get(key)
    if cached is not None:
        return cached
    generator = ContentGenerator(key)
    instance = GitHubInstance(generator.generate_repositories())
    _instance_cache.clear()
    _instance_cache[key] = instance
    return instance
