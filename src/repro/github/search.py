"""The simulated GitHub Search API.

Reproduces the behaviours the paper's extraction stage works around
(§3.2):

* a query matches files whose content/topics contain the query term and
  whose extension matches the ``extension:`` qualifier;
* results can be narrowed with a ``size:MIN..MAX`` qualifier (bytes);
* files larger than 438 kB are never returned;
* at most 1000 results are retrievable per query (the "result window"),
  paginated in fixed-size pages; the response reports the *true* total
  count so callers can detect that segmentation is needed;
* forked repositories can be excluded with ``fork:false``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..config import GITHUB_MAX_FILE_SIZE, GITHUB_PAGE_SIZE, GITHUB_RESULT_WINDOW
from ..errors import ResultWindowExceeded, SearchQueryError
from .instance import GitHubInstance
from .models import SearchResponse, SearchResultItem

__all__ = ["SearchQuery", "SearchAPI"]

_QUERY_RE = re.compile(r'^\s*(?:q=)?"?(?P<term>[^"\s]+)"?\s*(?P<qualifiers>.*)$')
_SIZE_RE = re.compile(r"size:(?P<low>\d+)\.\.(?P<high>\d+)")
_EXT_RE = re.compile(r"extension:(?P<ext>\w+)")
_FORK_RE = re.compile(r"fork:(?P<fork>true|false)")


@dataclass(frozen=True)
class SearchQuery:
    """A parsed search query."""

    term: str
    extension: str | None = "csv"
    size_min: int | None = None
    size_max: int | None = None
    include_forks: bool = False

    def __post_init__(self) -> None:
        if not self.term or not self.term.strip():
            raise SearchQueryError("query term must not be empty")
        if (self.size_min is None) != (self.size_max is None):
            raise SearchQueryError("size_min and size_max must be set together")
        if self.size_min is not None and self.size_max is not None and self.size_min > self.size_max:
            raise SearchQueryError("size_min must not exceed size_max")

    @classmethod
    def parse(cls, raw: str) -> "SearchQuery":
        """Parse a query string like ``q="id" extension:csv size:50..100``."""
        match = _QUERY_RE.match(raw)
        if not match:
            raise SearchQueryError(f"malformed query: {raw!r}")
        term = match.group("term")
        qualifiers = match.group("qualifiers") or ""
        extension = None
        ext_match = _EXT_RE.search(qualifiers)
        if ext_match:
            extension = ext_match.group("ext").lower()
        size_min = size_max = None
        size_match = _SIZE_RE.search(qualifiers)
        if size_match:
            size_min = int(size_match.group("low"))
            size_max = int(size_match.group("high"))
        include_forks = True
        fork_match = _FORK_RE.search(qualifiers)
        if fork_match:
            include_forks = fork_match.group("fork") == "true"
        return cls(
            term=term,
            extension=extension,
            size_min=size_min,
            size_max=size_max,
            include_forks=include_forks,
        )

    def to_string(self) -> str:
        """Serialise back to the GitHub query syntax."""
        parts = [f'q="{self.term}"']
        if self.extension:
            parts.append(f"extension:{self.extension}")
        if self.size_min is not None and self.size_max is not None:
            parts.append(f"size:{self.size_min}..{self.size_max}")
        if not self.include_forks:
            parts.append("fork:false")
        return " ".join(parts)

    def with_size_range(self, size_min: int, size_max: int) -> "SearchQuery":
        """A copy of this query restricted to a byte-size range."""
        return SearchQuery(
            term=self.term,
            extension=self.extension,
            size_min=size_min,
            size_max=size_max,
            include_forks=self.include_forks,
        )


class SearchAPI:
    """Code-search endpoint of the simulated GitHub instance."""

    def __init__(
        self,
        instance: GitHubInstance,
        result_window: int = GITHUB_RESULT_WINDOW,
        page_size: int = GITHUB_PAGE_SIZE,
        max_file_size: int = GITHUB_MAX_FILE_SIZE,
    ) -> None:
        self.instance = instance
        self.result_window = result_window
        self.page_size = page_size
        self.max_file_size = max_file_size
        #: The last query and its sorted matches, so a query's count and
        #: pages share one scan; never shared between API objects (sessions).
        self._last: tuple[SearchQuery, list[SearchResultItem]] | None = None

    def _all_matches(self, query: SearchQuery) -> list[SearchResultItem]:
        if self._last is not None and self._last[0] == query:
            return self._last[1]
        low = 0 if query.size_min is None else query.size_min
        high = self.max_file_size if query.size_max is None else min(query.size_max, self.max_file_size)
        term = query.term.lower()
        # A topic hit, else the file path or header line, mirroring GitHub
        # code search matching on file contents.
        items = [
            row.item
            for row in self.instance.search_rows
            if (not query.extension or row.extension == query.extension)
            and low <= row.item.size_bytes <= high
            and (query.include_forks or not row.is_fork)
            and (term in row.topics or term in row.path_lower or term in row.first_line_lower)
        ]
        # Deterministic ordering: by size then URL (GitHub orders by
        # relevance; any stable order works for the pipeline).
        items.sort(key=lambda item: (item.size_bytes, item.url))
        self._last = (query, items)
        return items

    def total_count(self, query: SearchQuery) -> int:
        """The number of files matching ``query`` (no window applied)."""
        return len(self._all_matches(query))

    def search(self, query: SearchQuery, page: int = 1) -> SearchResponse:
        """Return one page of search results.

        Pages beyond the result window raise
        :class:`~repro.errors.ResultWindowExceeded`, mirroring GitHub's
        refusal to paginate past the first 1000 results.
        """
        if page < 1:
            raise SearchQueryError("page numbers start at 1")
        matches = self._all_matches(query)
        total = len(matches)
        window = matches[: self.result_window]

        start = (page - 1) * self.page_size
        if start >= self.result_window and start < total:
            raise ResultWindowExceeded(
                f"cannot retrieve page {page}: only the first {self.result_window} "
                f"results of {total} are accessible"
            )
        page_items = tuple(window[start : start + self.page_size])
        has_next = start + self.page_size < len(window)
        return SearchResponse(
            total_count=total,
            items=page_items,
            page=page,
            has_next_page=has_next,
            incomplete_results=total > self.result_window,
        )
