"""The per-file search scan, as the simulated Search API once ran it.

:class:`~repro.github.search.SearchAPI` filters the per-file search rows
its :class:`~repro.github.instance.GitHubInstance` builds once, and
shares one scan between a query's count and its pages. This module keeps
the scan it was first written as — one predicate call per
``(repository, file)`` pair, re-encoding the content for its size and
splitting it for its first line, and a fresh scan for every count and
every page — so tests can hold the row scan to exact equality with it.
"""

from __future__ import annotations

from repro.errors import ResultWindowExceeded, SearchQueryError
from repro.github.models import SearchResponse, SearchResultItem
from repro.github.search import SearchAPI, SearchQuery

__all__ = ["all_matches", "search", "total_count"]


def _matches(api: SearchAPI, query: SearchQuery, repository, file) -> bool:
    if query.extension and file.extension != query.extension:
        return False
    size = file.size_bytes
    if size > api.max_file_size:
        return False
    if query.size_min is not None and not (query.size_min <= size <= query.size_max):
        return False
    if not query.include_forks and repository.is_fork:
        return False
    term = query.term.lower()
    if term in file.topics:
        return True
    # Fall back to scanning the file path and header line, mirroring
    # GitHub code search matching on file contents.
    if term in file.path.lower():
        return True
    first_line = file.content.split("\n", 1)[0].lower()
    return term in first_line


def all_matches(api: SearchAPI, query: SearchQuery) -> list[SearchResultItem]:
    """Every file ``api`` matches for ``query``, ordered by size then URL."""
    items: list[SearchResultItem] = []
    for repository, file in api.instance.iter_files():
        if _matches(api, query, repository, file):
            items.append(
                SearchResultItem(
                    repository=repository.full_name,
                    path=file.path,
                    url=repository.url_for(file),
                    size_bytes=file.size_bytes,
                )
            )
    # Deterministic ordering: by size then URL (GitHub orders by
    # relevance; any stable order works for the pipeline).
    items.sort(key=lambda item: (item.size_bytes, item.url))
    return items


def total_count(api: SearchAPI, query: SearchQuery) -> int:
    """The number of files matching ``query`` (no window applied)."""
    return len(all_matches(api, query))


def search(api: SearchAPI, query: SearchQuery, page: int = 1) -> SearchResponse:
    """One page of results, from a fresh scan."""
    if page < 1:
        raise SearchQueryError("page numbers start at 1")
    matches = all_matches(api, query)
    total = len(matches)
    window = matches[: api.result_window]

    start = (page - 1) * api.page_size
    if start >= api.result_window and start < total:
        raise ResultWindowExceeded(
            f"cannot retrieve page {page}: only the first {api.result_window} "
            f"results of {total} are accessible"
        )
    page_items = tuple(window[start : start + api.page_size])
    has_next = start + api.page_size < len(window)
    return SearchResponse(
        total_count=total,
        items=page_items,
        page=page,
        has_next_page=has_next,
        incomplete_results=total > api.result_window,
    )
