"""Endpoint batch execution, shared by worker processes and local mode.

Each served endpoint knows three things: how to *validate and
canonicalize* a payload at admission time (so a malformed request is
rejected in the submitter's thread instead of poisoning a whole batch),
which **compatibility key** it batches under, and how to *execute* a
group of same-key payloads against one :class:`~repro.api.GitTables`
session in a single pass through the existing batch kernels:

``search``
    key ``("search", k)`` — the whole group resolves through one
    :meth:`~repro.api.GitTables.search_batch` call (one batched embed +
    one batched nearest-neighbour query).
``complete_schema``
    key ``("complete_schema", k)`` — every distinct attribute across the
    group is embedded in one ``embed_many`` call (warming the encoder's
    content-keyed cache), then each prefix completes individually from
    cached vectors. Per-string embeddings are bit-identical alone or in
    any batch, so results equal single-shot ``complete_schema`` calls.
``detect_types``
    key ``("detect_types", <canonical options>)`` — the experiment is a
    deterministic function of (corpus, options), so one run per group
    answers every request in it, and a per-session memo answers repeats
    across windows without re-training.
"""

from __future__ import annotations

from ..errors import ServingError

__all__ = ["ENDPOINTS", "canonicalize", "execute_batch"]

#: Option value types accepted by ``detect_types`` payloads (must be
#: hashable for the compatibility key and picklable for dispatch).
_OPTION_SCALARS = (str, int, float, bool, type(None))


def _canonical_search(payload, k) -> tuple[tuple, object]:
    query, = payload
    if not isinstance(query, str) or not query.strip():
        raise ServingError("search requires a non-empty query string")
    k = int(k)
    if k < 1:
        raise ServingError("search requires k >= 1")
    return ("search", k), query


def _canonical_complete(payload, k) -> tuple[tuple, object]:
    prefix, = payload
    if isinstance(prefix, str):
        raise ServingError("complete_schema requires a sequence of attribute names")
    prefix = tuple(prefix)
    if not prefix or not all(isinstance(name, str) for name in prefix):
        raise ServingError("complete_schema requires a non-empty tuple of strings")
    k = int(k)
    if k < 1:
        raise ServingError("complete_schema requires k >= 1")
    return ("complete_schema", k), prefix


def _canonical_option(value):
    if isinstance(value, _OPTION_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_option(item) for item in value)
    raise ServingError(
        f"detect_types option values must be scalars or sequences, got {type(value).__name__}"
    )


def _canonical_detect(payload, k) -> tuple[tuple, object]:
    options, = payload
    if not isinstance(options, dict):
        raise ServingError("detect_types requires an options dict")
    if "eval_corpus" in options:
        raise ServingError("detect_types over a service cannot override the corpus")
    canonical = tuple(
        (str(name), _canonical_option(value)) for name, value in sorted(options.items())
    )
    return ("detect_types", canonical), canonical


def _run_search(session, key, payloads):
    _, k = key
    return session.search_batch(list(payloads), k=k)


def _run_complete(session, key, payloads):
    _, k = key
    distinct = list(dict.fromkeys(name for prefix in payloads for name in prefix))
    # One batched embed warms the encoder's content-keyed cache; the
    # per-prefix completions below then reuse those exact vectors.
    session.encoder.embed_many(distinct)
    return [session.complete_schema(list(prefix), k=k) for prefix in payloads]


def _run_detect(session, key, payloads, memo=None):
    _, canonical = key
    result = memo.get(canonical) if memo is not None else None
    if result is None:
        result = session.detect_types(**{name: value for name, value in canonical})
        if memo is not None:
            memo[canonical] = result
    return [result for _ in payloads]


#: endpoint name -> (canonicalize(payload_args, k) -> (key, payload),
#:                   execute(session, key, payloads, memo) -> results).
ENDPOINTS = {
    "search": (_canonical_search, _run_search),
    "complete_schema": (_canonical_complete, _run_complete),
    "detect_types": (_canonical_detect, _run_detect),
}


def canonicalize(endpoint: str, payload_args: tuple, k: int | None = None) -> tuple[tuple, object]:
    """Validate a request and derive its ``(compatibility key, payload)``."""
    try:
        validator, _ = ENDPOINTS[endpoint]
    except KeyError:
        raise ServingError(f"unknown endpoint {endpoint!r}") from None
    return validator(payload_args, k)


def execute_batch(session, endpoint: str, key: tuple, payloads: list, memo: dict | None = None):
    """Run one compatibility group against a session; one result per payload."""
    _, runner = ENDPOINTS[endpoint]
    if endpoint == "detect_types":
        return runner(session, key, payloads, memo=memo)
    return runner(session, key, payloads)
