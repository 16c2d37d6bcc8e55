"""The per-candidate reference for schema completion (Algorithm 1).

:meth:`~repro.applications.schema_completion.NearestCompletion.complete`
gathers every candidate's first N attribute rows with one fancy index
into the flat matrix and ranks the distances with one ``lexsort``. This
module keeps the kernel it was first written as — a list of candidate
indices, one per-schema slice each, one ``SchemaCompletion`` per
candidate and a full sort — so tests can hold the vectorised kernel to
exact equality with it.
"""

from __future__ import annotations

import numpy as np

from repro.applications.schema_completion import SchemaCompletion

__all__ = ["complete"]


def complete(completer, prefix, k: int = 10) -> list[SchemaCompletion]:
    """The ``k`` nearest completions for ``prefix``, one candidate at a time."""
    if not prefix:
        raise ValueError("prefix must contain at least one attribute")
    if k < 1:
        raise ValueError("k must be >= 1")
    prefix = tuple(prefix)
    n = len(prefix)
    prefix_embeddings = completer.encoder.embed_many(list(prefix))
    schemas = completer._schemas
    flat = np.asarray(completer._flat_matrix)
    views, offset = [], 0
    for _, schema in schemas:
        views.append(flat[offset : offset + len(schema)])
        offset += len(schema)

    candidates: list[int] | None = None
    coarse = completer._coarse_index()
    if coarse is not None:
        query = prefix_embeddings[: completer.min_schema_length].mean(axis=0)
        probed = coarse.probe_batch(query[None, :])[0]
        subset = [i for i in probed.tolist() if len(schemas[i][1]) >= n]
        if subset:
            candidates = subset
    if candidates is None:
        candidates = [index for index, (_, schema) in enumerate(schemas) if len(schema) >= n]
    if not candidates:
        return []
    stacked = np.stack([views[i][:n] for i in candidates])
    similarities = np.einsum("snd,nd->sn", stacked, prefix_embeddings)
    attribute_norms = np.linalg.norm(stacked, axis=2)
    prefix_norms = np.linalg.norm(prefix_embeddings, axis=1)
    denominators = attribute_norms * prefix_norms[None, :]
    safe = np.where(denominators > 0.0, denominators, 1.0)
    similarities = np.where(denominators > 0.0, similarities / safe, 0.0)
    distances = (1.0 - similarities).mean(axis=1)

    scored = [
        SchemaCompletion(
            table_id=schemas[i][0],
            schema=schemas[i][1],
            prefix_distance=float(distance),
        )
        for i, distance in zip(candidates, distances)
    ]
    scored.sort(key=lambda completion: (completion.prefix_distance, completion.table_id))
    return scored[:k]
