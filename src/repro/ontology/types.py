"""Core semantic-type model shared by both ontologies.

Every semantic type carries the five metadata items the paper lists in
§3.4: the type label, the atomic type, the domain(s), the superclass (or
superproperty), and a natural-language description.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from ..errors import OntologyError

__all__ = ["AtomicKind", "SemanticType", "Ontology", "normalize_label"]


class AtomicKind(str, Enum):
    """Expected atomic data type of a semantic type (paper §3.4 item 2)."""

    TEXT = "Text"
    NUMBER = "Number"
    DATE = "Date"
    BOOLEAN = "Boolean"
    URL = "URL"


@lru_cache(maxsize=65_536)
def normalize_label(label: str) -> str:
    """Normalise a type label or column name for matching (paper §3.4).

    Replaces underscores and hyphens with spaces, splits camel-case and
    digit/letter compounds, lowercases, and collapses whitespace.
    ``productID`` and ``product_id`` both normalise to ``"product id"``.
    Memoised: annotation normalises the same column names and ontology
    labels over and over across a corpus.
    """
    result: list[str] = []
    previous: str | None = None
    for char in label:
        if char in "_-./":
            result.append(" ")
            previous = None
            continue
        boundary = previous is not None and (
            (char.isupper() and (previous.islower() or previous.isdigit()))
            or (char.isalpha() and previous.isdigit())
        )
        if boundary:
            result.append(" ")
        result.append(char.lower())
        previous = char
    return " ".join("".join(result).split())


@dataclass(frozen=True)
class SemanticType:
    """A single semantic type from DBpedia or Schema.org."""

    #: Human-readable label, e.g. ``"id"`` or ``"birth date"``.
    label: str
    #: Source ontology name: ``"dbpedia"`` or ``"schema_org"``.
    ontology: str
    #: Expected atomic data type of column values.
    atomic: AtomicKind = AtomicKind.TEXT
    #: Domain classes this property belongs to (e.g. Person, Organization).
    domains: tuple[str, ...] = ()
    #: Superclass or superproperty label (e.g. ``product id`` → ``id``).
    parent: str | None = None
    #: Natural language description.
    description: str = ""

    @property
    def normalized(self) -> str:
        """The normalised label used for matching."""
        return normalize_label(self.label)

    def ancestry(self, ontology: "Ontology") -> list[str]:
        """Labels of this type and its ancestors within ``ontology``."""
        chain = [self.label]
        current = self
        seen = {self.label}
        while current.parent and current.parent not in seen:
            parent_type = ontology.get(current.parent)
            if parent_type is None:
                chain.append(current.parent)
                break
            chain.append(parent_type.label)
            seen.add(parent_type.label)
            current = parent_type
        return chain


class Ontology:
    """A named collection of semantic types with label lookup."""

    def __init__(self, name: str, types: Iterable[SemanticType]) -> None:
        self.name = name
        self._types: dict[str, SemanticType] = {}
        self._by_normalized: dict[str, SemanticType] = {}
        for semantic_type in types:
            self.add(semantic_type)

    def add(self, semantic_type: SemanticType) -> None:
        """Add a type; duplicate labels are rejected."""
        if semantic_type.label in self._types:
            raise OntologyError(
                f"duplicate semantic type {semantic_type.label!r} in ontology {self.name!r}"
            )
        self._types[semantic_type.label] = semantic_type
        self.__dict__.pop("labels_digest", None)
        # Normalised lookup keeps the first registration (curated types are
        # registered before generated compounds, so they win ties).
        self._by_normalized.setdefault(semantic_type.normalized, semantic_type)

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[SemanticType]:
        return iter(self._types.values())

    def __contains__(self, label: str) -> bool:
        return label in self._types

    def get(self, label: str) -> SemanticType | None:
        """Lookup by exact label."""
        return self._types.get(label)

    def match_normalized(self, text: str) -> SemanticType | None:
        """Lookup by normalised label (the syntactic annotation primitive)."""
        return self._by_normalized.get(normalize_label(text))

    def labels(self) -> list[str]:
        return list(self._types)

    @cached_property
    def labels_digest(self) -> str:
        """``fingerprint_digest`` of :meth:`labels`, kept until the next :meth:`add`."""
        from ..storage.artifacts import fingerprint_digest

        return fingerprint_digest(self.labels())

    def types_in_domain(self, domain: str) -> list[SemanticType]:
        """All types whose domains include ``domain``."""
        return [t for t in self._types.values() if domain in t.domains]

    def domains(self) -> list[str]:
        """Sorted list of all domains mentioned by any type."""
        found: set[str] = set()
        for semantic_type in self._types.values():
            found.update(semantic_type.domains)
        return sorted(found)

    def is_descendant(self, child_label: str, ancestor_label: str) -> bool:
        """True when ``child_label`` has ``ancestor_label`` in its ancestry."""
        child = self.get(child_label)
        if child is None:
            return False
        return ancestor_label in child.ancestry(self)[1:]
