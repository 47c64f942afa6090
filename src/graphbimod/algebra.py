"""The ordered vertex set shared by every structure in the package.

The vertex order is fixed once (lexicographic by label), and every
per-vertex array and table in the package uses it.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class VertexSet:
    """Ordered, immutable set of vertex labels with index lookup."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        ordered = tuple(sorted(str(v) for v in labels))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate vertex labels")
        if not ordered:
            raise ValueError("vertex set is empty")
        self.labels = ordered
        self._index = {v: i for i, v in enumerate(ordered)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown vertex {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index
