"""A small union-find with path compression, keyed by hashable objects."""

from __future__ import annotations

from typing import Hashable, Iterator


class UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def find(self, item: Hashable) -> Hashable:
        # Only non-roots are keys of ``_parent`` (``union`` never links a
        # root to itself), so a miss means ``item`` is its own root.
        parent = self._parent
        root = parent.get(item, item)
        if root is item:
            return item
        up = parent.get(root, root)
        while up is not root:
            root = up
            up = parent.get(root, root)
        while item is not root:  # path compression
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the classes of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb
        return rb

    def same(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)

    def items(self) -> Iterator[Hashable]:
        return iter(self._parent)

    def copy(self) -> "UnionFind":
        fresh = UnionFind()
        fresh._parent = dict(self._parent)
        return fresh
