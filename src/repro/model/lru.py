"""A bounded recency-ordered mapping for substrate-level caches.

The scale wall the router hits above a few hundred overlay nodes is a
*memory* wall before it is a time wall: per-source shortest-path trees
and the rows derived from them each hold O(N) state per cached source, so
an unbounded cache grows O(N²) once every node has been an upstream at
least once.  :class:`LRUDict` is the one shared primitive that keeps those
caches O(capacity × N): a plain mapping with least-recently-used eviction
and an eviction callback (so owners can count the eviction on their
recorder).

Deliberately minimal — no weakrefs, no TTLs, no statistics of its own
beyond :attr:`evictions`.  Determinism note: iteration order is
insertion/recency order (never hash order), so scans over an
:class:`LRUDict` are replay-stable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LRUDict(Generic[K, V]):
    """A mapping bounded to ``capacity`` entries with LRU eviction.

    ``capacity`` is a plain int ≥ 1; a cache that must never evict gets a
    capacity at least its key-space size.  ``on_evict(key, value)`` is
    invoked after an entry is evicted by an insert that exceeded the bound
    — never for an explicit :meth:`clear`.
    """

    __slots__ = ("_capacity", "_data", "_on_evict", "evictions")

    def __init__(
        self,
        capacity: int,
        on_evict: Optional[Callable[[K, V], None]] = None,
    ) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be an int >= 1, got {capacity!r}")
        self._capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._on_evict = on_evict
        #: entries evicted by the capacity bound since construction
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[K]:
        """Keys in recency order, least-recently-used first."""
        return iter(self._data)

    def get(self, key: K) -> Optional[V]:
        """Fetch and mark ``key`` most-recently-used (None when absent)."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def __getitem__(self, key: K) -> V:
        """Fetch and mark ``key`` most-recently-used (KeyError when absent)."""
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        data[key] = value
        if len(data) > self._capacity:
            evicted_key, evicted_value = data.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(evicted_key, evicted_value)

    def clear(self) -> None:
        self._data.clear()

    def items(self) -> List[Tuple[K, V]]:
        """Snapshot of ``(key, value)`` pairs in recency order (LRU first)."""
        return list(self._data.items())

    def __repr__(self) -> str:
        return (
            f"LRUDict({len(self._data)}/{self._capacity}, "
            f"evictions={self.evictions})"
        )
