"""The one bounded cache every serving layer uses (row groups, postings
views, phrase results, engine results)."""

from __future__ import annotations

from collections import OrderedDict


class LRU:
    """Mapping bounded to ``maxsize`` entries with least-recently-used
    eviction: a hit moves its key to the recent end, and an insert past
    the bound drops the key touched longest ago. ``maxsize=0`` caches
    nothing."""

    __slots__ = ("maxsize", "_d")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._d: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        try:
            self._d.move_to_end(key)
        except KeyError:
            return default
        return self._d[key]

    def put(self, key, value) -> None:
        self._d[key] = value
        self._d.move_to_end(key)
        if len(self._d) > self.maxsize:
            self._d.popitem(last=False)

    def __contains__(self, key) -> bool:
        return key in self._d

    def __len__(self) -> int:
        return len(self._d)
