"""A size-bounded LRU mapping for the pairing stack's memoisation caches.

The warm-verify path caches one GT value and one conjugated Miller value
per ``(P_pub, Q_ID)`` pair (the conjugate acts as the inverse under the
final exponentiation).  On a MANET node that meets a handful of
neighbours an unbounded dict is harmless, but a verification gateway
serving a large mobile population would grow it without limit - and a KGC
rekey would leave every old entry alive forever.  :class:`LRUCache` gives
those caches a hard size bound with least-recently-used eviction, plus the
hit/miss/eviction accounting the serving layer exports.

Deliberately not a full MutableMapping: the pairing hot path only ever
calls ``get``, ``__setitem__``, ``__len__``, ``__contains__`` and
``clear``, and keeping the surface that small keeps the per-lookup cost at
one OrderedDict operation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    ``maxsize`` must be positive; ``on_evict`` (optional) is called once
    per evicted entry, *after* the entry is gone - the pairing context
    uses it to feed the ``pairing.cache_evictions`` obs counter.

    Accounting attributes (all monotone over the cache's lifetime):

    * ``hits`` / ``misses`` - :meth:`get` outcomes,
    * ``evictions``         - entries dropped by the size bound,
    * ``peak_size``         - high-water mark of ``len(self)``.
    """

    __slots__ = (
        "maxsize",
        "hits",
        "misses",
        "evictions",
        "peak_size",
        "_data",
        "_on_evict",
    )

    def __init__(
        self, maxsize: int, on_evict: Optional[Callable[[], None]] = None
    ):
        if maxsize < 1:
            raise ValueError("LRUCache needs maxsize >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_size = 0
        self._data: OrderedDict = OrderedDict()
        self._on_evict = on_evict

    def get(self, key, default=None):
        """The value for ``key`` (freshened to most-recently-used), else
        ``default``."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict()
        if len(data) > self.peak_size:
            self.peak_size = len(data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        """Keys, least- to most-recently-used (no freshening)."""
        return iter(self._data)

    def clear(self) -> None:
        """Drop every entry (not counted as evictions; peak is kept)."""
        self._data.clear()

    def stats(self) -> dict:
        """size/bound/peak/hits/misses/evictions as a JSON-ready dict."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "peak_size": self.peak_size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: sentinel distinguishing "absent" from a stored None
_MISSING = object()
