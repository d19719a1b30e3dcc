"""LRU cache of compressed attention structures for the serving engine.

Static-mask mechanisms (``static_mask=True`` in the registry) derive their
mask from the configuration and the sequence lengths alone — never from
request content — so the row-block structure
(:class:`~repro.core.row_block.RowBlockStructure`) built for one request
serves every later request with the same ``(mechanism, config, lengths)``
key.  A hit skips the build (the mechanism's key-range declaration, and for
BigBird its random block draw) entirely.  DFSS needs no structure (its plan
selects the N:M lanes from the scores as it computes them); only the
content-dependent padded-CSR mechanisms (Top-K, LSH/clustering) and explicit
masks pay per-request structure costs.

Hit/miss/eviction counters are first-class: the server surfaces them through
``AttentionServer.stats()`` so a deployment can see whether its traffic mix
actually reuses structures, and while a trace session is active each lookup
emits a ``structure_cache_hit``/``structure_cache_miss`` instant event onto
the timeline and counts into session totals reported in the trace metadata
(``structure_cache`` key) — covering even caches that are garbage by the
time the trace is written.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable

from repro.profile.tracer import (
    current_tracer,
    register_metadata_provider,
    register_session_hook,
)

__all__ = ["StructureCache"]

#: Aggregate counters across every cache instance, maintained only while a
#: trace session is active and reset at its boundaries — transient caches
#: (e.g. the one ``repro.serve.serve()`` builds per call) are usually garbage
#: by the time the trace is written, so the session totals are what the
#: metadata can still report.
_SESSION_TOTALS: Dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0}
_TOTALS_LOCK = threading.Lock()


def _reset_session_totals() -> None:
    with _TOTALS_LOCK:
        _SESSION_TOTALS["hits"] = _SESSION_TOTALS["misses"] = 0
        _SESSION_TOTALS["evictions"] = 0


def _count_session(counter: str) -> None:
    with _TOTALS_LOCK:
        _SESSION_TOTALS[counter] += 1


class StructureCache:
    """Bounded LRU mapping of structure keys to compressed structures.

    Entries are evicted least-recently-*used* (a hit refreshes recency).
    The cache never inspects its values — any immutable-after-build object
    works — but in the serving engine every value is a
    :class:`~repro.core.row_block.RowBlockStructure`.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries!r}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, build: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building (and counting a miss)
        once on first use.

        Thread-safe (servers on several threads may share one cache):
        counters, recency updates, and eviction all run under one
        lock.  ``build`` runs outside it, so a cold key may build more than
        once under a race — structures are immutable-after-build, so last
        write wins harmlessly.
        """
        tracer = current_tracer()
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                hit = False
                self.misses += 1
            else:
                hit = True
                self.hits += 1
                self._entries.move_to_end(key)
        if hit:
            if tracer is not None:
                _count_session("hits")
                tracer.instant("structure_cache_hit", "cache", key=repr(key))
            return value
        if tracer is not None:
            _count_session("misses")
            tracer.instant("structure_cache_miss", "cache", key=repr(key))
        value = build()
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                if tracer is not None:
                    _count_session("evictions")
        return value

    def stats(self) -> Dict[str, int]:
        """``{"hits", "misses", "evictions", "entries", "size"}`` snapshot.

        ``entries`` is kept alongside the cross-cache-conventional ``size``
        for backward compatibility — they are always equal.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "size": len(self._entries),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


register_session_hook(_reset_session_totals)
register_metadata_provider("structure_cache", lambda: dict(_SESSION_TOTALS))
