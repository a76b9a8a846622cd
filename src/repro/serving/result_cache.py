"""The cross-request result cache: whole responses, addressed by content.

The engine's own caches (trendlines, plans, indexes) make a repeated
search *cheap*; this cache makes it *free*.  The key is everything that
determines the bytes of a response —

    (table content fingerprint, canonical query text, VisualParams,
     k, precision)

— all content-addressed or value-typed, so two clients phrasing the same
question differently (``"up then down"`` vs ``"[p=up][p=down]"``) hit
one entry, and *any* change to the data, the query, or the requested
precision misses by construction.  Values are the canonical JSON bytes
of :func:`repro.serving.protocol.result_payload`: a hit is written to
the socket as-is, byte-identical to the cold execution that populated
it, with no Score stage, no serialization, no engine involvement.

The canonical key costs a parse and a compile to compute, so the cache
also keeps an **alias index**: the table fingerprint plus the request
fields the server reads (:data:`ALIAS_FIELDS`), exactly as sent, mapped
to the canonical key they produced.  An alias is only recorded once the
slow path accepted those values (:meth:`remember`), so a repeated
request resolves to its stored bytes with two dictionary lookups and no
parse; many spellings may alias one canonical entry.  The index holds at
most ``capacity`` aliases, least recently used first out.

Storage is the engine's :class:`~repro.engine.cache.LRUCache` with its
``max_bytes`` cost budget — entry count and resident bytes both bound
the cache, and hit/miss/bytes accounting feeds ``/v1/stats``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.data.visual_params import VisualParams
from repro.engine.cache import CacheStats, LRUCache
from repro.serving.protocol import json_dumps

#: Defaults: plenty for an interactive exploration session, small next
#: to one resident table.
DEFAULT_CAPACITY = 256
DEFAULT_MAX_BYTES = 32 * 1024 * 1024

#: The search-request fields that, with the table, determine a response.
#: ``tenant``, ``id`` and ``type`` never change the bytes, so they are
#: not part of an alias.
ALIAS_FIELDS = ("query", "z", "x", "y", "filters", "aggregate", "bin_width", "k")


class ResultCache:
    """LRU + bytes-budget cache of serialized search responses."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self._cache = LRUCache(capacity=capacity, max_bytes=max_bytes)
        #: alias -> canonical key, least recently used first.
        self._aliases: "OrderedDict[Tuple[str, bytes], Tuple]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key(
        fingerprint: str,
        canonical_query: str,
        params: VisualParams,
        k: int,
        precision: str,
    ) -> Tuple:
        """The response-determining tuple (hashable: params is frozen)."""
        return (fingerprint, canonical_query, params, int(k), precision)

    @staticmethod
    def alias(fingerprint: str, body: dict) -> Tuple[str, bytes]:
        """A request's alias: the table plus its :data:`ALIAS_FIELDS` as sent.

        Only fields present in ``body`` are encoded, so an omitted field
        and an explicit ``null`` (which the server may refuse) differ.
        """
        return fingerprint, json_dumps(
            {name: body[name] for name in ALIAS_FIELDS if name in body}
        )

    def remember(self, alias: Tuple[str, bytes], key: Tuple) -> None:
        """Record that ``alias`` was accepted and computes to ``key``."""
        with self._lock:
            self._aliases[alias] = key
            self._aliases.move_to_end(alias)
            if len(self._aliases) > self._cache.capacity:
                self._aliases.popitem(last=False)

    def resolve(self, alias: Tuple[str, bytes]) -> Optional[Tuple]:
        """The canonical key ``alias`` names while its bytes are resident.

        Counts neither a hit nor a miss: the caller's :meth:`get` does.
        """
        with self._lock:
            key = self._aliases.get(alias)
            if key is None:
                return None
            self._aliases.move_to_end(alias)
        return key if key in self._cache else None

    def get(self, key: Tuple) -> Optional[bytes]:
        """Cached response bytes, or None (counted as hit/miss)."""
        return self._cache.get(key)

    def put(self, key: Tuple, payload: bytes) -> None:
        """Admit one serialized response; cost is its byte length."""
        self._cache.put(key, payload, cost=len(payload))

    def invalidate(self) -> None:
        """Drop every stored response and every alias."""
        with self._lock:
            self._aliases.clear()
        self._cache.clear()

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def snapshot(self) -> dict:
        stats = self._cache.stats
        return {
            "entries": len(self._cache),
            "aliases": len(self._aliases),
            "capacity": self._cache.capacity,
            "bytes": stats.bytes,
            "max_bytes": self._cache.max_bytes,
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
            "evictions": stats.evictions,
        }
