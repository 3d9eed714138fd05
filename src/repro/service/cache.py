"""Content-addressed LRU cache of completed equilibrium responses.

Keys are reduced-form digests (:func:`repro.service.query.game_digest`):
every solver output is a pure function of the reduced form, so a digest
hit *is* the answer — a repeated query costs one hash and one dict
lookup, never a kernel pass. The cache does not look at its values. The
server's caches hold each response's canonical JSON bytes, encoded once
when its batch completes, so a hit is spliced into the reply as it is;
a bare :class:`~repro.service.batcher.DynamicBatcher` caches whatever
its solver returns (response dicts, for the default seam), by
reference.

The cache is deliberately loop-confined: the service is a single
asyncio event loop, so plain dict operations need no locking. Counters
(`hits`/`misses`/`evictions`) feed the server's ``stats`` op and the CI
smoke gate.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded LRU mapping ``digest -> response``.

    ``maxsize <= 0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op) — the semantics the CLI's ``--cache-size 0``
    promises.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> Any | None:
        """The cached response for *digest*, or ``None`` on a miss."""
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return entry

    def put(self, digest: str, response: Any) -> None:
        """Insert (or refresh) a completed response."""
        if self.maxsize <= 0:
            return
        if digest in self._entries:
            self._entries.move_to_end(digest)
        self._entries[digest] = response
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the ``stats`` op and the smoke gate."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
