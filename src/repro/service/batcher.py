"""Inference-server-style dynamic batching for equilibrium queries.

Concurrent :meth:`DynamicBatcher.submit` calls coalesce into one
pending window that flushes to the solver when either trigger fires,
whichever comes first:

* **size** — ``max_batch`` distinct games are waiting;
* **deadline** — ``max_delay_ms`` elapsed since the window opened (the
  first request's arrival). At the default of
  :data:`DEFAULT_MAX_DELAY_MS` = 0 the deadline timer is due at once,
  so the window flushes on the event loop's next pass, after the
  callbacks that were already queued when it opened: it takes in every
  request that had arrived by then and waits for none that had not.

The zero default makes the batcher work-conserving. A lone request on
an idle server is solved at once, while requests that arrive during a
solve queue up in the transport and land in the next window together.
A fixed window cost every lone request its full length: on the
``serve-solve`` benchmark's 100 qps open loop, the old 2 ms default put
the median latency at 4.0-4.1 ms and 0 puts it at 1.5-1.6 ms (medians
of two rounds of 10 run pairs on a 2-vCPU Xeon; the README's "Serving
equilibria" gives the throughput). A positive ``max_delay_ms`` still
holds each window open that long, for a deployment that prefers fuller
batches to latency. Idle flushes count as ``deadline_flushes`` in
:meth:`DynamicBatcher.stats`.

A flush hands the whole window to the solver seam
(:func:`repro.service.query.solve_requests` by default), which stacks
it into per-shape :class:`~repro.batch.container.GameBatch` sub-batches
— one kernel pass per shape instead of one per request. Three
de-duplication layers keep repeated traffic O(hash):

1. completed responses come from the content-addressed
   :class:`~repro.service.cache.ResultCache` (when attached);
2. a query whose digest is already waiting or solving rides the
   in-flight computation instead of enqueueing a duplicate game;
3. only then does a digest claim a slot in the pending window.

The solver runs synchronously inside the flush task: the kernels are
CPU-bound NumPy, so handing them to a thread would only add latency
jitter while the event loop keeps accepting requests between flushes
(new arrivals buffer in the transport until the pass completes — the
standard single-worker inference-server shape).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Sequence

from repro.service.cache import ResultCache
from repro.service.query import EquilibriumRequest, solve_requests

__all__ = ["DEFAULT_MAX_DELAY_MS", "DynamicBatcher"]

#: How long a window waits for more games by default: none. The window
#: flushes on the event loop's next pass (see the module docstring).
#: ``EquilibriumServer`` and ``serve --max-delay-ms`` default to it too.
DEFAULT_MAX_DELAY_MS = 0.0

#: The solver seam: mixed-shape requests in, per-request responses out.
Solver = Callable[[Sequence[EquilibriumRequest]], "list[dict[str, Any]]"]


class DynamicBatcher:
    """Coalesce concurrent queries into batched solver passes.

    A window flushes at ``max_batch`` distinct games, or ``max_delay_ms``
    after it opened; at ``max_delay_ms = 0`` (the default) on the event
    loop's next pass.
    """

    def __init__(
        self,
        solver: Solver = solve_requests,
        *,
        max_batch: int = 64,
        max_delay_ms: float = DEFAULT_MAX_DELAY_MS,
        cache: ResultCache | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be >= 0, got {max_delay_ms}"
            )
        self._solver = solver
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.cache = cache
        self._pending: list[EquilibriumRequest] = []
        #: digest -> futures awaiting it (pending *or* mid-flush).
        self._waiters: dict[str, list[asyncio.Future]] = {}
        self._deadline: asyncio.TimerHandle | None = None
        self._flushes: set[asyncio.Task] = set()
        self._closed = False
        # Counters for the ``stats`` op / benchmarks.
        self.requests = 0
        self.coalesced = 0
        self.batches = 0
        self.batched_games = 0
        self.size_flushes = 0
        self.deadline_flushes = 0

    async def submit(self, request: EquilibriumRequest) -> dict[str, Any]:
        """Resolve one query: cache, in-flight ride-along, or batch."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        self.requests += 1
        if self.cache is not None:
            cached = self.cache.get(request.digest)
            if cached is not None:
                return cached
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        waiters = self._waiters.get(request.digest)
        if waiters is not None:
            self.coalesced += 1
            waiters.append(future)
            return await future
        self._waiters[request.digest] = [future]
        self._pending.append(request)
        if len(self._pending) >= self.max_batch:
            self._flush("size")
        elif self._deadline is None:
            self._deadline = loop.call_later(
                self.max_delay_ms / 1000.0, self._flush, "deadline"
            )
        return await future

    def _flush(self, trigger: str) -> None:
        """Move the pending window into a solver task."""
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        window, self._pending = self._pending, []
        if not window:
            return
        self.batches += 1
        self.batched_games += len(window)
        if trigger == "size":
            self.size_flushes += 1
        else:
            self.deadline_flushes += 1
        task = asyncio.get_running_loop().create_task(self._solve(window))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _solve(self, window: list[EquilibriumRequest]) -> None:
        try:
            responses = self._solver(window)
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            for request in window:
                for future in self._waiters.pop(request.digest, []):
                    if not future.done():
                        future.set_exception(exc)
            return
        for request, response in zip(window, responses):
            if self.cache is not None:
                self.cache.put(request.digest, response)
            for future in self._waiters.pop(request.digest, []):
                if not future.done():
                    future.set_result(response)

    async def close(self) -> None:
        """Flush any open window and wait for in-flight passes."""
        self._closed = True
        self._flush("size")
        while self._flushes:
            await asyncio.gather(*tuple(self._flushes), return_exceptions=True)

    def stats(self) -> dict[str, Any]:
        """Counter snapshot (cache counters ride along when attached)."""
        out: dict[str, Any] = {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "batched_games": self.batched_games,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
            "pending": len(self._pending),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
