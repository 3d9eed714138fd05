"""Equilibrium-as-a-service — the async query layer over the batch engine.

The batch engine (PRs 1-4) runs offline campaigns; this package serves
*online* single-game queries at inference-server shape:

* :mod:`repro.service.query`   — request validation, reduced-form
  digests, and the batched solver seams: mixed-shape request lists
  become per-shape :class:`GameBatch` stacks and one kernel pass
  answers each stack — `solve_requests` for the exhaustive census,
  `solve_fixpoint_requests` for the iterative fixed-point solver at
  beyond-enumeration widths (the ``fixpoint`` op);
* :mod:`repro.service.cache`   — content-addressed LRU of completed
  responses (repeat traffic is O(hash));
* :mod:`repro.service.batcher` — dynamic batching: concurrent requests
  coalesce into a window that flushes at ``max_batch`` games or on the
  first event-loop pass that brings no game (``max_delay_ms``, 0 by
  default, holds it open for a fixed time instead), with in-flight
  digest ride-along. Against the old 2 ms window, flushing at idle took
  ``serve-solve``'s median latency from 4.0-4.1 to 1.5-1.6 ms;
* :mod:`repro.service.server`  — the JSON-lines asyncio TCP server
  (``repro-experiments serve``), one :class:`asyncio.Protocol` per
  connection that answers each read's lines in that read's callback;
  it encodes each solved response once, caches the bytes, and splices
  them into every reply for that game;
* :mod:`repro.service.client`  — a pipelining asyncio client;
* :mod:`repro.service.smoke`   — the CI smoke driver (burst, cache-hit
  gate, clean shutdown).

Every response is bit-identical to the direct ``B = 1`` single-game
APIs for the same game — the batched kernels' parity contract extended
to the wire (``tests/test_service.py`` pins it differentially, cache
hits and mixed-shape concurrent loads included).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.service.batcher": ("DEFAULT_MAX_DELAY_MS", "DynamicBatcher"),
        "repro.service.cache": ("ResultCache",),
        "repro.service.client": ("ServiceClient",),
        "repro.service.query": (
            "MAX_SERVICE_PROFILES",
            "EquilibriumRequest",
            "RequestError",
            "game_digest",
            "solve_fixpoint_requests",
            "solve_requests",
        ),
        "repro.service.server": ("EquilibriumServer",),
    },
)
