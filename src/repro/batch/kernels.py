"""Batched latency / equilibrium kernels over stacked game tensors.

Every kernel operates on raw arrays with an arbitrary *batch* prefix:

* assignments ``sigma``  — integer array of shape ``(..., n)``;
* weights ``w``          — float array of shape ``(..., n)``;
* capacities ``C``       — float array of shape ``(..., n, m)``;
* initial traffic ``t``  — optional float array of shape ``(..., m)``.

Leading dimensions broadcast against each other (NumPy rules), so the
same code serves three call shapes:

* ``batch = ()``      — a single game / single profile: these are the
  kernels behind :mod:`repro.model.latency` and the single-game Nash
  test (the "B=1 view");
* ``batch = (P,)``    — one game, many profiles: exhaustive pure-NE
  enumeration (:mod:`repro.equilibria.enumeration`);
* ``batch = (B, P)``  — many games, many profiles: the simulation
  campaign sweeping thousands of instances in one kernel call
  (:func:`batch_count_pure_nash`).

Numerical parity note: :func:`batch_loads` is one weighted
:func:`numpy.bincount` over ``(game, link)`` codes, so each link's load
sums its users in user-index order, bit for bit the single-game
``loads_of`` and therefore the per-game dynamics trajectories.
:func:`sweep_pure_nash_mask` instead computes loads with one GEMM,
whose summation order may differ from the historical per-link masked
sums in the last bit for n > 8; Nash *verdicts* are insensitive to
this (the tolerance margin is ~1e7 ulps wide) and the campaign-level
determinism contract is enforced against frozen outputs of the
original implementation in ``tests/data/e5_seed_baseline.json``. Keep
both properties intact: the Conjecture 3.7 campaign promises results
identical to the sequential implementation under the same seeds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import DimensionError, ModelError

__all__ = [
    "MAX_EXHAUSTIVE_PROFILES",
    "enumerate_assignments",
    "batch_loads",
    "sweep_pure_nash_mask",
    "batch_pure_latencies",
    "batch_deviation_latencies",
    "batch_pure_nash_mask",
    "batch_count_pure_nash",
    "batch_exists_pure_nash",
]


def _batch_shape(sigma: np.ndarray, weights: np.ndarray) -> tuple[int, ...]:
    if sigma.ndim < 1 or weights.ndim < 1:
        raise DimensionError("sigma and weights need at least one dimension")
    if sigma.shape[-1] != weights.shape[-1]:
        raise DimensionError(
            f"assignment covers {sigma.shape[-1]} users, weights cover "
            f"{weights.shape[-1]}"
        )
    return np.broadcast_shapes(sigma.shape[:-1], weights.shape[:-1])


def _scatter_loads(
    sigma: np.ndarray,
    weights: np.ndarray,
    num_links: int,
    initial_traffic: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link loads for ``(A, n)`` assignments, user-by-user.

    One weighted :func:`numpy.bincount` over the flat ``row * m + link``
    codes: bincount walks its input in order, so every ``(row, link)``
    bin sums that row's users in index order starting from ``0.0`` —
    the accumulation order of the single-game ``loads_of``, which is
    the bit-parity contract every batched kernel rests on.
    """
    a = sigma.shape[0]
    codes = sigma + (np.arange(a) * num_links)[:, None]
    loads = np.bincount(codes.ravel(), weights=weights.ravel(), minlength=a * num_links)
    # An empty input (A = 0) bincounts to int64; keep float64 loads.
    loads = loads.astype(np.float64, copy=False).reshape(a, num_links)
    if initial_traffic is not None:
        loads += initial_traffic
    return loads


def batch_loads(
    sigma: np.ndarray,
    weights: np.ndarray,
    num_links: int,
    initial_traffic: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link traffic for a batch of assignments: shape ``(..., m)``.

    ``loads[..., l] = sum_i w[..., i] * [sigma[..., i] == l] (+ t[..., l])``.

    Users are accumulated in index order (exactly :func:`numpy.bincount`
    with weights), then initial traffic is added — the same operation
    order as :func:`repro.model.profiles.loads_of`.
    """
    sigma = np.asarray(sigma, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if sigma.ndim == 1 and w.ndim == 1:
        # Single-game fast path: bincount *is* the contract. (Weighted
        # bincount already returns float64 — no astype copy needed, and
        # the result is fresh, so the traffic add runs in place.)
        loads = np.bincount(sigma, weights=w, minlength=num_links)
        if initial_traffic is not None:
            loads += np.asarray(initial_traffic, dtype=np.float64)
        return loads
    batch = _batch_shape(sigma, w)
    n = sigma.shape[-1]
    sig = np.broadcast_to(sigma, batch + (n,)).reshape(-1, n)
    wf = np.broadcast_to(w, batch + (n,)).reshape(-1, n)
    loads = _scatter_loads(sig, wf, num_links).reshape(batch + (num_links,))
    if initial_traffic is not None:
        loads = loads + np.asarray(initial_traffic, dtype=np.float64)
    return loads


def batch_pure_latencies(
    sigma: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    loads: np.ndarray | None = None,
) -> np.ndarray:
    """Belief-expected latency of every user: shape ``(..., n)``.

    ``out[..., i] = loads[..., sigma_i] / C[..., i, sigma_i]``.
    """
    sigma = np.asarray(sigma, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    n, m = caps.shape[-2], caps.shape[-1]
    if loads is None:
        loads = batch_loads(sigma, w, m, initial_traffic)
    if sigma.ndim == 1 and w.ndim == 1 and caps.ndim == 2:
        # Single-game fast path: plain fancy indexing, no broadcast
        # machinery on the per-step hot path of the sequential solvers.
        return loads[sigma] / caps[np.arange(n), sigma]
    batch = np.broadcast_shapes(_batch_shape(sigma, w), caps.shape[:-2])
    sig = np.broadcast_to(sigma, batch + (n,))
    loads_b = np.broadcast_to(loads, batch + (m,))
    caps_b = np.broadcast_to(caps, batch + (n, m))
    chosen_load = np.take_along_axis(loads_b, sig, axis=-1)
    chosen_cap = np.take_along_axis(caps_b, sig[..., None], axis=-1)[..., 0]
    return chosen_load / chosen_cap


def batch_deviation_latencies(
    sigma: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    loads: np.ndarray | None = None,
) -> np.ndarray:
    """Hypothetical unilateral-deviation latencies: shape ``(..., n, m)``.

    Entry ``(..., i, l)`` is the belief-expected latency user ``i`` would
    incur by routing on link ``l`` while every other user stays put:
    ``(loads[..., l] + w_i [l != sigma_i]) / C[..., i, l]``. The row of
    user ``i`` attains its minimum at ``sigma_i`` iff ``i`` is satisfied,
    so this tensor drives both Nash checks and best-response dynamics.
    """
    sigma = np.asarray(sigma, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    n, m = caps.shape[-2], caps.shape[-1]
    if sigma.shape[-1] != n or w.shape[-1] != n:
        raise DimensionError(
            f"capacities cover {n} users, got assignment/weights for "
            f"{sigma.shape[-1]}/{w.shape[-1]}"
        )
    if loads is None:
        loads = batch_loads(sigma, w, m, initial_traffic)
    if sigma.ndim == 1 and w.ndim == 1 and caps.ndim == 2:
        # Single-game fast path: one step of a sequential dynamic costs a
        # handful of small-array ops, so the generic broadcast machinery
        # below would dominate it ~10x.
        seen = loads[None, :] + w[:, None]
        seen[np.arange(n), sigma] -= w
        return seen / caps
    # seen[..., i, l] = loads[..., l] + w_i, except on i's own link where
    # w_i is already part of the load. The own-link entries are patched
    # through *_along_axis so broadcast inputs stay views (no material-
    # isation of the full (..., n, m) index tensors).
    seen = loads[..., None, :] + w[..., :, None]
    sig_idx = np.broadcast_to(sigma, seen.shape[:-1])[..., None]
    own = np.take_along_axis(seen, sig_idx, axis=-1)
    np.put_along_axis(seen, sig_idx, own - w[..., :, None], axis=-1)
    if seen.shape == np.broadcast_shapes(seen.shape, caps.shape):
        seen /= caps
        return seen
    return seen / caps


def batch_pure_nash_mask(
    sigma: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    tol: float = 1e-9,
) -> np.ndarray:
    """Boolean Nash verdict per batch element: shape ``(...)``.

    An assignment is a pure Nash equilibrium iff every user's deviation
    row attains its minimum (up to relative tolerance *tol*) at the
    user's current link.
    """
    # Convert once here; the downstream kernels' asarray calls then hit
    # the already-typed fast path (no copies).
    sigma = np.asarray(sigma, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    m = caps.shape[-1]
    loads = batch_loads(sigma, w, m, initial_traffic)
    current = batch_pure_latencies(sigma, w, caps, loads=loads)
    dev = batch_deviation_latencies(sigma, w, caps, loads=loads)
    scale = np.maximum(current, 1.0)
    return np.all(dev.min(axis=-1) >= current - tol * scale, axis=-1)


def _profile_block(num_games: int, num_users: int, num_links: int) -> int:
    """Profiles per block so the deviation tensor stays ~128 MB."""
    budget = 16_000_000  # float64 entries
    per_profile = max(num_games * num_users * num_links, 1)
    return max(budget // per_profile, 1)


#: Refuse exhaustive enumeration beyond this many profiles (~1.6e7 doubles).
MAX_EXHAUSTIVE_PROFILES = 2_000_000

#: Per-cache bound on *total* cached elements (~64 MB of float64 each).
_SWEEP_CACHE_MAX_ELEMENTS = 8_000_000
_ASSIGNMENT_CACHE: dict[tuple[int, int], np.ndarray] = {}
_TABLES_CACHE: dict[tuple[int, int, int, int], "_SweepTables"] = {}


def _cache_put(cache: dict, key, value) -> None:
    """Insert *value* (an array or a tuple of arrays), FIFO-evicting
    until the cache's total element count stays bounded.

    Long-lived processes sweep many (n, m) shapes and batch widths
    (distinct widths produce distinct block boundaries), so both the
    entry count and the per-entry size are unbounded a priori; bounding
    total elements caps the caches' memory for the process lifetime.
    """
    size = _entry_size(value)
    if size > _SWEEP_CACHE_MAX_ELEMENTS:
        return
    total = sum(map(_entry_size, cache.values()))
    while cache and total + size > _SWEEP_CACHE_MAX_ELEMENTS:
        total -= _entry_size(cache.pop(next(iter(cache))))
    cache[key] = value


def _entry_size(value) -> int:
    if isinstance(value, np.ndarray):
        return value.size
    return sum(array.size for array in value)


def enumerate_assignments(num_users: int, num_links: int) -> np.ndarray:
    """All ``m^n`` pure assignments as an ``(m^n, n)`` intp matrix.

    Assignments are produced in mixed-radix order (user 0 is the most
    significant digit), so row ``r`` encodes ``r`` written base ``m``.
    """
    total = num_links**num_users
    if total > MAX_EXHAUSTIVE_PROFILES:
        raise ModelError(
            f"{num_links}^{num_users} = {total} assignments exceed the "
            f"exhaustive limit of {MAX_EXHAUSTIVE_PROFILES}"
        )
    codes = np.arange(total, dtype=np.int64)
    out = np.empty((total, num_users), dtype=np.intp)
    for i in range(num_users - 1, -1, -1):
        out[:, i] = codes % num_links
        codes //= num_links
    return out


def _all_assignments(num_users: int, num_links: int) -> np.ndarray:
    """Memoised read-only ``(m^n, n)`` assignment table for sweeps.

    The campaign enumerates the same few (n, m) cells thousands of
    times; the table is immutable, so one copy per shape suffices.
    """
    key = (num_users, num_links)
    table = _ASSIGNMENT_CACHE.get(key)
    if table is None:
        table = enumerate_assignments(num_users, num_links)
        table.setflags(write=False)
        _cache_put(_ASSIGNMENT_CACHE, key, table)
    return table


def _memoised(cache: dict, key: tuple | None, build):
    """``build()``, a tuple of arrays, memoised read-only in *cache*
    under *key*; never memoised when *key* is ``None``."""
    value = cache.get(key) if key is not None else None
    if value is None:
        value = build()
        if key is not None:
            for array in value:
                array.setflags(write=False)
            _cache_put(cache, key, value)
    return value


class _SweepTables(NamedTuple):
    """Gather tables of one ``(P, n)`` block of assignments.

    The sweep reads, for every profile ``p`` and user ``i``, the load of
    the link ``sigma[p, i]`` and user ``i``'s capacity on it. Flat
    indices into the ``(P * m)`` loads row and the ``(n * m)`` capacity
    row turn both reads into one :func:`numpy.take` each, instead of
    broadcast fancy indexing rebuilt on every call.
    """

    #: ``(n, P * m)`` float: the block's one-hot rows laid out as the
    #: loads GEMM's right operand, the C-ordered array
    #: ``np.tensordot(w, onehot, axes=([1], [1]))`` builds on every call.
    gemm_operand: np.ndarray
    #: ``(P, n)``: ``p * m + sigma[p, i]``.
    load_index: np.ndarray
    #: ``(P, n)``: ``i * m + sigma[p, i]``.
    cap_index: np.ndarray

    def onehot_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(k, n, m)`` one-hot matrices of the block's *rows*."""
        num_p, n = self.load_index.shape
        operand = self.gemm_operand.reshape(n, num_p, -1)
        return operand[:, rows].transpose(1, 0, 2)


def _sweep_tables(
    block: np.ndarray, num_links: int, key: tuple | None = None
) -> _SweepTables:
    """The :class:`_SweepTables` of *block*, memoised under *key*.

    Pass ``key=(n, m, lo, hi)`` only for rows ``[lo, hi)`` of the
    canonical table :func:`_all_assignments` returns: the key names the
    rows, not their contents.
    """

    def build() -> _SweepTables:
        sig = np.asarray(block, dtype=np.intp)
        num_p, n = sig.shape
        onehot = (sig[:, :, None] == np.arange(num_links)).astype(np.float64)
        return _SweepTables(
            gemm_operand=onehot.transpose(1, 0, 2).reshape(n, num_p * num_links),
            load_index=sig + (np.arange(num_p) * num_links)[:, None],
            cap_index=sig + np.arange(n) * num_links,
        )

    return _memoised(_TABLES_CACHE, key, build)


def sweep_pure_nash_mask(
    assignments: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    tol: float = 1e-9,
    tables: _SweepTables | None = None,
) -> np.ndarray:
    """Nash mask for the profile-sweep structure: ``(B, P)`` verdicts.

    Specialised for shared ``(P, n)`` assignments crossed with ``B``
    stacked games (``weights (B, n)``, ``capacities (B, n, m)``,
    ``initial_traffic (B, m)``). Loads collapse to one GEMM against the
    one-hot assignment tensor, which beats the general scatter path by
    an order of magnitude on enumeration-sized sweeps. The single-game
    enumerator is the ``B = 1`` view of this kernel. *tables* are the
    block's :func:`_sweep_tables` (built here when omitted).
    """
    if tol < 0:
        raise ValueError("sweep_pure_nash_mask requires tol >= 0")
    sig = np.asarray(assignments, dtype=np.intp)  # (P, n)
    w = np.asarray(weights, dtype=np.float64)  # (B, n)
    caps = np.asarray(capacities, dtype=np.float64)  # (B, n, m)
    num_b, num_p = w.shape[0], sig.shape[0]
    n, m = caps.shape[-2], caps.shape[-1]
    if tables is None:
        tables = _sweep_tables(sig, m)
    loads = np.dot(w, tables.gemm_operand).reshape(num_b, num_p, m)
    if initial_traffic is not None:
        loads += np.asarray(initial_traffic, dtype=np.float64)[:, None, :]
    if num_b * num_p * n * m <= 65_536:
        # Small sweeps: one shot over the full deviation tensor costs
        # less than the per-user bookkeeping below. With tol >= 0 the
        # unpatched own-link entry (loads[sig_i] + w_i)/C exceeds the
        # current latency, so it never decides the verdict and the
        # own-weight subtraction is skipped (here and below). The
        # tensor is user-major, (B, n, m, P), so every pass runs along
        # the profile axis and the verdict is an elementwise "and" of
        # n * m slabs rather than a reduction over tiny trailing axes.
        current = np.take(
            loads.reshape(num_b, num_p * m), tables.load_index.T, axis=1
        ) / np.take(caps.reshape(num_b, n * m), tables.cap_index.T, axis=1)
        # current: (B, n, P)
        threshold = current - tol * np.maximum(current, 1.0)
        dev = (
            loads.transpose(0, 2, 1)[:, None, :, :] + w[:, :, None, None]
        ) / caps[:, :, :, None]  # (B, n, m, P)
        satisfied = dev >= threshold[:, :, None, :]
        return np.logical_and.reduce(
            satisfied.reshape(num_b, n * m, num_p), axis=1
        )
    loads = loads.reshape(num_b * num_p, m)
    # Check users one at a time over the surviving (game, profile) pairs:
    # a profile is NE only if *every* user is satisfied, and a random
    # profile usually fails on the first user checked, so the (S, m)
    # deviation slabs shrink geometrically instead of materialising the
    # full (B, P, n, m) tensor.
    survivors = np.arange(num_b * num_p)
    for i in range(n):
        b = survivors // num_p
        chosen = sig[survivors % num_p, i]
        cap_rows = caps[b, i]  # (S, m)
        current = loads[survivors, chosen] / cap_rows[np.arange(survivors.size), chosen]
        threshold = current - tol * np.maximum(current, 1.0)
        dev = (loads[survivors] + w[b, i][:, None]) / cap_rows
        survivors = survivors[np.all(dev >= threshold[:, None], axis=1)]
        if survivors.size == 0:
            break
    mask = np.zeros(num_b * num_p, dtype=bool)
    mask[survivors] = True
    return mask.reshape(num_b, num_p)


def batch_count_pure_nash(
    batch, *, tol: float = 1e-9, block_size: int | None = None
) -> np.ndarray:
    """Number of pure Nash equilibria of every game in a :class:`GameBatch`.

    Sweeps all ``m^n`` assignments for the whole stack at once, blocking
    over the profile axis to bound peak memory. Returns ``(B,)`` int64.
    """
    n, m = batch.num_users, batch.num_links
    assignments = _all_assignments(n, m)
    total = assignments.shape[0]
    counts = np.zeros(len(batch), dtype=np.int64)
    block = block_size or _profile_block(len(batch), n, m)
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        sig = assignments[lo:hi]
        mask = sweep_pure_nash_mask(
            sig,
            batch.weights,
            batch.capacities,
            batch.initial_traffic,
            tol=tol,
            tables=_sweep_tables(sig, m, key=(n, m, lo, hi)),
        )
        counts += mask.sum(axis=1)
    return counts


def batch_exists_pure_nash(
    batch, *, tol: float = 1e-9, block_size: int | None = None
) -> np.ndarray:
    """Whether each game in a :class:`GameBatch` has a pure NE: ``(B,)`` bool.

    Short-circuits: games whose equilibrium has been found are dropped
    from subsequent profile blocks, so a typical stack finishes after a
    small fraction of the ``m^n`` sweep.
    """
    n, m = batch.num_users, batch.num_links
    assignments = _all_assignments(n, m)
    total = assignments.shape[0]
    found = np.zeros(len(batch), dtype=bool)
    block = block_size or _profile_block(len(batch), n, m)
    for lo in range(0, total, block):
        open_idx = np.flatnonzero(~found)
        if open_idx.size == 0:
            break
        hi = min(lo + block, total)
        sig = assignments[lo:hi]
        mask = sweep_pure_nash_mask(
            sig,
            batch.weights[open_idx],
            batch.capacities[open_idx],
            batch.initial_traffic[open_idx],
            tol=tol,
            tables=_sweep_tables(sig, m, key=(n, m, lo, hi)),
        )
        found[open_idx] = mask.any(axis=1)
    return found
