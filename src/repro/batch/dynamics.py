"""Lockstep best-/better-response dynamics over a :class:`GameBatch`.

All ``B`` games step simultaneously: one kernel call computes the
deviation tensor for every *active* game, one argmin picks each game's
moving user and target link, and games leave the active set as they
converge (no user can improve), cycle (a deterministic schedule revisits
a profile), or exhaust the step budget.

Semantics parity: for every game ``b`` the trajectory, accepted-move
count, convergence flag and cycle flag equal those of the historical
per-game loop run on that game alone with the same start profile,
schedule, mode and tolerance. ``tests/dynamics_oracle.py`` keeps that
loop as the reference, and the tests hold this engine to it state for
state. Tie-breaking (lowest user index, lowest link index, first
improving link) mirrors it exactly; the campaign's bit-for-bit
determinism guarantee rests on this.
:func:`repro.equilibria.best_response.best_response_dynamics` and
:func:`~repro.equilibria.best_response.better_response_dynamics` are
the ``B = 1`` views of this engine.

Only the deterministic schedules ``round_robin`` and ``max_regret``
exist, so a revisited profile proves a cycle and every run ends: it
converges, cycles or exhausts ``max_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.errors import ModelError
from repro.batch.container import GameBatch
from repro.batch.kernels import _scatter_loads
from repro.util.rng import RandomState, as_generator

__all__ = [
    "BatchDynamicsResult",
    "batch_best_response_dynamics",
    "batch_better_response_dynamics",
    "deviation_slab",
    "own_link_base",
]

BatchSchedule = Literal["round_robin", "max_regret"]


@dataclass
class BatchDynamicsResult:
    """Outcome of a lockstep dynamics run over ``B`` games.

    Attributes
    ----------
    profiles:
        ``(B, n)`` final assignments (rows with ``converged`` are NE).
    converged:
        ``(B,)`` bool — no user had a profitable deviation at the end.
    steps:
        ``(B,)`` int64 — accepted improvement moves per game.
    cycled:
        ``(B,)`` bool — the (deterministic) trajectory revisited a
        profile, certifying a response cycle.
    """

    profiles: np.ndarray
    converged: np.ndarray
    steps: np.ndarray
    cycled: np.ndarray

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    def __len__(self) -> int:
        return self.profiles.shape[0]


def _start_profiles(
    batch: GameBatch,
    start: np.ndarray | None,
    seeds: Sequence[int] | None,
    seed: RandomState,
) -> np.ndarray:
    b, n, m = batch.batch_size, batch.num_users, batch.num_links
    if start is not None:
        sigma = np.array(start, dtype=np.intp, copy=True)
        if sigma.shape != (b, n):
            raise ModelError(f"start must have shape ({b}, {n}), got {sigma.shape}")
        if (sigma < 0).any() or (sigma >= m).any():
            raise ModelError(f"start entries must lie in [0, {m})")
        return sigma
    if seeds is not None:
        seeds = list(seeds)
        if len(seeds) != b:
            raise ModelError(f"need {b} seeds, got {len(seeds)}")
        # One fresh stream per game: identical to the single-game API's
        # start draw under the same per-instance seed (Generator(PCG64)
        # is stream-identical to default_rng, just cheaper to build).
        sigma = np.empty((b, n), dtype=np.intp)
        for k, s in enumerate(seeds):
            sigma[k] = np.random.Generator(np.random.PCG64(s)).integers(0, m, size=n)
        return sigma
    rng = as_generator(seed)
    return rng.integers(0, m, size=(b, n)).astype(np.intp)


def own_link_base(num_games: int, num_users: int, num_links: int) -> np.ndarray:
    """The ``(B, n)`` flat offsets ``b * n * m + i * m`` of each
    (game, user) row of a ``(B, n, m)`` tensor: adding an assignment
    gives the flat index of every user's own-link entry."""
    return (
        np.arange(num_games)[:, None] * (num_users * num_links)
        + np.arange(num_users) * num_links
    )


def deviation_slab(
    sigma: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    traffic: np.ndarray,
    own_base: np.ndarray,
    *,
    loads: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lean ``(A, n, m)`` deviation tensor for the active games.

    Semantics of :func:`repro.batch.kernels.batch_deviation_latencies`
    specialised to concrete ``(A, n)`` shapes — loads accumulate user by
    user (bincount order), keeping single-game trajectory parity — with
    the generic broadcasting machinery stripped from the hot loop.
    *own_base* is the caller-held :func:`own_link_base` table (sliced to
    the active count internally). Returns the tensor and the ``(A, n)``
    flat indices of the own-link entries, where the caller reads each
    user's current latency (``dev.reshape(-1)[own]``). A caller that
    already holds the ``(A, m)`` full loads (initial traffic included)
    passes them via *loads* to skip the accumulation; the lockstep
    nashifier shares one loads pass per step this way.
    """
    if loads is None:
        loads = _scatter_loads(sigma, weights, capacities.shape[-1], traffic)
    own = own_base[: sigma.shape[0]] + sigma
    seen = loads[:, None, :] + weights[:, :, None]
    flat = seen.reshape(-1)
    flat[own] -= weights
    seen /= capacities
    return seen, own


def _run_batch_dynamics(
    batch: GameBatch,
    start: np.ndarray | None,
    *,
    mode: Literal["best", "better"],
    schedule: BatchSchedule,
    max_steps: int,
    tol: float,
    seeds: Sequence[int] | None,
    seed: RandomState,
) -> BatchDynamicsResult:
    if schedule not in ("round_robin", "max_regret"):
        raise ModelError(
            f"dynamics support the deterministic schedules 'round_robin' "
            f"and 'max_regret' only, got {schedule!r}"
        )
    sigma = _start_profiles(batch, start, seeds, seed)
    b, n = sigma.shape
    m = batch.num_links
    weights, caps, traffic = batch.weights, batch.capacities, batch.initial_traffic

    converged = np.zeros(b, dtype=bool)
    cycled = np.zeros(b, dtype=bool)
    steps = np.zeros(b, dtype=np.int64)
    seen: list[set] = [set() for _ in range(b)]
    # Profiles hash as exact base-m integer codes when they fit in int64
    # (one matvec per iteration); enormous games fall back to raw bytes.
    radix = np.power(m, np.arange(n), dtype=np.int64) if m**n < 2**63 else None
    own_base = own_link_base(b, n, m)

    idx = np.arange(b)  # the games still running, in index order
    iteration = 0
    while idx.size and iteration < max_steps:
        sig_a = sigma if idx.size == b else sigma[idx]
        # A deterministic schedule revisiting a profile proves a cycle.
        if radix is not None:
            codes = (sig_a @ radix).tolist()
        else:
            codes = [row.tobytes() for row in sig_a]
        revisited = []
        for g, key in zip(idx.tolist(), codes):
            revisited.append(key in seen[g])
            seen[g].add(key)
        if any(revisited):
            hit = np.array(revisited)
            cycled[idx[hit]] = True
            idx = idx[~hit]
            if idx.size == 0:
                break
            sig_a = sigma[idx]

        if idx.size == b:
            w_a, caps_a, traffic_a = weights, caps, traffic
        else:
            w_a, caps_a, traffic_a = weights[idx], caps[idx], traffic[idx]
        dev, own = deviation_slab(sig_a, w_a, caps_a, traffic_a, own_base)
        current = dev.reshape(-1)[own]
        scale = np.maximum(current, 1.0)
        best = dev.min(axis=-1)
        improving = best < current - tol * scale  # (A, n)
        has_mover = improving.any(axis=-1)

        if has_mover.all():
            imp, dev_a, cur_a, best_a = improving, dev, current, best
        else:
            converged[idx[~has_mover]] = True
            idx = idx[has_mover]
            if idx.size == 0:
                iteration += 1
                continue
            imp = improving[has_mover]
            dev_a = dev[has_mover]
            cur_a = current[has_mover]
            best_a = best[has_mover]
        if schedule == "round_robin":
            # First improving user == movers.min() of the per-game loop.
            user = np.argmax(imp, axis=1)
        else:  # max_regret
            regret = np.where(imp, cur_a - best_a, -np.inf)
            user = np.argmax(regret, axis=1)

        rows = np.arange(idx.size)
        row = dev_a[rows, user]  # (A', m)
        if mode == "best":
            target = np.argmin(row, axis=1)
        else:
            cost = cur_a[rows, user]
            row_scale = np.maximum(cost, 1.0)
            better = row < (cost - tol * row_scale)[:, None]
            target = np.argmax(better, axis=1)  # first improving link

        sigma[idx, user] = target
        steps[idx] += 1
        iteration += 1

    return BatchDynamicsResult(
        profiles=sigma, converged=converged, steps=steps, cycled=cycled
    )


def batch_best_response_dynamics(
    batch: GameBatch,
    start: np.ndarray | None = None,
    *,
    schedule: BatchSchedule = "round_robin",
    max_steps: int = 100_000,
    tol: float = 1e-9,
    seeds: Sequence[int] | None = None,
    seed: RandomState = None,
) -> BatchDynamicsResult:
    """Iterate single-user best responses on all ``B`` games in lockstep.

    Start profiles come from, in order of precedence: the explicit
    ``(B, n)`` *start* array; per-game *seeds* (each game's start is drawn
    from a fresh stream exactly as the single-game API would); a shared
    *seed* drawing the whole ``(B, n)`` block in one pass.
    """
    return _run_batch_dynamics(
        batch,
        start,
        mode="best",
        schedule=schedule,
        max_steps=max_steps,
        tol=tol,
        seeds=seeds,
        seed=seed,
    )


def batch_better_response_dynamics(
    batch: GameBatch,
    start: np.ndarray | None = None,
    *,
    schedule: BatchSchedule = "round_robin",
    max_steps: int = 100_000,
    tol: float = 1e-9,
    seeds: Sequence[int] | None = None,
    seed: RandomState = None,
) -> BatchDynamicsResult:
    """Iterate single-user *better* responses (first improving link)."""
    return _run_batch_dynamics(
        batch,
        start,
        mode="better",
        schedule=schedule,
        max_steps=max_steps,
        tol=tol,
        seeds=seeds,
        seed=seed,
    )
