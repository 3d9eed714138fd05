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
from repro.batch.backend import get_backend
from repro.batch.container import GameBatch
from repro.batch.kernels import _scatter_loads
from repro.util.rng import RandomState, as_generator

__all__ = [
    "BatchDynamicsResult",
    "batch_best_response_dynamics",
    "batch_better_response_dynamics",
    "deviation_slab",
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
        if np.any(sigma < 0) or np.any(sigma >= m):
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


def deviation_slab(
    sigma: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    traffic: np.ndarray,
    rows: np.ndarray,
    users: np.ndarray,
    *,
    loads: np.ndarray | None = None,
) -> np.ndarray:
    """Lean ``(A, n, m)`` deviation tensor for the active games.

    Semantics of :func:`repro.batch.kernels.batch_deviation_latencies`
    specialised to concrete ``(A, n)`` shapes — loads accumulate user by
    user (bincount order), keeping single-game trajectory parity — with
    the generic broadcasting machinery stripped from the hot loop.
    *rows*/*users* are caller-held ``arange(B)[:, None]``/``arange(n)[None, :]``
    index helpers (sliced to the active count internally). A caller that
    already holds the ``(A, m)`` full loads (initial traffic included)
    passes them via *loads* to skip the accumulation; the lockstep
    nashifier shares one loads pass per step this way.
    """
    if loads is None:
        loads = _scatter_loads(sigma, weights, capacities.shape[-1], traffic)
    seen = loads[:, None, :] + weights[:, :, None]
    seen[rows[: sigma.shape[0]], users, sigma] -= weights
    seen /= capacities
    return seen


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

    hook = get_backend().dynamics_loop
    if hook is not None:
        # Fused backend stepper (e.g. the Numba per-game loops). May
        # decline (None) — enormous games whose profile codes overflow
        # int64 fall back to the generic byte-hash path below.
        fused = hook(
            sigma,
            weights,
            caps,
            traffic,
            mode == "best",
            schedule == "max_regret",
            max_steps,
            tol,
        )
        if fused is not None:
            f_sigma, f_converged, f_steps, f_cycled = fused
            return BatchDynamicsResult(
                profiles=f_sigma,
                converged=f_converged,
                steps=f_steps,
                cycled=f_cycled,
            )

    active = np.ones(b, dtype=bool)
    converged = np.zeros(b, dtype=bool)
    cycled = np.zeros(b, dtype=bool)
    steps = np.zeros(b, dtype=np.int64)
    seen: list[set] = [set() for _ in range(b)]
    # Profiles hash as exact base-m integer codes when they fit in int64
    # (one matvec per iteration); enormous games fall back to raw bytes.
    radix = np.power(m, np.arange(n), dtype=np.int64) if m**n < 2**63 else None
    all_rows = np.arange(b)[:, None]
    user_cols = np.arange(n)[None, :]

    iteration = 0
    while active.any() and iteration < max_steps:
        idx = np.flatnonzero(active)
        # A deterministic schedule revisiting a profile proves a cycle.
        if radix is not None:
            codes = sigma[idx] @ radix
        else:
            codes = [sigma[g].tobytes() for g in idx]
        hit_cycle = False
        for g, key in zip(idx, codes):
            if key in seen[g]:
                cycled[g] = True
                active[g] = False
                hit_cycle = True
            else:
                seen[g].add(key)
        if hit_cycle:
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break

        if idx.size == b:
            sig_a, w_a, caps_a, traffic_a = sigma, weights, caps, traffic
        else:
            sig_a, w_a = sigma[idx], weights[idx]
            caps_a, traffic_a = caps[idx], traffic[idx]
        dev = deviation_slab(sig_a, w_a, caps_a, traffic_a, all_rows, user_cols)
        current = dev[all_rows[: idx.size], user_cols, sig_a]
        scale = np.maximum(current, 1.0)
        improving = dev.min(axis=-1) < current - tol * scale  # (A, n)
        has_mover = improving.any(axis=-1)

        if has_mover.all():
            act, imp, dev_a, cur_a = idx, improving, dev, current
        else:
            done = idx[~has_mover]
            converged[done] = True
            active[done] = False
            if not has_mover.any():
                iteration += 1
                continue
            act = idx[has_mover]
            imp = improving[has_mover]
            dev_a = dev[has_mover]
            cur_a = current[has_mover]
        if schedule == "round_robin":
            # First improving user == movers.min() of the per-game loop.
            user = np.argmax(imp, axis=1)
        else:  # max_regret
            regret = np.where(imp, cur_a - dev_a.min(axis=-1), -np.inf)
            user = np.argmax(regret, axis=1)

        rows = np.arange(act.size)
        row = dev_a[rows, user]  # (A', m)
        if mode == "best":
            target = np.argmin(row, axis=1)
        else:
            cost = cur_a[rows, user]
            row_scale = np.maximum(cost, 1.0)
            better = row < (cost - tol * row_scale)[:, None]
            target = np.argmax(better, axis=1)  # first improving link

        sigma[act, user] = target
        steps[act] += 1
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
