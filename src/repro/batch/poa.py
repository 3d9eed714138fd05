"""Batched price-of-anarchy engine — Theorems 4.13/4.14 over game stacks.

Pipelines the whole per-instance Section 4 anarchy computation for a
:class:`~repro.batch.container.GameBatch` at once:

* :func:`batch_poa_bound_uniform` / :func:`batch_poa_bound_general` —
  the theorem bounds as ``(...,)`` reductions over capacity tensors;
* :func:`batch_all_pure_latencies` / :func:`batch_social_optima` —
  exhaustive ``OPT1``/``OPT2`` for every game in one ``(B, P, n)``
  sweep;
* :func:`batch_equilibrium_profiles` — every pure NE (exhaustive sweep
  mask) plus the fully mixed NE when it exists, stacked into one
  ``(E, n, m)`` tensor with a game-index vector;
* :func:`batch_empirical_ratios` — worst ``(SC1/OPT1, SC2/OPT2)`` per
  game over that equilibrium stack.

The single-game functions in :mod:`repro.analysis.poa` are the ``B = 1``
views of these kernels. Parity contract: slice ``b`` of every result is
bit-identical to the sequential per-game computation (the historical
``poa_study`` loop), which ``tests/test_batch_poa.py`` asserts
differentially and ``tests/data/mixed_seed_baseline.json`` pins across
the E10/E11 campaigns. The contract is scoped to the exhaustive-optimum
regime (``m^n`` up to the single-game ``optimum(method="auto")``
cutover of 200k profiles — the campaign grids sit far below it): these
kernels always compute the optima exhaustively, while the single-game
path switches to branch-and-bound above the cutover, whose float
accumulation order is not guaranteed to agree in the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.kernels import (
    MAX_EXHAUSTIVE_PROFILES,
    _all_assignments,
    _memoised,
    _sweep_tables,
    enumerate_assignments,
    sweep_pure_nash_mask,
)
from repro.batch.mixed import (
    BatchFullyMixedResult,
    batch_fully_mixed_candidate,
    batch_min_expected_latencies,
    normalize_rows,
)
from repro.errors import ModelError

__all__ = [
    "batch_poa_bound_uniform",
    "batch_poa_bound_general",
    "batch_all_pure_latencies",
    "batch_social_optima",
    "EquilibriumStack",
    "batch_equilibrium_profiles",
    "BatchRatioResult",
    "batch_empirical_ratios",
]


def batch_poa_bound_uniform(capacities: np.ndarray) -> np.ndarray:
    """Theorem 4.13's bound ``(cmax/cmin)(m + n - 1)/m`` per game.

    Operates on ``(..., n, m)`` capacity tensors; valid under uniform
    user beliefs. Returns shape ``(...)``.
    """
    caps = np.asarray(capacities, dtype=np.float64)
    n, m = caps.shape[-2], caps.shape[-1]
    axes = (-2, -1)
    return caps.max(axis=axes) / caps.min(axis=axes) * (m + n - 1) / m


def batch_poa_bound_general(capacities: np.ndarray) -> np.ndarray:
    """Theorem 4.14's bound ``(cmax^2/cmin)(m + n - 1)/sum_j c^j_min``."""
    caps = np.asarray(capacities, dtype=np.float64)
    n, m = caps.shape[-2], caps.shape[-1]
    axes = (-2, -1)
    cmax = caps.max(axis=axes)
    cmin = caps.min(axis=axes)
    col_min_sum = caps.min(axis=-2).sum(axis=-1)
    return (cmax**2 / cmin) * (m + n - 1) / col_min_sum


def batch_all_pure_latencies(
    batch: GameBatch, assignments: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Latency tensor for every pure assignment of every game.

    Returns ``(assignments, latencies)`` with latencies of shape
    ``(B, P, n)``. :func:`repro.model.social.all_pure_costs` is its
    ``B = 1`` view.
    """
    n, m = batch.num_users, batch.num_links
    if assignments is None:
        # A fresh copy of the canonical table: its link sets are
        # memoised under the key of its rows, shared with the census
        # when they form one block.
        sig = enumerate_assignments(n, m)
        key: tuple | None = (n, m, 0, sig.shape[0])
    else:
        sig = np.ascontiguousarray(assignments, dtype=np.intp)
        key = None
    return sig, _pure_latencies(batch, sig, _link_sets(sig, m, key))


class _LinkSets(NamedTuple):
    """The sets of users that share a link, over one block of assignments.

    A link's load is a sum over the set of users on it, and a block's
    ``P * m`` (profile, link) pairs hold at most ``2^n`` distinct sets,
    so each set's load is taken once and shared by every pair that
    holds it.
    """

    #: ``(K, n)`` float 0/1 masks of the distinct sets.
    user_sets: np.ndarray
    #: ``(P, n)``: the row of ``user_sets`` on user ``i``'s link in
    #: profile ``p``.
    set_index: np.ndarray


_LINK_SETS_CACHE: dict[tuple[int, int, int, int], _LinkSets] = {}


def _link_sets(
    block: np.ndarray, num_links: int, key: tuple | None = None
) -> _LinkSets:
    """The :class:`_LinkSets` of *block*, memoised under *key* as
    :func:`~repro.batch.kernels._sweep_tables` memoises its tables."""

    def build() -> _LinkSets:
        sig = np.asarray(block, dtype=np.intp)
        num_p, n = sig.shape
        # Each (profile, link) pair's user set as a bit code, (P, m).
        bits = 1 << np.arange(n, dtype=np.int64)
        codes = np.stack([(sig == link) @ bits for link in range(num_links)], 1)
        distinct, inverse = np.unique(codes.ravel(), return_inverse=True)
        inverse = inverse.reshape(num_p, num_links)
        return _LinkSets(
            user_sets=((distinct[:, None] >> np.arange(n)) & 1).astype(np.float64),
            set_index=np.take_along_axis(inverse, sig, axis=1),
        )

    return _memoised(_LINK_SETS_CACHE, key, build)


def _pure_latencies(
    batch: GameBatch, block: np.ndarray, sets: _LinkSets
) -> np.ndarray:
    """``(B, P, n)`` latencies of the assignment *block*.

    A link's load is the trailing-axis sum of the users' masked weights
    (``w_i`` on the link, ``0.0`` elsewhere), so the users add in
    numpy's pairwise order; it is taken once per distinct set and
    gathered for every (profile, user), and initial traffic is added
    after the gather, as it was added to each load. ``np.take`` keeps
    the gathered users contiguous, so a caller's sum over them is
    pairwise too.
    """
    n, m = batch.num_users, batch.num_links
    set_loads = np.multiply(
        batch.weights[:, None, :], sets.user_sets, order="C"
    ).sum(axis=-1)  # (B, K)
    chosen_load = np.take(set_loads, sets.set_index, axis=1) + np.take(
        batch.initial_traffic, block, axis=1
    )
    chosen_cap = np.take(
        batch.capacities.reshape(len(batch), n * m),
        block + np.arange(n) * m,
        axis=1,
    )
    return chosen_load / chosen_cap


#: Profile rows per sweep block — matches the single-game enumerator's
#: block size, bounding the per-block tensors independently of ``m^n``.
PROFILE_BLOCK = 65_536


def _blocks(n: int, m: int, assignments: np.ndarray | None):
    """``(block, key)`` per :data:`PROFILE_BLOCK` rows of the assignment
    table. *key* memoises the canonical table's blocks' tables; it is
    ``None`` for a caller-supplied table, whose tables are rebuilt."""
    canonical = _all_assignments(n, m)
    if assignments is None:
        assignments = canonical
    for lo in range(0, assignments.shape[0], PROFILE_BLOCK):
        hi = min(lo + PROFILE_BLOCK, assignments.shape[0])
        key = (n, m, lo, hi) if assignments is canonical else None
        yield assignments[lo:hi], key


def _require_exhaustive(batch: GameBatch) -> None:
    total = batch.num_links**batch.num_users
    if total > MAX_EXHAUSTIVE_PROFILES:
        raise ModelError(
            f"{total} profiles exceed the exhaustive limit "
            f"({MAX_EXHAUSTIVE_PROFILES})"
        )


def batch_social_optima(
    batch: GameBatch, assignments: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(OPT1, OPT2)`` for every game: two ``(B,)`` vectors.

    One exhaustive sweep serves both objectives, blocked over the
    profile axis so peak memory stays bounded; the per-game values
    equal :func:`repro.model.social.opt1`/``opt2`` with the exhaustive
    method exactly (a blockwise minimum is the global minimum).
    """
    _require_exhaustive(batch)
    best1 = np.full(len(batch), np.inf)
    best2 = np.full(len(batch), np.inf)
    m = batch.num_links
    for block, key in _blocks(batch.num_users, m, assignments):
        lat = _pure_latencies(batch, block, _link_sets(block, m, key))
        np.minimum(best1, lat.sum(axis=2).min(axis=1), out=best1)
        # The max over the few users as one elementwise pass per user:
        # exact (a maximum does no rounding), and far cheaper than
        # numpy's per-row reduction loop at census sizes.
        worst = lat[:, :, 0].copy()
        for user in range(1, batch.num_users):
            np.maximum(worst, lat[:, :, user], out=worst)
        np.minimum(best2, worst.min(axis=1), out=best2)
    return best1, best2


@dataclass(frozen=True)
class EquilibriumStack:
    """All equilibria of a game stack, flattened for kernel evaluation.

    Attributes
    ----------
    game_index:
        ``(E,)`` — which game each equilibrium belongs to.
    probabilities:
        ``(E, n, m)`` profile matrices: exact one-hot rows for pure NE,
        the renormalised closed form for fully mixed NE.
    num_pure:
        ``(B,)`` pure-NE count per game.
    fmne_exists:
        ``(B,)`` interiority mask of the fully mixed candidate.
    """

    game_index: np.ndarray
    probabilities: np.ndarray
    num_pure: np.ndarray
    fmne_exists: np.ndarray

    @property
    def num_equilibria(self) -> np.ndarray:
        """``(B,)`` total equilibria per game (pure + fully mixed)."""
        return self.num_pure + self.fmne_exists.astype(np.int64)


def batch_equilibrium_profiles(
    batch: GameBatch,
    *,
    tol: float = 1e-9,
    assignments: np.ndarray | None = None,
    fully_mixed: BatchFullyMixedResult | None = None,
) -> EquilibriumStack:
    """Every pure NE plus the FMNE (when interior) of every game.

    Pure equilibria come from one exhaustive
    :func:`~repro.batch.kernels.sweep_pure_nash_mask` over the whole
    stack (same verdicts as the per-game enumerator); the fully mixed
    candidates come from one closed-form evaluation, or are
    *fully_mixed* when the caller already holds this stack's
    :func:`~repro.batch.mixed.batch_fully_mixed_candidate`. Within a
    game, pure equilibria appear in assignment-enumeration order
    followed by the fully mixed point — the order the sequential
    ``poa_study`` evaluated them in.
    """
    _require_exhaustive(batch)
    n, m = batch.num_users, batch.num_links
    if fully_mixed is None:
        fully_mixed = batch_fully_mixed_candidate(
            batch.weights, batch.capacities, batch.initial_traffic
        )
    elif fully_mixed.exists.shape != (len(batch),):
        raise ModelError(
            f"fully_mixed covers {fully_mixed.exists.shape} games, "
            f"the batch holds {len(batch)}"
        )

    # Sweep in profile blocks (bounding the one-hot/GEMM tensors) and
    # keep only the equilibrium rows — a vanishing fraction of m^n —
    # gathered from the block's one-hot table.
    num_pure = np.zeros(len(batch), dtype=np.int64)
    game_parts: list[np.ndarray] = []
    onehot_parts: list[np.ndarray] = []
    for block, key in _blocks(n, m, assignments):
        tables = _sweep_tables(block, m, key)
        mask = sweep_pure_nash_mask(
            block,
            batch.weights,
            batch.capacities,
            batch.initial_traffic,
            tol=tol,
            tables=tables,
        )  # (B, block)
        num_pure += mask.sum(axis=1)
        block_game, block_row = np.nonzero(mask)
        game_parts.append(block_game)
        onehot_parts.append(tables.onehot_rows(block_row))

    fm_games = np.flatnonzero(fully_mixed.exists)
    if fm_games.size:
        game_parts.append(fm_games)
        onehot_parts.append(
            normalize_rows(fully_mixed.probabilities[fm_games])
        )
    game_index = np.concatenate(game_parts)
    probabilities = np.concatenate(onehot_parts)
    if np.any(game_index[1:] < game_index[:-1]):
        # Stable sort keeps each game's pure NE first, FMNE last — the
        # sequential evaluation order (irrelevant to the max-reductions
        # downstream, but it keeps differential tests straightforward).
        order = np.argsort(game_index, kind="stable")
        game_index, probabilities = game_index[order], probabilities[order]
    return EquilibriumStack(
        game_index=game_index,
        probabilities=probabilities,
        num_pure=num_pure,
        fmne_exists=fully_mixed.exists,
    )


@dataclass(frozen=True)
class BatchRatioResult:
    """Worst empirical coordination ratios per game.

    ``ratio_sc1``/``ratio_sc2`` are ``(B,)`` worst ``SC1/OPT1`` and
    ``SC2/OPT2`` over each game's equilibria (zero where a game has no
    equilibrium — ``num_equilibria`` tells them apart).
    """

    ratio_sc1: np.ndarray
    ratio_sc2: np.ndarray
    num_equilibria: np.ndarray
    opt1: np.ndarray
    opt2: np.ndarray


def batch_empirical_ratios(
    batch: GameBatch,
    *,
    tol: float = 1e-9,
    fully_mixed: BatchFullyMixedResult | None = None,
) -> BatchRatioResult:
    """Worst ``(SC1/OPT1, SC2/OPT2)`` over all equilibria of every game.

    The batched counterpart of
    :func:`repro.analysis.poa.empirical_coordination_ratios` with the
    default (exhaustive) equilibrium set: all pure NE plus the fully
    mixed NE when it exists (per Theorems 4.11/4.12 the maximiser).
    *fully_mixed* is as for :func:`batch_equilibrium_profiles`.
    """
    stack = batch_equilibrium_profiles(batch, tol=tol, fully_mixed=fully_mixed)
    o1, o2 = batch_social_optima(batch)

    gidx = stack.game_index
    costs = batch_min_expected_latencies(
        stack.probabilities,
        batch.weights[gidx],
        batch.capacities[gidx],
        batch.initial_traffic[gidx],
    )  # (E, n)
    r1 = costs.sum(axis=1) / o1[gidx]
    r2 = costs.max(axis=1) / o2[gidx]
    worst1 = np.zeros(len(batch))
    worst2 = np.zeros(len(batch))
    np.maximum.at(worst1, gidx, r1)
    np.maximum.at(worst2, gidx, r2)
    return BatchRatioResult(
        ratio_sc1=worst1,
        ratio_sc2=worst2,
        num_equilibria=stack.num_equilibria,
        opt1=o1,
        opt2=o2,
    )
