"""Batched pure-strategy kernels: nashification, potentials, censuses.

This module completes the batching of the Section 3 pure-strategy
pipeline. Everything operates on :class:`~repro.batch.container.GameBatch`
stacks — ``weights (B, n)``, ``capacities (B, n, m)``,
``initial_traffic (B, m)`` — and advances all ``B`` games in lockstep
with per-game active masks, in the iterative-proportional-fitting style
of stacked fixed-point solvers: one vectorised update per step, games
leaving the active set as they individually converge.

Five kernel families live here:

* **lockstep nashification** — :func:`batch_nashify_common_beliefs`
  (per-step argmax-congestion defector selection, the Feldmann et al.
  guarantee) and :func:`batch_nashify` (general games via the shared
  max-regret lockstep dynamics), both recording before/after SC1/SC2
  and max-congestion per game;
* **potential evaluators** — :func:`batch_weighted_potential` /
  :func:`batch_ordinal_potential_symmetric` and their one-move identity
  verifiers, plus the four-cycle evaluator
  :func:`batch_four_cycle_gaps` behind the Monderer-Shapley
  exact-potential test;
* **PNE / cycle census** — :func:`batch_response_cycle_census` walks the
  best-/better-response graphs of a whole stack at once (vectorised
  edge extraction over all ``m^n`` states, :func:`batch_response_edges`,
  then one flattened Kahn peel, :func:`kahn_residue`); pure-NE
  existence counting is shared with
  :func:`repro.batch.kernels.batch_count_pure_nash`;
* **improvement-cycle realisability** — :func:`batch_realisable_cycles`
  decides ``C`` closed move walks against ``D`` weight vectors in one
  call: :func:`batch_cycle_gaps` max-scatters every move's log-load
  ratio into ``(D, C, n, m, m)`` per-user max-plus matrices, and
  :func:`maxplus_closure` finds any loop that is not negative;
* **lockstep Section 3 solvers** — :func:`batch_atwolinks`,
  :func:`batch_asymmetric`, :func:`batch_auniform`: the paper's three
  algorithms advancing a stack one round per step.

Numerical parity: every kernel reproduces its single-game counterpart
bit for bit under equal inputs — loads accumulate user by user
(:func:`numpy.bincount` order), tie-breaks mirror the sequential code
(first mover, first worst link, lowest link index), and tolerances are
identical. ``equilibria/nashify.py``, the evaluators in
``equilibria/potential.py``, the game graphs of
``equilibria/game_graph.py`` and ``realize_cycle`` in
``analysis/cycles.py`` are the ``B = 1`` views of these kernels; the
E1-E4/E6 campaign results are pinned against the frozen sequential
baseline in ``tests/data/pure_seed_baseline.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.dynamics import (
    batch_best_response_dynamics,
    deviation_slab,
    own_link_base,
)
from repro.batch.kernels import _all_assignments, _profile_block, _scatter_loads
from repro.errors import AlgorithmDomainError, ConvergenceError, ModelError, SolverError
from repro.util.rng import RandomState, as_generator

__all__ = [
    "BatchNashifyResult",
    "batch_nashify",
    "batch_nashify_common_beliefs",
    "batch_weighted_potential",
    "batch_ordinal_potential_symmetric",
    "batch_verify_weighted_potential",
    "batch_verify_ordinal_potential_symmetric",
    "batch_four_cycle_gaps",
    "batch_sampled_cycle_gaps",
    "batch_response_edges",
    "kahn_residue",
    "batch_response_cycle_census",
    "maxplus_closure",
    "batch_cycle_gaps",
    "batch_realisable_cycles",
    "batch_atwolinks",
    "batch_asymmetric",
    "batch_auniform",
]

#: Census construction is exhaustive; refuse games beyond this many states.
MAX_CENSUS_STATES = 100_000

#: Combined cap on ``B * m^n`` census nodes: the Kahn peel holds the
#: whole stack's node and edge arrays at once, so per-game smallness is
#: not enough — a wide batch of large games must fail cleanly instead
#: of exhausting memory. (E4 runs at ~16k nodes; the B=1 views reach at
#: most MAX_CENSUS_STATES.)
MAX_CENSUS_NODES = 1_000_000


# ---------------------------------------------------------------------- #
# shared low-level helpers
# ---------------------------------------------------------------------- #


def _chosen_latencies(
    sigma: np.ndarray, loads: np.ndarray, capacities: np.ndarray
) -> np.ndarray:
    """``(A, n)`` belief-expected latencies at the chosen links."""
    a, n = sigma.shape
    rows = np.arange(a)[:, None]
    users = np.arange(n)[None, :]
    return loads[rows, sigma] / capacities[rows, users, sigma]


def _require_start(batch: GameBatch, start: np.ndarray) -> np.ndarray:
    b, n, m = batch.batch_size, batch.num_users, batch.num_links
    sigma = np.array(start, dtype=np.intp, copy=True)
    if sigma.shape != (b, n):
        raise ModelError(f"start must have shape ({b}, {n}), got {sigma.shape}")
    if np.any(sigma < 0) or np.any(sigma >= m):
        raise ModelError(f"start entries must lie in [0, {m})")
    return sigma


def _require_common_beliefs(capacities: np.ndarray) -> np.ndarray:
    """The shared ``(B, m)`` capacity row, or raise.

    Common beliefs collapse every user's effective-capacity row to the
    same values (they are one matmul of identical belief rows), so the
    reduced-form criterion is row equality up to a relative 1e-12 —
    mirroring ``UncertainRoutingGame.has_common_beliefs``.
    """
    row = capacities[:, 0, :]
    if not np.all(np.abs(capacities - row[:, None, :]) <= 1e-12 * row[:, None, :]):
        raise AlgorithmDomainError(
            "this kernel requires common beliefs in every stacked game "
            "(all users sharing one effective-capacity row)"
        )
    return row


def _require_symmetric_users(weights: np.ndarray) -> None:
    first = weights[:, :1]
    if not np.all(np.abs(weights - first) <= 1e-12 * np.abs(first)):
        raise AlgorithmDomainError(
            "this kernel requires symmetric users (equal weights) in "
            "every stacked game"
        )


# ---------------------------------------------------------------------- #
# lockstep nashification
# ---------------------------------------------------------------------- #


@dataclass
class BatchNashifyResult:
    """Before/after records of a lockstep nashification run.

    All arrays are per-game: ``profiles (B, n)`` final assignments (every
    row is a pure NE — non-convergence raises instead), ``steps (B,)``
    accepted moves, and the ``(B,)`` social-cost / max-congestion pairs
    the experiments compare against the Feldmann et al. guarantee.
    """

    profiles: np.ndarray
    steps: np.ndarray
    sc1_before: np.ndarray
    sc1_after: np.ndarray
    sc2_before: np.ndarray
    sc2_after: np.ndarray
    max_congestion_before: np.ndarray
    max_congestion_after: np.ndarray

    @property
    def preserved_max_congestion(self) -> np.ndarray:
        """Per-game verdict: max congestion never got worse."""
        return self.max_congestion_after <= self.max_congestion_before * (1 + 1e-9)

    def __len__(self) -> int:
        return self.profiles.shape[0]


def batch_nashify_common_beliefs(
    batch: GameBatch,
    start: np.ndarray,
    *,
    max_steps: int = 100_000,
) -> BatchNashifyResult:
    """Nashify ``B`` common-beliefs games in lockstep.

    Every step moves, in each active game, the first defecting user that
    sits on a maximum-congestion link (or the first defector when none
    does) to its best response — exactly the sequential procedure of
    :func:`repro.equilibria.nashify.nashify_common_beliefs`, whose
    trajectory each slice reproduces move for move. Games leave the
    active set as their defector sets empty; a game still unsettled
    after *max_steps* of its own moves raises
    :class:`~repro.errors.ConvergenceError` (same budget semantics as
    the single-game loop).
    """
    weights, capacities = batch.weights, batch.capacities
    traffic = batch.initial_traffic
    caps_row = _require_common_beliefs(capacities)
    sigma = _require_start(batch, start)
    b, n = sigma.shape
    m = batch.num_links

    loads0 = _scatter_loads(sigma, weights, m, traffic)
    lat0 = _chosen_latencies(sigma, loads0, capacities)
    sc1_before = lat0.sum(axis=1)
    sc2_before = lat0.max(axis=1)
    congestion_before = (loads0 / caps_row).max(axis=1)

    active = np.ones(b, dtype=bool)
    steps = np.zeros(b, dtype=np.int64)
    own_base = own_link_base(b, n, m)

    iteration = 0
    while active.any() and iteration < max_steps:
        idx = np.flatnonzero(active)
        sig_a = sigma[idx]
        w_a = weights[idx]
        loads = _scatter_loads(sig_a, w_a, m, traffic[idx])
        dev, own = deviation_slab(
            sig_a, w_a, capacities[idx], traffic[idx], own_base, loads=loads
        )
        current = dev.reshape(-1)[own]
        scale = np.maximum(current, 1.0)
        improving = dev.min(axis=-1) < current - 1e-9 * scale  # (A, n)
        has_mover = improving.any(axis=-1)

        done = idx[~has_mover]
        if done.size:
            active[done] = False
            if not has_mover.any():
                iteration += 1
                continue
            act = idx[has_mover]
            improving = improving[has_mover]
            dev = dev[has_mover]
            loads = loads[has_mover]
            sig_a = sig_a[has_mover]
        else:
            act = idx

        congestion = loads / caps_row[act]
        worst = congestion >= congestion.max(axis=1, keepdims=True) * (1 - 1e-12)
        on_worst = improving & np.take_along_axis(worst, sig_a, axis=1)
        any_worst = on_worst.any(axis=1)
        user = np.where(
            any_worst, np.argmax(on_worst, axis=1), np.argmax(improving, axis=1)
        )
        rows = np.arange(act.size)
        target = np.argmin(dev[rows, user], axis=1)
        sigma[act, user] = target
        steps[act] += 1
        iteration += 1

    if active.any():
        raise ConvergenceError(
            f"nashification exceeded {max_steps} steps for "
            f"{int(active.sum())} of {b} games (n={n})"
        )

    loads1 = _scatter_loads(sigma, weights, m, traffic)
    lat1 = _chosen_latencies(sigma, loads1, capacities)
    return BatchNashifyResult(
        profiles=sigma,
        steps=steps,
        sc1_before=sc1_before,
        sc1_after=lat1.sum(axis=1),
        sc2_before=sc2_before,
        sc2_after=lat1.max(axis=1),
        max_congestion_before=congestion_before,
        max_congestion_after=(loads1 / caps_row).max(axis=1),
    )


def batch_nashify(
    batch: GameBatch,
    start: np.ndarray,
    *,
    max_steps: int = 100_000,
) -> BatchNashifyResult:
    """Nashify ``B`` general games by lockstep max-regret best response.

    The general-game variant carries no monotonicity guarantee (the
    subjective SC2 may transiently grow), so congestion is measured
    against per-link *mean* effective capacities — the same fixed
    observer as :func:`repro.equilibria.nashify.nashify`, whose
    trajectory each slice reproduces through the shared lockstep
    dynamics. Raises :class:`~repro.errors.ConvergenceError` when any
    game cycles or exhausts *max_steps*.
    """
    weights, capacities = batch.weights, batch.capacities
    traffic = batch.initial_traffic
    m = batch.num_links
    # The dynamics validate and copy *start*, with _require_start's
    # refusals, before anything here reads it.
    result = batch_best_response_dynamics(
        batch, start, schedule="max_regret", max_steps=max_steps
    )
    if not result.all_converged:
        stuck = int((~result.converged).sum())
        raise ConvergenceError(
            f"nashification dynamics did not converge for {stuck} of "
            f"{len(batch)} games within {max_steps} steps"
        )

    sigma = np.asarray(start, dtype=np.intp)
    mean_caps = capacities.mean(axis=1)  # (B, m)
    loads0 = _scatter_loads(sigma, weights, m, traffic)
    lat0 = _chosen_latencies(sigma, loads0, capacities)
    loads1 = _scatter_loads(result.profiles, weights, m, traffic)
    lat1 = _chosen_latencies(result.profiles, loads1, capacities)
    return BatchNashifyResult(
        profiles=result.profiles,
        steps=result.steps,
        sc1_before=lat0.sum(axis=1),
        sc1_after=lat1.sum(axis=1),
        sc2_before=lat0.max(axis=1),
        sc2_after=lat1.max(axis=1),
        max_congestion_before=(loads0 / mean_caps).max(axis=1),
        max_congestion_after=(loads1 / mean_caps).max(axis=1),
    )


# ---------------------------------------------------------------------- #
# batched potential evaluators
# ---------------------------------------------------------------------- #


def batch_weighted_potential(batch: GameBatch, sigma: np.ndarray) -> np.ndarray:
    """``(B,)`` weighted potentials of common-beliefs games.

    ``Phi(sigma) = sum_l (L_l^2 + sum_{i on l} w_i^2) / (2 c^l)`` per
    stacked game — the ``B``-wide form of
    :func:`repro.equilibria.potential.weighted_potential_common_beliefs`.
    """
    caps_row = _require_common_beliefs(batch.capacities)
    sig = _require_start(batch, sigma)
    w = batch.weights
    loads = _scatter_loads(sig, w, batch.num_links, batch.initial_traffic)
    own = _scatter_loads(sig, w**2, batch.num_links)
    return ((loads**2 + own) / (2.0 * caps_row)).sum(axis=1)


def batch_ordinal_potential_symmetric(
    batch: GameBatch, sigma: np.ndarray
) -> np.ndarray:
    """``(B,)`` ordinal potentials of symmetric-users games.

    ``Phi(sigma) = sum_l log(k_l!) - sum_i log C[i, sigma_i]`` per
    stacked game (zero initial traffic required) — the ``B``-wide form
    of :func:`repro.equilibria.potential.ordinal_potential_symmetric`.
    """
    _require_symmetric_users(batch.weights)
    if np.any(batch.initial_traffic > 0):
        raise AlgorithmDomainError(
            "the ordinal potential requires zero initial traffic"
        )
    sig = _require_start(batch, sigma)
    b, n = sig.shape
    counts = _scatter_loads(sig, np.ones((b, n)), batch.num_links)
    # log(k!) for k = 0..n, indexed by each link's (integral) user count.
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_factorials = log_factorial[counts.astype(np.intp)].sum(axis=1)
    rows = np.arange(b)[:, None]
    users = np.arange(n)[None, :]
    chosen_caps = batch.capacities[rows, users, sig]
    return log_factorials - np.log(chosen_caps).sum(axis=1)


def _latency_of_users(
    batch: GameBatch, sigma: np.ndarray, users: np.ndarray
) -> np.ndarray:
    """``(B,)`` latency of one chosen user per game."""
    loads = _scatter_loads(sigma, batch.weights, batch.num_links, batch.initial_traffic)
    rows = np.arange(sigma.shape[0])
    links = sigma[rows, users]
    return loads[rows, links] / batch.capacities[rows, users, links]


def _verify_identity(lhs: np.ndarray, rhs: np.ndarray, rtol: float) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return np.abs(lhs - rhs) <= rtol * scale


def batch_verify_weighted_potential(
    batch: GameBatch,
    sigma: np.ndarray,
    users: np.ndarray,
    new_links: np.ndarray,
    *,
    rtol: float = 1e-9,
) -> np.ndarray:
    """``(B,)`` verdicts of ``Delta Phi = w_i * Delta lambda_i``.

    One probe move per game: game ``b`` moves ``users[b]`` to
    ``new_links[b]`` from ``sigma[b]``.
    """
    sig = _require_start(batch, sigma)
    users = np.asarray(users, dtype=np.intp)
    new_links = np.asarray(new_links, dtype=np.intp)
    rows = np.arange(sig.shape[0])
    phi_before = batch_weighted_potential(batch, sig)
    lat_before = _latency_of_users(batch, sig, users)
    sig[rows, users] = new_links
    phi_after = batch_weighted_potential(batch, sig)
    lat_after = _latency_of_users(batch, sig, users)
    lhs = phi_after - phi_before
    rhs = batch.weights[rows, users] * (lat_after - lat_before)
    return _verify_identity(lhs, rhs, rtol)


def batch_verify_ordinal_potential_symmetric(
    batch: GameBatch,
    sigma: np.ndarray,
    users: np.ndarray,
    new_links: np.ndarray,
    *,
    rtol: float = 1e-9,
) -> np.ndarray:
    """``(B,)`` verdicts of ``Delta Phi = log lambda' - log lambda``."""
    sig = _require_start(batch, sigma)
    users = np.asarray(users, dtype=np.intp)
    new_links = np.asarray(new_links, dtype=np.intp)
    rows = np.arange(sig.shape[0])
    phi_before = batch_ordinal_potential_symmetric(batch, sig)
    lat_before = _latency_of_users(batch, sig, users)
    sig[rows, users] = new_links
    phi_after = batch_ordinal_potential_symmetric(batch, sig)
    lat_after = _latency_of_users(batch, sig, users)
    lhs = phi_after - phi_before
    rhs = np.log(lat_after) - np.log(lat_before)
    return _verify_identity(lhs, rhs, rtol)


# ---------------------------------------------------------------------- #
# four-cycle gaps (Monderer-Shapley exact-potential test)
# ---------------------------------------------------------------------- #


def batch_four_cycle_gaps(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None,
    game_of_row: np.ndarray,
    sigma0: np.ndarray,
    move_users: np.ndarray,
    move_links: np.ndarray,
) -> np.ndarray:
    """Net deviator cost changes around ``K`` four-cycles: shape ``(K,)``.

    Row ``r`` walks one two-player four-cycle of game ``game_of_row[r]``
    starting from assignment ``sigma0[r]``: move ``s`` relocates user
    ``move_users[r, s]`` to ``move_links[r, s]`` and accumulates that
    user's latency change. The accumulation order (move by move, loads
    rebuilt user by user) matches the sequential
    ``_four_cycle_gap`` evaluation bit for bit, so the worst-gap
    reductions downstream agree exactly.
    """
    sigma = np.array(sigma0, dtype=np.intp, copy=True)
    k, n = sigma.shape
    m = capacities.shape[-1]
    game_of_row = np.asarray(game_of_row, dtype=np.intp)
    w = weights[game_of_row]
    caps = capacities[game_of_row]
    traffic = initial_traffic[game_of_row] if initial_traffic is not None else None
    rows = np.arange(k)

    total = np.zeros(k)
    loads = _scatter_loads(sigma, w, m, traffic)
    for s in range(move_users.shape[1]):
        users = move_users[:, s]
        links_before = sigma[rows, users]
        before = loads[rows, links_before] / caps[rows, users, links_before]
        sigma[rows, users] = move_links[:, s]
        loads = _scatter_loads(sigma, w, m, traffic)
        links_after = sigma[rows, users]
        after = loads[rows, links_after] / caps[rows, users, links_after]
        total += after - before
    return total


def _sample_cycle_draws(
    rng: np.random.Generator, num_users: int, num_links: int, samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay the sampled-path RNG draws of the sequential gap loop.

    Per sample, in stream order: the user pair, the base assignment, and
    the two link pairs — exactly the draws
    ``exact_potential_cycle_gap`` made before it was batched.
    """
    pairs = np.empty((samples, 2), dtype=np.intp)
    bases = np.empty((samples, num_users), dtype=np.intp)
    links = np.empty((samples, 4), dtype=np.intp)
    for s in range(samples):
        pairs[s] = rng.choice(num_users, size=2, replace=False)
        bases[s] = rng.integers(0, num_links, size=num_users).astype(np.intp)
        links[s, :2] = rng.choice(num_links, size=2, replace=False)
        links[s, 2:] = rng.choice(num_links, size=2, replace=False)
    return pairs, bases, links[:, :2], links[:, 2:]


def _four_cycle_inputs(
    pairs: np.ndarray,
    bases: np.ndarray,
    links_i: np.ndarray,
    links_j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma0, move_users, move_links) for a block of four-cycles.

    The move order is the sequential evaluation's:
    ``i: a->a2, j: b->b2, i: a2->a, j: b2->b`` from the base profile
    with ``sigma[i] = a`` and ``sigma[j] = b``.
    """
    k = pairs.shape[0]
    rows = np.arange(k)
    i, j = pairs[:, 0], pairs[:, 1]
    a, a2 = links_i[:, 0], links_i[:, 1]
    b, b2 = links_j[:, 0], links_j[:, 1]
    sigma0 = np.array(bases, dtype=np.intp, copy=True)
    sigma0[rows, i] = a
    sigma0[rows, j] = b
    move_users = np.stack([i, j, i, j], axis=1)
    move_links = np.stack([a2, b2, a, b], axis=1)
    return sigma0, move_users, move_links


def batch_sampled_cycle_gaps(
    batch: GameBatch,
    sample_seeds: Sequence[RandomState],
    *,
    num_samples: int = 1_000,
) -> np.ndarray:
    """``(B,)`` worst sampled four-cycle gaps, one RNG stream per game.

    Game ``b`` replays ``num_samples`` cycle draws from
    ``sample_seeds[b]`` exactly as the sequential
    ``exact_potential_cycle_gap(game, num_samples=..., seed=...)`` loop
    would, then all ``B * num_samples`` cycles are evaluated in one
    vectorised pass.
    """
    b = batch.batch_size
    n, m = batch.num_users, batch.num_links
    seeds = list(sample_seeds)
    if len(seeds) != b:
        raise ModelError(f"need {b} sample seeds, got {len(seeds)}")
    if num_samples < 1:
        return np.zeros(b)
    pairs = np.empty((b, num_samples, 2), dtype=np.intp)
    bases = np.empty((b, num_samples, n), dtype=np.intp)
    links_i = np.empty((b, num_samples, 2), dtype=np.intp)
    links_j = np.empty((b, num_samples, 2), dtype=np.intp)
    for g, seed in enumerate(seeds):
        rng = as_generator(seed)
        pairs[g], bases[g], links_i[g], links_j[g] = _sample_cycle_draws(
            rng, n, m, num_samples
        )
    k = b * num_samples
    sigma0, move_users, move_links = _four_cycle_inputs(
        pairs.reshape(k, 2),
        bases.reshape(k, n),
        links_i.reshape(k, 2),
        links_j.reshape(k, 2),
    )
    game_of_row = np.repeat(np.arange(b), num_samples)
    gaps = batch_four_cycle_gaps(
        batch.weights,
        batch.capacities,
        batch.initial_traffic,
        game_of_row,
        sigma0,
        move_users,
        move_links,
    )
    return np.abs(gaps).reshape(b, num_samples).max(axis=1)


# ---------------------------------------------------------------------- #
# PNE-existence / response-cycle census
# ---------------------------------------------------------------------- #


def _census_states(batch: GameBatch, kind: str) -> int:
    """The per-game state count ``m^n``, after the census guards."""
    if kind not in ("best", "better"):
        raise ModelError(f"kind must be 'best' or 'better', got {kind!r}")
    b, n, m = batch.batch_size, batch.num_users, batch.num_links
    total = m**n
    if total > MAX_CENSUS_STATES:
        raise ModelError(
            f"game graph would have {total} states (limit {MAX_CENSUS_STATES})"
        )
    if b * total > MAX_CENSUS_NODES:
        raise ModelError(
            f"census would peel {b} * {total} = {b * total} nodes at once "
            f"(limit {MAX_CENSUS_NODES}); split the batch"
        )
    return total


def batch_response_edges(
    batch: GameBatch,
    *,
    kind: Literal["best", "better"] = "best",
    tol: float = 1e-9,
    block_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every response edge of the stack as ``(src, dst)`` node ids.

    Node ``g * m^n + r`` is state ``r`` (``enumerate_assignments`` order)
    of game ``g``. A user who improves by more than ``tol * max(latency,
    1)`` moves to a best response (``kind="best"``, the paper's game
    graph) or to any improving link (``"better"``).
    """
    total = _census_states(batch, kind)
    b, n, m = batch.batch_size, batch.num_users, batch.num_links
    weights, capacities = batch.weights, batch.capacities
    traffic = batch.initial_traffic
    assignments = _all_assignments(n, m)
    place = np.power(m, np.arange(n - 1, -1, -1)).astype(np.int64)

    src_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    dst_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    block = block_size or _profile_block(b, n, m)
    users = np.arange(n)[None, None, :]
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        sig = assignments[lo:hi]  # (Pb, n)
        pb = hi - lo
        cols = np.arange(pb)
        loads = np.zeros((b, pb, m))
        for i in range(n):
            loads[:, cols, sig[:, i]] += weights[:, i, None]
        loads += traffic[:, None, :]
        dev = loads[:, :, None, :] + weights[:, None, :, None]
        dev[:, cols[:, None], users[0], sig] -= weights[:, None, :]
        dev /= capacities[:, None, :, :]
        current = np.take_along_axis(dev, sig[None, :, :, None], axis=3)[..., 0]
        scale = np.maximum(current, 1.0)
        improving = dev < (current - tol * scale)[..., None]
        if kind == "best":
            best = dev.min(axis=-1)
            threshold = best + tol * np.maximum(best, 1.0)
            targets = improving & (dev <= threshold[..., None])
        else:
            targets = improving
        gb, ps, us, ls = np.nonzero(targets)
        src = gb * total + (ps + lo)
        src_parts.append(src)
        dst_parts.append(src + (ls - sig[ps, us]) * place[us])
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def kahn_residue(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Kahn peel: a mask of the nodes left after repeatedly dropping every
    node with no incoming edge. None is left iff the graph is acyclic;
    each leftover node keeps a leftover predecessor."""
    indeg = np.bincount(dst, minlength=num_nodes)
    order = np.argsort(src, kind="stable")
    dst_sorted = dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])

    frontier = np.flatnonzero(indeg == 0)
    while frontier.size:
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        total_out = int(lengths.sum())
        if total_out == 0:
            break
        # Vectorised ragged arange: edge indices of every frontier node.
        keep = lengths > 0
        starts, lengths = starts[keep], lengths[keep]
        ends = np.cumsum(lengths)
        idx = np.ones(total_out, dtype=np.int64)
        idx[0] = starts[0]
        idx[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
        np.cumsum(idx, out=idx)
        dsts = dst_sorted[idx]
        indeg -= np.bincount(dsts, minlength=num_nodes)
        candidates = np.unique(dsts)
        frontier = candidates[indeg[candidates] == 0]
    # A node's in-degree reaches zero exactly when it is peeled.
    return indeg > 0


def batch_response_cycle_census(
    batch: GameBatch,
    *,
    kind: Literal["best", "better"] = "best",
    tol: float = 1e-9,
    block_size: int | None = None,
) -> np.ndarray:
    """Whether each game's response graph has a cycle: ``(B,)`` bool.

    One :func:`kahn_residue` peel over the stack's
    :func:`batch_response_edges`: a game has a cycle iff some of its
    states are left over.
    """
    total = _census_states(batch, kind)
    src, dst = batch_response_edges(
        batch, kind=kind, tol=tol, block_size=block_size
    )
    left = kahn_residue(src, dst, batch.batch_size * total)
    return left.reshape(batch.batch_size, total).any(axis=1)


# ---------------------------------------------------------------------- #
# improvement-cycle realisability
# ---------------------------------------------------------------------- #


def maxplus_closure(gaps: np.ndarray) -> np.ndarray:
    """Max-plus Floyd-Warshall over the last two axes of *gaps*.

    Entry ``[..., a, b]`` of the result is the heaviest total of a walk
    from ``a`` to ``b`` (``-inf`` if there is none). It is exact when
    every loop is negative; otherwise the diagonal is non-negative on
    some loop, which is all a feasibility check reads.
    """
    dist = np.array(gaps, dtype=np.float64)
    for k in range(dist.shape[-1]):
        np.maximum(dist, dist[..., :, k : k + 1] + dist[..., k : k + 1, :], out=dist)
    return dist


def batch_cycle_gaps(
    walks: np.ndarray, weights: np.ndarray, num_links: int
) -> np.ndarray:
    """Per-user max-plus gap matrices of closed move walks.

    *walks* is ``(C, K + 1, n)`` link indices: each row a closed walk
    whose consecutive states differ in at most one user. A step that
    changes nothing is padding, so walks of different lengths share one
    array. *weights* is ``(D, n)``. Returns ``(D, C, n, m, m)``: entry
    ``[d, c, i, a, b]`` is the largest ``log((L_b + w_i) / L_a)`` over
    the moves of user ``i`` from ``a`` to ``b`` in walk ``c`` under
    weights ``d``, with ``L`` the loads before the move, or ``-inf``
    where there is no such move. A move is a strict improvement iff the
    user's log-capacity gap ``log C_b - log C_a`` exceeds its entry.
    """
    walks = np.asarray(walks, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if walks.ndim != 3 or w.ndim != 2 or walks.shape[2] != w.shape[1]:
        raise ModelError(
            f"walks (C, K + 1, n) and weights (D, n) disagree: "
            f"{walks.shape} vs {w.shape}"
        )
    if np.any(walks < 0) or np.any(walks >= num_links):
        raise ModelError(f"walk entries must lie in [0, {num_links})")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ModelError("weights must be finite and positive")
    before, after = walks[:, :-1], walks[:, 1:]
    changed = before != after
    if np.any(changed.sum(axis=2) > 1) or np.any(walks[:, 0] != walks[:, -1]):
        raise ModelError("each walk must be closed and move <= 1 user per step")

    (d, n), (c, k), m = w.shape, changed.shape[:2], num_links
    mover = changed.argmax(axis=2)  # (C, K); user 0 on padding steps
    origin = np.take_along_axis(before, mover[..., None], axis=2)[..., 0]
    target = np.take_along_axis(after, mover[..., None], axis=2)[..., 0]
    # Origin and target loads summed user by user from 0.0: the order of
    # the single-walk np.bincount, so every gap is bit-identical to it.
    load_a = np.zeros((d, c, k))
    load_b = np.zeros((d, c, k))
    for i in range(n):
        wi = w[:, i, None, None]
        load_a += np.where(before[..., i] == origin, wi, 0.0)
        load_b += np.where(before[..., i] == target, wi, 0.0)
    gap = np.log((load_b + w[:, mover]) / load_a)
    gap[:, ~changed.any(axis=2)] = -np.inf

    # Max-scatter one step column at a time: within a column every walk
    # writes its own cell, so no two writes collide.
    mats = np.full((d, c, n, m, m), -np.inf)
    rows = np.arange(c)
    for step in range(k):
        cell = (slice(None), rows, mover[:, step], origin[:, step], target[:, step])
        mats[cell] = np.maximum(mats[cell], gap[:, :, step])
    return mats


#: A walk is realisable iff every loop total lies below ``-LOOP_TOL``.
LOOP_TOL = 1e-12


def batch_realisable_cycles(
    walks: np.ndarray, weights: np.ndarray, num_links: int
) -> np.ndarray:
    """Whether some capacities make each walk a better-response cycle.

    Returns ``(C, D)`` verdicts for the walks and weight vectors of
    :func:`batch_cycle_gaps`. A user's log-capacity gaps telescope
    around each loop of its own moves, so walk ``c`` is realisable under
    weights ``d`` iff every such loop has a negative total: the
    diagonal of each user's :func:`maxplus_closure` lies below
    ``-LOOP_TOL``.
    """
    closure = maxplus_closure(batch_cycle_gaps(walks, weights, num_links))
    loops = np.diagonal(closure, axis1=-2, axis2=-1)  # (D, C, n, m)
    return (loops < -LOOP_TOL).all(axis=(2, 3)).T


# ---------------------------------------------------------------------- #
# lockstep Section 3 solvers
# ---------------------------------------------------------------------- #


def batch_atwolinks(batch: GameBatch) -> np.ndarray:
    """Pure NE of ``B`` two-link games in lockstep: ``(B, n)`` profiles.

    One round per user, as in Figure 1: every game recomputes its
    remaining users' tolerances against the updated initial traffic,
    places its most tolerant remaining user on that user's preferred
    link, and recurses. Each slice reproduces
    :func:`repro.equilibria.two_links.atwolinks` choice for choice.
    """
    if batch.num_links != 2:
        raise AlgorithmDomainError(
            f"atwolinks requires m=2 links, batch has m={batch.num_links}"
        )
    b, n = batch.batch_size, batch.num_users
    w = batch.weights
    caps = batch.capacities  # (B, n, 2)
    t = batch.initial_traffic.copy()
    big_t = w.sum(axis=1)
    sigma = np.empty((b, n), dtype=np.intp)
    remaining = np.ones((b, n), dtype=bool)
    rows = np.arange(b)

    harmonic = (caps[:, :, 0] * caps[:, :, 1]) / (caps[:, :, 0] + caps[:, :, 1])
    alpha = np.empty((b, n, 2))
    for _ in range(n):
        for j in (0, 1):
            other = 1 - j
            alpha[:, :, j] = harmonic * (
                (t[:, other, None] + big_t[:, None] + w) / caps[:, :, other]
                - t[:, j, None] / caps[:, :, j]
            )
        preferred = np.argmax(alpha, axis=2)  # (B, n)
        best_alpha = np.take_along_axis(alpha, preferred[:, :, None], axis=2)[:, :, 0]
        best_alpha[~remaining] = -np.inf
        pick = np.argmax(best_alpha, axis=1)  # (B,)
        link = preferred[rows, pick]
        sigma[rows, pick] = link
        t[rows, link] += w[rows, pick]
        big_t -= w[rows, pick]
        remaining[rows, pick] = False
    return sigma


def batch_asymmetric(batch: GameBatch, *, tol: float = 1e-12) -> np.ndarray:
    """Pure NE of ``B`` symmetric-users games in lockstep: ``(B, n)``.

    Users join one at a time (the same insertion round for every game);
    the defection chain of step 3(c) advances all unsettled games one
    move per inner iteration, each game following the link that just
    grew. Each slice reproduces
    :func:`repro.equilibria.symmetric.asymmetric` move for move,
    including the Lemma 3.4 move-budget guard.
    """
    _require_symmetric_users(batch.weights)
    if np.any(batch.initial_traffic > 0):
        raise AlgorithmDomainError("asymmetric does not support initial link traffic")
    b, n, m = batch.batch_size, batch.num_users, batch.num_links
    caps = batch.capacities
    counts = np.zeros((b, m))
    sigma = np.full((b, n), -1, dtype=np.intp)
    rows = np.arange(b)

    for user in range(n):
        link = np.argmin((counts + 1.0) / caps[:, user, :], axis=1)
        sigma[rows, user] = link
        counts[rows, link] += 1.0

        grown = link.copy()
        moves = np.zeros(b, dtype=np.int64)
        active = np.ones(b, dtype=bool)
        while active.any():
            idx = np.flatnonzero(active)
            a = idx.size
            arows = np.arange(a)
            grown_a = grown[idx]
            members = sigma[idx] == grown_a[:, None]  # (A, n); unplaced are -1
            caps_a = caps[idx]
            caps_grown = np.take_along_axis(
                caps_a, grown_a[:, None, None], axis=2
            )[:, :, 0]
            current = counts[idx, grown_a][:, None] / caps_grown  # (A, n)
            alt = (counts[idx][:, None, :] + 1.0) / caps_a  # (A, n, m)
            alt[arows[:, None], np.arange(n)[None, :], grown_a[:, None]] = np.inf
            best_alt = alt.min(axis=2)
            defect = members & (best_alt < current * (1.0 - tol))
            has_defector = defect.any(axis=1)

            settled = idx[~has_defector]
            if settled.size:
                active[settled] = False
                if not has_defector.any():
                    break
                act = idx[has_defector]
                sub = np.flatnonzero(has_defector)
                defect, alt = defect[sub], alt[sub]
                grown_act = grown_a[sub]
            else:
                act = idx
                grown_act = grown_a
            arows = np.arange(act.size)
            k = np.argmax(defect, axis=1)  # first defecting member
            new_link = np.argmin(alt[arows, k], axis=1)
            counts[act, grown_act] -= 1.0
            counts[act, new_link] += 1.0
            sigma[act, k] = new_link
            grown[act] = new_link
            moves[act] += 1
            if np.any(moves[act] > user + 1):
                raise SolverError(
                    "defection chain exceeded the theoretical bound of "
                    f"{user + 1} moves — numerical tolerance too loose?"
                )
    return sigma


def batch_auniform(batch: GameBatch) -> np.ndarray:
    """Pure NE of ``B`` uniform-beliefs games in lockstep: ``(B, n)``.

    The LPT-style greedy of Figure 3: every game processes its users in
    decreasing weight order (stable ties), one rank per round, placing
    the round's user on its least-loaded link. Each slice reproduces
    :func:`repro.equilibria.uniform.auniform` placement for placement.
    """
    caps = batch.capacities
    if not np.all(np.abs(caps - caps[:, :, :1]) <= 1e-9 * caps[:, :, :1]):
        raise AlgorithmDomainError(
            "auniform requires uniform user beliefs "
            "(each user's effective capacity equal on all links)"
        )
    b, n = batch.batch_size, batch.num_users
    w = batch.weights
    order = np.argsort(-w, axis=1, kind="stable")
    loads = batch.initial_traffic.copy()
    sigma = np.empty((b, n), dtype=np.intp)
    rows = np.arange(b)
    for rank in range(n):
        user = order[:, rank]
        wu = w[rows, user]
        cu = caps[rows, user, 0]
        link = np.argmin((wu[:, None] + loads) / cu[:, None], axis=1)
        sigma[rows, user] = link
        loads[rows, link] += wu
    return sigma
