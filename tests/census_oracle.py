"""Reference census kernels for the batched PoA tests.

These are the exhaustive-census kernels as they stood before the
per-stack census learned cached gather tables, user-major sweep slabs
and elementwise min/max/all passes:

* :func:`oracle_all_pure_costs` — the single-game per-link masked-sum
  loop ``repro.model.social.all_pure_costs`` ran before it became the
  ``B = 1`` view of :func:`repro.batch.poa.batch_all_pure_latencies`;
* :func:`oracle_sweep_pure_nash_mask` — the profile sweep over the
  ``(B, P, n, m)`` deviation tensor, gathered with
  ``np.take_along_axis`` and broadcast fancy indexing;
* :func:`oracle_all_pure_latencies`, :func:`oracle_social_optima`,
  :func:`oracle_equilibrium_profiles` and
  :func:`oracle_empirical_ratios` — the stacked optima, equilibrium
  stack and worst ratios built on them, the fully mixed closed form
  evaluated inside the equilibrium stack.

Each returns what its namesake in :mod:`repro.batch.kernels` or
:mod:`repro.batch.poa` returns, so the kernels are held to them with
``np.array_equal``. Only the unchanged closed-form helpers of
:mod:`repro.batch.mixed` and the assignment enumerator are shared.
"""

from __future__ import annotations

import numpy as np

from repro.batch.kernels import enumerate_assignments
from repro.batch.mixed import (
    batch_fully_mixed_candidate,
    batch_min_expected_latencies,
    normalize_rows,
)
from repro.batch.poa import BatchRatioResult, EquilibriumStack

PROFILE_BLOCK = 65_536


def oracle_all_pure_costs(game, assignments=None):
    """``(assignments, latencies)`` of one game, one masked sum per link."""
    if assignments is None:
        assignments = enumerate_assignments(game.num_users, game.num_links)
    sig = np.ascontiguousarray(assignments, dtype=np.intp)
    n, m = game.num_users, game.num_links
    w = game.weights
    loads = np.zeros((sig.shape[0], m))
    for link in range(m):
        loads[:, link] = (w[None, :] * (sig == link)).sum(axis=1)
    loads += game.initial_traffic[None, :]
    rows = np.arange(sig.shape[0])[:, None]
    lat = loads[rows, sig] / game.capacities[np.arange(n)[None, :], sig]
    return sig, lat


def oracle_sweep_pure_nash_mask(
    assignments, weights, capacities, initial_traffic=None, *, tol=1e-9
):
    """``(B, P)`` Nash verdicts of shared assignments over stacked games."""
    sig = np.asarray(assignments, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    num_b, num_p = w.shape[0], sig.shape[0]
    n, m = caps.shape[-2], caps.shape[-1]
    onehot = (sig[:, :, None] == np.arange(m)).astype(np.float64)
    loads = np.tensordot(w, onehot, axes=([1], [1]))  # (B, P, m)
    if initial_traffic is not None:
        loads += np.asarray(initial_traffic, dtype=np.float64)[:, None, :]
    if num_b * num_p * n * m <= 65_536:
        current = np.take_along_axis(loads, sig[None], axis=-1)
        current = current / caps[:, np.arange(n)[None, :], sig]
        threshold = current - tol * np.maximum(current, 1.0)
        dev = (loads[:, :, None, :] + w[:, None, :, None]) / caps[:, None, :, :]
        return np.all(dev >= threshold[..., None], axis=(-2, -1))
    loads = loads.reshape(num_b * num_p, m)
    survivors = np.arange(num_b * num_p)
    for i in range(n):
        b = survivors // num_p
        chosen = sig[survivors % num_p, i]
        cap_rows = caps[b, i]
        current = loads[survivors, chosen] / cap_rows[np.arange(survivors.size), chosen]
        threshold = current - tol * np.maximum(current, 1.0)
        dev = (loads[survivors] + w[b, i][:, None]) / cap_rows
        survivors = survivors[np.all(dev >= threshold[:, None], axis=1)]
        if survivors.size == 0:
            break
    mask = np.zeros(num_b * num_p, dtype=bool)
    mask[survivors] = True
    return mask.reshape(num_b, num_p)


def oracle_all_pure_latencies(batch, assignments=None):
    """``(assignments, (B, P, n) latencies)``, one masked sum per link."""
    n, m = batch.num_users, batch.num_links
    if assignments is None:
        assignments = enumerate_assignments(n, m)
    sig = np.ascontiguousarray(assignments, dtype=np.intp)
    w = batch.weights
    loads = np.zeros((len(batch), sig.shape[0], m))
    for link in range(m):
        loads[:, :, link] = (w[:, None, :] * (sig == link)[None, :, :]).sum(axis=2)
    loads += batch.initial_traffic[:, None, :]
    chosen_load = np.take_along_axis(loads, sig[None, :, :], axis=2)
    chosen_cap = batch.capacities[:, np.arange(n)[None, :], sig]
    return sig, chosen_load / chosen_cap


def oracle_social_optima(batch, assignments=None):
    """``(OPT1, OPT2)`` per game by a blocked exhaustive sweep."""
    if assignments is None:
        assignments = enumerate_assignments(batch.num_users, batch.num_links)
    best1 = np.full(len(batch), np.inf)
    best2 = np.full(len(batch), np.inf)
    for lo in range(0, assignments.shape[0], PROFILE_BLOCK):
        _, lat = oracle_all_pure_latencies(batch, assignments[lo : lo + PROFILE_BLOCK])
        np.minimum(best1, lat.sum(axis=2).min(axis=1), out=best1)
        np.minimum(best2, lat.max(axis=2).min(axis=1), out=best2)
    return best1, best2


def oracle_equilibrium_profiles(batch, *, tol=1e-9, assignments=None):
    """Every pure NE plus the interior fully mixed NE, grouped by game."""
    n, m = batch.num_users, batch.num_links
    if assignments is None:
        assignments = enumerate_assignments(n, m)
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    num_pure = np.zeros(len(batch), dtype=np.int64)
    game_parts, row_parts = [], []
    for lo in range(0, assignments.shape[0], PROFILE_BLOCK):
        sig = assignments[lo : lo + PROFILE_BLOCK]
        mask = oracle_sweep_pure_nash_mask(
            sig, batch.weights, batch.capacities, batch.initial_traffic, tol=tol
        )
        num_pure += mask.sum(axis=1)
        block_game, block_row = np.nonzero(mask)
        game_parts.append(block_game)
        row_parts.append(block_row + lo)
    pure_game = np.concatenate(game_parts)
    pure_row = np.concatenate(row_parts)
    onehot = np.zeros((pure_game.size, n, m))
    onehot[np.arange(pure_game.size)[:, None],
           np.arange(n)[None, :],
           assignments[pure_row]] = 1.0
    fm_games = np.flatnonzero(fm.exists)
    fm_probs = normalize_rows(fm.probabilities[fm_games])
    game_index = np.concatenate([pure_game, fm_games])
    probabilities = np.concatenate([onehot, fm_probs]) if fm_games.size else onehot
    order = np.argsort(game_index, kind="stable")
    return EquilibriumStack(
        game_index=game_index[order],
        probabilities=probabilities[order],
        num_pure=num_pure,
        fmne_exists=fm.exists,
    )


def oracle_empirical_ratios(batch, *, tol=1e-9):
    """Worst ``(SC1/OPT1, SC2/OPT2)`` over each game's equilibria."""
    assignments = enumerate_assignments(batch.num_users, batch.num_links)
    stack = oracle_equilibrium_profiles(batch, tol=tol, assignments=assignments)
    o1, o2 = oracle_social_optima(batch, assignments)
    gidx = stack.game_index
    costs = batch_min_expected_latencies(
        stack.probabilities,
        batch.weights[gidx],
        batch.capacities[gidx],
        batch.initial_traffic[gidx],
    )
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
