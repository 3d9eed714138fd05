"""Potential-function analysis (Section 3.2).

The paper reports two structural negatives for the general model, both of
which this module makes checkable:

* **No exact potential.** By Monderer & Shapley, a game admits an exact
  potential iff every two-player four-cycle of unilateral deviations has
  zero net deviator cost change. :func:`exact_potential_cycle_gap`
  evaluates that cycle sum over sampled (or exhaustively, all) 4-cycles;
  a non-zero gap certifies non-existence.
* **No ordinal potential.** An ordinal potential exists iff the game has
  the finite improvement property, i.e. its better-response graph is
  acyclic. :func:`has_better_response_cycle` searches for a cycle, which
  reproduces B. Monien's observation that the state space of an instance
  of the game contains an improvement cycle.

For contrast, the *common-beliefs* restriction of the model (which covers
the KP-model) is a weighted potential game:
:func:`weighted_potential_common_beliefs` implements

    Phi(sigma) = sum_l (L_l^2 + sum_{i on l} w_i^2) / (2 c^l)

which satisfies ``Phi(s') - Phi(s) = w_i (lambda_i(s') - lambda_i(s))``
for a unilateral move of user ``i`` — so better-response dynamics always
converge there.

Every evaluator here is the ``B = 1`` view of a batched kernel in
:mod:`repro.batch.pure`: the potentials and their one-move identity
checks, the four-cycle gap (both the exhaustive enumeration and the
sampled estimate, whose RNG stream is replayed draw for draw), and the
small-game acyclicity test, which delegates to the stacked
response-cycle census instead of materialising a graph object. The
large-game cycle probe runs its restarts as one lockstep stack of
:mod:`repro.batch.dynamics`.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.dynamics import batch_better_response_dynamics
from repro.batch.pure import (
    MAX_CENSUS_STATES,
    batch_four_cycle_gaps,
    batch_ordinal_potential_symmetric,
    batch_response_cycle_census,
    batch_sampled_cycle_gaps,
    batch_verify_ordinal_potential_symmetric,
    batch_verify_weighted_potential,
    batch_weighted_potential,
    _four_cycle_inputs,
)
from repro.errors import AlgorithmDomainError
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import AssignmentLike, as_assignment
from repro.model.social import enumerate_assignments
from repro.util.rng import RandomState, as_generator

__all__ = [
    "exact_potential_cycle_gap",
    "has_better_response_cycle",
    "weighted_potential_common_beliefs",
    "verify_weighted_potential",
    "ordinal_potential_symmetric",
    "verify_ordinal_potential_symmetric",
]


def _exhaustive_cycle_blocks(
    num_users: int, num_links: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All two-player four-cycles: (pairs, bases, links_i, links_j) rows.

    Enumerates every unordered user pair, every assignment of the
    remaining users, and every ordered link pair for each mover — the
    same cycle set the sequential loop visited (order is irrelevant: the
    caller reduces with ``max``).
    """
    n, m = num_users, num_links
    link_pairs = np.array(
        list(itertools.permutations(range(m), 2)), dtype=np.intp
    )
    lp = link_pairs.shape[0]
    pair_rows = []
    base_rows = []
    for i, j in itertools.combinations(range(n), 2):
        rest = [u for u in range(n) if u not in (i, j)]
        if rest:
            rest_assignments = enumerate_assignments(len(rest), m)
        else:
            rest_assignments = np.zeros((1, 0), dtype=np.intp)
        bases = np.zeros((rest_assignments.shape[0], n), dtype=np.intp)
        bases[:, rest] = rest_assignments
        base_rows.append(bases)
        pair_rows.append(np.broadcast_to([i, j], (bases.shape[0], 2)))
    pairs = np.concatenate(pair_rows)
    bases = np.concatenate(base_rows)
    r = pairs.shape[0]
    # Cross every (pair, base) row with every (li, lj) combination.
    pairs = np.repeat(pairs, lp * lp, axis=0)
    bases = np.repeat(bases, lp * lp, axis=0)
    links_i = np.tile(np.repeat(link_pairs, lp, axis=0), (r, 1))
    links_j = np.tile(np.tile(link_pairs, (lp, 1)), (r, 1))
    return pairs, bases, links_i, links_j


def exact_potential_cycle_gap(
    game: UncertainRoutingGame,
    *,
    num_samples: int | None = None,
    seed: RandomState = None,
) -> float:
    """Maximum |cycle sum| over two-player four-cycles.

    Zero for every 4-cycle iff the game admits an exact potential
    (Monderer & Shapley 1996, Thm 2.8). With ``num_samples=None`` and a
    small game, all 4-cycles are enumerated; otherwise *num_samples*
    random cycles are evaluated. Either way the cycles are walked by the
    batched evaluator :func:`repro.batch.pure.batch_four_cycle_gaps` in
    one vectorised pass.
    """
    n, m = game.num_users, game.num_links
    pairs = list(itertools.combinations(range(n), 2))
    link_pairs = list(itertools.permutations(range(m), 2))
    exhaustive_count = len(pairs) * len(link_pairs) ** 2 * m ** max(n - 2, 0)

    batch = GameBatch.from_games([game])
    if num_samples is None and exhaustive_count <= 200_000:
        pair_arr, bases, links_i, links_j = _exhaustive_cycle_blocks(n, m)
        sigma0, move_users, move_links = _four_cycle_inputs(
            pair_arr, bases, links_i, links_j
        )
        gaps = batch_four_cycle_gaps(
            batch.weights,
            batch.capacities,
            batch.initial_traffic,
            np.zeros(sigma0.shape[0], dtype=np.intp),
            sigma0,
            move_users,
            move_links,
        )
        return float(np.abs(gaps).max(initial=0.0))

    samples = 1_000 if num_samples is None else int(num_samples)
    worst = batch_sampled_cycle_gaps(
        batch, [as_generator(seed)], num_samples=samples
    )
    return float(worst[0])


def has_better_response_cycle(
    game: UncertainRoutingGame,
    *,
    restarts: int = 20,
    seed: RandomState = None,
) -> bool:
    """Search for a better-response (improvement) cycle.

    Small games get the exact census (the ``B = 1`` view of
    :func:`repro.batch.pure.batch_response_cycle_census`); larger games
    are probed with *restarts* round-robin better-response trajectories
    from random starts, stacked into one lockstep run, whose revisits
    certify cycles (a ``False`` is then only "none found").
    """
    if game.num_links**game.num_users <= MAX_CENSUS_STATES:
        batch = GameBatch.from_games([game])
        return bool(batch_response_cycle_census(batch, kind="better")[0])
    if restarts <= 0:
        return False
    starts = as_generator(seed).integers(
        0, game.num_links, size=(restarts, game.num_users)
    )
    result = batch_better_response_dynamics(
        GameBatch.from_games([game] * restarts), starts, schedule="round_robin"
    )
    return bool(result.cycled.any())


def weighted_potential_common_beliefs(
    game: UncertainRoutingGame, assignment: AssignmentLike
) -> float:
    """The weighted potential for common-beliefs games.

    ``Phi(sigma) = sum_l (L_l^2 + sum_{i on l} w_i^2) / (2 c^l)`` with
    ``L_l`` the full load (initial traffic included). A unilateral move of
    user ``i`` changes ``Phi`` by exactly ``w_i`` times the user's latency
    change, so ``Phi`` orders improvement paths and the restricted model
    always has pure NE. The ``B = 1`` view of
    :func:`repro.batch.pure.batch_weighted_potential`.
    """
    if not game.has_common_beliefs():
        raise AlgorithmDomainError(
            "the weighted potential requires common beliefs "
            "(all users sharing one effective-capacity row)"
        )
    sigma = as_assignment(assignment, game.num_users, game.num_links)
    batch = GameBatch.from_games([game])
    return float(batch_weighted_potential(batch, sigma[None, :])[0])


def ordinal_potential_symmetric(
    game: UncertainRoutingGame, assignment: AssignmentLike
) -> float:
    """An ordinal potential for the *symmetric users* case — a result this
    reproduction adds on top of the paper.

    With equal weights ``w`` let ``k_l`` be the number of users on link
    ``l`` and define

        Phi(sigma) = sum_l log(k_l!) - sum_i log C[i, sigma_i].

    For a unilateral move of user ``i`` from ``a`` to ``b``::

        Delta Phi = log(k_b + 1) - log(k_a) - (log C[i,b] - log C[i,a])
                  = log lambda_i(after) - log lambda_i(before),

    because ``lambda = w k / C`` and the common weight cancels. So Phi
    strictly decreases exactly on strictly improving moves: the
    symmetric-user game has the finite improvement property, and Monien's
    improvement cycle (Section 3.2) necessarily involves *unequal*
    weights.

    Requires zero initial traffic (loads must be pure counts). The
    ``B = 1`` view of
    :func:`repro.batch.pure.batch_ordinal_potential_symmetric`.
    """
    if not game.has_symmetric_users():
        raise AlgorithmDomainError(
            "the ordinal potential requires symmetric users (equal weights)"
        )
    sigma = as_assignment(assignment, game.num_users, game.num_links)
    batch = GameBatch.from_games([game])
    return float(batch_ordinal_potential_symmetric(batch, sigma[None, :])[0])


def verify_ordinal_potential_symmetric(
    game: UncertainRoutingGame,
    assignment: AssignmentLike,
    user: int,
    new_link: int,
    *,
    rtol: float = 1e-9,
) -> bool:
    """Check ``Delta Phi = log lambda_after - log lambda_before`` for one move."""
    sigma = as_assignment(assignment, game.num_users, game.num_links)
    if not game.has_symmetric_users():
        raise AlgorithmDomainError(
            "the ordinal potential requires symmetric users (equal weights)"
        )
    verdict = batch_verify_ordinal_potential_symmetric(
        GameBatch.from_games([game]),
        sigma[None, :],
        np.asarray([user], dtype=np.intp),
        np.asarray([new_link], dtype=np.intp),
        rtol=rtol,
    )
    return bool(verdict[0])


def verify_weighted_potential(
    game: UncertainRoutingGame,
    assignment: AssignmentLike,
    user: int,
    new_link: int,
    *,
    rtol: float = 1e-9,
) -> bool:
    """Check ``Delta Phi = w_i * Delta lambda_i`` for one unilateral move."""
    if not game.has_common_beliefs():
        raise AlgorithmDomainError(
            "the weighted potential requires common beliefs "
            "(all users sharing one effective-capacity row)"
        )
    sigma = as_assignment(assignment, game.num_users, game.num_links)
    verdict = batch_verify_weighted_potential(
        GameBatch.from_games([game]),
        sigma[None, :],
        np.asarray([user], dtype=np.intp),
        np.asarray([new_link], dtype=np.intp),
        rtol=rtol,
    )
    return bool(verdict[0])
