"""Improvement-cycle realisability analysis (Section 3.2's negative side).

The paper reports (B. Monien, personal communication [19]) that some
instance's state space contains an improvement cycle, so the game is not
an ordinal potential game. The instance itself is not reprinted, so this
module provides the machinery to *search* for one, exactly:

A cyclic sequence of unilateral moves fixes, for each participating user,
difference constraints on log effective capacities: moving user ``i``
from link ``a`` to ``b`` while the origin load (mover included) is
``L_old`` and the arrival load (mover included) is ``L_new`` strictly
improves iff

    log C[i,b] - log C[i,a] > log(L_new / L_old).

Summing a user's constraints around each loop of its own moves makes the
capacity terms telescope away, so the cycle is realisable by *some*
capacity matrix iff every such loop has negative total log-load-ratio.
:func:`repro.batch.pure.batch_realisable_cycles` decides that for a
block of walks against every weight draw in one call: it max-scatters
the gaps into per-user max-plus matrices and reads the diagonals of
their Floyd-Warshall closures. :func:`realize_cycle` is its ``B = 1``
view, and reconstructs a witness capacity matrix when feasible. Each
user's gaps are lifted by the largest margin ``0.05 * 2**-j`` that keeps
that user's loops negative, and the longest-path labels of the lifted
closure are the log capacities. (A fixed margin would reject every
feasible walk with a ``k``-move loop whose total lies in
``(-k * margin, 0)``.)
:func:`search_improvement_cycle_instance` decides :data:`CYCLE_BLOCK`
cycles per kernel call and labels and verifies only the feasible pairs.

Three structural facts the library establishes with this machinery:

* for **equal weights** no improvement cycle exists at all (the ordinal
  potential of :func:`repro.equilibria.potential.ordinal_potential_symmetric`);
* for (n=3, m=3) **every simple cycle of length <= 6 is unrealisable**
  regardless of the capacity matrix (checked against the per-user loop
  criterion over weight draws; see experiment E6) — Monien's cycle needs
  longer loops, more users, or initial traffic;
* for (n=4, m=3) **an 8-move improvement cycle exists**:
  ``search_improvement_cycle_instance(4, 3, max_cycle_length=8)`` realises
  cycle 2,418 of :func:`move_cycles` under its first weight draw
  (w ~ 3.257, 1.495, 0.397, 0.279) and verifies it on the game's
  better-response graph. User 2 never moves on it and acts as fixed
  traffic on link 0, so Monien's observation holds already at (4, 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.batch.pure import batch_cycle_gaps, batch_realisable_cycles, maxplus_closure
from repro.model.game import UncertainRoutingGame
from repro.equilibria.game_graph import better_response_graph, find_response_cycle
from repro.util.rng import RandomState, as_generator

__all__ = [
    "CycleSearchResult",
    "realize_cycle",
    "move_cycles",
    "search_improvement_cycle_instance",
]


def move_cycles(
    num_users: int, num_links: int, max_length: int
) -> Iterator[list[tuple[int, ...]]]:
    """Each simple cycle of unilateral moves with at most *max_length*
    states once, as a closed walk from its least state: a depth-first
    search from every root through states ranked above it. A move and
    its reversal count as a two-state cycle."""
    states = list(itertools.product(range(num_links), repeat=num_users))
    rank = {state: k for k, state in enumerate(states)}
    moves = [
        [
            rank[state[:user] + (link,) + state[user + 1 :]]
            for user in range(num_users)
            for link in range(num_links)
            if link != state[user]
        ]
        for state in states
    ]

    def extend(root: int, path: list[int]) -> Iterator[list[tuple[int, ...]]]:
        for nxt in moves[path[-1]]:
            if nxt == root:
                yield [states[k] for k in path] + [states[root]]
            elif nxt > root and nxt not in path and len(path) < max_length:
                path.append(nxt)
                yield from extend(root, path)
                path.pop()

    for root in range(len(states)):
        yield from extend(root, [root])


def realize_cycle(
    states: Sequence[tuple[int, ...]],
    weights: Sequence[float] | np.ndarray,
    num_links: int,
) -> np.ndarray | None:
    """Capacities making *states* a better-response cycle, or ``None``.

    *states* must be a closed walk (``states[0] == states[-1]``) whose
    consecutive entries differ in exactly one coordinate. The returned
    ``(n, m)`` matrix realises every move as a strict improvement; ``None``
    means the walk is malformed or unrealisable for these weights (the
    exact loop criterion failed). The ``B = 1`` view of
    :func:`~repro.batch.pure.batch_realisable_cycles`.
    """
    walk = np.asarray(states, dtype=np.intp)
    if walk.ndim != 2 or len(walk) < 3 or np.any(walk[0] != walk[-1]):
        return None
    if np.any((walk[1:] != walk[:-1]).sum(axis=1) != 1):
        return None
    w = np.asarray(weights, dtype=np.float64)
    if not batch_realisable_cycles(walk[None], w[None], num_links)[0, 0]:
        return None
    return _witness_capacities(walk, w, num_links)


#: Candidate per-move labelling margins, largest first.
_MARGINS = 0.05 * 0.5 ** np.arange(64)


def _witness_capacities(
    walk: np.ndarray, weights: np.ndarray, num_links: int
) -> np.ndarray:
    """Capacities realising a walk that passed the loop criterion.

    Each user's gaps are lifted by the largest margin in
    :data:`_MARGINS` that keeps all of its loops negative, so every move
    clears its gap by that margin. The longest-path labels of the lifted
    closure, from all-zero starts, are the log capacities; a user who
    never moves keeps capacity 1.
    """
    gaps = batch_cycle_gaps(walk[None], weights[None], num_links)[0, 0]
    lifted = maxplus_closure(gaps + _MARGINS[:, None, None, None])
    negative = np.all(np.diagonal(lifted, axis1=-2, axis2=-1) < 0, axis=-1)
    users = np.arange(gaps.shape[0])
    dist = lifted[negative.argmax(axis=0), users]  # (n, m, m)
    return np.exp(np.maximum(dist.max(axis=-2), 0.0))


@dataclass(frozen=True)
class CycleSearchResult:
    """Outcome of an improvement-cycle search."""

    found: bool
    cycles_tested: int
    game: UncertainRoutingGame | None = None
    cycle: list[tuple[int, ...]] | None = None


#: Move cycles decided per kernel call. Bounds the working set: deciding
#: all 2,889 of E6's cycles in one call adds ~24 MB to a process's peak
#: memory, a block of 128 about 1 MB.
CYCLE_BLOCK = 128


def search_improvement_cycle_instance(
    num_users: int = 3,
    num_links: int = 3,
    *,
    max_cycle_length: int = 6,
    weight_draws: int = 12,
    max_cycles: int = 50_000,
    seed: RandomState = 0,
) -> CycleSearchResult:
    """Exhaustively test short move cycles for realisability.

    Enumerates simple move cycles up to *max_cycle_length* states
    (:func:`move_cycles`) and tries to realise each with *weight_draws*
    sampled weight vectors (equal weights are skipped — provably
    unrealisable). Returns the first realised instance, in (cycle, draw)
    order, verified against its actual better-response graph;
    ``cycles_tested`` counts the cycles tried, at most *max_cycles*.
    Each block of :data:`CYCLE_BLOCK` cycles is decided against every
    draw in one :func:`~repro.batch.pure.batch_realisable_cycles` call;
    only the realisable pairs are labelled and verified.
    """
    rng = as_generator(seed)
    draws = np.array(
        [rng.uniform(0.2, 5.0, size=num_users) for _ in range(weight_draws)]
    ).reshape(weight_draws, num_users)
    cycles = itertools.islice(
        move_cycles(num_users, num_links, max_cycle_length), max_cycles
    )
    tested = 0
    while block := list(itertools.islice(cycles, CYCLE_BLOCK)):
        # Pad every walk to the longest with its closing state: a step
        # that changes nothing adds no constraint.
        length = max(len(states) for states in block)
        walks = np.array(
            [states + states[-1:] * (length - len(states)) for states in block]
        )
        realisable = batch_realisable_cycles(walks, draws, num_links)
        for c, d in zip(*np.nonzero(realisable)):
            caps = _witness_capacities(walks[c], draws[d], num_links)
            game = UncertainRoutingGame.from_capacities(draws[d], caps)
            witness = find_response_cycle(better_response_graph(game))
            if witness is not None:
                return CycleSearchResult(
                    found=True,
                    cycles_tested=tested + int(c) + 1,
                    game=game,
                    cycle=witness,
                )
        tested += len(block)
    return CycleSearchResult(found=False, cycles_tested=tested)
