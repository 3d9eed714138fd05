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
capacity matrix iff every such loop has negative total log-load-ratio —
checked exactly by :func:`realize_cycle`, which also reconstructs a
witness capacity matrix by longest-path labelling when feasible.

Two structural facts the library establishes with this machinery:

* for **equal weights** no improvement cycle exists at all (the ordinal
  potential of :func:`repro.equilibria.potential.ordinal_potential_symmetric`);
* for (n=3, m=3) **every simple cycle of length <= 6 is unrealisable**
  regardless of the capacity matrix (checked against the per-user loop
  criterion over weight draws; see experiment E6) — Monien's cycle needs
  longer loops, more users, or initial traffic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

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
    *,
    margin: float = 0.05,
) -> np.ndarray | None:
    """Capacities making *states* a better-response cycle, or ``None``.

    *states* must be a closed walk (``states[0] == states[-1]``) whose
    consecutive entries differ in exactly one coordinate. The returned
    ``(n, m)`` matrix realises every move as a strict improvement; ``None``
    means the cycle is unrealisable for these weights (the exact loop
    criterion failed).
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    if len(states) < 3 or states[0] != states[-1]:
        return None
    gaps: dict[int, list[tuple[int, int, float]]] = {i: [] for i in range(n)}
    for s, t in zip(states, states[1:]):
        diff = [k for k in range(n) if s[k] != t[k]]
        if len(diff) != 1:
            return None
        user = diff[0]
        a, b = s[user], t[user]
        loads = np.bincount(s, weights=w, minlength=num_links)
        gaps[user].append(
            (a, b, float(np.log((loads[b] + w[user]) / loads[a])))
        )

    caps = np.ones((n, num_links))
    neg_inf = -np.inf
    for i in range(n):
        if not gaps[i]:
            continue
        # Dense max-plus adjacency: weight[a, b] = required log-capacity gap.
        weight = np.full((num_links, num_links), neg_inf)
        for a, b, c in gaps[i]:
            weight[a, b] = max(weight[a, b], c)
        # Exact criterion: every directed loop must have strictly negative
        # total. Max-plus Floyd-Warshall finds the heaviest closed walk;
        # any diagonal >= 0 certifies a non-negative loop.
        dist = weight.copy()
        for k in range(num_links):
            dist = np.maximum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        if np.any(np.diag(dist) >= -1e-12):
            return None
        # Longest-path labelling with a strict margin realises the strict
        # inequalities; Bellman-Ford style relaxation terminates because
        # all loops are negative.
        x = np.zeros(num_links)
        edges = [(a, b, c) for a, b, c in gaps[i]]
        for _ in range(num_links + 2):
            changed = False
            for a, b, c in edges:
                need = x[a] + c + margin
                if x[b] < need:
                    x[b] = need
                    changed = True
            if not changed:
                break
        else:  # pragma: no cover - negative loops guarantee termination
            return None
        caps[i] = np.exp(x)
    return caps


@dataclass(frozen=True)
class CycleSearchResult:
    """Outcome of an improvement-cycle search."""

    found: bool
    cycles_tested: int
    game: UncertainRoutingGame | None = None
    cycle: list[tuple[int, ...]] | None = None


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
    unrealisable). Returns the first realised instance, verified against
    its actual better-response graph; ``cycles_tested`` counts the cycles
    tried, at most *max_cycles*.
    """
    rng = as_generator(seed)
    draws = [rng.uniform(0.2, 5.0, size=num_users) for _ in range(weight_draws)]
    cycles = move_cycles(num_users, num_links, max_cycle_length)
    tested = 0
    for states in itertools.islice(cycles, max_cycles):
        tested += 1
        for w in draws:
            caps = realize_cycle(states, w, num_links)
            if caps is None:
                continue
            game = UncertainRoutingGame.from_capacities(w, caps)
            witness = find_response_cycle(better_response_graph(game))
            if witness is not None:
                return CycleSearchResult(
                    found=True, cycles_tested=tested, game=game, cycle=witness
                )
    return CycleSearchResult(found=False, cycles_tested=tested)
