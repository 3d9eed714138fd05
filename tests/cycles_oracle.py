"""Reference cycle realisability for the cycle-search tests.

:func:`oracle_realize` is the per-walk loop ``realize_cycle`` ran before
it became the ``B = 1`` view of
:func:`repro.batch.pure.batch_realisable_cycles`: one
:func:`numpy.bincount` per step, one max-plus Floyd-Warshall per user,
then a Bellman-Ford labelling. Its labelling margin is derived per user
(halved from 0.05 until the lifted loops are all negative) instead of
the fixed 0.05 that used to reject some walks its own criterion
accepts. It shares no code with the kernel, so agreement between the
two is evidence for both. :func:`oracle_search` is the per-pair search
loop driven by it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from repro.analysis.cycles import CycleSearchResult, move_cycles
from repro.equilibria.game_graph import better_response_graph, find_response_cycle
from repro.model.game import UncertainRoutingGame
from repro.util.rng import as_generator


class OracleRealisation(NamedTuple):
    realisable: bool
    #: ``(n, m)`` closure diagonals: the heaviest loop through each link
    #: of each user's own moves (``-inf`` where there is none).
    loop_totals: np.ndarray
    capacities: np.ndarray | None


def _floyd_warshall(weight: np.ndarray) -> np.ndarray:
    dist = weight.copy()
    for k in range(len(weight)):
        dist = np.maximum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def oracle_realize(
    states: Sequence[tuple[int, ...]],
    weights: Sequence[float] | np.ndarray,
    num_links: int,
) -> OracleRealisation:
    """The loop criterion, loop totals and witness for one closed walk."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    gaps: dict[int, list[tuple[int, int, float]]] = {i: [] for i in range(n)}
    for s, t in zip(states, states[1:]):
        diff = [k for k in range(n) if s[k] != t[k]]
        assert len(diff) == 1, "the oracle takes unilateral closed walks"
        user = diff[0]
        a, b = s[user], t[user]
        loads = np.bincount(s, weights=w, minlength=num_links)
        gaps[user].append(
            (a, b, float(np.log((loads[b] + w[user]) / loads[a])))
        )

    totals = np.full((n, num_links), -np.inf)
    weight = np.full((n, num_links, num_links), -np.inf)
    for i in range(n):
        for a, b, c in gaps[i]:
            weight[i, a, b] = max(weight[i, a, b], c)
        if gaps[i]:
            totals[i] = np.diag(_floyd_warshall(weight[i]))
    if np.any(totals >= -1e-12):
        return OracleRealisation(False, totals, None)

    caps = np.ones((n, num_links))
    for i in range(n):
        if not gaps[i]:
            continue
        margin = 0.05
        while np.any(np.diag(_floyd_warshall(weight[i] + margin)) >= 0):
            margin /= 2
        x = np.zeros(num_links)
        for _ in range(num_links + 2):
            changed = False
            for a, b, c in gaps[i]:
                need = x[a] + c + margin
                if x[b] < need:
                    x[b] = need
                    changed = True
            if not changed:
                break
        else:  # pragma: no cover - negative lifted loops bound the passes
            raise AssertionError("labelling did not settle")
        caps[i] = np.exp(x)
    return OracleRealisation(True, totals, caps)


def oracle_search(
    num_users: int,
    num_links: int,
    *,
    max_cycle_length: int,
    weight_draws: int,
    max_cycles: int,
    seed: int = 0,
) -> CycleSearchResult:
    """``search_improvement_cycle_instance`` as one loop over pairs."""
    rng = as_generator(seed)
    draws = [rng.uniform(0.2, 5.0, size=num_users) for _ in range(weight_draws)]
    cycles = move_cycles(num_users, num_links, max_cycle_length)
    tested = 0
    for states in itertools.islice(cycles, max_cycles):
        tested += 1
        for w in draws:
            caps = oracle_realize(states, w, num_links).capacities
            if caps is None:
                continue
            game = UncertainRoutingGame.from_capacities(w, caps)
            witness = find_response_cycle(better_response_graph(game))
            if witness is not None:
                return CycleSearchResult(
                    found=True, cycles_tested=tested, game=game, cycle=witness
                )
    return CycleSearchResult(found=False, cycles_tested=tested)
