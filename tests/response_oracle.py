"""Reference response-graph edges for the game-graph and census tests.

:func:`oracle_edges` is the per-state loop the game graphs were built
with before they became ``B = 1`` views of
:func:`repro.batch.pure.batch_response_edges`: one
:func:`~repro.model.latency.deviation_latencies` call per state and one
user at a time. It shares no code with the vectorised extraction, so
agreement between the two is evidence for both. :func:`has_cycle` is
the matching stdlib acyclicity check.
"""

from __future__ import annotations

from collections import defaultdict
from graphlib import CycleError, TopologicalSorter

import numpy as np

from repro.equilibria.game_graph import ResponseGraph
from repro.model.game import UncertainRoutingGame
from repro.model.latency import deviation_latencies
from repro.model.social import enumerate_assignments

Edge = tuple[tuple[int, ...], tuple[int, ...]]


def oracle_edges(
    game: UncertainRoutingGame, kind: str, tol: float = 1e-9
) -> set[Edge]:
    """Best- or better-response edges as ``(profile, successor)`` pairs."""
    n = game.num_users
    edges: set[Edge] = set()
    for row in enumerate_assignments(n, game.num_links):
        node = tuple(int(x) for x in row)
        dev = deviation_latencies(game, row)
        current = dev[np.arange(n), row]
        scale = np.maximum(current, 1.0)
        for i in range(n):
            improving = np.flatnonzero(dev[i] < current[i] - tol * scale[i])
            if improving.size == 0:
                continue
            if kind == "best":
                best = dev[i].min()
                targets = improving[
                    dev[i, improving] <= best + tol * max(best, 1.0)
                ]
            else:
                targets = improving
            for link in targets:
                succ = list(node)
                succ[i] = int(link)
                edges.add((node, tuple(succ)))
    return edges


def has_cycle(edges: set[Edge]) -> bool:
    """Whether the directed graph with these edges has a cycle."""
    preds: dict = defaultdict(set)
    for u, v in edges:
        preds[v].add(u)
    try:
        TopologicalSorter(preds).prepare()
    except CycleError:
        return True
    return False


def graph_edges(graph: ResponseGraph) -> set[Edge]:
    """A :class:`ResponseGraph`'s edges as ``(profile, successor)`` pairs."""
    return set(zip(graph.profiles(graph.src), graph.profiles(graph.dst)))
