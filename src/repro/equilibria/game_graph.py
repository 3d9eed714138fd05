"""Game graphs over pure profiles (Section 3's proof instrument).

The paper defines the *game graph* of an instance: nodes are the pure
states, and there is an edge ``s -> s'`` when a user who is defecting
(unsatisfied) in ``s`` moves and is satisfied in ``s'`` — equivalently, a
defecting user moves to a *best response*. The n=3 existence proof shows
this graph has no cycles reachable by best responses, hence a sink (a
pure NE) exists.

This module materialises two edge sets over the full ``m^n`` state space
of small games:

* the **best-response graph** (the paper's game graph), and
* the **better-response graph** (any strictly improving unilateral move),
  whose acyclicity is exactly the finite improvement property used in the
  ordinal-potential discussion of Section 3.2.

Both are ``B = 1`` views of :mod:`repro.batch.pure`'s census: its edge
extraction on a batch of one, and cycles from what its Kahn peel leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.pure import batch_response_edges, kahn_residue
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import PureProfile

__all__ = [
    "ResponseGraph",
    "better_response_graph",
    "best_response_graph",
    "find_response_cycle",
    "sink_states",
]


@dataclass(frozen=True)
class ResponseGraph:
    """Response edges ``src[k] -> dst[k]`` over the ``m^n`` pure states.

    States are indexed by rank in
    :func:`~repro.model.social.enumerate_assignments` order (user 0 most
    significant); :meth:`profiles` maps ranks back to link tuples.
    """

    num_users: int
    num_links: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def num_states(self) -> int:
        return self.num_links**self.num_users

    def profiles(self, ranks) -> list[tuple[int, ...]]:
        """The link tuple of each state rank in *ranks*."""
        digits = np.unravel_index(ranks, (self.num_links,) * self.num_users)
        return list(zip(*(d.tolist() for d in digits)))


def _response_graph(
    game: UncertainRoutingGame, kind: Literal["best", "better"], tol: float
) -> ResponseGraph:
    src, dst = batch_response_edges(GameBatch.from_games([game]), kind=kind, tol=tol)
    return ResponseGraph(game.num_users, game.num_links, src, dst)


def best_response_graph(
    game: UncertainRoutingGame, *, tol: float = 1e-9
) -> ResponseGraph:
    """The paper's game graph: defecting users move to best responses."""
    return _response_graph(game, "best", tol)


def better_response_graph(
    game: UncertainRoutingGame, *, tol: float = 1e-9
) -> ResponseGraph:
    """Edges for *every* strictly improving unilateral move."""
    return _response_graph(game, "better", tol)


def find_response_cycle(graph: ResponseGraph) -> list[tuple[int, ...]] | None:
    """A directed cycle of the response graph, or ``None`` when acyclic.

    Returned as a closed walk of profiles (first == last). A
    best-response cycle refutes convergence of the paper's defection
    chains; a better-response cycle refutes the ordinal potential.
    """
    left = kahn_residue(graph.src, graph.dst, graph.num_states)
    if not left.any():
        return None
    # Every leftover state keeps a leftover predecessor, so walking
    # predecessors from any of them must close a loop.
    inner = left[graph.src] & left[graph.dst]
    pred = np.full(graph.num_states, -1, dtype=np.int64)
    pred[graph.dst[inner]] = graph.src[inner]
    state = int(np.argmax(left))
    seen: dict[int, int] = {}
    walk: list[int] = []
    while state not in seen:
        seen[state] = len(walk)
        walk.append(state)
        state = int(pred[state])
    cycle = walk[seen[state] :][::-1]
    return graph.profiles(cycle + cycle[:1])


def sink_states(graph: ResponseGraph) -> list[PureProfile]:
    """States with no outgoing response edge — exactly the pure NE."""
    out_degree = np.bincount(graph.src, minlength=graph.num_states)
    sinks = graph.profiles(np.flatnonzero(out_degree == 0))
    return [PureProfile(sink, graph.num_links) for sink in sinks]
