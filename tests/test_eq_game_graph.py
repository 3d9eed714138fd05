"""Tests for game graphs (best-/better-response edge structure)."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.game import UncertainRoutingGame
from repro.equilibria.enumeration import pure_nash_profiles
from repro.equilibria.game_graph import (
    ResponseGraph,
    best_response_graph,
    better_response_graph,
    find_response_cycle,
    sink_states,
)
from repro.generators.games import random_game
from response_oracle import graph_edges


def _mover(u, v):
    (user,) = [k for k in range(len(u)) if u[k] != v[k]]
    return user


class TestGraphStructure:
    def test_node_count(self, three_user_game):
        graph = better_response_graph(three_user_game)
        assert graph.num_states == 27

    def test_best_edges_subset_of_better(self, three_user_game):
        best = best_response_graph(three_user_game)
        better = better_response_graph(three_user_game)
        assert graph_edges(best) <= graph_edges(better)

    def test_edges_are_unilateral_moves(self, three_user_game):
        graph = better_response_graph(three_user_game)
        for u, v in graph_edges(graph):
            assert sum(a != b for a, b in zip(u, v)) == 1

    def test_edges_strictly_improve(self, three_user_game):
        from repro.model.latency import pure_latency_of_user

        graph = better_response_graph(three_user_game)
        for u, v in graph_edges(graph):
            mover = _mover(u, v)
            before = pure_latency_of_user(three_user_game, list(u), mover)
            after = pure_latency_of_user(three_user_game, list(v), mover)
            assert after < before

    def test_best_response_edges_reach_row_minimum(self, three_user_game):
        from repro.model.latency import deviation_latencies

        graph = best_response_graph(three_user_game)
        for u, v in graph_edges(graph):
            mover = _mover(u, v)
            dev = deviation_latencies(three_user_game, list(u))
            assert dev[mover, v[mover]] == pytest.approx(dev[mover].min())

    def test_limit_enforced(self):
        big = UncertainRoutingGame.from_capacities(np.ones(20), np.ones((20, 3)))
        with pytest.raises(ModelError):
            better_response_graph(big)


class TestSinks:
    def test_sinks_are_exactly_pure_nash(self):
        for seed in range(10):
            game = random_game(3, 3, seed=seed)
            graph = better_response_graph(game)
            sinks = {p.as_tuple() for p in sink_states(graph)}
            nash = {p.as_tuple() for p in pure_nash_profiles(game)}
            assert sinks == nash

    def test_best_response_sinks_match_too(self):
        game = random_game(3, 2, seed=3)
        graph = best_response_graph(game)
        sinks = {p.as_tuple() for p in sink_states(graph)}
        nash = {p.as_tuple() for p in pure_nash_profiles(game)}
        assert sinks == nash


class TestCycles:
    def test_find_cycle_none_on_dag(self):
        dag = ResponseGraph(1, 3, np.array([0, 1]), np.array([1, 2]))
        assert find_response_cycle(dag) is None

    def test_find_cycle_detects(self):
        """A cycle with a path leading into it: the witness is the loop."""
        cyc = ResponseGraph(1, 4, np.array([3, 0, 1, 2]), np.array([0, 1, 2, 0]))
        cycle = find_response_cycle(cyc)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert sorted(cycle[:-1]) == [(0,), (1,), (2,)]
        edges = graph_edges(cyc)
        assert all(step in edges for step in zip(cycle, cycle[1:]))

    def test_sampled_instances_have_acyclic_best_response_graphs(self):
        """The n=3 existence proof rests on no best-response cycles; random
        instances agree."""
        for seed in range(15):
            game = random_game(3, 3, seed=seed)
            graph = best_response_graph(game)
            assert find_response_cycle(graph) is None

    def test_every_state_reaches_a_sink(self):
        """With an acyclic response graph every trajectory ends at a NE."""
        game = random_game(3, 2, seed=8)
        graph = best_response_graph(game)
        sinks = {p.as_tuple() for p in sink_states(graph)}
        succ: dict = {}
        for u, v in graph_edges(graph):
            succ.setdefault(u, []).append(v)
        for node in graph.profiles(range(graph.num_states)):
            reachable, queue = {node}, deque([node])
            while queue:
                for nxt in succ.get(queue.popleft(), []):
                    if nxt not in reachable:
                        reachable.add(nxt)
                        queue.append(nxt)
            assert reachable & sinks
