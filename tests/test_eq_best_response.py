"""Tests for best-/better-response dynamics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.game import UncertainRoutingGame
from repro.equilibria.best_response import (
    best_response_dynamics,
    best_responses,
    better_response_dynamics,
)
from repro.equilibria.conditions import is_pure_nash
from repro.generators.games import random_game, random_kp_game


def replay(dynamics, game, start, **kwargs):
    """The visited profiles, replayed through ``max_steps = 0..steps``.

    ``max_steps=k`` stops the run after its ``k``-th move, so the final
    profiles of the truncated runs are the trajectory, start first.
    """
    steps = dynamics(game, start, **kwargs).steps
    return [
        dynamics(game, start, max_steps=k, **kwargs).profile
        for k in range(steps + 1)
    ]


class TestBestResponses:
    def test_points_to_argmin(self, three_user_game):
        sigma = [0, 0, 0]
        br = best_responses(three_user_game, sigma)
        from repro.model.latency import deviation_latencies

        dev = deviation_latencies(three_user_game, sigma)
        np.testing.assert_array_equal(br, np.argmin(dev, axis=1))

    def test_fixed_point_is_nash(self, three_user_game):
        from repro.equilibria.enumeration import pure_nash_profiles

        for eq in pure_nash_profiles(three_user_game):
            br = best_responses(three_user_game, eq)
            # At a NE the current link attains the minimum (ties may pick a
            # lower-indexed link of equal latency).
            from repro.model.latency import deviation_latencies

            dev = deviation_latencies(three_user_game, eq)
            cur = dev[np.arange(3), eq.links]
            np.testing.assert_allclose(dev[np.arange(3), br], cur, rtol=1e-9)


class TestBestResponseDynamics:
    @pytest.mark.parametrize("schedule", ["round_robin", "max_regret"])
    def test_converges_to_nash(self, schedule):
        game = random_game(5, 3, seed=8)
        result = best_response_dynamics(game, schedule=schedule, seed=0)
        assert result.converged
        assert is_pure_nash(game, result.profile)

    def test_start_respected(self, three_user_game):
        result = best_response_dynamics(three_user_game, [0, 0, 0], seed=0)
        assert result.converged

    def test_start_not_mutated(self, three_user_game):
        start = np.array([0, 0, 0], dtype=np.intp)
        best_response_dynamics(three_user_game, start, seed=0)
        np.testing.assert_array_equal(start, [0, 0, 0])

    def test_zero_steps_when_starting_at_nash(self, three_user_game):
        from repro.equilibria.enumeration import pure_nash_profiles

        eq = pure_nash_profiles(three_user_game)[0]
        result = best_response_dynamics(three_user_game, eq)
        assert result.converged
        assert result.steps == 0
        assert result.profile == eq

    def test_history_moves_are_unilateral(self, three_user_game):
        history = replay(best_response_dynamics, three_user_game, [0, 0, 0])
        assert history[0].as_tuple() == (0, 0, 0)
        assert len(history) >= 2
        for a, b in zip(history, history[1:]):
            diff = np.sum(a.links != b.links)
            assert diff == 1

    def test_budget_exhaustion_returns_unconverged(self):
        game = random_game(6, 3, seed=1)
        result = best_response_dynamics(game, [0] * 6, max_steps=0)
        assert not result.converged

    def test_unknown_schedule_rejected(self):
        game = random_game(4, 3, seed=2)
        with pytest.raises(ModelError, match="deterministic"):
            best_response_dynamics(game, schedule="Round_Robin")

    def test_many_random_instances_converge(self):
        """The E5 evidence in miniature: dynamics always found a NE."""
        for seed in range(25):
            game = random_game(4, 3, seed=seed)
            result = best_response_dynamics(game, seed=seed)
            assert result.converged, f"instance {seed} did not converge"


class TestBetterResponseDynamics:
    def test_converges_on_kp(self):
        """Common-beliefs games have a weighted potential, so better-response
        dynamics must converge from every start."""
        for seed in range(10):
            game = random_kp_game(5, 3, seed=seed)
            result = better_response_dynamics(game, seed=seed)
            assert result.converged
            assert is_pure_nash(game, result.profile)

    def test_converged_profile_is_nash(self):
        game = random_game(4, 4, seed=2)
        result = better_response_dynamics(game, seed=5)
        if result.converged:
            assert is_pure_nash(game, result.profile)

    def test_sampled_trajectories_never_cycle(self):
        """Deterministic better-response trajectories on sampled instances
        always converge — consistent with the E6 finding that short
        improvement cycles are unrealisable in this model."""
        for seed in range(60):
            game = random_game(3, 3, concentration=0.35, seed=seed)
            result = better_response_dynamics(
                game, schedule="round_robin", max_steps=5_000, seed=seed
            )
            assert result.converged
            assert not result.cycled

    def test_cycle_detection_machinery(self):
        """Exercise the revisit detector directly: a negative tolerance
        turns ties into 'improvements', forcing an immediate revisit that
        must be reported as a cycle instead of looping to the budget."""
        game = UncertainRoutingGame.from_capacities(
            [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]
        )
        result = better_response_dynamics(
            game,
            [0, 1],
            schedule="round_robin",
            tol=-1.0,
            max_steps=1_000,
        )
        assert result.cycled
        assert not result.converged

    def test_unknown_schedule_rejected(self):
        """A typo must not silently run some other schedule and report
        its revisits as cycles."""
        game = UncertainRoutingGame.from_capacities(
            [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]
        )
        with pytest.raises(ModelError, match="deterministic"):
            better_response_dynamics(game, [0, 1], schedule="typo", tol=-1.0, seed=3)

    def test_moves_strictly_improve(self, three_user_game):
        from repro.model.latency import pure_latency_of_user

        history = replay(better_response_dynamics, three_user_game, [0, 0, 0])
        assert len(history) >= 2
        for a, b in zip(history, history[1:]):
            mover = int(np.flatnonzero(a.links != b.links)[0])
            before = pure_latency_of_user(three_user_game, a, mover)
            after = pure_latency_of_user(three_user_game, b, mover)
            assert after < before
