"""Edge-case tests across modules that the main suites touch lightly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError, NotFullyMixedError
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import MixedProfile
from repro.model.social import optimum
from repro.equilibria.fully_mixed import fully_mixed_candidate
from repro.equilibria.potential import has_better_response_cycle
from repro.generators.games import random_game


class TestHasBetterResponseCycle:
    def test_small_game_exact_path(self):
        game = random_game(3, 3, seed=0)
        # Exact graph test: sampled instances have no improvement cycles.
        assert has_better_response_cycle(game) is False

    def test_large_game_sampling_path(self):
        # 4^10 states exceed the graph limit -> trajectory sampling branch.
        game = random_game(10, 4, seed=1)
        assert has_better_response_cycle(game, restarts=3, seed=0) is False

    def test_no_restarts_finds_nothing(self):
        game = random_game(10, 4, seed=1)
        assert has_better_response_cycle(game, restarts=0, seed=0) is False
        assert has_better_response_cycle(game, restarts=-2, seed=0) is False

    def test_stacked_starts_match_successive_draws(self):
        """The sampling branch draws every restart's start in one
        ``(restarts, n)`` block; that block must equal the successive
        size-``n`` draws a per-restart loop would make (odd ``n`` and
        small ``m`` exercise the generator's buffered 32-bit draws)."""
        block = np.random.default_rng(5).integers(0, 3, size=(6, 7))
        rng = np.random.default_rng(5)
        rows = [rng.integers(0, 3, size=7) for _ in range(6)]
        assert np.array_equal(block, np.stack(rows))


class TestFullyMixedEdgeCases:
    def test_profile_of_noninterior_candidate_rejected(self):
        caps = np.array([[100.0, 0.01], [100.0, 0.01]])
        game = UncertainRoutingGame.from_capacities([1.0, 1.0], caps)
        cand = fully_mixed_candidate(game)
        assert not cand.exists
        # The raw candidate has negative entries, so MixedProfile must
        # refuse to validate it.
        with pytest.raises(Exception):
            cand.profile()

    def test_two_users_two_links_boundary(self):
        """n=2 is the smallest legal game; the (n-1) divisor must behave."""
        game = UncertainRoutingGame.from_capacities(
            [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]
        )
        cand = fully_mixed_candidate(game)
        np.testing.assert_allclose(cand.probabilities, 0.5)
        assert cand.exists


class TestOptimumEdgeCases:
    def test_auto_method_selects_bb_for_large(self):
        game = random_game(14, 3, seed=2)
        result = optimum(game, "max", method="auto")
        assert result.method == "branch_and_bound"
        assert result.value > 0

    def test_auto_method_selects_exhaustive_for_small(self):
        game = random_game(4, 3, seed=3)
        result = optimum(game, "sum", method="auto")
        assert result.method == "exhaustive"

    def test_bb_on_two_users(self):
        game = random_game(2, 2, seed=4)
        ex = optimum(game, "sum", method="exhaustive").value
        bb = optimum(game, "sum", method="branch_and_bound").value
        assert bb == pytest.approx(ex)


class TestMixedProfileEdge:
    def test_single_link_rows_rejected_if_wrong_sum(self):
        with pytest.raises(Exception):
            MixedProfile([[0.7], [0.7]])

    def test_three_users_support_of_boundary(self):
        p = MixedProfile([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert list(p.support_of(0)) == [0]
        assert list(p.support_of(2)) == [0, 1]


class TestGameEdgeCases:
    def test_minimum_legal_game(self):
        game = UncertainRoutingGame.from_capacities(
            [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]
        )
        assert game.num_users == 2 and game.num_links == 2

    def test_very_asymmetric_weights(self):
        game = UncertainRoutingGame.from_capacities(
            [1e-6, 1e6], [[1.0, 1.0], [1.0, 1.0]]
        )
        from repro.equilibria.two_links import atwolinks
        from repro.equilibria.conditions import is_pure_nash

        assert is_pure_nash(game, atwolinks(game))

    def test_extreme_capacity_ratio(self):
        game = UncertainRoutingGame.from_capacities(
            [1.0, 1.0, 1.0], np.array([[1e-6, 1e6]] * 3)
        )
        from repro.equilibria.enumeration import exists_pure_nash

        assert exists_pure_nash(game)

    def test_subgame_of_subgame(self, three_user_game):
        sub = three_user_game.subgame([0, 1, 2]).subgame([0, 2])
        assert sub.num_users == 2

    def test_large_reduced_form_constructible(self):
        caps = np.random.default_rng(0).uniform(0.5, 2.0, size=(500, 50))
        game = UncertainRoutingGame.from_capacities(np.ones(500), caps)
        assert game.capacities.shape == (500, 50)


class TestKpEdgeCases:
    def test_expected_max_congestion_bad_samples(self):
        from repro.substrates.kp import expected_max_congestion

        game = UncertainRoutingGame.kp([1.0, 1.0], [1.0, 1.0])
        p = MixedProfile(np.full((2, 2), 0.5))
        with pytest.raises(ModelError):
            expected_max_congestion(game, p, exact_limit=0, num_samples=0)
