"""Tests for the Milchtaich counterexample machinery (E12 core)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.substrates.milchtaich import (
    WITNESS_TABLES,
    WITNESS_WEIGHTS,
    canonical_counterexample,
    multiplicative_pne_sweep,
    search_no_pne_instance,
)
from repro.substrates.player_specific import PlayerSpecificGame


class TestStoredWitness:
    def test_witness_verifies(self):
        report = canonical_counterexample()
        assert report.verify()

    def test_witness_has_no_pure_nash_exhaustively(self):
        game = canonical_counterexample().game
        assert game.pure_nash_profiles() == []

    def test_every_profile_has_a_strict_defector(self):
        game = canonical_counterexample().game
        from repro.model.social import enumerate_assignments

        for row in enumerate_assignments(3, 3):
            dev = game.deviation_costs(row)
            current = dev[np.arange(3), row]
            assert (dev.min(axis=1) < current - 1e-12).any()

    def test_witness_tables_monotone(self):
        for player_tables in WITNESS_TABLES:
            for link_costs in player_tables:
                assert list(link_costs) == sorted(link_costs)

    def test_witness_weights(self):
        assert WITNESS_WEIGHTS == (1, 2, 3)

    def test_best_response_dynamics_never_converges(self):
        """No PNE means dynamics must run out of budget from any start."""
        game = canonical_counterexample().game
        for start in ([0, 0, 0], [1, 2, 0], [2, 2, 2]):
            _, converged, _ = game.best_response_dynamics(start, max_steps=500)
            assert not converged

    def test_cached(self):
        assert canonical_counterexample() is canonical_counterexample()


class TestConstraintSearch:
    def test_rederives_a_witness(self):
        """The exact search reproduces a no-PNE instance from scratch.

        Restarts run on a backtracking-step budget, not a clock, so the
        count is exact: seed 2's first five restarts give up and the
        sixth finds a witness selection.
        """
        report = search_no_pne_instance(seed=2)
        assert report.verify()
        assert report.tries == 6
        np.testing.assert_array_equal(
            report.game.weights, np.asarray(WITNESS_WEIGHTS)
        )

    def test_restart_budget_exhausted(self):
        with pytest.raises(SolverError, match="within 5 restarts"):
            search_no_pne_instance(seed=2, max_restarts=5)


class TestMultiplicativeSweep:
    def test_all_multiplicative_instances_have_pne(self):
        """The separation: the paper's cost family never loses pure NE."""
        assert multiplicative_pne_sweep(num_instances=120, seed=0) == 120

    def test_deterministic(self):
        a = multiplicative_pne_sweep(num_instances=30, seed=4)
        b = multiplicative_pne_sweep(num_instances=30, seed=4)
        assert a == b

    def test_matches_witness_shape(self):
        """Same weights/links as the witness — only the cost family differs."""
        hits = multiplicative_pne_sweep(
            num_instances=40, weights=WITNESS_WEIGHTS, num_links=3, seed=1
        )
        assert hits == 40
