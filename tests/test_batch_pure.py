"""Differential and property tests for the batched pure-strategy kernels.

Every kernel in ``repro.batch.pure`` promises bit-parity with its
single-game counterpart: same trajectories, same tie-breaks, same
floats. These tests pin that promise slice by slice — the single-game
functions used as references are themselves the ``B = 1`` views, so the
real independent reference is the vendored sequential implementation in
``benchmarks/pure_seed_baseline.py``, which the frozen-baseline tests
exercise; here the focus is batch-vs-slice agreement, masks, edge
cases and the census machinery, whose edges are also checked against
the per-state reference loop in ``tests/response_oracle.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.container import GameBatch
from repro.batch.pure import (
    batch_asymmetric,
    batch_atwolinks,
    batch_auniform,
    batch_nashify,
    batch_nashify_common_beliefs,
    batch_ordinal_potential_symmetric,
    batch_response_cycle_census,
    batch_sampled_cycle_gaps,
    batch_verify_ordinal_potential_symmetric,
    batch_verify_weighted_potential,
    batch_weighted_potential,
)
from repro.batch.kernels import batch_pure_nash_mask
from repro.equilibria.conditions import is_pure_nash
from repro.equilibria.game_graph import (
    best_response_graph,
    better_response_graph,
    find_response_cycle,
)
from repro.equilibria.potential import (
    exact_potential_cycle_gap,
    has_better_response_cycle,
    ordinal_potential_symmetric,
    verify_ordinal_potential_symmetric,
    verify_weighted_potential,
    weighted_potential_common_beliefs,
)
from repro.equilibria.symmetric import asymmetric
from repro.equilibria.two_links import atwolinks
from repro.equilibria.uniform import auniform
from repro.errors import AlgorithmDomainError, ModelError
from repro.generators.games import (
    random_game,
    random_kp_game,
    random_symmetric_game,
    random_two_link_game,
    random_uniform_beliefs_game,
)
from repro.util.rng import as_generator, stable_seed
from response_oracle import graph_edges, has_cycle, oracle_edges


def _seeds(tag, count):
    return [stable_seed("batch-pure", tag, i) for i in range(count)]


class TestParityGenerators:
    def test_from_seeds_symmetric_matches_generator_bitwise(self):
        seeds = _seeds("sym", 9)
        batch = GameBatch.from_seeds_symmetric(seeds, 5, 3)
        for i, s in enumerate(seeds):
            game = random_symmetric_game(5, 3, seed=s)
            assert np.array_equal(batch.weights[i], game.weights)
            assert np.array_equal(batch.capacities[i], game.capacities)
            assert np.all(batch.initial_traffic[i] == 0.0)

    def test_from_seeds_kp_matches_generator_bitwise(self):
        seeds = _seeds("kp", 9)
        batch = GameBatch.from_seeds_kp(seeds, 4, 3)
        for i, s in enumerate(seeds):
            game = random_kp_game(4, 3, seed=s)
            assert np.array_equal(batch.weights[i], game.weights)
            assert np.array_equal(batch.capacities[i], game.capacities)

    def test_validation(self):
        with pytest.raises(ModelError):
            GameBatch.from_seeds_symmetric([0, 1], 1, 3)
        with pytest.raises(ModelError):
            GameBatch.from_seeds_symmetric([0, 1], 4, 3, weight=0.0)
        with pytest.raises(ModelError):
            GameBatch.from_seeds_kp([0, 1], 4, 1)


class TestLockstepSolvers:
    def test_atwolinks_slicewise(self):
        seeds = _seeds("e1", 14)
        batch = GameBatch.from_seeds(seeds, 6, 2, with_initial_traffic=True)
        profiles = batch_atwolinks(batch)
        for i, s in enumerate(seeds):
            game = random_two_link_game(6, with_initial_traffic=True, seed=s)
            assert np.array_equal(profiles[i], atwolinks(game).links)

    def test_asymmetric_slicewise(self):
        seeds = _seeds("e2", 14)
        batch = GameBatch.from_seeds_symmetric(seeds, 6, 3)
        profiles = batch_asymmetric(batch)
        for i, s in enumerate(seeds):
            game = random_symmetric_game(6, 3, seed=s)
            assert np.array_equal(profiles[i], asymmetric(game).links)

    def test_auniform_slicewise(self):
        seeds = _seeds("e3", 14)
        batch = GameBatch.from_seeds_uniform_beliefs(
            seeds, 7, 4, with_initial_traffic=True
        )
        profiles = batch_auniform(batch)
        for i, s in enumerate(seeds):
            game = random_uniform_beliefs_game(
                7, 4, with_initial_traffic=True, seed=s
            )
            assert np.array_equal(profiles[i], auniform(game).links)

    def test_all_profiles_are_nash(self):
        seeds = _seeds("nash", 10)
        batch = GameBatch.from_seeds(seeds, 5, 2, with_initial_traffic=True)
        profiles = batch_atwolinks(batch)
        mask = batch_pure_nash_mask(
            profiles, batch.weights, batch.capacities, batch.initial_traffic
        )
        assert mask.all()
        for i in range(len(batch)):
            assert is_pure_nash(batch.game(i), profiles[i])

    def test_domain_errors(self):
        three_links = GameBatch.from_seeds(_seeds("d", 2), 3, 3)
        with pytest.raises(AlgorithmDomainError):
            batch_atwolinks(three_links)
        with pytest.raises(AlgorithmDomainError):
            batch_asymmetric(three_links)  # unequal weights
        with pytest.raises(AlgorithmDomainError):
            batch_auniform(three_links)  # non-uniform beliefs


class TestPotentialKernels:
    def test_weighted_potential_slicewise(self):
        seeds = _seeds("wp", 12)
        batch = GameBatch.from_seeds_kp(seeds, 5, 3)
        rng = as_generator(0)
        sigma = rng.integers(0, 3, size=(12, 5))
        phi = batch_weighted_potential(batch, sigma)
        for i, s in enumerate(seeds):
            game = random_kp_game(5, 3, seed=s)
            assert phi[i] == weighted_potential_common_beliefs(game, sigma[i])

    def test_ordinal_potential_slicewise(self):
        seeds = _seeds("op", 12)
        batch = GameBatch.from_seeds_symmetric(seeds, 5, 3)
        rng = as_generator(1)
        sigma = rng.integers(0, 3, size=(12, 5))
        phi = batch_ordinal_potential_symmetric(batch, sigma)
        for i in range(12):
            assert phi[i] == ordinal_potential_symmetric(batch.game(i), sigma[i])

    def test_verify_kernels_slicewise(self):
        seeds = _seeds("vf", 12)
        kp = GameBatch.from_seeds_kp(seeds, 4, 3)
        sym = GameBatch.from_seeds_symmetric(seeds, 4, 3)
        rng = as_generator(2)
        sigma = rng.integers(0, 3, size=(12, 4))
        users = rng.integers(0, 4, size=12).astype(np.intp)
        links = rng.integers(0, 3, size=12).astype(np.intp)
        got_kp = batch_verify_weighted_potential(kp, sigma, users, links)
        got_sym = batch_verify_ordinal_potential_symmetric(
            sym, sigma, users, links
        )
        for i, s in enumerate(seeds):
            assert got_kp[i] == verify_weighted_potential(
                random_kp_game(4, 3, seed=s),
                sigma[i], int(users[i]), int(links[i]),
            )
            assert got_sym[i] == verify_ordinal_potential_symmetric(
                random_symmetric_game(4, 3, seed=s),
                sigma[i], int(users[i]), int(links[i]),
            )

    def test_verify_identities_hold(self):
        """The structural facts themselves: both identities verify on
        their whole domains."""
        seeds = _seeds("vt", 20)
        kp = GameBatch.from_seeds_kp(seeds, 5, 4)
        sym = GameBatch.from_seeds_symmetric(seeds, 5, 4)
        rng = as_generator(3)
        sigma = rng.integers(0, 4, size=(20, 5))
        users = rng.integers(0, 5, size=20).astype(np.intp)
        links = rng.integers(0, 4, size=20).astype(np.intp)
        assert batch_verify_weighted_potential(kp, sigma, users, links).all()
        assert batch_verify_ordinal_potential_symmetric(
            sym, sigma, users, links
        ).all()

    def test_domain_errors(self):
        general = GameBatch.from_seeds(_seeds("dg", 3), 4, 3)
        sigma = np.zeros((3, 4), dtype=np.intp)
        with pytest.raises(AlgorithmDomainError):
            batch_weighted_potential(general, sigma)
        with pytest.raises(AlgorithmDomainError):
            batch_ordinal_potential_symmetric(general, sigma)

    def test_sampled_gaps_slicewise(self):
        seeds = _seeds("gap", 8)
        batch = GameBatch.from_seeds(seeds, 3, 3)
        worst = batch_sampled_cycle_gaps(batch, seeds, num_samples=60)
        for i, s in enumerate(seeds):
            game = random_game(3, 3, seed=s)
            assert worst[i] == exact_potential_cycle_gap(
                game, num_samples=60, seed=s
            )

    def test_exhaustive_gap_agrees_with_wide_sampling(self):
        """The exhaustive enumeration upper-bounds any sampled estimate
        of the same game and is reached in the small (3, 3) cell."""
        game = random_game(3, 3, seed=7)
        exhaustive = exact_potential_cycle_gap(game)
        sampled = exact_potential_cycle_gap(game, num_samples=4_000, seed=0)
        assert sampled <= exhaustive + 1e-12
        assert exhaustive > 1e-9  # no exact potential

    def test_gap_zero_for_equal_weight_kp(self):
        """Equal-weight common-beliefs games admit an *exact* potential
        (the weighted potential divided by the common weight), so every
        four-cycle sum must vanish — the positive control for the
        Monderer-Shapley criterion."""
        from repro.model.game import UncertainRoutingGame

        game = UncertainRoutingGame.kp([2.0, 2.0, 2.0], [1.5, 2.5, 3.0])
        assert exact_potential_cycle_gap(game) < 1e-9


class TestResponseCycleCensus:
    def test_matches_graph_census_slicewise(self):
        """Against the per-state reference loop: the same edge sets,
        the same verdicts, and witnesses that only follow its edges —
        for both edge rules, with and without forced ties (tol < 0)."""
        batch = GameBatch.from_seeds(_seeds("census", 16), 3, 3)
        graphs = {"best": best_response_graph, "better": better_response_graph}
        for kind, tol in itertools.product(graphs, (1e-9, -0.05)):
            census = batch_response_cycle_census(batch, kind=kind, tol=tol)
            for i in range(16):
                expected = oracle_edges(batch.game(i), kind, tol)
                graph = graphs[kind](batch.game(i), tol=tol)
                assert graph_edges(graph) == expected
                assert census[i] == has_cycle(expected)
                witness = find_response_cycle(graph)
                assert (witness is not None) == census[i]
                if witness is not None:
                    assert witness[0] == witness[-1]
                    assert set(zip(witness, witness[1:])) <= expected

    def test_cycle_positive_path(self):
        """A negative tolerance turns ties into 'improvements', forcing
        cycles — the positive branch of the census must agree with the
        graph search game by game."""
        batch = GameBatch.from_seeds(_seeds("cyc", 8), 3, 3)
        got = batch_response_cycle_census(batch, kind="better", tol=-0.05)
        assert got.all()
        for i in range(8):
            graph = better_response_graph(batch.game(i), tol=-0.05)
            assert find_response_cycle(graph) is not None

    def test_block_size_invariance(self):
        batch = GameBatch.from_seeds(_seeds("blk", 6), 3, 3)
        reference = batch_response_cycle_census(batch, kind="better", tol=-0.05)
        for block in (1, 5, 16):
            got = batch_response_cycle_census(
                batch, kind="better", tol=-0.05, block_size=block
            )
            assert np.array_equal(got, reference)

    def test_has_better_response_cycle_view(self):
        game = random_game(3, 3, seed=3)
        assert has_better_response_cycle(game) is False

    def test_state_space_guard(self):
        big = GameBatch.from_seeds([0], 18, 2)
        with pytest.raises(ModelError):
            batch_response_cycle_census(big)
        with pytest.raises(ModelError):
            batch_response_cycle_census(big, kind="nope")

    def test_combined_node_guard(self):
        """Per-game smallness is not enough: a wide batch of large games
        must fail cleanly before the peel allocates B * m^n nodes."""
        wide = GameBatch.from_seeds(list(range(16)), 16, 2)  # 16 * 65536 > 1M
        with pytest.raises(ModelError, match="split the batch"):
            batch_response_cycle_census(wide)


class TestLockstepNashify:
    def test_common_beliefs_slicewise(self):
        seeds = _seeds("nkp", 12)
        batch = GameBatch.from_seeds_kp(seeds, 6, 3)
        rng = as_generator(4)
        starts = rng.integers(0, 3, size=(12, 6))
        result = batch_nashify_common_beliefs(batch, starts)
        from repro.equilibria.nashify import nashify_common_beliefs

        for i, s in enumerate(seeds):
            ref = nashify_common_beliefs(random_kp_game(6, 3, seed=s), starts[i])
            assert np.array_equal(result.profiles[i], ref.profile.links)
            assert result.steps[i] == ref.steps
            assert result.sc1_before[i] == ref.sc1_before
            assert result.sc1_after[i] == ref.sc1_after
            assert result.sc2_before[i] == ref.sc2_before
            assert result.sc2_after[i] == ref.sc2_after
            assert result.max_congestion_before[i] == ref.max_congestion_before
            assert result.max_congestion_after[i] == ref.max_congestion_after

    def test_general_slicewise(self):
        seeds = _seeds("ngen", 12)
        batch = GameBatch.from_seeds(seeds, 5, 3)
        rng = as_generator(5)
        starts = rng.integers(0, 3, size=(12, 5))
        result = batch_nashify(batch, starts)
        from repro.equilibria.nashify import nashify

        for i in range(12):
            ref = nashify(batch.game(i), starts[i])
            assert np.array_equal(result.profiles[i], ref.profile.links)
            assert result.steps[i] == ref.steps
            assert result.sc1_after[i] == ref.sc1_after

    def test_classic_guarantee_holds_stackwide(self):
        seeds = _seeds("ng", 40)
        batch = GameBatch.from_seeds_kp(seeds, 8, 4)
        rng = as_generator(6)
        starts = rng.integers(0, 4, size=(40, 8))
        result = batch_nashify_common_beliefs(batch, starts)
        assert result.preserved_max_congestion.all()
        mask = batch_pure_nash_mask(
            result.profiles, batch.weights, batch.capacities,
            batch.initial_traffic,
        )
        assert mask.all()

    def test_start_validation(self):
        batch = GameBatch.from_seeds_kp(_seeds("nv", 3), 4, 3)
        with pytest.raises(ModelError):
            batch_nashify_common_beliefs(batch, np.zeros((2, 4), dtype=int))
        with pytest.raises(ModelError):
            batch_nashify_common_beliefs(
                batch, np.full((3, 4), 7, dtype=int)
            )

    def test_common_beliefs_required(self):
        general = GameBatch.from_seeds(_seeds("ncb", 3), 4, 3)
        with pytest.raises(AlgorithmDomainError):
            batch_nashify_common_beliefs(general, np.zeros((3, 4), dtype=int))


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        num_users=st.integers(2, 6),
        seed=st.integers(0, 2**31),
        batch_size=st.integers(1, 8),
    )
    def test_atwolinks_batch_equals_slices(self, num_users, seed, batch_size):
        seeds = [stable_seed("hyp-e1", seed, i) for i in range(batch_size)]
        batch = GameBatch.from_seeds(
            seeds, num_users, 2, with_initial_traffic=True
        )
        profiles = batch_atwolinks(batch)
        for i in range(batch_size):
            assert np.array_equal(
                profiles[i], atwolinks(batch.game(i)).links
            )

    @settings(max_examples=25, deadline=None)
    @given(
        num_users=st.integers(2, 5),
        num_links=st.integers(2, 4),
        seed=st.integers(0, 2**31),
    )
    def test_census_agrees_with_dynamics_convergence(
        self, num_users, num_links, seed
    ):
        """A best-response-acyclic game must let best-response dynamics
        converge from every start (the paper's Section 3 argument)."""
        from repro.batch.dynamics import batch_best_response_dynamics

        seeds = [stable_seed("hyp-census", seed, i) for i in range(4)]
        batch = GameBatch.from_seeds(seeds, num_users, num_links)
        has_cycle = batch_response_cycle_census(batch, kind="best")
        dyn = batch_best_response_dynamics(batch, seeds=seeds)
        assert np.all(dyn.converged[~has_cycle])
