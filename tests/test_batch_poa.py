"""Differential parity tests: batched PoA engine vs single-game APIs.

For random :class:`GameBatch` stacks, the batched bounds, exhaustive
social optima, equilibrium stacks and worst empirical ratios must match
the per-game ``poa_bound_*`` / ``opt1``/``opt2`` /
``pure_nash_profiles`` / ``empirical_coordination_ratios`` outputs
exactly — the bit-parity contract the E10/E11 campaigns rest on.
"""

from __future__ import annotations

import numpy as np
import pytest

from census_oracle import oracle_all_pure_costs
from repro.analysis.poa import (
    empirical_coordination_ratios,
    poa_bound_general,
    poa_bound_uniform,
)
from repro.batch import (
    GameBatch,
    batch_all_pure_latencies,
    batch_empirical_ratios,
    batch_equilibrium_profiles,
    batch_poa_bound_general,
    batch_poa_bound_uniform,
    batch_social_optima,
)
from repro.batch.poa import MAX_EXHAUSTIVE_PROFILES
from repro.equilibria.enumeration import pure_nash_profiles
from repro.equilibria.fully_mixed import fully_mixed_candidate
from repro.errors import ModelError
from repro.model.social import all_pure_costs, opt1, opt2
from repro.util.rng import stable_seed

SHAPES = [(1, 2, 2), (6, 3, 3), (8, 2, 4), (5, 4, 3), (4, 5, 2)]


def make_batch(b, n, m, *, with_traffic=False, uniform=False, tag="poa"):
    seeds = [stable_seed(tag, b, n, m, i) for i in range(b)]
    if uniform:
        return GameBatch.from_seeds_uniform_beliefs(
            seeds, n, m, with_initial_traffic=with_traffic
        )
    return GameBatch.from_seeds(seeds, n, m, with_initial_traffic=with_traffic)


class TestBatchBounds:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_uniform_bound_matches_single_game(self, b, n, m):
        batch = make_batch(b, n, m, uniform=True)
        got = batch_poa_bound_uniform(batch.capacities)
        assert got.shape == (b,)
        for i in range(b):
            assert float(got[i]) == poa_bound_uniform(batch.game(i))

    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_general_bound_matches_single_game(self, b, n, m):
        batch = make_batch(b, n, m)
        got = batch_poa_bound_general(batch.capacities)
        for i in range(b):
            assert float(got[i]) == poa_bound_general(batch.game(i))

    def test_single_game_is_b1_view(self):
        batch = make_batch(1, 3, 2)
        flat = batch_poa_bound_general(batch.capacities[0])
        assert flat.shape == ()
        assert float(flat) == float(batch_poa_bound_general(batch.capacities)[0])


class TestBatchOptima:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    @pytest.mark.parametrize("with_traffic", [False, True])
    def test_pure_latency_tensor_matches_all_pure_costs(self, b, n, m, with_traffic):
        """Each slice equals the per-link masked-sum loop the single-game
        ``all_pure_costs`` ran before it became this kernel's view."""
        batch = make_batch(b, n, m, with_traffic=with_traffic)
        sig, lat = batch_all_pure_latencies(batch)
        assert lat.shape == (b, sig.shape[0], n)
        for i in range(b):
            ref_sig, ref_lat = oracle_all_pure_costs(batch.game(i))
            assert np.array_equal(sig, ref_sig)
            assert np.array_equal(lat[i], ref_lat)

    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_all_pure_costs_is_the_b1_view(self, b, n, m):
        batch = make_batch(b, n, m, with_traffic=True)
        _, lat = batch_all_pure_latencies(batch)
        for i in range(b):
            sig, view = all_pure_costs(batch.game(i))
            assert np.array_equal(view, lat[i])
            assert np.array_equal(view, oracle_all_pure_costs(batch.game(i))[1])

    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_optima_match_opt1_opt2(self, b, n, m):
        batch = make_batch(b, n, m, with_traffic=True)
        o1, o2 = batch_social_optima(batch)
        for i in range(b):
            game = batch.game(i)
            assert float(o1[i]) == opt1(game)
            assert float(o2[i]) == opt2(game)

    def test_exhaustive_limit_enforced(self):
        batch = GameBatch(np.ones((1, 2)), np.ones((1, 2, 2000)))
        assert 2000**2 > MAX_EXHAUSTIVE_PROFILES
        with pytest.raises(ModelError):
            batch_social_optima(batch)


class TestBatchEquilibriumStack:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_pure_nash_set_matches_enumerator(self, b, n, m):
        batch = make_batch(b, n, m, with_traffic=True)
        stack = batch_equilibrium_profiles(batch)
        for i in range(b):
            game = batch.game(i)
            ref_pure = pure_nash_profiles(game)
            assert int(stack.num_pure[i]) == len(ref_pure)
            fm = fully_mixed_candidate(game)
            assert bool(stack.fmne_exists[i]) == fm.exists
            rows = np.flatnonzero(stack.game_index == i)
            mats = stack.probabilities[rows]
            for j, eq in enumerate(ref_pure):
                onehot = np.zeros((n, m))
                onehot[np.arange(n), eq.links] = 1.0
                assert np.array_equal(mats[j], onehot)
            if fm.exists:
                assert np.array_equal(mats[-1], fm.profile().matrix)

    def test_counts_are_consistent(self):
        batch = make_batch(12, 3, 3)
        stack = batch_equilibrium_profiles(batch)
        assert np.array_equal(
            stack.num_equilibria,
            np.bincount(stack.game_index, minlength=len(batch)),
        )
        assert np.all(np.diff(stack.game_index) >= 0)  # grouped by game

    def test_exhaustive_limit_enforced(self):
        batch = GameBatch(np.ones((1, 2)), np.ones((1, 2, 2000)))
        with pytest.raises(ModelError):
            batch_equilibrium_profiles(batch)


class TestBatchEmpiricalRatios:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    @pytest.mark.parametrize("uniform", [False, True])
    def test_ratios_match_single_game(self, b, n, m, uniform):
        batch = make_batch(b, n, m, uniform=uniform)
        result = batch_empirical_ratios(batch)
        for i in range(b):
            r1, r2 = empirical_coordination_ratios(batch.game(i))
            assert float(result.ratio_sc1[i]) == r1
            assert float(result.ratio_sc2[i]) == r2

    def test_num_equilibria_counts_fmne(self):
        batch = make_batch(10, 3, 2)
        result = batch_empirical_ratios(batch)
        stack = batch_equilibrium_profiles(batch)
        assert np.array_equal(
            result.num_equilibria,
            stack.num_pure + stack.fmne_exists.astype(np.int64),
        )

    def test_explicit_equilibria_path_matches_default(self):
        """The single-game API's two paths (batched default vs explicit
        equilibrium list) must agree exactly."""
        batch = make_batch(5, 3, 3, tag="poa-exp")
        for i in range(5):
            game = batch.game(i)
            eqs = list(pure_nash_profiles(game))
            fm = fully_mixed_candidate(game)
            if fm.exists:
                eqs.append(fm.profile())
            assert empirical_coordination_ratios(game) == (
                empirical_coordination_ratios(game, eqs)
            )

    def test_no_equilibria_raises(self):
        game = make_batch(1, 2, 2).game(0)
        with pytest.raises(ValueError):
            empirical_coordination_ratios(game, [])
