"""Differential parity tests: batched mixed kernels vs single-game APIs.

The contract of :mod:`repro.batch.mixed` is *bit* parity, not tolerance
parity: for random :class:`GameBatch` stacks, every batched result slice
must equal the corresponding single-game computation exactly
(``np.array_equal``, no ``allclose``). These tests are what allows the
E7-E11 campaigns to promise results independent of batching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import (
    GameBatch,
    batch_fully_mixed_candidate,
    batch_is_mixed_nash,
    batch_min_expected_latencies,
    batch_mixed_latency_matrix,
    normalize_rows,
)
from repro.equilibria.conditions import is_mixed_nash
from repro.equilibria.fully_mixed import fully_mixed_candidate
from repro.errors import DimensionError, ModelError
from repro.generators.games import random_uniform_beliefs_game
from repro.model.latency import min_expected_latencies, mixed_latency_matrix
from repro.model.profiles import MixedProfile
from repro.util.rng import stable_seed

SHAPES = [(1, 2, 2), (1, 5, 3), (6, 2, 2), (8, 3, 4), (5, 8, 2), (4, 6, 3)]


def make_batch(b, n, m, *, with_traffic=False, tag="fmne"):
    seeds = [stable_seed(tag, b, n, m, i) for i in range(b)]
    return GameBatch.from_seeds(seeds, n, m, with_initial_traffic=with_traffic)


def random_mixed_stack(b, n, m, seed=0):
    """A stack of *validated* row-stochastic matrices (incl. one-hot rows).

    Routed through :class:`MixedProfile` so the stack is exactly what the
    single-game APIs would see — their array path renormalises raw input,
    which would otherwise make bitwise comparison meaningless.
    """
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m), size=(b, n))
    onehot_rows = rng.random((b, n)) < 0.3
    sig = rng.integers(0, m, size=(b, n))
    eye = np.zeros((b, n, m))
    eye[np.arange(b)[:, None], np.arange(n)[None, :], sig] = 1.0
    raw = np.where(onehot_rows[:, :, None], eye, probs)
    profiles = [MixedProfile(raw[i]) for i in range(b)]
    return np.stack([p.matrix for p in profiles]), profiles


class TestBatchFullyMixedCandidate:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    @pytest.mark.parametrize("with_traffic", [False, True])
    def test_candidate_matches_single_game_bitwise(self, b, n, m, with_traffic):
        batch = make_batch(b, n, m, with_traffic=with_traffic)
        fm = batch_fully_mixed_candidate(
            batch.weights, batch.capacities, batch.initial_traffic
        )
        assert fm.probabilities.shape == (b, n, m)
        assert fm.latencies.shape == (b, n)
        assert fm.link_traffic.shape == (b, m)
        assert fm.exists.shape == (b,)
        for i in range(b):
            ref = fully_mixed_candidate(batch.game(i))
            assert np.array_equal(fm.probabilities[i], ref.probabilities)
            assert np.array_equal(fm.latencies[i], ref.latencies)
            assert np.array_equal(fm.link_traffic[i], ref.link_traffic)
            assert bool(fm.exists[i]) == ref.exists

    def test_single_game_is_b1_view(self):
        """2-D inputs give exactly the batch-of-one slice."""
        batch = make_batch(1, 4, 3, with_traffic=True)
        flat = batch_fully_mixed_candidate(
            batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
        )
        stacked = batch_fully_mixed_candidate(
            batch.weights, batch.capacities, batch.initial_traffic
        )
        assert np.array_equal(flat.probabilities, stacked.probabilities[0])
        assert np.array_equal(flat.latencies, stacked.latencies[0])
        assert flat.exists.shape == ()

    def test_boundary_tol_respected(self):
        batch = make_batch(16, 3, 3)
        loose = batch_fully_mixed_candidate(
            batch.weights, batch.capacities, boundary_tol=1e-12
        )
        # An absurdly wide boundary band rejects every candidate.
        tight = batch_fully_mixed_candidate(
            batch.weights, batch.capacities, boundary_tol=0.49
        )
        assert not tight.exists.any()
        assert np.array_equal(loose.probabilities, tight.probabilities)

    def test_dimension_errors(self):
        batch = make_batch(2, 3, 2)
        with pytest.raises(DimensionError):
            batch_fully_mixed_candidate(batch.weights[:, :2], batch.capacities)
        with pytest.raises(DimensionError):
            batch_fully_mixed_candidate(np.float64(1.0), batch.capacities)


class TestNormalizeRows:
    def test_matches_mixed_profile_validation_bitwise(self):
        batch = make_batch(32, 3, 3)
        fm = batch_fully_mixed_candidate(batch.weights, batch.capacities)
        idx = np.flatnonzero(fm.exists)
        assert idx.size > 0
        normalized = normalize_rows(fm.probabilities[idx])
        for j, i in enumerate(idx):
            ref = fully_mixed_candidate(batch.game(int(i))).profile()
            assert np.array_equal(normalized[j], ref.matrix)

    def test_clips_negatives(self):
        out = normalize_rows(np.array([[-0.25, 0.5, 0.5]]))
        assert np.array_equal(out, [[0.0, 0.5, 0.5]])


class TestBatchMixedLatency:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    @pytest.mark.parametrize("with_traffic", [False, True])
    def test_latency_matrix_matches_single_game(self, b, n, m, with_traffic):
        batch = make_batch(b, n, m, with_traffic=with_traffic)
        probs, profiles = random_mixed_stack(b, n, m, seed=b * n + m)
        got = batch_mixed_latency_matrix(
            probs, batch.weights, batch.capacities, batch.initial_traffic
        )
        mins = batch_min_expected_latencies(
            probs, batch.weights, batch.capacities, batch.initial_traffic
        )
        for i in range(b):
            ref = mixed_latency_matrix(batch.game(i), profiles[i])
            assert np.array_equal(got[i], ref)
            assert np.array_equal(mins[i], ref.min(axis=1))

    def test_many_profiles_one_game_broadcast(self):
        """(E, n, m) profile stacks against a single game's (n,)/(n, m)
        arrays — the shape the E9 dominance check evaluates."""
        batch = make_batch(1, 3, 3, with_traffic=True)
        game = batch.game(0)
        probs, profiles = random_mixed_stack(7, 3, 3, seed=5)
        got = batch_min_expected_latencies(
            probs, batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
        )
        for r in range(7):
            assert np.array_equal(got[r], min_expected_latencies(game, profiles[r]))

    def test_dimension_errors(self):
        batch = make_batch(2, 3, 2)
        probs, _ = random_mixed_stack(2, 3, 2)
        with pytest.raises(DimensionError):
            batch_mixed_latency_matrix(
                probs[:, :, :1], batch.weights, batch.capacities
            )
        with pytest.raises(DimensionError):
            batch_mixed_latency_matrix(
                probs, batch.weights[:, :2], batch.capacities
            )


class TestBatchIsMixedNash:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_verdicts_match_single_game(self, b, n, m):
        batch = make_batch(b, n, m, with_traffic=True)
        probs, profiles = random_mixed_stack(b, n, m, seed=3 * b + m)
        got = batch_is_mixed_nash(
            probs, batch.weights, batch.capacities, batch.initial_traffic
        )
        assert got.shape == (b,)
        for i in range(b):
            assert bool(got[i]) == is_mixed_nash(batch.game(i), profiles[i])

    def test_interior_candidates_are_nash(self):
        batch = make_batch(32, 3, 3)
        fm = batch_fully_mixed_candidate(batch.weights, batch.capacities)
        idx = np.flatnonzero(fm.exists)
        assert idx.size > 0
        verdict = batch_is_mixed_nash(
            normalize_rows(fm.probabilities[idx]),
            batch.weights[idx],
            batch.capacities[idx],
            tol=1e-7,
        )
        assert verdict.all()


class TestBatchIsMixedNashDomain:
    """Only a distribution can be Nash, and only at a real tolerance.

    One user of weight 2 on two unit links sees latency 2 on both links
    whatever its row holds, so the latency test alone accepts any
    ``(1, 2)`` array; the distribution check is what refuses these.
    """

    W = np.array([2.0])
    CAPS = np.ones((1, 2))

    def verdict(self, row):
        return bool(batch_is_mixed_nash([row], self.W, self.CAPS))

    def test_distributions_are_accepted(self):
        assert self.verdict([0.5, 0.5])
        assert self.verdict([1.0, 0.0])
        assert self.verdict([0.5 + 5e-10, 0.5])

    @pytest.mark.parametrize(
        "row",
        [[np.nan, np.nan], [0.0, 0.0], [1.5, -0.5], [0.5, 0.25], [0.5 + 2e-9, 0.5]],
        ids=["all-nan", "all-zero", "negative", "sum-half-off", "sum-2e-9-off"],
    )
    def test_non_distribution_is_not_nash(self, row):
        assert not self.verdict(row)

    def test_infinite_entry_is_not_nash(self):
        with np.errstate(invalid="ignore"):  # inf - inf in the latency
            assert not self.verdict([np.inf, 0.0])

    def test_verdicts_stay_per_game(self):
        probs = np.full((3, 1, 2), 0.5)
        probs[1] = 0.0
        weights, caps = np.tile(self.W, (3, 1)), np.tile(self.CAPS, (3, 1, 1))
        got = batch_is_mixed_nash(probs, weights, caps)
        assert got.tolist() == [True, False, True]

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tolerance_is_refused(self, tol):
        batch = make_batch(1, 3, 3)
        uniform = np.full((1, 3, 3), 1.0 / 3.0)
        with pytest.raises(ModelError, match="tol"):
            batch_is_mixed_nash(uniform, batch.weights, batch.capacities, tol=tol)


class TestFromSeedsUniformBeliefs:
    @pytest.mark.parametrize("with_traffic", [False, True])
    def test_matches_generator_bitwise(self, with_traffic):
        seeds = [stable_seed("ub", i) for i in range(9)]
        batch = GameBatch.from_seeds_uniform_beliefs(
            seeds, 4, 3, with_initial_traffic=with_traffic
        )
        for i, s in enumerate(seeds):
            game = random_uniform_beliefs_game(
                4, 3, with_initial_traffic=with_traffic, seed=s
            )
            assert np.array_equal(batch.weights[i], game.weights)
            assert np.array_equal(batch.capacities[i], game.capacities)
            assert np.array_equal(batch.initial_traffic[i], game.initial_traffic)

    @pytest.mark.parametrize("kind", ["uniform", "exponential", "lognormal"])
    def test_weight_kinds_match(self, kind):
        seeds = [stable_seed("ub-kind", kind, i) for i in range(4)]
        batch = GameBatch.from_seeds_uniform_beliefs(seeds, 3, 2, weight_kind=kind)
        for i, s in enumerate(seeds):
            game = random_uniform_beliefs_game(3, 2, weight_kind=kind, seed=s)
            assert np.array_equal(batch.weights[i], game.weights)
            assert np.array_equal(batch.capacities[i], game.capacities)

    def test_capacity_columns_constant(self):
        batch = GameBatch.from_seeds_uniform_beliefs([1, 2, 3], 3, 4)
        assert np.all(batch.capacities == batch.capacities[:, :, :1])

    def test_rejects_degenerate_shapes(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            GameBatch.from_seeds_uniform_beliefs([1], 1, 3)
