"""Property tests: batch kernels agree elementwise with the single-game
reference APIs on randomised (B, n, m) stacks.

These are the contract tests of the batched engine: every ``batch_*``
kernel must return, slice for slice, exactly what the corresponding
single-game function returns on ``GameBatch.game(i)`` — including the
B=1 and minimal (n=2, m=2) edge shapes, and with initial traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import (
    GameBatch,
    batch_count_pure_nash,
    batch_deviation_latencies,
    batch_exists_pure_nash,
    batch_loads,
    batch_pure_latencies,
    batch_pure_nash_mask,
    random_game_batch,
)
from repro.batch.kernels import sweep_pure_nash_mask
from repro.equilibria.enumeration import (
    count_pure_nash,
    exists_pure_nash,
    pure_nash_mask,
)
from repro.errors import DimensionError, ModelError
from repro.generators.games import random_game
from repro.model.latency import deviation_latencies, pure_latencies
from repro.model.profiles import loads_of
from repro.model.social import enumerate_assignments
from repro.util.rng import stable_seed

SHAPES = [
    (1, 2, 2), (1, 5, 3), (6, 2, 2), (8, 3, 4), (5, 10, 2), (4, 8, 3), (3, 64, 7),
]


def make_batch(b, n, m, *, with_traffic=False, tag="kern"):
    seeds = [stable_seed(tag, b, n, m, i) for i in range(b)]
    return (
        GameBatch.from_seeds(
            seeds, n, m, with_initial_traffic=with_traffic
        ),
        seeds,
    )


def random_assignments(b, n, m, seed=0):
    return np.random.default_rng(seed).integers(0, m, size=(b, n)).astype(np.intp)


class TestGameBatch:
    def test_from_seeds_matches_random_game_bitwise(self):
        batch, seeds = make_batch(7, 4, 3, with_traffic=True)
        for i, s in enumerate(seeds):
            game = random_game(4, 3, with_initial_traffic=True, seed=s)
            assert np.array_equal(batch.weights[i], game.weights)
            assert np.array_equal(batch.capacities[i], game.capacities)
            assert np.array_equal(batch.initial_traffic[i], game.initial_traffic)

    def test_from_games_round_trip(self):
        games = [random_game(3, 2, seed=i) for i in range(4)]
        batch = GameBatch.from_games(games)
        assert len(batch) == 4
        for i, game in enumerate(batch):
            assert np.array_equal(game.capacities, games[i].capacities)
            assert np.array_equal(game.weights, games[i].weights)

    def test_shape_properties(self):
        batch, _ = make_batch(5, 3, 4)
        assert (batch.batch_size, batch.num_users, batch.num_links) == (5, 3, 4)
        assert batch.weights.shape == (5, 3)
        assert batch.capacities.shape == (5, 3, 4)
        assert batch.initial_traffic.shape == (5, 4)

    def test_subbatch_preserves_rows(self):
        batch, _ = make_batch(6, 3, 2)
        sub = batch.subbatch([4, 1])
        assert np.array_equal(sub.capacities[0], batch.capacities[4])
        assert np.array_equal(sub.weights[1], batch.weights[1])

    def test_mixed_shapes_rejected(self):
        games = [random_game(3, 2, seed=0), random_game(4, 2, seed=1)]
        with pytest.raises(DimensionError):
            GameBatch.from_games(games)

    def test_validation(self):
        with pytest.raises(DimensionError):
            GameBatch(np.ones((2, 3)), np.ones((2, 4, 2)))
        with pytest.raises(ModelError):
            GameBatch(np.ones((1, 2)), -np.ones((1, 2, 2)))
        with pytest.raises(ModelError):
            GameBatch(
                np.ones((1, 2)), np.ones((1, 2, 2)),
                initial_traffic=-np.ones((1, 2)),
            )

    def test_arrays_read_only(self):
        batch, _ = make_batch(2, 2, 2)
        with pytest.raises(ValueError):
            batch.capacities[0, 0, 0] = 1.0


class TestBatchLatencyKernels:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    @pytest.mark.parametrize("with_traffic", [False, True])
    def test_loads_match_loads_of(self, b, n, m, with_traffic):
        batch, _ = make_batch(b, n, m, with_traffic=with_traffic)
        sig = random_assignments(b, n, m, seed=b * n * m)
        got = batch_loads(sig, batch.weights, m, batch.initial_traffic)
        for i in range(b):
            ref = loads_of(sig[i], batch.weights[i], m, batch.initial_traffic[i])
            assert np.array_equal(got[i], ref)

    def test_empty_stack_loads_are_float(self):
        loads = batch_loads(np.zeros((0, 3), dtype=np.intp), np.ones((0, 3)), 2)
        assert loads.shape == (0, 2)
        assert loads.dtype == np.float64

    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_pure_latencies_match(self, b, n, m):
        batch, _ = make_batch(b, n, m, with_traffic=True)
        sig = random_assignments(b, n, m, seed=b + n + m)
        got = batch_pure_latencies(
            sig, batch.weights, batch.capacities, batch.initial_traffic
        )
        assert got.shape == (b, n)
        for i in range(b):
            assert np.array_equal(got[i], pure_latencies(batch.game(i), sig[i]))

    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_deviation_latencies_match(self, b, n, m):
        batch, _ = make_batch(b, n, m, with_traffic=True)
        sig = random_assignments(b, n, m, seed=b * 7 + m)
        got = batch_deviation_latencies(
            sig, batch.weights, batch.capacities, batch.initial_traffic
        )
        assert got.shape == (b, n, m)
        for i in range(b):
            assert np.array_equal(got[i], deviation_latencies(batch.game(i), sig[i]))

    def test_single_game_is_b1_view(self):
        """The single-game API must be exactly the batch-of-one slice."""
        batch, _ = make_batch(1, 4, 3, with_traffic=True)
        game = batch.game(0)
        sig = random_assignments(1, 4, 3, seed=9)[0]
        assert np.array_equal(
            deviation_latencies(game, sig),
            batch_deviation_latencies(
                sig[None], batch.weights, batch.capacities, batch.initial_traffic
            )[0],
        )

    def test_broadcasting_profile_axis(self):
        """One game, many profiles: the enumeration call shape."""
        game = random_game(3, 3, seed=5)
        profiles = random_assignments(10, 3, 3, seed=11)
        dev = batch_deviation_latencies(profiles, game.weights, game.capacities)
        for r in range(10):
            assert np.array_equal(dev[r], deviation_latencies(game, profiles[r]))

    def test_user_mismatch_raises(self):
        batch, _ = make_batch(2, 3, 2)
        with pytest.raises(DimensionError):
            batch_deviation_latencies(
                np.zeros((2, 4), dtype=np.intp), batch.weights, batch.capacities
            )


class TestBatchNashKernels:
    @pytest.mark.parametrize("b,n,m", SHAPES)
    def test_mask_matches_single_game(self, b, n, m):
        batch, _ = make_batch(b, n, m, with_traffic=True)
        sig = random_assignments(b, n, m, seed=3 * b + m)
        got = batch_pure_nash_mask(
            sig, batch.weights, batch.capacities, batch.initial_traffic
        )
        for i in range(b):
            ref = pure_nash_mask(batch.game(i), sig[i][None, :])[0]
            assert got[i] == ref

    @pytest.mark.parametrize("b,n,m", [(1, 2, 2), (6, 2, 2), (10, 3, 3), (5, 4, 3)])
    def test_count_matches_single_game(self, b, n, m):
        batch, _ = make_batch(b, n, m)
        counts = batch_count_pure_nash(batch)
        assert counts.shape == (b,)
        for i in range(b):
            assert counts[i] == count_pure_nash(batch.game(i))

    @pytest.mark.parametrize("b,n,m", [(1, 2, 2), (6, 3, 3), (4, 5, 2)])
    def test_exists_matches_single_game(self, b, n, m):
        batch, _ = make_batch(b, n, m, with_traffic=True)
        exists = batch_exists_pure_nash(batch)
        for i in range(b):
            assert exists[i] == exists_pure_nash(batch.game(i))

    def test_count_blocking_invariant(self):
        batch, _ = make_batch(5, 4, 3)
        ref = batch_count_pure_nash(batch)
        for block in (1, 7, 81):
            assert np.array_equal(batch_count_pure_nash(batch, block_size=block), ref)

    # b=6 lands below the 65,536-element one-shot cutover (6*27*9 = 1458),
    # b=300 above it (300*27*9 = 72,900), so both the one-shot tensor path
    # and the per-user survivor loop are compared against the generic kernel.
    @pytest.mark.parametrize("b", [6, 300])
    def test_sweep_mask_equals_generic_mask(self, b):
        """The GEMM sweep (both internal paths) and the generic broadcast
        kernel must agree exactly."""
        batch = random_game_batch(b, 3, 3, with_initial_traffic=True, seed=b)
        assignments = enumerate_assignments(3, 3)
        got = sweep_pure_nash_mask(
            assignments, batch.weights, batch.capacities, batch.initial_traffic
        )
        ref = batch_pure_nash_mask(
            assignments[None, :, :],
            batch.weights[:, None, :],
            batch.capacities[:, None, :, :],
            batch.initial_traffic[:, None, :],
        )
        assert got.shape == (b, assignments.shape[0])
        assert np.array_equal(got, ref)

    def test_sweep_mask_negative_tol_rejected(self):
        batch, _ = make_batch(2, 2, 2)
        with pytest.raises(ValueError):
            sweep_pure_nash_mask(
                enumerate_assignments(2, 2), batch.weights, batch.capacities,
                tol=-1e-3,
            )


class TestRandomGameBatch:
    def test_deterministic(self):
        a = random_game_batch(20, 4, 3, seed=123)
        b = random_game_batch(20, 4, 3, seed=123)
        assert np.array_equal(a.capacities, b.capacities)
        assert np.array_equal(a.weights, b.weights)

    def test_shapes_and_positivity(self):
        batch = random_game_batch(50, 3, 4, with_initial_traffic=True, seed=1)
        assert batch.capacities.shape == (50, 3, 4)
        assert np.all(batch.capacities > 0)
        assert np.all(batch.weights > 0)
        assert np.all(batch.initial_traffic >= 0)

    def test_effective_caps_within_state_range(self):
        """Belief-harmonic capacities lie inside the drawn state range."""
        batch = random_game_batch(100, 4, 3, cap_low=0.5, cap_high=4.0, seed=2)
        assert np.all(batch.capacities >= 0.5 - 1e-9)
        assert np.all(batch.capacities <= 4.0 + 1e-9)

    @pytest.mark.parametrize("kind", ["uniform", "exponential", "lognormal", "integer"])
    def test_weight_kinds(self, kind):
        batch = random_game_batch(10, 3, 2, weight_kind=kind, seed=3)
        assert np.all(batch.weights > 0)

    def test_games_are_valid_instances(self):
        """Every slice must materialise as a well-formed game object."""
        batch = random_game_batch(5, 3, 3, seed=4)
        for game in batch:
            assert game.num_users == 3 and game.num_links == 3

    def test_invalid_arguments(self):
        with pytest.raises(ModelError):
            random_game_batch(0, 3, 3)
        with pytest.raises(ModelError):
            random_game_batch(2, 1, 3)
        with pytest.raises(ModelError):
            random_game_batch(2, 3, 3, concentration=0.0)
        with pytest.raises(ModelError):
            random_game_batch(2, 3, 3, weight_kind="gamma")
