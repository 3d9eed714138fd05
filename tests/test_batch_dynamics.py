"""Lockstep dynamics parity: batched runs and their ``B = 1`` views must
replay the per-game reference loop (``tests/dynamics_oracle.py``)
exactly — steps, convergence, final profiles and cycle flags, and every
intermediate state — for both deterministic schedules and both
response modes."""

from __future__ import annotations

import numpy as np
import pytest
from dynamics_oracle import oracle_dynamics

from repro.batch import (
    GameBatch,
    batch_best_response_dynamics,
    batch_better_response_dynamics,
)
from repro.equilibria.best_response import (
    best_response_dynamics,
    better_response_dynamics,
)
from repro.errors import ModelError
from repro.util.rng import stable_seed

VIEW = {"best": best_response_dynamics, "better": better_response_dynamics}
BATCHED = {"best": batch_best_response_dynamics, "better": batch_better_response_dynamics}


def make_batch(b, n, m, *, with_traffic=False, tag="dyn"):
    seeds = [stable_seed(tag, b, n, m, i) for i in range(b)]
    return GameBatch.from_seeds(seeds, n, m, with_initial_traffic=with_traffic), seeds


def assert_matches(batched, i, ref):
    """Row *i* of a batch result equals the oracle's outcome."""
    assert batched.steps[i] == ref.steps
    assert batched.converged[i] == ref.converged
    assert batched.cycled[i] == ref.cycled
    assert np.array_equal(batched.profiles[i], ref.links)


def assert_view_matches(view, ref):
    assert view.steps == ref.steps
    assert view.converged == ref.converged
    assert view.cycled == ref.cycled
    assert np.array_equal(view.profile.links, ref.links)


class TestLockstepParity:
    @pytest.mark.parametrize("schedule", ["round_robin", "max_regret"])
    @pytest.mark.parametrize("mode", ["best", "better"])
    @pytest.mark.parametrize("b,n,m", [(1, 2, 2), (9, 4, 3), (6, 6, 2)])
    def test_trajectory_parity(self, schedule, mode, b, n, m):
        batch, seeds = make_batch(b, n, m, with_traffic=True)
        result = BATCHED[mode](batch, seeds=seeds, schedule=schedule, max_steps=500)
        for i, s in enumerate(seeds):
            ref = oracle_dynamics(
                batch.game(i), mode=mode, schedule=schedule, max_steps=500, seed=s
            )
            assert_matches(result, i, ref)

    def test_explicit_start_parity(self):
        batch, _ = make_batch(5, 3, 3)
        start = np.random.default_rng(0).integers(0, 3, size=(5, 3))
        result = batch_best_response_dynamics(batch, start=start.copy())
        for i in range(5):
            ref = oracle_dynamics(batch.game(i), start=start[i])
            assert_matches(result, i, ref)
            view = best_response_dynamics(batch.game(i), start=start[i])
            assert_view_matches(view, ref)

    def test_converged_profiles_are_nash(self):
        from repro.equilibria.conditions import is_pure_nash

        batch, seeds = make_batch(8, 4, 2)
        result = batch_best_response_dynamics(batch, seeds=seeds)
        assert result.all_converged
        for i in range(8):
            assert is_pure_nash(batch.game(i), result.profiles[i])

    def test_budget_exhaustion_parity(self):
        """max_steps cuts every still-active game at the same count as the
        single-game implementation."""
        batch, seeds = make_batch(6, 5, 3)
        result = batch_best_response_dynamics(batch, seeds=seeds, max_steps=2)
        for i, s in enumerate(seeds):
            ref = oracle_dynamics(batch.game(i), max_steps=2, seed=s)
            assert_matches(result, i, ref)

    def test_cycle_detection_parity(self):
        """A negative tolerance makes equilibria look improvable, forcing
        the self-loop revisit that exercises the cycle detector in both
        engines identically."""
        batch, seeds = make_batch(7, 3, 3)
        result = batch_best_response_dynamics(
            batch, seeds=seeds, tol=-0.05, max_steps=300
        )
        assert result.cycled.any()
        for i, s in enumerate(seeds):
            ref = oracle_dynamics(batch.game(i), tol=-0.05, max_steps=300, seed=s)
            assert_matches(result, i, ref)


class TestOracleParity:
    """The batch functions and the single-game views against the oracle."""

    @pytest.mark.parametrize("with_traffic", [False, True])
    @pytest.mark.parametrize("tol", [1e-9, -0.05])
    @pytest.mark.parametrize("schedule", ["round_robin", "max_regret"])
    @pytest.mark.parametrize("mode", ["best", "better"])
    def test_batch_and_view_match_oracle(self, mode, schedule, tol, with_traffic):
        batch, seeds = make_batch(8, 5, 3, with_traffic=with_traffic, tag="oracle")
        result = BATCHED[mode](
            batch, seeds=seeds, schedule=schedule, tol=tol, max_steps=400
        )
        for i, s in enumerate(seeds):
            game = batch.game(i)
            kwargs = dict(schedule=schedule, tol=tol, max_steps=400, seed=s)
            ref = oracle_dynamics(game, mode=mode, **kwargs)
            assert_matches(result, i, ref)
            assert_view_matches(VIEW[mode](game, **kwargs), ref)

    @pytest.mark.parametrize("tol", [1e-9, -0.05])
    @pytest.mark.parametrize("schedule", ["round_robin", "max_regret"])
    @pytest.mark.parametrize("mode", ["best", "better"])
    def test_replay_state_for_state(self, mode, schedule, tol):
        """``max_steps=k`` stops every run after ``k`` moves, so equal
        results at every ``k`` up to the longest run pin each
        intermediate profile, not just the endpoint."""
        batch, _ = make_batch(5, 6, 3, with_traffic=True, tag="replay")
        start = np.random.default_rng(7).integers(0, 3, size=(5, 6))
        full = BATCHED[mode](batch, start, schedule=schedule, tol=tol)
        for k in range(int(full.steps.max()) + 2):
            result = BATCHED[mode](
                batch, start, schedule=schedule, tol=tol, max_steps=k
            )
            for i in range(5):
                game = batch.game(i)
                kwargs = dict(schedule=schedule, tol=tol, max_steps=k)
                ref = oracle_dynamics(game, start[i], mode=mode, **kwargs)
                assert_matches(result, i, ref)
                assert_view_matches(VIEW[mode](game, start[i], **kwargs), ref)


class TestLockstepApi:
    def test_random_schedule_rejected(self):
        batch, seeds = make_batch(2, 2, 2)
        with pytest.raises(ModelError, match="deterministic"):
            batch_best_response_dynamics(batch, seeds=seeds, schedule="random")

    def test_seed_count_mismatch(self):
        batch, _ = make_batch(3, 2, 2)
        with pytest.raises(ModelError):
            batch_best_response_dynamics(batch, seeds=[1, 2])

    def test_bad_start_shape(self):
        batch, _ = make_batch(3, 2, 2)
        with pytest.raises(ModelError):
            batch_best_response_dynamics(batch, start=np.zeros((2, 2), dtype=int))
        with pytest.raises(ModelError):
            batch_best_response_dynamics(
                batch, start=np.full((3, 2), 5, dtype=int)
            )

    def test_shared_seed_start_is_deterministic(self):
        batch, _ = make_batch(4, 3, 2)
        a = batch_best_response_dynamics(batch, seed=11)
        b = batch_best_response_dynamics(batch, seed=11)
        assert np.array_equal(a.profiles, b.profiles)
        assert np.array_equal(a.steps, b.steps)

    def test_result_len(self):
        batch, seeds = make_batch(5, 2, 2)
        assert len(batch_best_response_dynamics(batch, seeds=seeds)) == 5
