"""The fixed-point solver's best-response polish and its contract.

With a budget past :data:`~repro.batch.fixpoint.POLISH_ROUND` rounds,
:func:`~repro.batch.fixpoint.batch_fixpoint_mixed_nash` snaps the games
still running at that round to their argmax and finishes them by best
response. Every game is either

* polished: one-hot rows, ``converged``, not ``stalled``, ``certified``,
  ``rounds == POLISH_ROUND`` and a residual ``<= tol`` under the round
  loop's own formula; or
* answered by the round loop, equal bit for bit in all five outputs to
  ``tests/fixpoint_oracle.py`` at the same budget.

A game the polish cannot certify replays from round 0 through the loop
itself, never through the public function. The replay path is forced
here by best-response dynamics that report no convergence.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.fixpoint as fixpoint
from fixpoint_oracle import oracle_fixpoint_loop
from repro.batch.container import GameBatch
from repro.batch.dynamics import BatchDynamicsResult, batch_best_response_dynamics
from repro.batch.fixpoint import (
    DEFAULT_BETA_MAX,
    DEFAULT_ETA,
    DEFAULT_MAX_ROUNDS,
    DEFAULT_STALL_ROUNDS,
    DEFAULT_TOL,
    POLISH_ROUND,
    STALL_RTOL,
    _generic_fixpoint_loop,
    batch_fixpoint_mixed_nash,
)
from repro.batch.mixed import SUPPORT_ATOL
from repro.equilibria import fixpoint_mixed_nash
from repro.cli import main as cli_main
from repro.errors import ConvergenceError, StoreError
from repro.experiments.fixpoint_tier import e13_specs
from repro.experiments.registry import run_experiment
from repro.model.game import UncertainRoutingGame
from repro.util.rng import stable_seed

BUDGETS = (0, 7, POLISH_ROUND, POLISH_ROUND + 1, 40, DEFAULT_MAX_ROUNDS)
OUTPUTS = ("probabilities", "rounds", "residuals", "converged", "stalled")


def _args(max_rounds=DEFAULT_MAX_ROUNDS):
    log2_beta_max = DEFAULT_BETA_MAX.bit_length() - 1
    return (DEFAULT_TOL, DEFAULT_ETA, log2_beta_max, max_rounds,
            DEFAULT_STALL_ROUNDS, STALL_RTOL)


def _solve(w, caps, t, max_rounds=DEFAULT_MAX_ROUNDS):
    return batch_fixpoint_mixed_nash(w, caps, t, max_rounds=max_rounds)


@st.composite
def _stacks(draw):
    """``(w, caps, t)`` of ``B`` 0-6 games with ``n`` 1-8, ``m`` 1-5."""
    b = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=5))
    with_traffic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.2, 5.0, (b, n))
    caps = rng.uniform(0.2, 5.0, (b, n, m))
    t = rng.uniform(0.0, 3.0, (b, m)) if with_traffic else np.zeros((b, m))
    return w, caps, t


def _assert_polished(result, b):
    p = result.probabilities[b]
    assert np.array_equal(np.count_nonzero(p, axis=-1), np.ones(p.shape[0]))
    assert set(np.unique(p).tolist()) <= {0.0, 1.0}
    assert bool(result.converged[b]) and not bool(result.stalled[b])
    assert bool(result.certified[b])
    assert int(result.rounds[b]) == POLISH_ROUND
    assert float(result.residuals[b]) <= DEFAULT_TOL


def _assert_loop_answered(result, ref, b):
    for name, ref_out in zip(OUTPUTS, ref):
        got = getattr(result, name)
        assert got.dtype == ref_out.dtype, name
        assert np.array_equal(got[b], ref_out[b]), (name, b)


def _assert_contract(stack, budget):
    """Each game is polished or equals the oracle loop at *budget*."""
    w, caps, t = stack
    result = _solve(w, caps, t, max_rounds=budget)
    ref = oracle_fixpoint_loop(w, caps, t, *_args(budget))
    b, n, m = caps.shape
    assert result.polished.shape == (b,) and result.polished.dtype == bool
    if budget <= POLISH_ROUND or n < 2 or m < 2:
        assert not result.polished.any()
    for g in range(b):
        if result.polished[g]:
            _assert_polished(result, g)
        else:
            _assert_loop_answered(result, ref, g)
    return result


def _seeded(n, m, count=8, **kwargs):
    seeds = [stable_seed("fixpoint-polish", n, m, i) for i in range(count)]
    batch = GameBatch.from_seeds(seeds, n, m, **kwargs)
    return batch.weights, batch.capacities, batch.initial_traffic


def _dynamics_reporting(converged):
    """Best-response dynamics that stop where they start and report
    every game *converged* or not."""

    def dynamics(batch, start, **kwargs):
        b = len(batch)
        return BatchDynamicsResult(
            profiles=np.array(start, dtype=np.intp),
            converged=np.full(b, converged),
            steps=np.zeros(b, dtype=np.int64),
            cycled=np.zeros(b, dtype=bool),
        )

    return dynamics


def _no_polish():
    return mock.patch.object(
        fixpoint, "batch_best_response_dynamics", _dynamics_reporting(False)
    )


class TestContract:
    @given(_stacks())
    @settings(max_examples=30, deadline=None)
    def test_polished_or_oracle_loop_at_every_budget(self, stack):
        for budget in BUDGETS:
            _assert_contract(stack, budget)

    @pytest.mark.parametrize("traffic", [False, True])
    @pytest.mark.parametrize(("n", "m"), [(4, 3), (8, 4), (16, 4)])
    def test_seeded_stacks_are_polished(self, n, m, traffic):
        """Past the polish round, these games are all polished."""
        stack = _seeded(n, m, with_initial_traffic=traffic)
        result = _assert_contract(stack, DEFAULT_MAX_ROUNDS)
        assert bool(result.polished.all())

    @pytest.mark.parametrize("budget", [0, 7, POLISH_ROUND])
    def test_small_budget_is_the_loop(self, budget):
        """A budget of at most ``POLISH_ROUND`` never polishes."""
        w, caps, t = _seeded(8, 4)
        result = _solve(w, caps, t, max_rounds=budget)
        loop = _generic_fixpoint_loop(w, caps, t, *_args(budget))
        assert not result.polished.any()
        for name, ref_out in zip(OUTPUTS, loop):
            assert np.array_equal(getattr(result, name), ref_out), name


class TestReplayPath:
    """Dynamics that never converge fail every polish: the solve is the
    loop."""

    @given(_stacks())
    @settings(max_examples=20, deadline=None)
    def test_failed_polish_replays_bit_for_bit(self, stack):
        w, caps, t = stack
        with _no_polish():
            for budget in (POLISH_ROUND + 1, 40, DEFAULT_MAX_ROUNDS):
                result = _solve(w, caps, t, max_rounds=budget)
                loop = _generic_fixpoint_loop(w, caps, t, *_args(budget))
                assert not result.polished.any()
                for name, ref_out in zip(OUTPUTS, loop):
                    got = getattr(result, name)
                    assert got.dtype == ref_out.dtype, name
                    assert np.array_equal(got, ref_out), name

    @pytest.mark.parametrize("budget", [POLISH_ROUND + 1, 40, DEFAULT_MAX_ROUNDS])
    def test_seeded_replay(self, budget):
        w, caps, t = _seeded(16, 4, with_initial_traffic=True)
        loop = _generic_fixpoint_loop(w, caps, t, *_args(budget))
        assert bool((loop[1] > POLISH_ROUND).any()), "no game reached the polish"
        with _no_polish():
            result = _solve(w, caps, t, max_rounds=budget)
        assert not result.polished.any()
        for name, ref_out in zip(OUTPUTS, loop):
            assert np.array_equal(getattr(result, name), ref_out), name

    def test_replay_runs_the_loop_not_the_public_solver(self):
        """A traced public solver sees each solve once, and the replay
        is one more loop run, at the full budget."""
        w, caps, t = _seeded(8, 4)
        public = mock.Mock(wraps=fixpoint.batch_fixpoint_mixed_nash)
        loop = mock.Mock(wraps=fixpoint._generic_fixpoint_loop)
        with _no_polish(), \
                mock.patch.object(fixpoint, "batch_fixpoint_mixed_nash", public), \
                mock.patch.object(fixpoint, "_generic_fixpoint_loop", loop):
            fixpoint.batch_fixpoint_mixed_nash(w, caps, t)
        assert public.call_count == 1
        # The loop's positional arguments: (w, caps, t, tol, eta,
        # log2_beta_max, max_rounds, ...).
        budgets = [call.args[6] for call in loop.call_args_list]
        assert budgets == [POLISH_ROUND, DEFAULT_MAX_ROUNDS]


class TestAcceptance:
    def test_residual_gates_what_the_dynamics_claim(self):
        """Dynamics that claim convergence wherever they start: only the
        games whose snapped profile passes the loop's residual are
        polished; the rest replay as the loop."""
        w, caps, t = _seeded(8, 4)
        honest = _solve(w, caps, t)
        with mock.patch.object(
            fixpoint, "batch_best_response_dynamics", _dynamics_reporting(True)
        ):
            result = _assert_contract((w, caps, t), DEFAULT_MAX_ROUNDS)
        # Game 2's snapped profile needs a best-response step.
        assert bool(honest.polished.all())
        assert not bool(result.polished.all()) and bool(result.polished.any())

    @pytest.mark.parametrize("n", [2, 5])
    def test_a_move_per_user_is_accepted(self, n):
        """A snapped profile that needs exactly one move per user: every
        user sits on a slow link 0 and has a free fast link of its own.
        The dynamics spend one more iteration confirming that nobody
        moves, and the polish allows it."""
        w = np.ones((1, n))
        caps = np.ones((1, n, n + 1))
        caps[:, :, 0] = 0.1
        t = np.zeros((1, n + 1))
        snapped = np.zeros((1, n, n + 1))
        snapped[:, :, 0] = 1.0
        batch = GameBatch(w, caps, initial_traffic=t)
        start = np.zeros((1, n), dtype=np.intp)
        free = batch_best_response_dynamics(batch, start, tol=DEFAULT_TOL)
        assert bool(free.converged[0]) and int(free.steps[0]) == n
        cut = batch_best_response_dynamics(
            batch, start, tol=DEFAULT_TOL, max_steps=n
        )
        assert int(cut.steps[0]) == n and not bool(cut.converged[0])
        accepted, one_hot, r = fixpoint._polish(w, caps, t, snapped, DEFAULT_TOL)
        assert bool(accepted[0]) and float(r[0]) <= DEFAULT_TOL
        assert np.array_equal(one_hot[0].argmax(axis=-1), np.arange(1, n + 1))

    def test_b1_view_reports_the_path(self):
        """Game 2 stalls, uncertified, in the round loop alone; the
        polish certifies it with one best-response step."""
        w, caps, t = _seeded(8, 4, count=3)
        batched = _solve(w, caps, t)
        games = [
            UncertainRoutingGame.from_capacities(w[g], caps[g], initial_traffic=t[g])
            for g in range(3)
        ]
        for g, game in enumerate(games):
            solution = fixpoint_mixed_nash(game)
            assert solution.polished == bool(batched.polished[g])
            assert solution.rounds == int(batched.rounds[g])
        assert solution.polished
        with _no_polish():
            replayed = fixpoint_mixed_nash(games[0])
            with pytest.raises(ConvergenceError, match="stalled"):
                fixpoint_mixed_nash(games[2])
        assert not replayed.polished and replayed.rounds > POLISH_ROUND

    def test_wide_game_is_polished_and_certified(self):
        """A ``(1000, 50)`` game the round loop alone stalls on,
        uncertified, at round 1,202."""
        n, m = 1000, 50
        batch = GameBatch.from_seeds([stable_seed("proto-wide", n, m, 0)], n, m)
        result = _solve(batch.weights, batch.capacities, batch.initial_traffic)
        assert bool(result.converged[0]) and bool(result.certified[0])
        assert bool(result.polished[0]) and int(result.rounds[0]) == POLISH_ROUND


class TestE13Report:
    def test_pure_and_polished_counts(self):
        """Each quick cell's counts equal a recount from its chunks."""
        result = run_experiment("E13", quick=True)
        assert result.passed, result.render()
        general, uniform = e13_specs(quick=True)
        recount = {}
        for family, spec in (("general", general), ("uniform", uniform)):
            for chunk in spec.chunks()[0]:
                n, m = chunk.num_users, chunk.num_links
                if family == "general":
                    batch = GameBatch.from_seeds(chunk.seeds(), n, m)
                else:
                    batch = GameBatch.from_seeds_uniform_beliefs(
                        chunk.seeds(), n, m, with_initial_traffic=True
                    )
                solved = _solve(
                    batch.weights, batch.capacities, batch.initial_traffic
                )
                supports = np.count_nonzero(
                    solved.probabilities > SUPPORT_ATOL, axis=-1
                )
                pure = solved.certified & (supports == 1).all(axis=-1)
                counts = recount.setdefault((family, n, m), [0, 0])
                counts[0] += int(pure.sum())
                counts[1] += int(solved.polished.sum())
        for cell in result.details["cells"]:
            key = (cell["family"], cell["n"], cell["m"])
            assert [cell["pure"], cell["polished"]] == recount[key]
            assert cell["pure"] <= cell["certified"]
            assert cell["polished"] <= cell["converged"]
        header = result.tables[0].render().splitlines()[1]
        assert "pure" in header and "polished" in header

    def test_resume_refuses_a_record_without_the_counts(self, tmp_path, capsys):
        """A store written before E13 counted pure and polished games
        holds 7-field payloads; a resume refuses it rather than summing
        it in with those counts missing."""
        path = tmp_path / "e13.jsonl"
        run_experiment("E13", quick=True, store=path)
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[0])
        assert len(record["payload"]) == 9
        record["payload"] = record["payload"][:7]
        lines[0] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(StoreError, match="7 fields, not 9.*fresh store"):
            run_experiment("E13", quick=True, store=path, resume=True)
        argv = ["run", "E13", "--quick", "--store", str(path), "--resume"]
        assert cli_main(argv) == 2
        assert "start a fresh store" in capsys.readouterr().err
