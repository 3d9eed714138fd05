"""Differential tests for the batched cycle-realisability kernel.

:func:`repro.batch.pure.batch_realisable_cycles`, its ``B = 1`` view
:func:`repro.analysis.cycles.realize_cycle` and the blocked search are
held to the per-walk loop in ``tests/cycles_oracle.py``: verdicts and
per-user loop totals bit for bit, witnesses move for move, search
results field for field.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from cycles_oracle import oracle_realize, oracle_search
from repro.analysis.cycles import (
    CYCLE_BLOCK,
    move_cycles,
    realize_cycle,
    search_improvement_cycle_instance,
)
from repro.batch.pure import batch_cycle_gaps, batch_realisable_cycles, maxplus_closure
from repro.errors import ModelError
from repro.model.game import UncertainRoutingGame
from repro.model.latency import deviation_latencies
from repro.util.rng import as_generator

#: 0-based indices of two 8-move walks of ``move_cycles(4, 3, 8)`` that
#: some weights realise: about 0.05% and 1% of ``uniform(0.2, 5)`` draws.
FOUR_USER_WALKS = (1686, 2417)


def _pad(cycles):
    length = max(len(states) for states in cycles)
    return np.array([s + s[-1:] * (length - len(s)) for s in cycles])


def _search_draws(num_users, count, seed=0):
    """The weight vectors ``search_improvement_cycle_instance`` draws."""
    rng = as_generator(seed)
    return np.array([rng.uniform(0.2, 5.0, size=num_users) for _ in range(count)])


def _loop_totals(walks, weights, num_links):
    closure = maxplus_closure(batch_cycle_gaps(walks, weights, num_links))
    return np.diagonal(closure, axis1=-2, axis2=-1)  # (D, C, n, m)


def _assert_strict_improvements(states, weights, capacities):
    """Every move of the closed walk lowers its mover's latency."""
    game = UncertainRoutingGame.from_capacities(weights, capacities)
    for s, t in zip(states, states[1:]):
        (user,) = [k for k in range(len(s)) if s[k] != t[k]]
        dev = deviation_latencies(game, np.array(s))
        assert dev[user, t[user]] < dev[user, s[user]], (s, t)


@pytest.fixture(scope="module")
def four_user_walks():
    cycles = list(itertools.islice(move_cycles(4, 3, 8), max(FOUR_USER_WALKS) + 1))
    return {index: cycles[index] for index in FOUR_USER_WALKS}


class TestKernelMatchesOracle:
    @pytest.mark.parametrize(
        "num_users, num_links, max_length",
        [
            (3, 3, 4),  # quick E6: 297 cycles
            (3, 2, 8),  # 12 of these 68 walks repeat a move of one user
            pytest.param(3, 3, 6, marks=pytest.mark.slow),  # full E6: 2,889
        ],
    )
    def test_every_pair_bit_for_bit(self, num_users, num_links, max_length):
        """Every (cycle, draw) pair of the shape against 12 draws."""
        cycles = list(move_cycles(num_users, num_links, max_length))
        draws = _search_draws(num_users, 12)
        walks = _pad(cycles)
        verdicts = batch_realisable_cycles(walks, draws, num_links)
        totals = _loop_totals(walks, draws, num_links)
        assert verdicts.shape == (len(cycles), 12)
        for c, states in enumerate(cycles):
            for d, w in enumerate(draws):
                ref = oracle_realize(states, w, num_links)
                assert verdicts[c, d] == ref.realisable
                assert totals[d, c].tobytes() == ref.loop_totals.tobytes()

    def test_padding_adds_no_constraint(self):
        cycles = list(itertools.islice(move_cycles(3, 3, 6), 300))
        draws = _search_draws(3, 4, seed=5)
        padded = _pad(cycles)
        for c, states in enumerate(cycles[:40]):
            alone = np.array([states])
            assert np.array_equal(
                batch_cycle_gaps(alone, draws, 3)[:, 0],
                batch_cycle_gaps(padded[c : c + 1], draws, 3)[:, 0],
            )

    def test_empty_stacks(self):
        walks = _pad(list(move_cycles(2, 2, 4)))
        assert batch_realisable_cycles(walks, np.empty((0, 2)), 2).shape == (6, 0)
        empty = np.empty((0, 5, 2), dtype=int)
        assert batch_realisable_cycles(empty, np.ones((3, 2)), 2).shape == (0, 3)

    @pytest.mark.parametrize(
        "walks, weights",
        [
            ([[(0, 0), (1, 0)]], [[1.0, 2.0]]),  # open
            ([[(0, 0), (1, 1), (0, 0)]], [[1.0, 2.0]]),  # two movers
            ([[(0, 0), (2, 0), (0, 0)]], [[1.0, 2.0]]),  # link out of range
            ([[(0, 0), (1, 0), (0, 0)]], [[0.0, 2.0]]),  # zero weight
            ([[(0, 0), (1, 0), (0, 0)]], [[np.nan, 2.0]]),
            ([[(0, 0), (1, 0), (0, 0)]], [[1.0, 2.0, 3.0]]),  # shape
        ],
    )
    def test_rejects_malformed_input(self, walks, weights):
        with pytest.raises(ModelError):
            batch_realisable_cycles(np.array(walks), np.array(weights), 2)


class TestRealisablePairs:
    @pytest.mark.parametrize("index", FOUR_USER_WALKS)
    def test_kernel_and_view_match_oracle(self, four_user_walks, index):
        states = four_user_walks[index]
        draws = np.random.default_rng(0).uniform(0.2, 5.0, size=(2000, 4))
        verdicts = batch_realisable_cycles(np.array([states]), draws, 3)[0]
        totals = _loop_totals(np.array([states]), draws, 3)[:, 0]
        realised = 0
        for d, w in enumerate(draws):
            ref = oracle_realize(states, w, 3)
            assert verdicts[d] == ref.realisable
            assert totals[d].tobytes() == ref.loop_totals.tobytes()
            caps = realize_cycle(states, w, 3)
            if ref.realisable:
                assert caps is not None
                np.testing.assert_allclose(caps, ref.capacities, rtol=1e-12)
                _assert_strict_improvements(states, w, caps)
                realised += 1
            else:
                assert caps is None
        assert realised >= 1

    def test_margin_derived_from_the_loops(self, four_user_walks):
        """Draw 0 of the default search realises walk 2,417; its loop
        totals sit too close to zero for a fixed 0.05 margin."""
        states = four_user_walks[2417]
        w = _search_draws(4, 1)[0]
        caps = realize_cycle(states, w, 3)
        assert caps is not None
        _assert_strict_improvements(states, w, caps)


class TestFourUserCycle:
    def test_eight_move_improvement_cycle_found(self):
        result = search_improvement_cycle_instance(
            num_users=4, num_links=3, max_cycle_length=8, max_cycles=2418
        )
        assert result.found
        assert result.cycles_tested == 2418
        cycle = result.cycle
        assert cycle[0] == cycle[-1] and len(cycle) == 9
        for s, t in zip(cycle, cycle[1:]):
            (user,) = [k for k in range(4) if s[k] != t[k]]
            dev = deviation_latencies(result.game, np.array(s))
            assert dev[user, t[user]] < dev[user, s[user]]
        # User 2 stays on link 0 throughout: fixed traffic.
        assert {state[2] for state in cycle} == {0}

    def test_first_hit_in_cycle_then_draw_order(self):
        """One block holds two realisable pairs: cycle 2,364 under draw
        25 and cycle 2,418 under draw 9. The earlier cycle wins."""
        result = search_improvement_cycle_instance(
            num_users=4, num_links=3, max_cycle_length=8, weight_draws=26,
            max_cycles=3000, seed=6,
        )
        assert result.found
        assert result.cycles_tested == 2364
        assert np.array_equal(result.game.weights, _search_draws(4, 26, seed=6)[25])

    def test_cut_one_cycle_short(self):
        result = search_improvement_cycle_instance(
            num_users=4, num_links=3, max_cycle_length=8, max_cycles=2417
        )
        assert not result.found
        assert result.cycles_tested == 2417


class TestSearchMatchesOracle:
    @pytest.mark.parametrize(
        "settings",
        [
            # Quick E6: every cycle tested in three blocks, none found.
            dict(num_users=3, num_links=3, max_cycle_length=4, weight_draws=4,
                 max_cycles=500),
            # max_cycles cuts inside the second block.
            dict(num_users=3, num_links=3, max_cycle_length=6, weight_draws=4,
                 max_cycles=CYCLE_BLOCK + 72),
            # No draws: every cycle is tested and none is realisable.
            dict(num_users=3, num_links=3, max_cycle_length=4, weight_draws=0,
                 max_cycles=500),
            # A hit in block 19: draw 0 realises cycle 2,418.
            dict(num_users=4, num_links=3, max_cycle_length=8, weight_draws=1,
                 max_cycles=3000),
            # Cut one cycle short of that hit, inside block 19.
            dict(num_users=4, num_links=3, max_cycle_length=8, weight_draws=1,
                 max_cycles=2417),
            pytest.param(
                dict(num_users=4, num_links=3, max_cycle_length=8,
                     weight_draws=12, max_cycles=2418),
                marks=pytest.mark.slow,
            ),
            # The two-hit block of test_first_hit_in_cycle_then_draw_order.
            pytest.param(
                dict(num_users=4, num_links=3, max_cycle_length=8,
                     weight_draws=26, max_cycles=3000, seed=6),
                marks=pytest.mark.slow,
            ),
            # Draw 92 realises cycle 1,687, before the 12-draw hit.
            pytest.param(
                dict(num_users=4, num_links=3, max_cycle_length=8,
                     weight_draws=100, max_cycles=2000),
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_agrees_with_oracle(self, settings):
        got = search_improvement_cycle_instance(**settings)
        ref = oracle_search(**settings)
        assert got.found == ref.found
        assert got.cycles_tested == ref.cycles_tested
        assert got.cycle == ref.cycle
