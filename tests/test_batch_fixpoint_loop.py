"""The NumPy fixed-point round loop against its reference, bit for bit,
and the input domain the solver runs it on.

:func:`repro.batch.fixpoint._generic_fixpoint_loop` drops finished games
from its working tensors, keeps them user-major and sums in index order
with :func:`numpy.add.accumulate`; ``tests/fixpoint_oracle.py`` keeps
the masked loop it replaced. The loop is called directly, and all five
outputs must equal the oracle's under :func:`numpy.array_equal`.

:func:`~repro.batch.fixpoint.batch_fixpoint_mixed_nash` validates its
whole input before the loop runs: a bad shape raises
:class:`~repro.errors.DimensionError`, a bad value
:class:`~repro.errors.ModelError`.
"""

from __future__ import annotations

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpoint_oracle import oracle_fixpoint_loop
from repro.batch.container import GameBatch
from repro.batch.fixpoint import (
    DEFAULT_BETA_MAX,
    DEFAULT_ETA,
    DEFAULT_MAX_ROUNDS,
    DEFAULT_STALL_ROUNDS,
    DEFAULT_TOL,
    STALL_RTOL,
    _generic_fixpoint_loop,
    batch_fixpoint_mixed_nash,
)
from repro.errors import DimensionError, ModelError
from repro.experiments.fixpoint_tier import e13_specs

BUDGETS = (0, 1, 2, 7, 40, 4000)


def _args(max_rounds=DEFAULT_MAX_ROUNDS, stall_rounds=DEFAULT_STALL_ROUNDS):
    log2_beta_max = DEFAULT_BETA_MAX.bit_length() - 1
    return (DEFAULT_TOL, DEFAULT_ETA, log2_beta_max, max_rounds,
            stall_rounds, STALL_RTOL)


def _line_of(function, text):
    """The line number of the one line of *function* containing *text*."""
    source, first = inspect.getsourcelines(function)
    (offset,) = [i for i, line in enumerate(source) if text in line]
    return first + offset


def _assert_loops_agree(w, caps, t, args):
    got = _generic_fixpoint_loop(w, caps, t, *args)
    ref = oracle_fixpoint_loop(w, caps, t, *args)
    names = ("probabilities", "rounds", "residuals", "converged", "stalled")
    for name, a, b in zip(names, got, ref):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    return got


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


def _e13_chunks(quick):
    """Every chunk of E13's two specs, drawn as its chunk kernels draw."""
    general, uniform = e13_specs(quick=quick)
    for chunk in general.chunks()[0]:
        n, m = chunk.num_users, chunk.num_links
        yield "general", GameBatch.from_seeds(chunk.seeds(), n, m)
    for chunk in uniform.chunks()[0]:
        n, m = chunk.num_users, chunk.num_links
        yield "uniform", GameBatch.from_seeds_uniform_beliefs(
            chunk.seeds(), n, m, with_initial_traffic=True
        )


def _e13_params(quick):
    return [
        pytest.param(batch, id=f"{family}-{batch.num_users}x{batch.num_links}")
        for family, batch in _e13_chunks(quick)
    ]


class TestHypothesisShapes:
    @given(_stacks())
    @settings(max_examples=30, deadline=None)
    def test_every_budget(self, stack):
        """Truncating at each budget pins intermediate states, not just
        the endpoint."""
        for budget in BUDGETS:
            _assert_loops_agree(*stack, _args(max_rounds=budget))

    @given(_stacks())
    @settings(max_examples=30, deadline=None)
    def test_short_stall_window(self, stack):
        _assert_loops_agree(*stack, _args(stall_rounds=5))


class TestFinishingOrder:
    def test_games_leave_in_different_rounds(self):
        """E13's uniform ``(16, 4)`` chunk: five games finish by round
        49 and one runs to 298 without them."""
        (batch,) = [
            batch for family, batch in _e13_chunks(quick=False)
            if family == "uniform" and batch.num_users == 16
        ]
        _, rounds, _, converged, _ = _assert_loops_agree(
            batch.weights, batch.capacities, batch.initial_traffic, _args()
        )
        assert bool(converged.all())
        assert sorted(rounds.tolist()) == [47, 48, 48, 49, 49, 298]

    @pytest.mark.parametrize(
        ("stall_rounds", "max_rounds"), [(5, 4000), (30, 4000), (30, 34)]
    )
    def test_stalls_fire_mid_batch(self, stall_rounds, max_rounds):
        """Games stall in different rounds while batch-mates run on, to
        a stall of their own, to convergence or to the budget."""
        batch = GameBatch.from_seeds(list(range(12)), 4, 3)
        args = _args(max_rounds=max_rounds, stall_rounds=stall_rounds)
        _, rounds, _, _, stalled = _assert_loops_agree(
            batch.weights, batch.capacities, batch.initial_traffic, args
        )
        assert len(set(rounds[stalled].tolist())) > 1
        assert rounds[stalled].min() < rounds.max()

    def test_empty_batch_returns_at_once(self):
        """No line of the round loop runs for an empty stack, and the
        oracle checks its stop condition once. A loop that only stops
        when a game finishes would spin through all 100,000 rounds."""
        w, caps, t = np.zeros((0, 3)), np.zeros((0, 3, 2)), np.zeros((0, 2))
        loop_code = _generic_fixpoint_loop.__code__
        oracle_code = oracle_fixpoint_loop.__code__
        lines = {loop_code: [], oracle_code: []}

        def tracer(frame, event, arg):
            if frame.f_code not in lines:
                return None
            if event == "line":
                lines[frame.f_code].append(frame.f_lineno)
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            got = _assert_loops_agree(w, caps, t, _args(max_rounds=100_000))
        finally:
            sys.settrace(previous)
        assert got[0].shape == (0, 3, 2)
        loop_header = _line_of(_generic_fixpoint_loop, "for k in range(")
        assert lines[loop_code], "the loop was not traced"
        assert max(lines[loop_code]) < loop_header
        oracle_header = _line_of(oracle_fixpoint_loop, "for k in range(")
        assert lines[oracle_code].count(oracle_header) == 1


class TestE13Chunks:
    @pytest.mark.parametrize("batch", _e13_params(quick=True))
    def test_quick_chunk(self, batch):
        _assert_loops_agree(
            batch.weights, batch.capacities, batch.initial_traffic, _args()
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("batch", _e13_params(quick=False))
    def test_full_chunk(self, batch):
        _assert_loops_agree(
            batch.weights, batch.capacities, batch.initial_traffic, _args()
        )


def _valid_game_arrays():
    batch = GameBatch.from_seeds([7, 8], 3, 2, with_initial_traffic=True)
    return {
        "weights": batch.weights.copy(),
        "capacities": batch.capacities.copy(),
        "initial_traffic": batch.initial_traffic.copy(),
    }


class TestRefusedInputs:
    """Each input here used to be answered (NaN games as "converged"
    and "certified"), run to a stall, or crash with a bare error."""

    @pytest.mark.parametrize(
        ("name", "index", "value"),
        [
            ("weights", (0, 1), np.nan),
            ("weights", (1, 0), -1.0),
            ("capacities", (0, 1, 0), np.inf),
            ("capacities", (1, 2, 1), 0.0),
            ("capacities", ..., 0.0),
            ("initial_traffic", (0, 1), np.nan),
            ("initial_traffic", (1, 0), -0.5),
        ],
    )
    def test_bad_game_value(self, name, index, value):
        arrays = _valid_game_arrays()
        arrays[name][index] = value
        with pytest.raises(ModelError, match=name) as excinfo:
            batch_fixpoint_mixed_nash(**arrays)
        assert excinfo.type is ModelError

    @pytest.mark.parametrize(("n", "m"), [(0, 2), (3, 0)])
    def test_game_without_users_or_links(self, n, m):
        with pytest.raises(DimensionError, match=r"n >= 1 users and m >= 1"):
            batch_fixpoint_mixed_nash(np.ones((2, n)), np.ones((2, n, m)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta_max": 2.0},
            {"max_rounds": 2.5},
            {"stall_rounds": 5.0},
            {"max_rounds": True},
            {"tol": float("nan")},
            {"tol": -1.0},
            {"tol": float("inf")},
            {"certify_tol": float("nan")},
            {"certify_tol": -1e-8},
            {"certify_tol": float("inf")},
            {"stall_rtol": float("nan")},
            {"stall_rtol": -0.1},
            {"stall_rtol": 1.0},
            {"stall_rtol": float("inf")},
        ],
        ids=repr,
    )
    def test_bad_parameter(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ModelError, match=name) as excinfo:
            batch_fixpoint_mixed_nash(**_valid_game_arrays(), **kwargs)
        assert excinfo.type is ModelError

    def test_domain_edges_are_accepted(self):
        arrays = _valid_game_arrays()
        arrays["initial_traffic"][:] = 0.0
        result = batch_fixpoint_mixed_nash(
            **arrays,
            tol=0.0,
            beta_max=np.int64(4),
            max_rounds=np.int32(30),
            stall_rounds=np.int64(1),
            stall_rtol=0.0,
            certify_tol=0.0,
        )
        assert result.probabilities.shape == (2, 3, 2)
        empty = batch_fixpoint_mixed_nash(np.ones((0, 3)), np.ones((0, 3, 2)))
        assert empty.probabilities.shape == (0, 3, 2)
        assert empty.certified.shape == (0,)
        lone = batch_fixpoint_mixed_nash(np.ones((1, 1)), np.ones((1, 1, 1)))
        assert bool(lone.converged[0]) and bool(lone.certified[0])
        assert lone.probabilities.tolist() == [[[1.0]]]
