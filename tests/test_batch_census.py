"""The census kernels against the reference kernels they replaced.

``tests/census_oracle.py`` keeps the profile sweep, the pure-latency
tensor, the optima, the equilibrium stack and the worst ratios as they
were before the census gathered through cached flat index tables, swept
user-major slabs and folded its minima and maxima elementwise. Every
change there is exact (gathers, minima, maxima and ``and`` do no
rounding, and each sum over users stays a trailing-axis ``sum``), so
the kernels must equal the oracle bit for bit: ``np.array_equal`` on
every output, on hypothesis stacks of 1 to 16 games, 2 to 9 users (past
the 8 terms where numpy's sums turn pairwise), 2 to 4 links, with and
without initial traffic, and with capacities and weights drawn from a
few values so that deviations tie. With ``tol = 0`` those ties sit
exactly on the Nash threshold, where ``>=`` and ``>`` part.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from census_oracle import (
    oracle_all_pure_latencies,
    oracle_empirical_ratios,
    oracle_equilibrium_profiles,
    oracle_social_optima,
    oracle_sweep_pure_nash_mask,
)
from repro.batch import (
    GameBatch,
    batch_all_pure_latencies,
    batch_count_pure_nash,
    batch_empirical_ratios,
    batch_equilibrium_profiles,
    batch_fully_mixed_candidate,
    batch_social_optima,
)
from repro.batch.kernels import _all_assignments, sweep_pure_nash_mask
from repro.errors import ModelError

#: Largest ``B * m^n`` a drawn stack may sweep, to keep examples quick.
MAX_CELLS = 60_000


@st.composite
def stacks(draw) -> GameBatch:
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, 4))
    while m > 2 and m**n > MAX_CELLS // 2:
        m -= 1
    b = draw(st.integers(1, 16))
    b = max(1, min(b, MAX_CELLS // m**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # tied: a few exact values, many ties
        weights = rng.choice([1.0, 2.0, 3.0], size=(b, n))
        capacities = rng.choice([1.0, 2.0, 4.0], size=(b, n, m))
    else:
        weights = rng.uniform(0.5, 4.0, size=(b, n))
        capacities = rng.uniform(0.5, 4.0, size=(b, n, m))
    traffic = (
        rng.choice([0.0, 1.0, 2.5], size=(b, m))
        if draw(st.booleans())
        else np.zeros((b, m))
    )
    return GameBatch(weights, capacities, initial_traffic=traffic)


#: The default Nash tolerance, and none: ties decide the verdict.
TOLS = st.sampled_from([1e-9, 0.0])


def _assert_stacks_equal(got, want) -> None:
    assert np.array_equal(got.game_index, want.game_index)
    assert np.array_equal(got.probabilities, want.probabilities)
    assert np.array_equal(got.num_pure, want.num_pure)
    assert np.array_equal(got.fmne_exists, want.fmne_exists)


@settings(max_examples=60, deadline=None)
@given(stacks(), TOLS)
def test_sweep_mask_matches_oracle(batch, tol):
    n, m = batch.num_users, batch.num_links
    table = _all_assignments(n, m)
    args = (table, batch.weights, batch.capacities, batch.initial_traffic)
    want = oracle_sweep_pure_nash_mask(*args, tol=tol)
    assert np.array_equal(sweep_pure_nash_mask(*args, tol=tol), want)
    # The memoised tables of the canonical blocks give the same verdicts.
    counts = batch_count_pure_nash(batch, tol=tol)
    assert np.array_equal(counts, want.sum(axis=1))


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_pure_latencies_and_optima_match_oracle(batch):
    sig, lat = batch_all_pure_latencies(batch)
    want_sig, want_lat = oracle_all_pure_latencies(batch)
    assert np.array_equal(sig, want_sig)
    assert np.array_equal(lat, want_lat)
    for got, want in zip(batch_social_optima(batch), oracle_social_optima(batch)):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(stacks(), TOLS)
def test_equilibrium_stack_and_ratios_match_oracle(batch, tol):
    _assert_stacks_equal(
        batch_equilibrium_profiles(batch, tol=tol),
        oracle_equilibrium_profiles(batch, tol=tol),
    )
    got = batch_empirical_ratios(batch, tol=tol)
    want = oracle_empirical_ratios(batch, tol=tol)
    for field in ("ratio_sc1", "ratio_sc2", "num_equilibria", "opt1", "opt2"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_caller_supplied_closed_form_is_the_same_answer():
    seeds = np.random.default_rng(7)
    batch = GameBatch(
        seeds.uniform(0.5, 4.0, size=(6, 3, 3)).sum(axis=2),
        seeds.uniform(0.5, 4.0, size=(6, 3, 3)),
    )
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    with_fm = batch_empirical_ratios(batch, fully_mixed=fm)
    without = batch_empirical_ratios(batch)
    for field in ("ratio_sc1", "ratio_sc2", "num_equilibria", "opt1", "opt2"):
        assert np.array_equal(getattr(with_fm, field), getattr(without, field))


def test_closed_form_of_another_stack_is_refused():
    batch = GameBatch(np.ones((3, 2)), np.ones((3, 2, 2)))
    other = batch_fully_mixed_candidate(np.ones((2, 2)), np.ones((2, 2, 2)))
    with pytest.raises(ModelError, match="fully_mixed covers"):
        batch_empirical_ratios(batch, fully_mixed=other)


def test_caller_supplied_assignment_table_is_not_memoised_as_canonical():
    """A table that is not the canonical one, in another row order, must
    be swept as given, not read through the canonical blocks' tables."""
    batch = GameBatch(np.array([[1.0, 2.0, 3.0]]), np.full((1, 3, 2), 2.0))
    table = _all_assignments(3, 2)[::-1].copy()
    got = batch_equilibrium_profiles(batch, assignments=table)
    want = oracle_equilibrium_profiles(batch, assignments=table)
    _assert_stacks_equal(got, want)
    for got_opt, want_opt in zip(
        batch_social_optima(batch, table), oracle_social_optima(batch, table)
    ):
        assert np.array_equal(got_opt, want_opt)
