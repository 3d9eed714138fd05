"""Tests for the conjecture campaign and the scaling fits."""

from __future__ import annotations

import pytest

from repro.analysis.conjecture import (
    BRD_MAX_STEPS,
    CampaignResult,
    run_conjecture_campaign,
)
from repro.analysis.scaling import THEORETICAL_EXPONENTS, measure_scaling
from repro.analysis.cycles import (
    move_cycles,
    realize_cycle,
    search_improvement_cycle_instance,
)
from repro.generators.suites import GridCell


class TestConjectureCampaign:
    def test_small_campaign_supports_conjecture(self):
        grid = [GridCell(2, 2, 5), GridCell(3, 3, 5)]
        result = run_conjecture_campaign(grid, label="test-camp")
        assert result.conjecture_supported
        assert result.total_instances == 10
        assert result.counterexamples == 0

    def test_cells_carry_statistics(self):
        grid = [GridCell(3, 2, 4)]
        result = run_conjecture_campaign(grid, label="test-camp2")
        cell = result.cells[0]
        assert cell.instances == 4
        assert cell.with_pure_nash == 4
        assert cell.min_equilibria >= 1
        assert cell.max_equilibria >= cell.min_equilibria
        assert cell.brd_always_converged

    def test_table_renders(self):
        grid = [GridCell(2, 2, 2)]
        result = run_conjecture_campaign(grid, label="test-camp3")
        text = result.to_table().render()
        assert "Conjecture" in text
        assert "PNE" in text

    def test_deterministic(self):
        grid = [GridCell(3, 2, 3)]
        a = run_conjecture_campaign(grid, label="same-label")
        b = run_conjecture_campaign(grid, label="same-label")
        assert a.cells[0].mean_equilibria == b.cells[0].mean_equilibria


def _reference_campaign_cells(grid, label):
    """The pre-batch per-instance loop, inlined as the parity oracle: one
    game at a time, counting equilibria with the single-game enumerator
    and running the per-game dynamics loop of ``tests/dynamics_oracle.py``,
    exactly as the campaign ran before the batched engine existed."""
    from dynamics_oracle import oracle_dynamics

    from repro.equilibria.enumeration import count_pure_nash
    from repro.generators.games import random_game
    from repro.util.rng import stable_seed

    cells = []
    for cell in grid:
        counts, steps, converged_all = [], [], True
        for rep in range(cell.replications):
            seed = stable_seed(label, cell.num_users, cell.num_links, rep)
            game = random_game(
                cell.num_users, cell.num_links, num_states=4,
                concentration=1.0, seed=seed,
            )
            counts.append(count_pure_nash(game))
            result = oracle_dynamics(
                game, schedule="round_robin", max_steps=BRD_MAX_STEPS, seed=seed
            )
            steps.append(result.steps)
            converged_all = converged_all and result.converged
        cells.append(
            (
                sum(1 for c in counts if c > 0),
                min(counts), max(counts), sum(counts) / len(counts),
                sum(steps) / len(steps), converged_all,
            )
        )
    return cells


def _cells_tuple(result):
    return [
        (
            c.with_pure_nash, c.min_equilibria, c.max_equilibria,
            c.mean_equilibria, c.mean_brd_steps, c.brd_always_converged,
        )
        for c in result.cells
    ]


class TestCampaignBatchedParity:
    GRID = [GridCell(2, 2, 6), GridCell(3, 3, 6), GridCell(5, 2, 6)]

    def test_bit_identical_to_per_instance_loop(self):
        """The batched campaign must reproduce the sequential per-instance
        implementation bit for bit (same seeds, same statistics)."""
        got = _cells_tuple(run_conjecture_campaign(self.GRID, label="parity"))
        assert got == _reference_campaign_cells(self.GRID, "parity")

    @pytest.mark.parametrize("grid_name", ["quick", "full"])
    def test_bit_identical_to_frozen_seed_baseline(self, grid_name):
        """Pin the campaign against outputs recorded from the *original*
        pre-batch implementation (tests/data/e5_seed_baseline.json was
        generated by the seed code before the batched engine existed).

        Unlike the loop oracle above — which now shares the refactored
        kernels with the campaign — this fixture cannot drift with the
        code, so it enforces the determinism contract against the true
        historical implementation, including the n=8 and n=10 cells
        whose load arithmetic is most sensitive to summation order.
        """
        import json
        from pathlib import Path

        baseline = json.loads(
            (Path(__file__).parent / "data" / "e5_seed_baseline.json").read_text()
        )[grid_name]
        from repro.generators.suites import conjecture_grid, quick_conjecture_grid

        if grid_name == "quick":
            grid = list(quick_conjecture_grid())
        else:
            grid = list(conjecture_grid())
        result = run_conjecture_campaign(grid)  # label="E5" default
        got = [
            {
                "n": c.num_users, "m": c.num_links, "instances": c.instances,
                "with_pure_nash": c.with_pure_nash, "min": c.min_equilibria,
                "max": c.max_equilibria, "mean": c.mean_equilibria,
                "mean_steps": c.mean_brd_steps, "conv": c.brd_always_converged,
            }
            for c in result.cells
        ]
        assert got == baseline

    def test_results_independent_of_batch_size(self):
        ref = _cells_tuple(run_conjecture_campaign(self.GRID, label="chunk"))
        for batch_size in (1, 2, 5):
            got = _cells_tuple(
                run_conjecture_campaign(self.GRID, label="chunk", batch_size=batch_size)
            )
            assert got == ref

    def test_results_independent_of_jobs(self):
        ref = _cells_tuple(run_conjecture_campaign(self.GRID, label="jobs"))
        got = _cells_tuple(
            run_conjecture_campaign(self.GRID, label="jobs", jobs=2, batch_size=3)
        )
        assert got == ref


class TestScaling:
    def test_atwolinks_scaling_fit(self):
        obs = measure_scaling("atwolinks", sizes=[16, 32, 64, 128], repeats=1)
        assert len(obs.seconds) == 4
        assert all(s > 0 for s in obs.seconds)
        # Vectorisation can flatten the curve, but growth must not exceed
        # the stated O(n^2) class materially.
        assert obs.exponent <= THEORETICAL_EXPONENTS["atwolinks"] + 0.6

    def test_auniform_scaling_fit(self):
        obs = measure_scaling("auniform", sizes=[128, 256, 512, 1024], repeats=1)
        assert obs.exponent <= 2.0

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            measure_scaling("quantum")


class TestCycleMachinery:
    @pytest.mark.parametrize(
        "num_users, num_links, max_length, count",
        # (2, 2): four move-and-return pairs plus the square both ways.
        [(2, 2, 4, 6), (3, 3, 4, 297), (3, 3, 6, 2889)],
    )
    def test_move_cycle_counts(self, num_users, num_links, max_length, count):
        cycles = list(move_cycles(num_users, num_links, max_length))
        assert len(cycles) == count
        shapes = {frozenset(zip(c, c[1:])) for c in cycles}
        assert len(shapes) == count  # each cycle once, not once per rotation
        for cycle in cycles:
            assert cycle[0] == cycle[-1] == min(cycle)
            assert len(set(cycle[:-1])) == len(cycle) - 1 <= max_length
            for s, t in zip(cycle, cycle[1:]):
                assert sum(a != b for a, b in zip(s, t)) == 1

    def test_two_user_two_link_cycles_unrealisable(self):
        """The library-level proof sketch: the canonical 4-cycle cannot be
        realised by any capacities (the move inequalities multiply to a
        contradiction)."""
        states = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        for w in ([1.0, 1.0], [1.0, 3.0], [2.5, 0.4]):
            assert realize_cycle(states, w, 2) is None

    def test_open_walks_rejected(self):
        assert realize_cycle([(0, 0), (1, 0)], [1.0, 1.0], 2) is None

    def test_non_unilateral_steps_rejected(self):
        states = [(0, 0), (1, 1), (0, 0)]
        assert realize_cycle(states, [1.0, 1.0], 2) is None

    def test_search_small_budget_runs(self):
        result = search_improvement_cycle_instance(
            max_cycle_length=4, weight_draws=3, max_cycles=200, seed=0
        )
        assert result.cycles_tested == 200  # of 297: cut by max_cycles
        # Length-4 cycles are provably unrealisable.
        assert not result.found
