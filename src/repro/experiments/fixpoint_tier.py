"""Experiment E13: the fixed-point solver tier beyond enumeration.

Every other mixed-strategy experiment stops where support enumeration
stops (``m^n`` exhaustive censuses, k×k indifference systems). E13 runs
the iterative fixed-point solver
(:func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash`) on games one
to two orders of magnitude wider — tens of users and links — and
verifies the two things the paper still predicts out there:

* **certified equilibria exist and the solver finds them** — every
  converged game's profile must pass the mixed-Nash oracle
  (:func:`repro.batch.mixed.batch_is_mixed_nash`) at the solver's
  certification tolerance, and non-convergence must be flagged, never
  silent;
* **FMNE dominance strain (Lemma 4.9 / Thms 4.11-4.12)** — wherever
  the fully mixed closed form is interior, the solver's equilibrium
  must be dominated by it user-by-user, exactly the E9 check but at
  widths where enumerating "every equilibrium" is impossible, so the
  solver's one certified equilibrium stands in for the census.

What was found is reported, not assumed: each cell counts the certified
profiles that are pure (every user's support a single link) and the
games the solver's best-response polish answered. Past
:data:`~repro.batch.fixpoint.POLISH_ROUND` rounds the solver snaps the
games still running to their argmax and finishes them by best response,
so a polished game counts :data:`~repro.batch.fixpoint.POLISH_ROUND`
rounds and "mean rounds" reads that value for a cell the polish
answered throughout. The title says "mixed equilibria"; the ``pure``
column says which kind was found (on the published grids, every
certified equilibrium is pure). A resume refuses a store written before
these two counts existed (its payloads have seven fields).

The sweep runs two seeded families because interiority is
width-sensitive: general heterogeneous-belief draws essentially never
admit an interior fully mixed point past a dozen users (the closed
form goes non-positive somewhere), while uniform-beliefs draws always
do (Thm 4.8). The general family carries the certification leg; the
uniform family keeps the dominance leg non-vacuous at every width.

Execution model matches E7-E9: a declarative
:class:`~repro.runtime.spec.SweepSpec` over a seeded grid, chunk
kernels that stack replications into a
:class:`~repro.batch.container.GameBatch`, and bit-identical results
under any ``jobs`` / ``batch_size`` / ``resume`` configuration because
per-rep seeds come from :func:`~repro.util.rng.stable_seed` and the
solver trajectory of each game is independent of its batch-mates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.fixpoint import batch_fixpoint_mixed_nash
from repro.batch.mixed import (
    SUPPORT_ATOL,
    batch_fully_mixed_candidate,
    batch_min_expected_latencies,
)
from repro.errors import StoreError
from repro.experiments.base import ExperimentResult
from repro.generators.suites import GridCell
from repro.runtime.scheduler import run_sweep
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore
from repro.util.parallel import ReplicationChunk
from repro.util.tables import Table

__all__ = ["run_e13", "e13_specs"]

#: Relative dominance slack, matching E9's comparison against the
#: closed form (the solver residual itself is certified far tighter).
_DOMINANCE_RTOL = 1e-7


#: One chunk's payload: ``(games, converged, certified, dominance
#: checked, violations, worst residual, total rounds, pure, polished)``.
_Payload = tuple[int, int, int, int, int, float, int, int, int]

#: The length of a :data:`_Payload`. Stores written before E13 counted
#: pure and polished games hold 7-field payloads.
_PAYLOAD_FIELDS = 9


def _solve_chunk_batch(batch: GameBatch) -> _Payload:
    """The :data:`_Payload` of one stacked chunk; ``pure`` counts the
    certified profiles whose every row has a single supported link."""
    result = batch_fixpoint_mixed_nash(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    single_link = (
        np.count_nonzero(result.probabilities > SUPPORT_ATOL, axis=-1) == 1
    ).all(axis=-1)
    comparable = np.flatnonzero(fm.exists & result.converged)
    violations = 0
    if comparable.size:
        lat = batch_min_expected_latencies(
            result.probabilities[comparable],
            batch.weights[comparable],
            batch.capacities[comparable],
            batch.initial_traffic[comparable],
        )  # (K, n)
        reference = fm.latencies[comparable]
        scale = np.maximum(np.abs(reference), 1.0)
        violations = int(
            np.count_nonzero(lat - reference > _DOMINANCE_RTOL * scale)
        )
    return (
        len(batch),
        int(result.converged.sum()),
        int(result.certified.sum()),
        int(comparable.size),
        violations,
        float(result.residuals[result.converged].max(initial=0.0)),
        int(result.rounds.sum()),
        int(np.count_nonzero(result.certified & single_link)),
        int(result.polished.sum()),
    )


def _examine_e13_chunk(chunk: ReplicationChunk) -> _Payload:
    """The general heterogeneous-belief family (certification leg)."""
    return _solve_chunk_batch(
        GameBatch.from_seeds(chunk.seeds(), chunk.num_users, chunk.num_links)
    )


def _examine_e13_uniform_chunk(chunk: ReplicationChunk) -> _Payload:
    """The uniform-beliefs family (interior FMNE — dominance leg).

    Drawn *with* initial traffic: without it the equiprobable start is
    already the equilibrium (Thm 4.8) and the solver would converge in
    zero rounds, proving nothing about the iteration.
    """
    return _solve_chunk_batch(
        GameBatch.from_seeds_uniform_beliefs(
            chunk.seeds(),
            chunk.num_users,
            chunk.num_links,
            with_initial_traffic=True,
        )
    )


def e13_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    """E13's declarative sweeps: widths past the enumeration ceiling.

    The full grid tops out at ``(100, 10)`` — ``10^100`` pure profiles,
    ~95 orders of magnitude past the exhaustive-census services — while
    quick mode keeps two cells just past the ``m^n`` service guard so
    the smoke tier still exercises the beyond-enumeration claim. Two
    specs with distinct seed labels: the general family and the
    uniform-beliefs family (see the module docstring).
    """
    if quick:
        cells = ((12, 4, 2), (16, 4, 2))
    else:
        cells = ((16, 4, 6), (32, 6, 4), (64, 8, 3), (100, 10, 2))
    grid = tuple(GridCell(n, m, reps) for (n, m, reps) in cells)
    return (
        SweepSpec("E13", "E13", grid, _examine_e13_chunk),
        SweepSpec("E13", "E13-uniform", grid, _examine_e13_uniform_chunk),
    )


def run_e13(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E13 — certified fixed-point equilibria beyond enumeration."""
    general_spec, uniform_spec = e13_specs(quick=quick)
    table = Table(
        ["beliefs", "n", "m", "instances", "converged", "certified",
         "pure", "polished", "dominance", "violations", "worst residual",
         "mean rounds"],
        title="E13 — fixed-point solver tier (beyond enumeration)",
    )
    all_ok = True
    cells = []
    for family, spec in (
        ("general", general_spec), ("uniform", uniform_spec)
    ):
        sweep = run_sweep(
            spec, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
            resume=resume,
        )
        totals = [[0, 0, 0, 0, 0, 0.0, 0, 0, 0] for _ in spec.cells]
        for cell_index, payload in zip(
            sweep.cell_of_chunk, sweep.chunk_payloads
        ):
            if len(payload) != _PAYLOAD_FIELDS:
                # Summed in, an older record would leave this cell's
                # pure and polished counts short without a word.
                raise StoreError(
                    f"an E13 chunk payload resumed from the store has "
                    f"{len(payload)} fields, not {_PAYLOAD_FIELDS}: it was "
                    f"written before E13 counted pure and polished games; "
                    f"start a fresh store"
                )
            cell = totals[cell_index]
            for j, value in enumerate(payload):
                # The worst residual is a maximum; every other field
                # is a count.
                cell[j] = max(cell[j], value) if j == 5 else cell[j] + value
        for grid_cell, (
            games, conv, cert, checked, bad, residual, rounds, pure, polished
        ) in zip(spec.cells, totals):
            # Every converged profile must be oracle-certified, and no
            # certified profile may beat the fully mixed point.
            # Convergence itself is reported, not asserted — a stalled
            # game is an honest flag, not a reproduction failure — but
            # the tier is only evidence if most games converge, and
            # the uniform family (interior FMNE by Thm 4.8) must
            # actually exercise the dominance comparison.
            ok = cert == conv and bad == 0 and conv * 2 >= games
            if family == "uniform":
                ok = ok and checked == conv and checked > 0
            all_ok = all_ok and ok
            cells.append(
                {
                    "family": family,
                    "n": grid_cell.num_users, "m": grid_cell.num_links,
                    "reps": grid_cell.replications, "games": games,
                    "converged": conv, "certified": cert,
                    "pure": pure, "polished": polished,
                    "dominance_checked": checked, "violations": bad,
                    "worst_residual": residual,
                }
            )
            table.add_row(
                [family, grid_cell.num_users, grid_cell.num_links,
                 grid_cell.replications, f"{conv}/{games}",
                 f"{cert}/{conv}", f"{pure}/{cert}", f"{polished}/{games}",
                 checked, bad, f"{residual:.2e}",
                 round(rounds / max(games, 1))]
            )
    return ExperimentResult(
        "E13",
        "Fixed-point solver: certified mixed equilibria past enumeration",
        passed=all_ok,
        tables=[table],
        details={"all_ok": all_ok, "cells": cells},
    )
