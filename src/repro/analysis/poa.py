"""Price of anarchy: the paper's upper bounds and empirical ratios.

Theorem 4.13 (uniform user beliefs) bounds both coordination ratios by

    (cmax / cmin) * (m + n - 1) / m,

and Theorem 4.14 (general case) by

    (cmax^2 / cmin) * (m + n - 1) / sum_j c^j_min,

with ``cmax``/``cmin`` extremes of the effective capacities over all
(user, link) pairs and ``c^j_min = min_i c^j_i``. Experiments E10/E11
sweep random games, compute the *exact* worst equilibrium ratio (over all
Nash equilibria found by enumeration, plus the fully mixed one when it
exists), and verify the bounds dominate.

Execution model: the single-game functions here are ``B = 1`` views of
the batched kernels in :mod:`repro.batch.poa`; :func:`poa_study` stacks
each grid cell's replications into a
:class:`~repro.batch.container.GameBatch` and evaluates bounds, optima,
equilibria and ratios for the whole stack at once. The sweep is
declared as a :class:`~repro.runtime.spec.SweepSpec`
(:func:`poa_sweep_spec`) and executed by the shared campaign runtime:
chunks of replications (``batch_size``) can fan out over a process pool
(``jobs``), checkpoint to a result store and resume. Every
replication's seed is derived independently via
:func:`~repro.util.rng.stable_seed`, so the observations are
bit-identical regardless of batching, chunking or worker count — and
identical to examining each instance with the single-game APIs in a
Python loop, which is exactly what this module did before the batched
mixed engine existed (pinned by ``tests/data/mixed_seed_baseline.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.mixed import batch_min_expected_latencies
from repro.batch.poa import (
    batch_empirical_ratios,
    batch_poa_bound_general,
    batch_poa_bound_uniform,
)
from repro.equilibria.enumeration import pure_nash_profiles
from repro.equilibria.fully_mixed import fully_mixed_candidate
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import MixedProfile, PureProfile, pure_to_mixed
from repro.model.social import opt1, opt2
from repro.generators.suites import GridCell
from repro.runtime.scheduler import run_sweep
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore
from repro.util.parallel import ReplicationChunk

__all__ = [
    "poa_bound_uniform",
    "poa_bound_general",
    "empirical_coordination_ratios",
    "PoAObservation",
    "poa_sweep_spec",
    "poa_study",
]


def poa_bound_uniform(game: UncertainRoutingGame) -> float:
    """Theorem 4.13's upper bound (valid under uniform user beliefs).

    The ``B = 1`` view of :func:`repro.batch.poa.batch_poa_bound_uniform`.
    """
    return float(batch_poa_bound_uniform(game.capacities))


def poa_bound_general(game: UncertainRoutingGame) -> float:
    """Theorem 4.14's upper bound (valid for every game).

    The ``B = 1`` view of :func:`repro.batch.poa.batch_poa_bound_general`.
    """
    return float(batch_poa_bound_general(game.capacities))


def empirical_coordination_ratios(
    game: UncertainRoutingGame,
    equilibria: Iterable[PureProfile | MixedProfile] | None = None,
) -> tuple[float, float]:
    """Worst ``(SC1/OPT1, SC2/OPT2)`` over the supplied equilibria.

    When *equilibria* is omitted, all pure NE (exhaustive) are used and
    the fully mixed NE is appended when it exists — per Theorems 4.11/4.12
    the fully mixed point is the maximiser, so including it makes the
    empirical ratio the true worst case whenever it exists. That default
    path is the ``B = 1`` view of
    :func:`repro.batch.poa.batch_empirical_ratios` up to the exhaustive
    optimum's 200k-profile cutover; beyond it the equilibria are
    enumerated blockwise and the optima come from branch-and-bound,
    exactly as before the batched engine (whole-stack evaluation of a
    multi-million-profile sweep would trade the old bounded memory for
    nothing — a single game has no batching to amortise).
    """
    if equilibria is None:
        if game.num_links**game.num_users <= 200_000:
            result = batch_empirical_ratios(GameBatch.from_games([game]))
            if int(result.num_equilibria[0]) == 0:
                raise ValueError("no equilibria supplied or found")
            return float(result.ratio_sc1[0]), float(result.ratio_sc2[0])
        eqs: list[PureProfile | MixedProfile] = list(pure_nash_profiles(game))
        fm = fully_mixed_candidate(game)
        if fm.exists:
            eqs.append(fm.profile())
        equilibria = eqs
    eqs = list(equilibria)
    if not eqs:
        raise ValueError("no equilibria supplied or found")
    matrices = np.stack(
        [
            eq.matrix
            if isinstance(eq, MixedProfile)
            else pure_to_mixed(eq, game.num_users, game.num_links).matrix
            for eq in eqs
        ]
    )
    costs = batch_min_expected_latencies(
        matrices, game.weights, game.capacities, game.initial_traffic
    )  # (E, n)
    o1, o2 = opt1(game), opt2(game)
    worst1 = max(0.0, float((costs.sum(axis=1) / o1).max()))
    worst2 = max(0.0, float((costs.max(axis=1) / o2).max()))
    return worst1, worst2


@dataclass(frozen=True)
class PoAObservation:
    """One instance's empirical ratios against the theorem bound."""

    num_users: int
    num_links: int
    ratio_sc1: float
    ratio_sc2: float
    bound: float
    num_equilibria: int

    @property
    def slack_sc1(self) -> float:
        """bound / ratio — how loose the theorem is on this instance."""
        return self.bound / self.ratio_sc1

    @property
    def slack_sc2(self) -> float:
        return self.bound / self.ratio_sc2

    def bound_holds(self) -> bool:
        return self.ratio_sc1 <= self.bound * (1 + 1e-9) and self.ratio_sc2 <= self.bound * (
            1 + 1e-9
        )


@dataclass(frozen=True)
class _PoAChunk(ReplicationChunk):
    """The shared replication chunk plus the study's generator switch."""

    uniform_beliefs: bool


def _examine_poa_chunk(
    chunk: _PoAChunk,
) -> tuple[list[float], list[float], list[float], list[int]]:
    """(bounds, SC1 ratios, SC2 ratios, equilibrium counts) for one chunk."""
    seeds = chunk.seeds()
    if chunk.uniform_beliefs:
        batch = GameBatch.from_seeds_uniform_beliefs(
            seeds, chunk.num_users, chunk.num_links
        )
        bounds = batch_poa_bound_uniform(batch.capacities)
    else:
        batch = GameBatch.from_seeds(seeds, chunk.num_users, chunk.num_links)
        bounds = batch_poa_bound_general(batch.capacities)
    ratios = batch_empirical_ratios(batch)
    return (
        bounds.tolist(),
        ratios.ratio_sc1.tolist(),
        ratios.ratio_sc2.tolist(),
        ratios.num_equilibria.tolist(),
    )


def poa_sweep_spec(
    cells: Sequence[GridCell],
    *,
    uniform_beliefs: bool,
    label: str = "poa",
) -> SweepSpec:
    """The PoA study as a declarative spec for the shared runtime."""
    return SweepSpec(
        experiment=label,
        label=label,
        cells=tuple(cells),
        kernel=_examine_poa_chunk,
        chunk_factory=_PoAChunk,
        chunk_extra={"uniform_beliefs": uniform_beliefs},
    )


def poa_study(
    grid: Sequence[GridCell],
    *,
    uniform_beliefs: bool,
    label: str = "poa",
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> list[PoAObservation]:
    """Sweep random games and record empirical ratio vs theorem bound.

    With ``uniform_beliefs=True`` instances come from the uniform-beliefs
    generator and the Theorem 4.13 bound applies; otherwise general games
    and Theorem 4.14.

    Parameters
    ----------
    jobs:
        Worker processes for the chunk fan-out; ``1`` (default) runs
        inline, ``0`` uses every CPU.
    batch_size:
        Replications per :class:`GameBatch` chunk; ``None`` stacks each
        cell's full replication axis into one batch. Results do not
        depend on this value.
    seed:
        Optional global seed override folded into the seed label;
        ``None`` keeps the published baseline streams.
    store / resume:
        Chunk-level checkpointing — see
        :func:`repro.runtime.scheduler.run_sweep`.
    """
    cells = list(grid)
    spec = poa_sweep_spec(cells, uniform_beliefs=uniform_beliefs, label=label)
    sweep = run_sweep(
        spec,
        jobs=jobs,
        batch_size=batch_size,
        seed=seed,
        store=store,
        resume=resume,
    )

    observations: list[PoAObservation] = []
    for cell_index, result in zip(sweep.cell_of_chunk, sweep.chunk_payloads):
        cell = cells[cell_index]
        for bound, r1, r2, num_eqs in zip(*result):
            if num_eqs == 0:  # pragma: no cover - would refute Conjecture 3.7
                continue
            observations.append(
                PoAObservation(
                    num_users=cell.num_users,
                    num_links=cell.num_links,
                    ratio_sc1=r1,
                    ratio_sc2=r2,
                    bound=bound,
                    num_equilibria=num_eqs,
                )
            )
    return observations
