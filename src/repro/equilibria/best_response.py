"""Best- and better-response dynamics with cycle detection.

These dynamics serve three roles in the reproduction:

1. a general-purpose pure-NE solver for games outside the paper's three
   special cases (the fallback used by :func:`repro.equilibria.solve.solve_pure_nash`);
2. the instrument of the Section 3.2 simulation campaign — the paper's
   evidence for Conjecture 3.7 is that dynamics/enumeration never failed
   to locate a pure NE;
3. the cycle detector behind the "no ordinal potential" observation
   (B. Monien): a better-response cycle certifies that the game has no
   ordinal potential function.

Both dynamics are the ``B = 1`` views of the lockstep engine in
:mod:`repro.batch.dynamics`: a single game steps through the same code
that advances a whole ``(B, n, m)`` stack. Its schedules are
deterministic, so revisiting a profile is a proof of cycling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.dynamics import (
    BatchSchedule,
    batch_best_response_dynamics,
    batch_better_response_dynamics,
)
from repro.model.game import UncertainRoutingGame
from repro.model.latency import deviation_latencies
from repro.model.profiles import AssignmentLike, PureProfile, as_assignment
from repro.util.rng import RandomState

__all__ = [
    "DynamicsResult",
    "best_responses",
    "best_response_dynamics",
    "better_response_dynamics",
]


def best_responses(game: UncertainRoutingGame, assignment: AssignmentLike) -> np.ndarray:
    """Each user's best-response link against the others' current choices.

    Ties break toward the lowest link index (then toward staying put is
    irrelevant because the current link participates in the argmin with
    its exact latency).
    """
    dev = deviation_latencies(game, assignment)
    return np.argmin(dev, axis=1).astype(np.intp)


@dataclass
class DynamicsResult:
    """Outcome of a response dynamic run.

    Attributes
    ----------
    profile:
        The final pure profile (a Nash equilibrium iff ``converged``).
    converged:
        True when no user had a profitable deviation at termination.
    steps:
        Number of accepted improvement moves.
    cycled:
        True when the trajectory revisited a profile, which certifies a
        better-/best-response cycle.
    """

    profile: PureProfile
    converged: bool
    steps: int
    cycled: bool


def _run_view(
    engine,
    game: UncertainRoutingGame,
    start: AssignmentLike | None,
    schedule: BatchSchedule,
    max_steps: int,
    tol: float,
    seed: RandomState,
) -> DynamicsResult:
    sigma = None
    if start is not None:
        sigma = as_assignment(start, game.num_users, game.num_links)[None, :]
    result = engine(
        GameBatch.from_games([game]),
        sigma,
        schedule=schedule,
        max_steps=max_steps,
        tol=tol,
        seed=seed,
    )
    return DynamicsResult(
        profile=PureProfile(result.profiles[0], game.num_links),
        converged=bool(result.converged[0]),
        steps=int(result.steps[0]),
        cycled=bool(result.cycled[0]),
    )


def best_response_dynamics(
    game: UncertainRoutingGame,
    start: AssignmentLike | None = None,
    *,
    schedule: BatchSchedule = "round_robin",
    max_steps: int = 100_000,
    tol: float = 1e-9,
    seed: RandomState = None,
) -> DynamicsResult:
    """Iterate single-user *best* responses until no user can improve.

    A revisited profile is reported as a best-response cycle
    (``cycled=True``) instead of looping forever. Without *start*, the
    start profile is drawn from *seed*. The ``B = 1`` view of
    :func:`repro.batch.dynamics.batch_best_response_dynamics`.
    """
    return _run_view(
        batch_best_response_dynamics, game, start, schedule, max_steps, tol, seed
    )


def better_response_dynamics(
    game: UncertainRoutingGame,
    start: AssignmentLike | None = None,
    *,
    schedule: BatchSchedule = "round_robin",
    max_steps: int = 100_000,
    tol: float = 1e-9,
    seed: RandomState = None,
) -> DynamicsResult:
    """Iterate single-user *better* responses (first improving link).

    Convergence of better-response dynamics from every start is exactly
    the finite-improvement property (FIP); a detected cycle refutes the
    existence of an ordinal potential for the instance. The ``B = 1``
    view of :func:`repro.batch.dynamics.batch_better_response_dynamics`.
    """
    return _run_view(
        batch_better_response_dynamics, game, start, schedule, max_steps, tol, seed
    )
