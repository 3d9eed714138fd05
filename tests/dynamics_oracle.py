"""Reference best-/better-response dynamics for the dynamics tests.

:func:`oracle_dynamics` is the per-game loop the single-game dynamics
ran before they became ``B = 1`` views of
:mod:`repro.batch.dynamics`: one
:func:`~repro.model.latency.deviation_latencies` call per step, one
dictionary of visited profiles, one mover at a time. It shares no code
with the lockstep engine, so agreement between the two is evidence for
both. Only the deterministic schedules remain, the ones the library
still offers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.model.game import UncertainRoutingGame
from repro.model.latency import deviation_latencies
from repro.model.profiles import AssignmentLike, as_assignment
from repro.util.rng import RandomState, as_generator


class OracleResult(NamedTuple):
    links: np.ndarray
    converged: bool
    steps: int
    cycled: bool


def oracle_dynamics(
    game: UncertainRoutingGame,
    start: AssignmentLike | None = None,
    *,
    mode: str = "best",
    schedule: str = "round_robin",
    max_steps: int = 100_000,
    tol: float = 1e-9,
    seed: RandomState = None,
) -> OracleResult:
    """Run one game's dynamics to convergence, a revisit or the budget."""
    n, m = game.num_users, game.num_links
    if start is None:
        sigma = as_generator(seed).integers(0, m, size=n).astype(np.intp)
    else:
        sigma = as_assignment(start, n, m).copy()
    seen: set[bytes] = set()
    steps = 0
    while steps < max_steps:
        key = sigma.tobytes()
        if key in seen:
            return OracleResult(sigma, False, steps, True)
        seen.add(key)

        dev = deviation_latencies(game, sigma)
        current = dev[np.arange(n), sigma]
        scale = np.maximum(current, 1.0)
        movers = np.flatnonzero(dev.min(axis=1) < current - tol * scale)
        if movers.size == 0:
            return OracleResult(sigma, True, steps, False)

        if schedule == "round_robin":
            user = int(movers.min())
        else:  # max_regret
            regret = current[movers] - dev[movers].min(axis=1)
            user = int(movers[int(np.argmax(regret))])

        row = dev[user]
        if mode == "best":
            target = int(np.argmin(row))
        else:
            better = np.flatnonzero(row < current[user] - tol * scale[user])
            target = int(better[0])
        sigma[user] = target
        steps += 1
    return OracleResult(sigma, False, steps, False)
