"""Social cost, social optimum and coordination ratios (Section 2).

Because every user evaluates the network through its own belief, there is
no objective link latency; the paper therefore defines two *subjective*
social costs over a profile ``P``:

* ``SC1(G, P) = sum_i lambda_{i, b_i}(P)`` — the sum of individual costs;
* ``SC2(G, P) = max_i lambda_{i, b_i}(P)`` — the maximum individual cost;

and the matching optima over *pure* assignments:

* ``OPT1(G) = min_sigma sum_i lambda_{i, b_i}(sigma)``;
* ``OPT2(G) = min_sigma max_i lambda_{i, b_i}(sigma)``.

The coordination ratios (price of anarchy) are ``SCk / OPTk``.

Optima are computed exactly, either by a fully vectorised sweep over all
``m^n`` assignments (small games) or by a branch-and-bound search that
exploits two monotonicity facts: loads only grow as users are added, and a
user's final latency is at least its best-case latency against the current
partial loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.kernels import MAX_EXHAUSTIVE_PROFILES, enumerate_assignments
from repro.batch.poa import batch_all_pure_latencies
from repro.errors import ModelError, SolverError
from repro.model.game import UncertainRoutingGame
from repro.model.latency import min_expected_latencies, pure_latencies
from repro.model.profiles import (
    AssignmentLike,
    MixedLike,
    MixedProfile,
    PureProfile,
    as_assignment,
)

__all__ = [
    "sc1",
    "sc2",
    "social_costs_of_pure",
    "individual_costs",
    "OptimumResult",
    "optimum",
    "opt1",
    "opt2",
    "coordination_ratios",
    "MAX_EXHAUSTIVE_PROFILES",
    "enumerate_assignments",
    "all_pure_costs",
]

Objective = Literal["sum", "max"]


def individual_costs(game: UncertainRoutingGame, profile: MixedLike | AssignmentLike) -> np.ndarray:
    """Per-user individual cost ``lambda_{i, b_i}`` for a pure or mixed profile.

    For a pure profile this is the belief-expected latency on the chosen
    link; for a mixed profile it is the minimum expected latency over links
    (eq. 1 of the paper — at a Nash equilibrium this equals the cost on
    every support link).
    """
    if isinstance(profile, MixedProfile):
        return min_expected_latencies(game, profile)
    if isinstance(profile, PureProfile):
        return pure_latencies(game, profile)
    arr = np.asarray(profile, dtype=np.float64)
    if arr.ndim == 2:
        return min_expected_latencies(game, profile)
    return pure_latencies(game, profile)


def sc1(game: UncertainRoutingGame, profile: MixedLike | AssignmentLike) -> float:
    """``SC1`` — sum of the users' individual costs."""
    return float(individual_costs(game, profile).sum())


def sc2(game: UncertainRoutingGame, profile: MixedLike | AssignmentLike) -> float:
    """``SC2`` — maximum of the users' individual costs."""
    return float(individual_costs(game, profile).max())


def social_costs_of_pure(
    game: UncertainRoutingGame, assignment: AssignmentLike
) -> tuple[float, float]:
    """``(SC1, SC2)`` of a pure profile in one latency evaluation."""
    lat = pure_latencies(game, assignment)
    return float(lat.sum()), float(lat.max())


# ---------------------------------------------------------------------- #
# exhaustive machinery
# ---------------------------------------------------------------------- #


def all_pure_costs(
    game: UncertainRoutingGame, assignments: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Latency matrix for *every* pure assignment, fully vectorised.

    Returns ``(assignments, latencies)`` where ``latencies[r, i]`` is the
    belief-expected latency of user ``i`` under assignment row ``r``. Used
    by the exhaustive optimum. The ``B = 1`` view of
    :func:`repro.batch.poa.batch_all_pure_latencies`.
    """
    sig, lat = batch_all_pure_latencies(GameBatch.from_games([game]), assignments)
    return sig, lat[0]


@dataclass(frozen=True)
class OptimumResult:
    """An optimal pure assignment and its objective value."""

    value: float
    assignment: PureProfile
    objective: Objective
    method: str

    def __iter__(self):  # allow ``value, sigma = optimum(...)`` unpacking
        return iter((self.value, self.assignment))


def optimum(
    game: UncertainRoutingGame,
    objective: Objective = "sum",
    *,
    method: Literal["auto", "exhaustive", "branch_and_bound"] = "auto",
) -> OptimumResult:
    """Exact social optimum over pure assignments.

    ``method="auto"`` sweeps all assignments when ``m^n`` is small and
    falls back to branch-and-bound otherwise.
    """
    if objective not in ("sum", "max"):
        raise ModelError(f"objective must be 'sum' or 'max', got {objective!r}")
    total = game.num_links**game.num_users
    if method == "auto":
        method = "exhaustive" if total <= 200_000 else "branch_and_bound"
    if method == "exhaustive":
        sig, lat = all_pure_costs(game)
        scores = lat.sum(axis=1) if objective == "sum" else lat.max(axis=1)
        best = int(np.argmin(scores))
        return OptimumResult(
            value=float(scores[best]),
            assignment=PureProfile(sig[best], game.num_links),
            objective=objective,
            method="exhaustive",
        )
    if method == "branch_and_bound":
        value, links = _branch_and_bound(game, objective)
        return OptimumResult(
            value=value,
            assignment=PureProfile(links, game.num_links),
            objective=objective,
            method="branch_and_bound",
        )
    raise ModelError(f"unknown method {method!r}")


def opt1(game: UncertainRoutingGame, **kwargs) -> float:
    """``OPT1(G)`` — minimum sum of individual costs over pure assignments."""
    return optimum(game, "sum", **kwargs).value


def opt2(game: UncertainRoutingGame, **kwargs) -> float:
    """``OPT2(G)`` — minimum maximum individual cost over pure assignments."""
    return optimum(game, "max", **kwargs).value


def coordination_ratios(
    game: UncertainRoutingGame, profile: MixedLike | AssignmentLike
) -> tuple[float, float]:
    """``(SC1/OPT1, SC2/OPT2)`` of a profile — the per-instance PoA terms."""
    costs = individual_costs(game, profile)
    return (
        float(costs.sum()) / opt1(game),
        float(costs.max()) / opt2(game),
    )


# ---------------------------------------------------------------------- #
# branch and bound
# ---------------------------------------------------------------------- #


def _greedy_upper_bound(
    game: UncertainRoutingGame, order: np.ndarray, objective: Objective
) -> tuple[float, np.ndarray]:
    """Greedy completion used as the initial incumbent: place users (largest
    first) on the link minimising the objective increment."""
    m = game.num_links
    loads = game.initial_traffic.copy()
    links = np.empty(game.num_users, dtype=np.intp)
    for i in order:
        cand = (loads + game.weights[i]) / game.capacities[i]
        link = int(np.argmin(cand))
        links[i] = link
        loads[link] += game.weights[i]
    lat = pure_latencies(game, links)
    value = float(lat.sum()) if objective == "sum" else float(lat.max())
    return value, links


def _branch_and_bound(
    game: UncertainRoutingGame, objective: Objective
) -> tuple[float, np.ndarray]:
    """Depth-first branch-and-bound over user placements.

    Users are branched in decreasing weight order (large items first gives
    tight early bounds, as in LPT). The lower bound for a partial
    assignment combines (a) the *current* latencies of already-placed
    users, which only grow, and (b) each remaining user's best-case
    latency against current loads.
    """
    n, m = game.num_users, game.num_links
    w, caps = game.weights, game.capacities
    order = np.argsort(-w, kind="stable")
    best_value, best_links = _greedy_upper_bound(game, order, objective)

    loads = game.initial_traffic.copy()
    links = np.full(n, -1, dtype=np.intp)
    eps = 1e-12

    def lower_bound(depth: int) -> float:
        placed = order[:depth]
        remaining = order[depth:]
        if placed.size:
            cur = loads[links[placed]] / caps[placed, links[placed]]
        else:
            cur = np.zeros(0)
        if remaining.size:
            fut = ((loads[None, :] + w[remaining, None]) / caps[remaining]).min(axis=1)
        else:
            fut = np.zeros(0)
        if objective == "max":
            lo = 0.0
            if cur.size:
                lo = max(lo, float(cur.max()))
            if fut.size:
                lo = max(lo, float(fut.max()))
            return lo
        return float(cur.sum()) + float(fut.sum())

    def dfs(depth: int) -> None:
        nonlocal best_value, best_links
        if depth == n:
            lat = pure_latencies(game, links)
            value = float(lat.sum()) if objective == "sum" else float(lat.max())
            if value < best_value - eps:
                best_value = value
                best_links = links.copy()
            return
        user = order[depth]
        # Try links in order of immediate latency for better incumbents.
        cand = (loads + w[user]) / caps[user]
        for link in np.argsort(cand, kind="stable"):
            links[user] = link
            loads[link] += w[user]
            if lower_bound(depth + 1) < best_value - eps:
                dfs(depth + 1)
            loads[link] -= w[user]
            links[user] = -1

    dfs(0)
    if np.any(best_links < 0):  # pragma: no cover - defensive
        raise SolverError("branch-and-bound failed to produce an assignment")
    return best_value, best_links
