"""Single-game fixed-point mixed-equilibrium solving.

The ``B = 1`` view of :func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash`,
living next to :mod:`repro.equilibria.support_enum` as its
beyond-enumeration sibling: where enumeration walks ``(2^m - 1)^n``
supports, the fixed-point iteration settles a game's support in a few
``O(n m)`` rounds and a best-response polish finishes it (see
:mod:`repro.batch.fixpoint`), so games with hundreds of users and tens
of links stay solvable. The price is completeness — the solver returns *one* certified
equilibrium (support enumeration returns all of them), and a game may
fail to converge, which here becomes a
:class:`~repro.errors.ConvergenceError` instead of a mask.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batch.fixpoint import (
    CERT_TOL,
    DEFAULT_BETA_MAX,
    DEFAULT_ETA,
    DEFAULT_MAX_ROUNDS,
    DEFAULT_STALL_ROUNDS,
    DEFAULT_TOL,
    batch_fixpoint_mixed_nash,
)
from repro.errors import ConvergenceError
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import MixedProfile

__all__ = ["FixpointSolution", "fixpoint_mixed_nash"]


@dataclass(frozen=True)
class FixpointSolution:
    """One solved game: the profile plus the solve's provenance.

    ``profile`` is the certified equilibrium (a validated
    :class:`~repro.model.profiles.MixedProfile`); ``residual`` the final
    supported-link excess latency; ``rounds`` the update rounds
    consumed (:data:`~repro.batch.fixpoint.POLISH_ROUND` when
    ``polished``); ``certified`` the oracle verdict at
    :data:`~repro.batch.fixpoint.CERT_TOL` on the raw solver tensor;
    ``polished`` whether the best-response polish, not the round loop,
    found the profile (then a pure one).
    """

    profile: MixedProfile
    residual: float
    rounds: int
    certified: bool
    polished: bool


def fixpoint_mixed_nash(
    game: UncertainRoutingGame,
    *,
    tol: float = DEFAULT_TOL,
    eta: float = DEFAULT_ETA,
    beta_max: int = DEFAULT_BETA_MAX,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stall_rounds: int = DEFAULT_STALL_ROUNDS,
    certify_tol: float = CERT_TOL,
) -> FixpointSolution:
    """One mixed Nash equilibrium of *game* by annealed fixed-point
    iteration.

    Raises :class:`~repro.errors.ConvergenceError` when the iteration
    stalls or exhausts its round budget — the single-game rendering of
    the batch solver's non-converged flag. The returned tensor slice is
    bit-identical to row ``b`` of a batched solve containing this game
    (trajectories are independent of batch-mates).
    """
    result = batch_fixpoint_mixed_nash(
        game.weights[None],
        game.capacities[None],
        game.initial_traffic[None],
        tol=tol,
        eta=eta,
        beta_max=beta_max,
        max_rounds=max_rounds,
        stall_rounds=stall_rounds,
        certify_tol=certify_tol,
    )
    if not bool(result.converged[0]):
        reason = "stalled" if bool(result.stalled[0]) else "round budget exhausted"
        raise ConvergenceError(
            f"fixed-point iteration did not converge ({reason}) after "
            f"{int(result.rounds[0])} rounds; residual "
            f"{float(result.residuals[0]):.3e} > tol {tol:.1e}"
        )
    return FixpointSolution(
        profile=MixedProfile(result.probabilities[0]),
        residual=float(result.residuals[0]),
        rounds=int(result.rounds[0]),
        certified=bool(result.certified[0]),
        polished=bool(result.polished[0]),
    )
