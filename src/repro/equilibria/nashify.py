"""Nashification: convert any profile into a pure NE without degrading it.

Feldmann et al. [4] (cited in the paper's related work) showed that in
the KP-model any pure strategy profile can be transformed into a pure
Nash equilibrium without increasing the maximum congestion. This module
implements the corresponding procedure for this library's games:

* :func:`nashify_common_beliefs` — the classic guarantee. For common
  beliefs all users agree on every link's congestion ``L_l / c^l``, and
  repeatedly moving a *maximum-congestion* link's user to its best
  response never increases the maximum congestion; the weighted potential
  (:mod:`repro.equilibria.potential`) guarantees termination.
* :func:`nashify` — the general-game variant: plain best-response
  improvement from the given start. Without a potential there is no
  monotonicity guarantee (the subjective SC2 may transiently grow), so
  the function reports the before/after social costs and is used by the
  experiments to measure how much nashification costs under uncertainty.

Both are the ``B = 1`` views of the lockstep kernels in
:mod:`repro.batch.pure` — a single game is nashified by the same code
path that advances a whole ``(B, n, m)`` stack, and the batched
trajectories reproduce these per-game runs move for move.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batch.container import GameBatch
from repro.batch.pure import (
    BatchNashifyResult,
    batch_nashify,
    batch_nashify_common_beliefs,
)
from repro.errors import AlgorithmDomainError
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import AssignmentLike, PureProfile, as_assignment

__all__ = ["NashifyResult", "nashify", "nashify_common_beliefs"]


@dataclass(frozen=True)
class NashifyResult:
    """Before/after record of a nashification run."""

    profile: PureProfile
    steps: int
    sc1_before: float
    sc1_after: float
    sc2_before: float
    sc2_after: float
    max_congestion_before: float
    max_congestion_after: float

    @property
    def preserved_max_congestion(self) -> bool:
        """Whether the classic guarantee held: SC never got worse."""
        return self.max_congestion_after <= self.max_congestion_before * (
            1 + 1e-9
        )


def _unpack(result: BatchNashifyResult, num_links: int) -> NashifyResult:
    return NashifyResult(
        profile=PureProfile(result.profiles[0], num_links),
        steps=int(result.steps[0]),
        sc1_before=float(result.sc1_before[0]),
        sc1_after=float(result.sc1_after[0]),
        sc2_before=float(result.sc2_before[0]),
        sc2_after=float(result.sc2_after[0]),
        max_congestion_before=float(result.max_congestion_before[0]),
        max_congestion_after=float(result.max_congestion_after[0]),
    )


def nashify_common_beliefs(
    game: UncertainRoutingGame,
    start: AssignmentLike,
    *,
    max_steps: int = 100_000,
) -> NashifyResult:
    """Nashify under common beliefs without increasing max congestion.

    Strategy (Feldmann et al.): while some user defects, move a defecting
    user currently sitting on a maximum-congestion link if one exists
    (this can only lower the maximum), otherwise any defector (its target
    link stays below the current maximum, which is untouched). The
    weighted potential decreases on every move, so the procedure
    terminates at a pure NE. The ``B = 1`` view of
    :func:`repro.batch.pure.batch_nashify_common_beliefs`.
    """
    if not game.has_common_beliefs():
        raise AlgorithmDomainError(
            "nashify_common_beliefs requires common beliefs; "
            "use nashify() for general games"
        )
    sigma = as_assignment(start, game.num_users, game.num_links)
    result = batch_nashify_common_beliefs(
        GameBatch.from_games([game]), sigma[None, :], max_steps=max_steps
    )
    return _unpack(result, game.num_links)


def nashify(
    game: UncertainRoutingGame,
    start: AssignmentLike,
    *,
    max_steps: int = 100_000,
) -> NashifyResult:
    """Nashify a general game by best-response improvement from *start*.

    Under distinct beliefs there is no objective congestion all users
    agree on, so no monotonicity guarantee exists; the result records the
    subjective SC1/SC2 and the *average-capacity* congestion before and
    after so experiments can quantify the gap to the classic guarantee.
    The ``B = 1`` view of :func:`repro.batch.pure.batch_nashify`.
    """
    sigma = as_assignment(start, game.num_users, game.num_links)
    result = batch_nashify(
        GameBatch.from_games([game]), sigma[None, :], max_steps=max_steps
    )
    return _unpack(result, game.num_links)
