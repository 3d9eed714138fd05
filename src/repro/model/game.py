"""The uncertain routing game ``G = (n, m, w, B)`` (Section 2).

:class:`UncertainRoutingGame` bundles the traffic vector, the belief
profile over a capacity state space, and (as in the paper's two-link
algorithm) an optional vector of *initial* link traffic. On construction
the game precomputes its **reduced form** — the ``(n, m)`` effective
capacity matrix ``C[i, l] = c_i^l`` — through which every latency and
equilibrium computation in the library is expressed.

Any strictly positive ``(n, m)`` matrix is realisable as the reduced form
of some belief game: give the state space one state per user holding that
user's row, and let each user be certain of "their" state. This is what
:meth:`UncertainRoutingGame.from_capacities` does, so the reduced form and
the belief form are interchangeable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DimensionError, ModelError
from repro.model.beliefs import Belief, BeliefProfile, point_mass_belief
from repro.model.state import StateSpace
from repro.util.validation import check_positive_array

__all__ = ["UncertainRoutingGame"]


class UncertainRoutingGame:
    """A selfish-routing game on parallel links with capacity uncertainty.

    Parameters
    ----------
    weights:
        Strictly positive traffic vector ``w`` of length ``n`` (``n >= 2``).
    beliefs:
        A :class:`~repro.model.beliefs.BeliefProfile` with one belief per
        user over a shared :class:`~repro.model.state.StateSpace` with
        ``m >= 2`` links.
    initial_traffic:
        Optional non-negative per-link traffic already present on the
        network (the ``t`` vector of the paper's two-link setting).
        Defaults to zero on every link.
    """

    __slots__ = ("_weights", "_beliefs", "_capacities", "_initial_traffic")

    def __init__(
        self,
        weights: Sequence[float] | np.ndarray,
        beliefs: BeliefProfile,
        *,
        initial_traffic: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        w = check_positive_array(weights, name="weights", ndim=1)
        if w.size < 2:
            raise ModelError(f"the model requires n > 1 users, got n={w.size}")
        if beliefs.num_users != w.size:
            raise DimensionError(
                f"{w.size} weights but belief profile covers {beliefs.num_users} users"
            )
        m = beliefs.states.num_links
        if m < 2:
            raise ModelError(f"the model requires m > 1 links, got m={m}")
        if initial_traffic is None:
            t = np.zeros(m)
        else:
            t = np.array(initial_traffic, dtype=np.float64, copy=True, order="C")
            if t.shape != (m,):
                raise DimensionError(
                    f"initial_traffic must have shape ({m},), got {t.shape}"
                )
            if not np.all(np.isfinite(t)) or np.any(t < 0):
                raise ModelError("initial_traffic must be finite and non-negative")
        capacities = np.ascontiguousarray(beliefs.effective_capacities())
        # A subnormal state capacity overflows its reciprocal, so a valid
        # belief profile can still reduce to a zero or NaN capacity.
        if not np.all(np.isfinite(capacities)) or np.any(capacities <= 0.0):
            raise ModelError(
                "effective capacities must be finite and strictly positive"
            )
        self._weights = w
        self._beliefs = beliefs
        self._capacities = capacities
        self._initial_traffic = t
        for arr in (self._weights, self._capacities, self._initial_traffic):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_capacities(
        cls,
        weights: Sequence[float] | np.ndarray,
        capacities: Sequence[Sequence[float]] | np.ndarray,
        *,
        initial_traffic: Sequence[float] | np.ndarray | None = None,
    ) -> "UncertainRoutingGame":
        """Build a game directly from its reduced form.

        ``capacities`` is the ``(n, m)`` effective-capacity matrix
        ``C[i, l]``. The canonical realisation uses one state per user:
        state ``i`` carries row ``i`` and user ``i`` is certain of it.
        """
        c = check_positive_array(capacities, name="capacities", ndim=2)
        w = check_positive_array(weights, name="weights", ndim=1)
        if c.shape[0] != w.size:
            raise DimensionError(
                f"capacity matrix has {c.shape[0]} rows for {w.size} users"
            )
        states = StateSpace(c, names=tuple(f"user{i}-view" for i in range(c.shape[0])))
        profile = BeliefProfile(
            states,
            [point_mass_belief(c.shape[0], i) for i in range(c.shape[0])],
        )
        return cls(w, profile, initial_traffic=initial_traffic)

    @classmethod
    def kp(
        cls,
        weights: Sequence[float] | np.ndarray,
        link_capacities: Sequence[float] | np.ndarray,
        *,
        initial_traffic: Sequence[float] | np.ndarray | None = None,
    ) -> "UncertainRoutingGame":
        """The KP-model: a single certain state shared by all users."""
        w = check_positive_array(weights, name="weights", ndim=1)
        states = StateSpace.single(link_capacities)
        profile = BeliefProfile(states, [point_mass_belief(1, 0)] * w.size)
        return cls(w, profile, initial_traffic=initial_traffic)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def num_users(self) -> int:
        """``n`` — number of users."""
        return self._weights.size

    @property
    def num_links(self) -> int:
        """``m`` — number of parallel links."""
        return self._capacities.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Read-only traffic vector ``w`` of shape ``(n,)``."""
        return self._weights

    @property
    def total_traffic(self) -> float:
        """``T = sum_i w_i``."""
        return float(self._weights.sum())

    @property
    def beliefs(self) -> BeliefProfile:
        """The belief profile ``B``."""
        return self._beliefs

    @property
    def capacities(self) -> np.ndarray:
        """Read-only reduced form: ``(n, m)`` effective capacities ``c_i^l``."""
        return self._capacities

    @property
    def initial_traffic(self) -> np.ndarray:
        """Read-only per-link initial traffic ``t`` of shape ``(m,)``."""
        return self._initial_traffic

    # ------------------------------------------------------------------ #
    # special-case predicates (drive algorithm dispatch)
    # ------------------------------------------------------------------ #

    def is_kp(self, *, atol: float = 1e-12) -> bool:
        """True when all users share a single point-mass belief."""
        return self._beliefs.is_kp(atol=atol)

    def has_common_beliefs(self, *, atol: float = 1e-12) -> bool:
        """True when all users hold the same belief distribution."""
        return self._beliefs.is_common(atol=atol)

    def has_uniform_beliefs(self, *, rtol: float = 1e-9) -> bool:
        """True under the paper's *uniform user beliefs* model: each user
        believes all links have equal capacity, i.e. every row of the
        reduced form is constant across links."""
        c = self._capacities
        return bool(np.all(np.abs(c - c[:, :1]) <= rtol * c[:, :1]))

    def has_symmetric_users(self, *, rtol: float = 1e-12) -> bool:
        """True when all user weights are equal (the Fig. 2 setting)."""
        w = self._weights
        return bool(np.all(np.abs(w - w[0]) <= rtol * abs(w[0])))

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #

    def with_initial_traffic(
        self, initial_traffic: Sequence[float] | np.ndarray
    ) -> "UncertainRoutingGame":
        """A copy of this game with a different initial traffic vector."""
        return UncertainRoutingGame(
            self._weights, self._beliefs, initial_traffic=initial_traffic
        )

    def subgame(self, users: Sequence[int]) -> "UncertainRoutingGame":
        """The restriction of this game to the given users (order kept).

        Used by the recursive algorithms, which peel off one user per level.
        """
        idx = np.asarray(users, dtype=np.intp)
        if idx.size < 2:
            raise ModelError("a subgame still needs at least two users")
        beliefs = BeliefProfile(
            self._beliefs.states,
            [Belief(self._beliefs.matrix[i]) for i in idx],
        )
        return UncertainRoutingGame(
            self._weights[idx], beliefs, initial_traffic=self._initial_traffic
        )

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        tags = []
        if self.is_kp():
            tags.append("kp")
        elif self.has_common_beliefs():
            tags.append("common-beliefs")
        if self.has_uniform_beliefs():
            tags.append("uniform-beliefs")
        if self.has_symmetric_users():
            tags.append("symmetric-users")
        suffix = f", {'+'.join(tags)}" if tags else ""
        return (
            f"UncertainRoutingGame(n={self.num_users}, m={self.num_links}{suffix})"
        )
