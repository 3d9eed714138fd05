"""The :class:`GameBatch` container — B games stacked into dense tensors.

A batch holds ``B`` uncertain-routing games that share the same shape
``(n, m)`` but differ in weights, effective capacities and initial
traffic:

* ``weights``          — ``(B, n)``  traffic vectors;
* ``capacities``       — ``(B, n, m)`` reduced-form effective capacities;
* ``initial_traffic``  — ``(B, m)``  per-link pre-existing traffic.

Because every latency/equilibrium computation in the library is a
function of the reduced form alone (see :mod:`repro.model.game`), this is
a lossless representation for everything the batched kernels compute; a
single :class:`~repro.model.game.UncertainRoutingGame` is exactly the
``B = 1`` slice. :meth:`GameBatch.game` reconstructs the per-instance
game object when a single-game API is needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Literal, Sequence

import numpy as np

from repro.errors import DimensionError, ModelError

if TYPE_CHECKING:
    from repro.model.game import UncertainRoutingGame

__all__ = ["GameBatch"]

#: Mirrors ``repro.generators.games.WeightKind`` (imported lazily there
#: to keep the batch layer import-independent of the generator layer).
WeightKind = Literal["uniform", "exponential", "lognormal", "integer"]


def _dirichlet_effective_capacities(
    beliefs: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Reduce replayed Dirichlet beliefs to effective capacities.

    Mirrors the dirichlet_belief factory + Belief validation exactly:
    clip away exact zeros (maximum == one-sided clip), then normalise
    twice (the factory once, check_probability_vector once more), then
    take the belief-harmonic capacities. Every double operation here is
    parity-critical — the ``from_seeds*`` generators promise bit
    identity with the single-game generators, and "simplifying" the
    second normalisation breaks that contract. *beliefs* is modified in
    place.
    """
    np.maximum(beliefs, 1e-15, out=beliefs)
    beliefs /= beliefs.sum(axis=-1, keepdims=True)
    beliefs /= beliefs.sum(axis=-1, keepdims=True)
    return 1.0 / (beliefs @ (1.0 / states))


class GameBatch:
    """An immutable stack of ``B`` same-shape uncertain routing games."""

    __slots__ = ("_weights", "_capacities", "_initial_traffic")

    def __init__(
        self,
        weights: np.ndarray,
        capacities: np.ndarray,
        *,
        initial_traffic: np.ndarray | None = None,
    ) -> None:
        caps = np.array(capacities, dtype=np.float64, copy=True, order="C")
        w = np.array(weights, dtype=np.float64, copy=True, order="C")
        if caps.ndim != 3:
            raise DimensionError(
                f"capacities must have shape (B, n, m), got {caps.shape}"
            )
        b, n, m = caps.shape
        if w.shape != (b, n):
            raise DimensionError(f"weights must have shape ({b}, {n}), got {w.shape}")
        if b < 1:
            raise ModelError("a batch needs at least one game")
        if n < 2 or m < 2:
            raise ModelError(f"the model requires n > 1 and m > 1, got ({n}, {m})")
        for name, arr in (("weights", w), ("capacities", caps)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ModelError(f"{name} must be finite and strictly positive")
        if initial_traffic is None:
            t = np.zeros((b, m))
        else:
            t = np.array(initial_traffic, dtype=np.float64, copy=True, order="C")
            if t.shape != (b, m):
                raise DimensionError(
                    f"initial_traffic must have shape ({b}, {m}), got {t.shape}"
                )
            if not np.all(np.isfinite(t)) or np.any(t < 0.0):
                raise ModelError("initial_traffic must be finite and non-negative")
        self._weights = w
        self._capacities = caps
        self._initial_traffic = t
        for arr in (self._weights, self._capacities, self._initial_traffic):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def _adopt(
        cls,
        weights: np.ndarray,
        capacities: np.ndarray,
        initial_traffic: np.ndarray,
    ) -> "GameBatch":
        """A batch that holds these arrays themselves, marked read-only:
        C-contiguous float64 ``(B, n)``, ``(B, n, m)`` and ``(B, m)``
        arrays whose games were already validated (a game's, a request's
        or another batch's). Nothing is copied or checked; the public
        constructor is the one that refuses."""
        batch = object.__new__(cls)
        batch._weights = weights
        batch._capacities = capacities
        batch._initial_traffic = initial_traffic
        for arr in (weights, capacities, initial_traffic):
            arr.setflags(write=False)
        return batch

    @classmethod
    def from_games(cls, games: Sequence[UncertainRoutingGame]) -> "GameBatch":
        """Stack existing game objects (all must share ``(n, m)``).

        A game's arrays are validated when it is built, so they are
        adopted as they are: a single game's as ``[None]`` views, which
        makes every ``B = 1`` view's batch free of copies.
        """
        games = list(games)
        if not games:
            raise ModelError("from_games needs at least one game")
        if len(games) == 1:
            (g,) = games
            return cls._adopt(
                g.weights[None], g.capacities[None], g.initial_traffic[None]
            )
        n, m = games[0].num_users, games[0].num_links
        for i, g in enumerate(games):
            if g.num_users != n or g.num_links != m:
                raise DimensionError(
                    f"game {i} has shape ({g.num_users}, {g.num_links}), "
                    f"batch has ({n}, {m})"
                )
        return cls._adopt(
            np.stack([g.weights for g in games]),
            np.stack([g.capacities for g in games]),
            np.stack([g.initial_traffic for g in games]),
        )

    @classmethod
    def from_requests(
        cls, requests: Sequence
    ) -> "list[tuple[GameBatch, list[int]]]":
        """Stack heterogeneous-shape requests into per-shape sub-batches.

        *requests* is any sequence of objects exposing validated
        float64 ``weights`` ``(n,)``, ``capacities`` ``(n, m)`` and
        ``initial_traffic`` ``(m,)`` arrays — service queries, games, or
        other batches' slices; shapes may differ between requests. Each
        stack adopts its arrays without checking them again. Returns
        ``[(batch, indices), ...]`` where each batch stacks all the
        requests of one ``(n, m)`` shape (in arrival order) and
        ``indices`` maps its rows back to positions in *requests* —
        the grouping the service's dynamic batcher feeds to the
        ``(B, n, m)`` kernels, with groups emitted in first-appearance
        order so the split is deterministic.
        """
        requests = list(requests)
        if not requests:
            return []
        groups: dict[tuple[int, int], list[int]] = {}
        for index, request in enumerate(requests):
            caps = np.asarray(request.capacities, dtype=np.float64)
            if caps.ndim != 2:
                raise DimensionError(
                    f"request {index} capacities must be (n, m), "
                    f"got shape {caps.shape}"
                )
            groups.setdefault(caps.shape, []).append(index)
        out: list[tuple[GameBatch, list[int]]] = []
        for indices in groups.values():
            batch = cls._adopt(
                np.stack([requests[i].weights for i in indices]),
                np.stack([requests[i].capacities for i in indices]),
                np.stack([requests[i].initial_traffic for i in indices]),
            )
            out.append((batch, indices))
        return out

    @classmethod
    def from_seeds(
        cls,
        seeds: Sequence[int],
        num_users: int,
        num_links: int,
        *,
        num_states: int = 4,
        concentration: float = 1.0,
        weight_kind: WeightKind = "uniform",
        cap_low: float = 0.5,
        cap_high: float = 4.0,
        with_initial_traffic: bool = False,
    ) -> "GameBatch":
        """One game per seed, bit-identical to ``random_game(seed=s)``.

        Replays :func:`repro.generators.games.random_game`'s RNG draws
        (state capacities, per-user Dirichlet beliefs, weights) without
        constructing intermediate model objects, then stacks the reduced
        forms. ``GameBatch.from_seeds(seeds, ...).game(i)`` has exactly
        the same weights/capacities/traffic arrays as
        ``random_game(..., seed=seeds[i])`` — the campaign's determinism
        contract rests on this.
        """
        from repro.generators.games import random_weights

        if num_users < 2 or num_links < 2:
            raise ModelError("the model requires n > 1 and m > 1")
        if num_states < 1:
            raise ModelError("num_states must be >= 1")
        if concentration <= 0:
            raise ModelError("concentration must be positive")
        if not (0 < cap_low < cap_high):
            raise ModelError("require 0 < cap_low < cap_high")
        seeds = list(seeds)
        b = len(seeds)
        weights = np.empty((b, num_users))
        states = np.empty((b, num_states, num_links))
        beliefs = np.empty((b, num_users, num_states))
        traffic = np.zeros((b, num_links))
        alpha = np.full(num_states, concentration)
        # The loop holds only the RNG draws (stream order is the parity
        # contract); all arithmetic is vectorised over the stack below.
        for k, seed in enumerate(seeds):
            # Generator(PCG64(seed)) is stream-identical to
            # default_rng(seed) and measurably cheaper to construct,
            # which matters at thousands of instances per second.
            rng = np.random.Generator(np.random.PCG64(seed))
            states[k] = rng.uniform(cap_low, cap_high, size=(num_states, num_links))
            # One block draw consumes the stream exactly like the
            # per-user dirichlet_belief calls of random_game.
            beliefs[k] = rng.dirichlet(alpha, size=num_users)
            weights[k] = random_weights(num_users, kind=weight_kind, seed=rng)
            if with_initial_traffic:
                traffic[k] = rng.uniform(0.0, 2.0, size=num_links)
        caps = _dirichlet_effective_capacities(beliefs, states)
        return cls(
            weights,
            caps,
            initial_traffic=traffic if with_initial_traffic else None,
        )

    @classmethod
    def from_seeds_symmetric(
        cls,
        seeds: Sequence[int],
        num_users: int,
        num_links: int,
        *,
        weight: float = 1.0,
        num_states: int = 4,
        concentration: float = 1.0,
    ) -> "GameBatch":
        """One symmetric-users game per seed, bit-identical to
        ``random_symmetric_game(seed=s)``.

        Replays the generator's RNG draws (state capacities, per-user
        Dirichlet beliefs — the same two blocks as :meth:`from_seeds`,
        with no weight draw) and sets every weight to the common
        constant; the E2 and E6 ordinal-potential campaigns rest on this
        parity exactly as E5 rests on :meth:`from_seeds`.
        """
        if num_users < 2 or num_links < 2:
            raise ModelError("the model requires n > 1 and m > 1")
        if weight <= 0:
            raise ModelError("weight must be positive")
        if num_states < 1:
            raise ModelError("num_states must be >= 1")
        if concentration <= 0:
            raise ModelError("concentration must be positive")
        seeds = list(seeds)
        b = len(seeds)
        states = np.empty((b, num_states, num_links))
        beliefs = np.empty((b, num_users, num_states))
        alpha = np.full(num_states, concentration)
        for k, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(seed))
            states[k] = rng.uniform(0.5, 4.0, size=(num_states, num_links))
            beliefs[k] = rng.dirichlet(alpha, size=num_users)
        caps = _dirichlet_effective_capacities(beliefs, states)
        return cls(np.full((b, num_users), float(weight)), caps)

    @classmethod
    def from_seeds_kp(
        cls,
        seeds: Sequence[int],
        num_users: int,
        num_links: int,
        *,
        weight_kind: WeightKind = "uniform",
    ) -> "GameBatch":
        """One classic KP instance per seed, bit-identical to
        ``random_kp_game(seed=s)``.

        Replays the generator's draws (weights, then the shared link
        capacities) and the single-certain-state belief realisation —
        whose point-mass reduction is the ``1 / (1 / c)`` double
        reciprocal, not a float identity — replicated across users.
        """
        from repro.generators.games import random_weights

        if num_users < 2 or num_links < 2:
            raise ModelError("the model requires n > 1 and m > 1")
        seeds = list(seeds)
        b = len(seeds)
        weights = np.empty((b, num_users))
        link_caps = np.empty((b, num_links))
        for k, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(seed))
            weights[k] = random_weights(num_users, kind=weight_kind, seed=rng)
            link_caps[k] = rng.uniform(0.5, 4.0, size=num_links)
        caps = 1.0 / (1.0 / link_caps)
        return cls(weights, np.repeat(caps[:, None, :], num_users, axis=1))

    @classmethod
    def from_seeds_uniform_beliefs(
        cls,
        seeds: Sequence[int],
        num_users: int,
        num_links: int,
        *,
        weight_kind: WeightKind = "uniform",
        with_initial_traffic: bool = False,
    ) -> "GameBatch":
        """One uniform-beliefs game per seed, bit-identical to
        ``random_uniform_beliefs_game(seed=s)``.

        Replays the generator's RNG draws (weights, the per-user
        capacity constants, optional initial traffic) in stream order
        and stacks the replicated-column reduced forms; the E8/E10
        campaigns rest on this parity exactly as E5 rests on
        :meth:`from_seeds`.
        """
        from repro.generators.games import random_weights

        if num_users < 2 or num_links < 2:
            raise ModelError("the model requires n > 1 and m > 1")
        seeds = list(seeds)
        b = len(seeds)
        weights = np.empty((b, num_users))
        per_user = np.empty((b, num_users))
        traffic = np.zeros((b, num_links))
        for k, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(seed))
            weights[k] = random_weights(num_users, kind=weight_kind, seed=rng)
            per_user[k] = rng.uniform(0.5, 4.0, size=num_users)
            if with_initial_traffic:
                traffic[k] = rng.uniform(0.0, 2.0, size=num_links)
        caps = np.repeat(per_user[:, :, None], num_links, axis=2)
        # The generator routes its capacity matrix through
        # ``UncertainRoutingGame.from_capacities``, whose point-mass
        # belief realisation reduces back to ``1 / (1 / c)`` — not an
        # identity in floating point. Replay it for bit parity.
        caps = 1.0 / (1.0 / caps)
        return cls(
            weights,
            caps,
            initial_traffic=traffic if with_initial_traffic else None,
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def batch_size(self) -> int:
        """``B`` — number of stacked games."""
        return self._capacities.shape[0]

    @property
    def num_users(self) -> int:
        """``n`` — users per game."""
        return self._capacities.shape[1]

    @property
    def num_links(self) -> int:
        """``m`` — links per game."""
        return self._capacities.shape[2]

    @property
    def weights(self) -> np.ndarray:
        """Read-only ``(B, n)`` traffic vectors."""
        return self._weights

    @property
    def capacities(self) -> np.ndarray:
        """Read-only ``(B, n, m)`` effective-capacity tensors."""
        return self._capacities

    @property
    def initial_traffic(self) -> np.ndarray:
        """Read-only ``(B, m)`` initial per-link traffic (zeros by default)."""
        return self._initial_traffic

    def game(self, index: int) -> UncertainRoutingGame:
        """Materialise game *index* as an :class:`UncertainRoutingGame`."""
        from repro.model.game import UncertainRoutingGame

        return UncertainRoutingGame.from_capacities(
            self._weights[index],
            self._capacities[index],
            initial_traffic=self._initial_traffic[index],
        )

    def subbatch(self, indices: Sequence[int] | np.ndarray) -> "GameBatch":
        """The batch restricted to *indices* (order kept)."""
        idx = np.asarray(indices, dtype=np.intp)
        return GameBatch(
            self._weights[idx],
            self._capacities[idx],
            initial_traffic=self._initial_traffic[idx],
        )

    def __len__(self) -> int:
        return self.batch_size

    def __iter__(self) -> Iterator[UncertainRoutingGame]:
        return (self.game(i) for i in range(self.batch_size))

    def __repr__(self) -> str:
        return (
            f"GameBatch(B={self.batch_size}, n={self.num_users}, "
            f"m={self.num_links})"
        )
