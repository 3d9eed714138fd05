"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
The finer-grained subclasses distinguish the three failure domains a
routing-game computation can hit: malformed model data, an algorithm
invoked outside its validity domain, and a solver that terminated without
producing the promised object.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "DimensionError",
    "BeliefError",
    "AlgorithmDomainError",
    "BackendError",
    "StoreMergeError",
    "SolverError",
    "NoEquilibriumError",
    "NotFullyMixedError",
    "ConvergenceError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ModelError(ReproError, ValueError):
    """Model data is malformed (non-positive traffic, bad capacities, ...)."""


class DimensionError(ModelError):
    """Array shapes are inconsistent with the declared (n, m, |Phi|)."""


class BeliefError(ModelError):
    """A belief vector is not a probability distribution over states."""


class AlgorithmDomainError(ReproError, ValueError):
    """A special-case algorithm was invoked on a game outside its domain.

    Examples: :func:`repro.equilibria.two_links.atwolinks` on a game with
    ``m != 2``; :func:`repro.equilibria.uniform.auniform` on a game whose
    beliefs are not uniform across links.
    """


class BackendError(ReproError, ValueError):
    """An array backend is unknown, unavailable, or mismatched.

    Raised when resolving an unknown backend name (the message lists
    the choices), when ``numba`` is selected without the ``repro[jit]``
    extra installed, and when a campaign resume targets a result store
    produced under a different backend.
    """


class StoreMergeError(ReproError, ValueError):
    """Merging shard result stores failed.

    Raised when two shards disagree about the same chunk key (their
    canonical records differ — see ``docs/STORE_FORMAT.md`` for the
    conflict rules), when there is nothing to merge, or when the merge
    destination would be overwritten without ``force``.
    """


class SolverError(ReproError, RuntimeError):
    """A solver terminated without producing the promised object."""


class NoEquilibriumError(SolverError):
    """No equilibrium of the requested kind exists for the instance."""


class NotFullyMixedError(NoEquilibriumError):
    """The closed-form fully mixed profile has a coordinate outside (0, 1),
    so no fully mixed Nash equilibrium exists (Theorem 4.6)."""


class ConvergenceError(SolverError):
    """An iterative dynamic exceeded its step budget without converging."""
