"""The array-backend seam behind the ``(B, n, m)`` batch kernels.

The batch kernels are NumPy code. What a backend may replace is a fixed
set of *fused-kernel hooks* (:data:`FUSED_HOOKS`): each hook is ``None``
by default, meaning the NumPy composition in the kernel module runs; a
backend that sets a hook takes over that whole computation, under the
contract in the hook's docstring on :class:`ArrayBackend`. Two backends
exist:

* ``numpy`` — the **bit-parity reference**: every hook is ``None``, so
  every frozen seed baseline and the service differential suite are
  pinned under it.
* ``numba`` — a JIT backend (``pip install repro[jit]``) that replaces
  the branch-heavy fused loops BLAS cannot help — the ``m^n`` pure-NE
  census, the response-cycle census peel, lockstep nashification,
  best-response dynamics and the fixed-point round loop — with compiled
  per-game loops (:mod:`repro.batch._numba_backend`). Gated by
  differential tests against the reference, never by byte identity.

Resolution precedence:

1. an explicit :func:`set_backend` / :func:`use_backend` call — the CLI
   ``--backend`` flag lands here (and exports :data:`ENV_VAR` so
   process-pool campaign workers inherit the choice);
2. the :data:`ENV_VAR` (``REPRO_BACKEND``) environment variable;
3. the default, ``numpy``.
"""

from __future__ import annotations

import functools
import importlib.util
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import BackendError

__all__ = [
    "ArrayBackend",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "FUSED_HOOKS",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
]

DEFAULT_BACKEND = "numpy"

#: Environment variable naming the default backend for a process tree.
ENV_VAR = "REPRO_BACKEND"

#: Optional fused-kernel hooks a backend may implement (``None`` means
#: the generic NumPy implementation runs). See :class:`ArrayBackend`.
FUSED_HOOKS = (
    "scatter_loads",
    "count_pure_nash",
    "exists_pure_nash",
    "nashify_common_loop",
    "dynamics_loop",
    "census_cycle",
    "fixpoint_loop",
)


class ArrayBackend:
    """A named set of fused-kernel hooks; the base class is ``numpy``.

    Every hook is ``None`` here. Signatures (arrays are C-contiguous
    ``float64`` / ``intp`` unless noted; every hook must reproduce the
    generic path's *verdicts* — trajectories bit for bit where the
    generic kernel documents trajectory parity):

    ``scatter_loads(sigma, weights, num_links, initial_traffic)``
        ``(A, n)`` assignments/weights (+ optional ``(A, m)`` traffic)
        to ``(A, m)`` per-link loads, accumulated user by user in index
        order (bincount order — the bit-parity contract).
    ``count_pure_nash(assignments, weights, capacities, traffic, tol)``
        ``(P, n)`` assignment table crossed with a ``(B, n[, m])``
        stack to ``(B,)`` int64 pure-NE counts.
    ``exists_pure_nash(assignments, weights, capacities, traffic, tol)``
        Same inputs to ``(B,)`` bool existence verdicts (may
        short-circuit per game).
    ``nashify_common_loop(sigma, weights, capacities, caps_row,
    traffic, max_steps)``
        The lockstep common-beliefs nashification stepper: returns
        ``(sigma, steps, converged)``; per-game trajectories must match
        the sequential procedure move for move.
    ``dynamics_loop(sigma, weights, capacities, traffic, best,
    max_regret, max_steps, tol)``
        The best-/better-response stepper, cycle detection always on:
        returns ``(sigma, converged, steps, cycled)`` or ``None`` to
        decline (the generic lockstep path runs instead).
    ``census_cycle(assignments, weights, capacities, traffic, best,
    tol)``
        ``(B,)`` bool response-cycle verdicts over the full ``m^n``
        state space; edge sets must match ``batch_response_edges``.
    ``fixpoint_loop(weights, capacities, traffic, tol, eta,
    log2_beta_max, max_rounds, stall_rounds, stall_rtol)``
        The mixed-equilibrium smoothed best-response round loop of
        :func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash`:
        returns ``(probabilities, rounds, residuals, converged,
        stalled)`` or ``None`` to decline. Per-game trajectories must
        reproduce the generic round loop *bit for bit* at every round
        budget (the update is elementwise IEEE arithmetic plus
        index-order accumulations by design).
    """

    #: hooks — ``None`` selects the generic NumPy kernel.
    scatter_loads: Callable[..., Any] | None = None
    count_pure_nash: Callable[..., Any] | None = None
    exists_pure_nash: Callable[..., Any] | None = None
    nashify_common_loop: Callable[..., Any] | None = None
    dynamics_loop: Callable[..., Any] | None = None
    census_cycle: Callable[..., Any] | None = None
    fixpoint_loop: Callable[..., Any] | None = None

    def __init__(self, name: str = DEFAULT_BACKEND) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<ArrayBackend {self.name!r}>"


def _numba_factory() -> ArrayBackend:
    try:
        from repro.batch._numba_backend import NumbaBackend
    except ImportError as exc:
        raise BackendError(
            "backend 'numba' requires the numba package — install the "
            "JIT extra: pip install 'repro-network-uncertainty[jit]'"
        ) from exc
    return NumbaBackend()


#: Backend name -> factory. Fixed: nothing adds or removes entries.
_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": ArrayBackend,
    "numba": _numba_factory,
}
#: The explicitly selected backend name (CLI/set_backend); overrides env.
_EXPLICIT: str | None = None


def available_backends() -> dict[str, bool]:
    """Name -> whether this host can instantiate that backend."""
    return {
        "numpy": True,
        "numba": importlib.util.find_spec("numba") is not None,
    }


@functools.cache
def _instantiate(name: str) -> ArrayBackend:
    # Failures (unknown name, missing numba) raise and are not cached.
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise BackendError(
            f"unknown array backend {name!r}; choices: "
            f"{', '.join(_FACTORIES)}"
        ) from None
    return factory()


def get_backend(name: str | None = None) -> ArrayBackend:
    """The backend *name* resolves to, or the active default.

    With ``name=None`` the precedence is explicit selection
    (:func:`set_backend` / the CLI flag) over the :data:`ENV_VAR`
    environment variable over ``numpy``. Instances are cached per name,
    so the per-kernel-call cost is a dictionary lookup.
    """
    if name is None:
        name = _EXPLICIT or os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    return _instantiate(name)


def set_backend(name: str | None) -> ArrayBackend | None:
    """Select *name* explicitly (overriding the environment variable).

    ``None`` clears the explicit selection, returning resolution to the
    env-var/default chain. The backend is instantiated eagerly so an
    unknown or unavailable name fails at selection time, not at the
    first kernel call.
    """
    global _EXPLICIT
    if name is None:
        _EXPLICIT = None
        return None
    instance = _instantiate(name)
    _EXPLICIT = name
    return instance


@contextmanager
def use_backend(name: str) -> Iterator[ArrayBackend]:
    """Context manager: run a block under backend *name*."""
    global _EXPLICIT
    previous = _EXPLICIT
    instance = set_backend(name)
    try:
        yield instance  # type: ignore[misc]
    finally:
        _EXPLICIT = previous
