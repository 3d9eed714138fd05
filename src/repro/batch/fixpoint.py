"""Batched fixed-point mixed-equilibrium solver (beyond enumeration width).

Support enumeration (:mod:`repro.batch.support`) is exponential in
``(n, m)`` and caps every mixed experiment's grid at toy widths. This
module is the ROADMAP item-3 solver: a batched smoothed best-response /
proportional-fitting iteration over ``(B, n, m)`` probability tensors
that finds mixed Nash equilibria at ``n, m`` far beyond anything
enumerable, with per-game convergence masks and a certified residual
check against the module's own Nash oracle.

The iteration
-------------
State is a row-stochastic tensor ``P`` of shape ``(B, n, m)``, started
uniform. One *round* updates every user once, sequentially in index
order (user ``i`` sees the link traffic already updated by users
``0..i-1`` — the Gauss-Seidel schedule; simultaneous lockstep updates
oscillate at large ``n`` because the congestion externality makes every
user overshoot at once). For user ``i`` with expected latencies
``lat_l`` and row minimum ``mins``:

    q_l   = mins / lat_l                 in (0, 1], 1 on best links
    g_l   = p_l * q_l ** beta            proportional fitting
    p'_l  = (1 - eta) p_l + eta g_l / sum(g)

``beta`` is the inverse temperature: ``beta = 0`` keeps the row fixed,
``beta -> inf`` is hard best response. It anneals by doubling each
round (1, 2, 4, ... ``beta_max``), so early rounds move smoothly while
late rounds sharpen supports. ``q ** beta`` is computed by repeated
squaring of power-of-two exponents — no ``exp``/``pow``/``log`` — so
the whole update is elementwise IEEE arithmetic plus index-order
accumulations, which is what lets any loop that keeps those orders
(``tests/fixpoint_oracle.py``) reproduce it *bit for bit* (the same
contract as :func:`repro.batch.kernels._scatter_loads`).

Link traffic ``W^l = sum_i p_il w_i`` is maintained incrementally
inside a round (subtract the mover's old row contribution, add the
new), and rebuilt from scratch — users in index order — at the top of
every round, where the convergence residual is also checked; per-round
cost is ``O(B n m)``.

Convergence, stall and certification
------------------------------------
The residual of a game is the worst supported-link excess latency

    r = max over (i, l) with p_il > SUPPORT_ATOL of
        (lat_il - mins_i) / max(mins_i, 1)

— *identical* to the condition :func:`~repro.batch.mixed.batch_is_mixed_nash`
tests, so a game converged at ``tol`` (default 1e-10) is structurally
certified by the oracle at :data:`CERT_TOL` (1e-8); the 100x margin
absorbs the ulp-level difference between the solver's index-order
traffic accumulation and the oracle's BLAS mat-vec. Certification is
nevertheless *recomputed* through the public oracle on the returned
tensors — every profile in a :class:`BatchFixpointResult` is either
certified within :data:`CERT_TOL` or explicitly flagged
(``converged``/``certified`` False).

Games converge individually: a converged game leaves the iteration
(its rows are final, so convergence masks are monotone in the budget
and a longer budget replays a shorter one's trajectory exactly). A game
that shows no relative residual improvement for ``stall_rounds``
rounds, or that exhausts ``max_rounds``, is flagged non-converged —
never fatal for the batch. The ``B = 1`` view
(:func:`repro.equilibria.fixpoint.fixpoint_mixed_nash`) turns the flag
into a :class:`~repro.errors.ConvergenceError`.

Input domain
------------
:func:`batch_fixpoint_mixed_nash` validates its whole input once,
before any round runs: weights and capacities finite and ``> 0``,
initial traffic finite and ``>= 0``, ``n, m >= 1``; ``tol`` and
``certify_tol`` finite and ``>= 0``, ``stall_rtol`` finite in
``[0, 1)``; ``beta_max``, ``max_rounds`` and ``stall_rounds``
integers. A bad shape raises :class:`~repro.errors.DimensionError`, a
bad value :class:`~repro.errors.ModelError`. On that domain every
probability stays finite and ``>= 0``, which the index-order sums
below rely on.

NumPy round loop
----------------
The round loop keeps only the games still running in its working
tensors: when a game converges or stalls, its rows are written to the
output and ``P``, ``w``, the capacities and the traffic shrink to the
rest, so no update is masked and a straggler's tail costs what the
straggler costs. The working tensors are user-major, ``(n, B', m)``,
so each user's step reads and writes one contiguous ``(B', m)`` block.
The two index-order sums are one call each:
:func:`numpy.add.accumulate` is a sequential scan, and since every
term is ``>= +0.0`` its last entry equals the sum started from ``0.0``
bit for bit — over users for the traffic rebuild, over links for each
row's normaliser. ``tests/fixpoint_oracle.py`` keeps the masked
``(B, n, m)`` loop this one replaced, and the two are held equal bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.batch.mixed import SUPPORT_ATOL, batch_is_mixed_nash
from repro.errors import DimensionError, ModelError

__all__ = [
    "CERT_TOL",
    "DEFAULT_BETA_MAX",
    "DEFAULT_ETA",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_STALL_ROUNDS",
    "DEFAULT_TOL",
    "BatchFixpointResult",
    "batch_fixpoint_mixed_nash",
]

#: Oracle tolerance every returned profile is certified against (or
#: flagged): ``batch_is_mixed_nash(probabilities, ..., tol=CERT_TOL)``.
CERT_TOL = 1e-8

#: Residual tolerance declaring a game converged. 100x tighter than
#: :data:`CERT_TOL`, so converged implies certified (see module notes).
DEFAULT_TOL = 1e-10

#: Damping factor of the proportional-fitting update.
DEFAULT_ETA = 0.5

#: Inverse-temperature ceiling of the doubling anneal (a power of two).
DEFAULT_BETA_MAX = 256

#: Round budget (one round = one sequential update of every user).
DEFAULT_MAX_ROUNDS = 4000

#: Rounds without relative residual improvement before a game is
#: declared stalled. Generous on purpose: the residual is a step
#: function of support collapse (it only drops when a probability
#: crosses :data:`~repro.batch.mixed.SUPPORT_ATOL`), so short windows
#: would kill games mid-collapse.
DEFAULT_STALL_ROUNDS = 1000

#: Relative improvement that resets the stall window.
STALL_RTOL = 1e-3

#: The parameters of :func:`_generic_fixpoint_loop`: ``(tol, eta,
#: log2_beta_max, max_rounds, stall_rounds, stall_rtol)``.
_LoopArgs = tuple[float, float, int, int, int, float]


@dataclass(frozen=True)
class BatchFixpointResult:
    """Per-game outcome of one batched fixed-point solve.

    Attributes
    ----------
    probabilities:
        ``(B, n, m)`` row-stochastic profiles — the solver state at
        termination for every game, converged or not.
    residuals:
        ``(B,)`` last supported-link excess-latency residual measured
        while the game was still active (``<= tol`` iff converged).
    rounds:
        ``(B,)`` int64 — update rounds each game consumed before
        converging or being flagged.
    converged:
        ``(B,)`` bool — residual reached *tol* within the budgets.
    stalled:
        ``(B,)`` bool — flagged by the stall window (a non-converged
        game with ``stalled`` False exhausted ``max_rounds`` instead).
    certified:
        ``(B,)`` bool — the public oracle's verdict
        ``batch_is_mixed_nash(probabilities, ..., tol=certify_tol)`` on
        the returned tensors. The solver's contract is
        ``converged implies certified``; a profile with ``certified``
        False is explicitly *not* an equilibrium claim.
    """

    probabilities: np.ndarray
    residuals: np.ndarray
    rounds: np.ndarray
    converged: np.ndarray
    stalled: np.ndarray
    certified: np.ndarray


def _validated(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None,
    *,
    tol: float,
    eta: float,
    beta_max: int,
    max_rounds: int,
    stall_rounds: int,
    stall_rtol: float,
    certify_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _LoopArgs]:
    """The solver's whole input, checked once: ``(w, caps, t, args)``
    with *args* the parameters of :func:`_generic_fixpoint_loop`.

    A bad shape raises :class:`~repro.errors.DimensionError`, a bad
    value :class:`~repro.errors.ModelError`; past this point every
    game is in the domain the iteration is defined on.
    """
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.ndim != 3 or w.ndim != 2:
        raise DimensionError(
            "batch_fixpoint_mixed_nash needs weights (B, n) and "
            f"capacities (B, n, m); got {w.shape} and {caps.shape}"
        )
    b, n, m = caps.shape
    if n < 1 or m < 1:
        raise DimensionError(
            f"a game needs n >= 1 users and m >= 1 links, got ({n}, {m})"
        )
    if w.shape != (b, n):
        raise DimensionError(
            f"capacities cover (B, n) = ({b}, {n}), weights are {w.shape}"
        )
    if initial_traffic is None:
        t = np.zeros((b, m))
    else:
        t = np.asarray(initial_traffic, dtype=np.float64)
        if t.shape != (b, m):
            raise DimensionError(
                f"initial_traffic must be ({b}, {m}), got {t.shape}"
            )
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise ModelError("weights must be finite and > 0")
    if not np.all(np.isfinite(caps) & (caps > 0.0)):
        raise ModelError("capacities must be finite and > 0")
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ModelError("initial_traffic must be finite and >= 0")
    for name, count in (
        ("beta_max", beta_max),
        ("max_rounds", max_rounds),
        ("stall_rounds", stall_rounds),
    ):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ModelError(f"{name} must be an integer, got {count!r}")
    if beta_max < 1 or beta_max & (beta_max - 1):
        raise ModelError(f"beta_max must be a power of two, got {beta_max}")
    if max_rounds < 0 or stall_rounds < 1:
        raise ModelError("max_rounds must be >= 0 and stall_rounds >= 1")
    if not 0.0 < eta <= 1.0:
        raise ModelError(f"eta must lie in (0, 1], got {eta}")
    for name, bound in (("tol", tol), ("certify_tol", certify_tol)):
        if not (math.isfinite(bound) and bound >= 0.0):
            raise ModelError(f"{name} must be finite and >= 0, got {bound}")
    if not 0.0 <= stall_rtol < 1.0:
        raise ModelError(f"stall_rtol must lie in [0, 1), got {stall_rtol}")
    args = (
        float(tol),
        float(eta),
        int(beta_max).bit_length() - 1,
        int(max_rounds),
        int(stall_rounds),
        float(stall_rtol),
    )
    return w, caps, t, args


def _generic_fixpoint_loop(
    w: np.ndarray,
    caps: np.ndarray,
    t: np.ndarray,
    tol: float,
    eta: float,
    log2_beta_max: int,
    max_rounds: int,
    stall_rounds: int,
    stall_rtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The round loop: ``(probabilities, rounds, residuals, converged,
    stalled)`` for the ``(B, n, m)`` stack, each game's trajectory
    independent of its batch-mates (module notes)."""
    b, n, m = caps.shape
    probabilities = np.full((b, n, m), 1.0 / m)
    rounds = np.zeros(b, dtype=np.int64)
    residuals = np.full(b, np.inf)
    converged = np.zeros(b, dtype=bool)
    stalled = np.zeros(b, dtype=bool)
    if not b:
        return probabilities, rounds, residuals, converged, stalled
    # Working state of the live games only, user-major: ``p[u]`` is
    # user u's ``(B', m)`` block across the live games. Ufunc outputs
    # are passed positionally, which NumPy parses faster than ``out=``;
    # scalars are 0-d arrays for the same reason.
    live = np.arange(b)
    p = np.full((n, b, m), 1.0 / m)
    wu = np.repeat(w.T[:, :, None], m, axis=2)
    c = np.ascontiguousarray(caps.transpose(1, 0, 2))
    best = np.full(b, np.inf)
    since = np.zeros(b, dtype=np.int64)
    damping = np.array(eta)
    log2beta = 0
    for k in range(max_rounds + 1):
        # Rebuild link traffic from scratch, users in index order (the
        # bit-parity accumulation contract: a sequential scan, and every
        # term is >= +0.0, so it equals the sum started from 0.0), and
        # check the residual.
        w_link = np.add.accumulate(p * wu, axis=0)[-1]
        base = (1.0 - p) * wu
        lat = (base + (t + w_link)) / c
        mins = np.minimum.reduce(lat, axis=-1)[..., None]
        excess = (lat - mins) / np.maximum(mins, 1.0)
        r = np.maximum.reduce(np.where(p > SUPPORT_ATOL, excess, 0.0), axis=(0, 2))
        done = r <= tol
        improved = r < best * (1.0 - stall_rtol)
        best = np.where(improved, r, best)
        since = np.where(improved, 0, since + 1)
        stall = ~done & (since >= stall_rounds)
        stop = done | stall
        if k == max_rounds:
            stop[:] = True
        if stop.any():
            # Finished games leave: write their rows out and shrink the
            # working tensors to the games still running.
            out = live[stop]
            probabilities[out] = p[:, stop].transpose(1, 0, 2)
            residuals[out] = r[stop]
            rounds[out] = k
            converged[out] = done[stop]
            stalled[out] = stall[stop]
            if stop.all():
                break
            keep = ~stop
            live, best, since, t = live[keep], best[keep], since[keep], t[keep]
            p, base, wu, c = p[:, keep], base[:, keep], wu[:, keep], c[:, keep]
            w_link = w_link[keep]
        # One round: every user in index order, each seeing the link
        # traffic already updated by earlier movers (Gauss-Seidel).
        # ``nxt`` starts as the damped old rows and receives the new
        # ones; ``base`` holds each user's ``(1 - row) w_u``, unchanged
        # until the user moves. ``q`` carries the step's temporaries.
        nxt = (1.0 - eta) * p
        tw, lat_u, q, acc = (np.empty_like(w_link) for _ in range(4))
        row_min = np.empty((len(live), 1))
        row_sum = acc[:, -1:]
        for row, base_u, c_u, w_u, new in zip(p, base, c, wu, nxt):
            np.add(t, w_link, tw)
            np.add(base_u, tw, lat_u)
            np.divide(lat_u, c_u, lat_u)
            np.minimum.reduce(lat_u, 1, None, row_min, keepdims=True)
            np.divide(row_min, lat_u, q)
            for _ in range(log2beta):
                np.multiply(q, q, q)
            np.multiply(row, q, q)
            np.add.accumulate(q, 1, None, acc)
            np.divide(q, row_sum, q)
            np.multiply(damping, q, q)
            np.add(new, q, new)
            np.subtract(new, row, q)
            np.multiply(q, w_u, q)
            np.add(w_link, q, w_link)
        p = nxt
        if log2beta < log2_beta_max:
            log2beta += 1
    return probabilities, rounds, residuals, converged, stalled


def batch_fixpoint_mixed_nash(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    tol: float = DEFAULT_TOL,
    eta: float = DEFAULT_ETA,
    beta_max: int = DEFAULT_BETA_MAX,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stall_rounds: int = DEFAULT_STALL_ROUNDS,
    stall_rtol: float = STALL_RTOL,
    certify_tol: float = CERT_TOL,
) -> BatchFixpointResult:
    """Solve a ``(B, n, m)`` game stack for mixed Nash equilibria.

    Runs the annealed smoothed best-response iteration (module notes)
    until every game converges to residual *tol*, stalls, or exhausts
    *max_rounds*, then certifies the returned tensors through
    :func:`~repro.batch.mixed.batch_is_mixed_nash` at *certify_tol*.
    Per-game failures are masks on the result, never exceptions.

    Determinism: the trajectory of game ``b`` is a pure function of
    that game's reduced form and the solver parameters — independent of
    its batch-mates, batch order and padding.

    *beta_max* must be a power of two (the anneal doubles up to it and
    the exponentiation is by repeated squaring). Input outside the
    solver's domain (module notes) raises
    :class:`~repro.errors.DimensionError` for a bad shape and
    :class:`~repro.errors.ModelError` for a bad value.
    """
    w, caps, t, args = _validated(
        weights,
        capacities,
        initial_traffic,
        tol=tol,
        eta=eta,
        beta_max=beta_max,
        max_rounds=max_rounds,
        stall_rounds=stall_rounds,
        stall_rtol=stall_rtol,
        certify_tol=certify_tol,
    )
    p, rounds, residuals, converged, stalled = _generic_fixpoint_loop(w, caps, t, *args)
    certified = batch_is_mixed_nash(p, w, caps, t, tol=certify_tol)
    return BatchFixpointResult(
        probabilities=p,
        residuals=residuals,
        rounds=rounds,
        converged=converged,
        stalled=stalled,
        certified=np.asarray(certified, dtype=bool),
    )
