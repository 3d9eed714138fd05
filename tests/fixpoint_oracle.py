"""Reference round loop for the fixed-point solver tests.

:func:`oracle_fixpoint_loop` is the NumPy round loop
:func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash` ran before its
generic path learned to drop finished games: every game of the stack
stays in the ``(B, n, m)`` working tensor to the last round, finished
games are held by ``np.where(active, ...)`` masks, and the index-order
sums are Python-level loops of ``+``. It takes the validated arrays and
loop parameters :func:`repro.batch.fixpoint._generic_fixpoint_loop`
takes and returns the same five arrays, so that loop is held to it bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro.batch.mixed import SUPPORT_ATOL


def oracle_fixpoint_loop(
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
    """``(probabilities, rounds, residuals, converged, stalled)``."""
    b, n, m = caps.shape
    p = np.full((b, n, m), 1.0 / m)
    rounds = np.zeros(b, dtype=np.int64)
    residuals = np.full(b, np.inf)
    best = np.full(b, np.inf)
    since = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=bool)
    stalled = np.zeros(b, dtype=bool)
    active = np.ones(b, dtype=bool)
    log2beta = 0
    for k in range(max_rounds + 1):
        # Rebuild link traffic from scratch, users in index order (the
        # bit-parity accumulation contract), and check the residual.
        w_link = np.zeros((b, m))
        for i in range(n):
            w_link = w_link + p[:, i, :] * w[:, i, None]
        lat = ((1.0 - p) * w[:, :, None] + (t + w_link)[:, None, :]) / caps
        mins = lat.min(axis=-1)
        scale = np.maximum(mins, 1.0)
        excess = (lat - mins[..., None]) / scale[..., None]
        r = np.where(p > SUPPORT_ATOL, excess, 0.0).max(axis=(-2, -1))
        residuals = np.where(active, r, residuals)
        newly = active & (r <= tol)
        converged |= newly
        active &= ~newly
        improved = active & (r < best * (1.0 - stall_rtol))
        best = np.where(improved, r, best)
        since = np.where(active, np.where(improved, 0, since + 1), since)
        newly_stalled = active & (since >= stall_rounds)
        stalled |= newly_stalled
        active &= ~newly_stalled
        if k == max_rounds or not active.any():
            break
        # One round: every user in index order, each seeing the link
        # traffic already updated by earlier movers (Gauss-Seidel).
        for u in range(n):
            row = p[:, u, :]
            lat_u = ((1.0 - row) * w[:, u, None] + (t + w_link)) / caps[:, u, :]
            q = lat_u.min(axis=-1)[:, None] / lat_u
            qb = q
            for _ in range(log2beta):
                qb = qb * qb
            g = row * qb
            s = g[:, 0]
            for link in range(1, m):
                s = s + g[:, link]
            updated = (1.0 - eta) * row + eta * (g / s[:, None])
            updated = np.where(active[:, None], updated, row)
            w_link = w_link + (updated - row) * w[:, u, None]
            p[:, u, :] = updated
        rounds = np.where(active, rounds + 1, rounds)
        if log2beta < log2_beta_max:
            log2beta += 1
    return p, rounds, residuals, converged, stalled
