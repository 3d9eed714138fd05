"""Batched fully-mixed / mixed-Nash kernels — Section 4 over game stacks.

Every kernel operates on raw arrays with an arbitrary *batch* prefix:

* probabilities ``P``    — float array of shape ``(..., n, m)``;
* weights ``w``          — float array of shape ``(..., n)``;
* capacities ``C``       — float array of shape ``(..., n, m)``;
* initial traffic ``t``  — optional float array of shape ``(..., m)``.

As in :mod:`repro.batch.kernels`, the single-game functions
(:func:`repro.equilibria.fully_mixed.fully_mixed_candidate`,
:func:`repro.model.latency.mixed_latency_matrix`,
:func:`repro.equilibria.conditions.is_mixed_nash`) are the ``batch = ()``
views of these kernels, and the E7-E11 experiment layer calls them with
``batch = (B,)`` stacks.

Numerical parity note: the kernels promise *bit-identical* slices — for
any stack, ``kernel(stack)[b]`` equals the single-game computation on
game ``b`` exactly, floating-point operation for operation. The one
non-obvious ingredient is the matrix-vector product in Lemma 4.2
(``C^T lam``) and in the expected link traffic (``P^T w``): the batched
form ``np.matmul(v[..., None, :], M)[..., 0, :]`` dispatches to the same
BLAS GEMM reduction as the historical 2-D ``M.T @ v`` and reproduces it
bitwise, whereas ``einsum``/multiply-sum formulations do not (their
reduction trees differ in the last ulp). The differential tests in
``tests/test_batch_fmne.py`` pin this contract, and the frozen
``tests/data/mixed_seed_baseline.json`` enforces it end-to-end across
the E7-E11 campaigns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DimensionError, ModelError

__all__ = [
    "BatchFullyMixedResult",
    "batch_fully_mixed_candidate",
    "batch_mixed_latency_matrix",
    "batch_min_expected_latencies",
    "batch_is_mixed_nash",
    "normalize_rows",
    "SUPPORT_ATOL",
]

#: Probability threshold below which a link is considered out of support
#: (shared with the single-game Nash conditions).
SUPPORT_ATOL = 1e-12

#: How far a row sum may sit from 1 in a profile that
#: :func:`batch_is_mixed_nash` accepts as a distribution.
_ROW_SUM_ATOL = 1e-9


def _as_mixed_arrays(
    probs: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    if p.ndim < 2 or caps.ndim < 2 or w.ndim < 1:
        raise DimensionError(
            "probabilities/capacities need at least (n, m), weights (n,)"
        )
    n, m = caps.shape[-2], caps.shape[-1]
    if p.shape[-2:] != (n, m) or w.shape[-1] != n:
        raise DimensionError(
            f"capacities cover (n, m) = ({n}, {m}), got probabilities "
            f"{p.shape[-2:]} and weights for {w.shape[-1]} users"
        )
    return p, w, caps


def _stacked_matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``out[..., l] = sum_i M[..., i, l] v[..., i]`` — bit-compatible
    with the 2-D ``M.T @ v`` (same BLAS reduction, see module docstring).
    """
    return np.matmul(vectors[..., None, :], matrices)[..., 0, :]


@dataclass(frozen=True)
class BatchFullyMixedResult:
    """The closed-form fully mixed candidates of a game stack.

    The batched counterpart of
    :class:`repro.equilibria.fully_mixed.FullyMixedResult`: each field
    carries the batch prefix of the inputs, and slice ``b`` equals the
    single-game result on game ``b`` bit for bit.

    Attributes
    ----------
    probabilities:
        ``(..., n, m)`` candidate matrices of Lemma 4.3.
    latencies:
        ``(..., n)`` minimum expected latencies ``lambda_i`` (Lemma 4.1).
    link_traffic:
        ``(..., m)`` expected link traffic ``W^l`` (Lemma 4.2).
    exists:
        ``(...)`` boolean interiority mask — True where every
        probability lies strictly inside ``(0, 1)``, i.e. where the
        candidate is the game's unique fully mixed NE (Theorem 4.6).
    """

    probabilities: np.ndarray
    latencies: np.ndarray
    link_traffic: np.ndarray
    exists: np.ndarray


def batch_fully_mixed_candidate(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    boundary_tol: float = 1e-12,
) -> BatchFullyMixedResult:
    """Evaluate the Lemma 4.1-4.3 closed form for a whole stack at once.

    O(B n m) total: per-user capacity row sums give the ``(..., n)``
    lambdas, one stacked mat-vec the ``(..., m)`` expected traffics, and
    a broadcasted affine map the ``(..., n, m)`` probability tensors.
    """
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.ndim < 2 or w.ndim < 1:
        raise DimensionError("capacities need at least (n, m), weights (n,)")
    n, m = caps.shape[-2], caps.shape[-1]
    if w.shape[-1] != n:
        raise DimensionError(f"capacities cover {n} users, weights cover {w.shape[-1]}")
    if initial_traffic is None:
        t = np.zeros(caps.shape[:-2] + (m,))
    else:
        t = np.asarray(initial_traffic, dtype=np.float64)

    w_tot = w.sum(axis=-1)  # (...,)
    t_tot = t.sum(axis=-1)

    row_sums = caps.sum(axis=-1)  # S_i, shape (..., n)
    # Operation order mirrors the sequential code exactly:
    # lam = ((m - 1) * w + w_tot + t_tot) / S_i, left to right.
    lam = ((m - 1) * w + w_tot[..., None] + t_tot[..., None]) / row_sums
    if caps.ndim == 2:
        mv = caps.T @ lam  # single-game fast path: the historical op
    else:
        mv = _stacked_matvec(caps, lam)
    link_traffic = (mv - w_tot[..., None] - n * t) / (n - 1)  # Lemma 4.2
    probs = (
        t[..., None, :] + link_traffic[..., None, :] + w[..., None]
        - caps * lam[..., None]
    ) / w[..., None]  # Lemma 4.3

    axes = (-2, -1)
    interior = np.logical_and(
        (probs > boundary_tol).all(axis=axes),
        (probs < 1.0 - boundary_tol).all(axis=axes),
    )
    return BatchFullyMixedResult(
        probabilities=probs,
        latencies=lam,
        link_traffic=link_traffic,
        exists=interior,
    )


def batch_mixed_latency_matrix(
    probs: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
) -> np.ndarray:
    """Expected-latency matrices ``lambda^l_{i,b_i}(P)``: ``(..., n, m)``.

    ``out[..., i, l] = ((1 - P[..., i, l]) w_i + t_l + W^l) / C[..., i, l]``
    with ``W^l = sum_k P[..., k, l] w_k`` — Section 2's mixed latency,
    broadcast over the batch prefix.
    """
    p, w, caps = _as_mixed_arrays(probs, weights, capacities)
    if p.ndim == 2 and w.ndim == 1:
        w_link = p.T @ w  # single-game fast path: the historical op
    else:
        w_link = _stacked_matvec(p, w)
    if initial_traffic is not None:
        w_link = w_link + np.asarray(initial_traffic, dtype=np.float64)
    numer = (1.0 - p) * w[..., None] + w_link[..., None, :]
    return numer / caps


def batch_min_expected_latencies(
    probs: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
) -> np.ndarray:
    """Per-user minimum expected latency (eq. 1): shape ``(..., n)``."""
    return batch_mixed_latency_matrix(
        probs, weights, capacities, initial_traffic
    ).min(axis=-1)


def batch_is_mixed_nash(
    probs: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    tol: float = 1e-9,
) -> np.ndarray:
    """Mixed-Nash verdict per batch element: boolean array of shape ``(...)``.

    A profile is Nash iff it is a distribution — every entry finite and
    ``>= 0``, every row summing to 1 within 1e-9 — and every user's
    supported links (probability above :data:`SUPPORT_ATOL`) attain the
    user's minimum expected latency up to relative tolerance *tol*. A
    non-finite or negative *tol* raises :class:`~repro.errors.ModelError`.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ModelError(f"tol must be finite and >= 0, got {tol}")
    p, w, caps = _as_mixed_arrays(probs, weights, capacities)
    lat = batch_mixed_latency_matrix(p, w, caps, initial_traffic)
    minima = lat.min(axis=-1)
    scale = np.maximum(minima, 1.0)
    bad = (p > SUPPORT_ATOL) & (lat > (minima + tol * scale)[..., None])
    rows_ok = np.abs(p.sum(axis=-1) - 1.0) <= _ROW_SUM_ATOL
    entries_ok = np.isfinite(p) & (p >= 0.0)
    distribution = rows_ok.all(axis=-1) & entries_ok.all(axis=(-2, -1))
    return distribution & ~bad.any(axis=(-2, -1))


def normalize_rows(probs: np.ndarray) -> np.ndarray:
    """The row renormalisation applied by ``MixedProfile`` validation.

    Clips negatives to zero and divides each row by its sum — exactly
    the operations of ``check_probability_matrix``, so feeding a
    closed-form candidate through this function yields bit for bit the
    matrix the single-game ``FullyMixedResult.profile()`` exposes.
    Broadcasts over any batch prefix.
    """
    arr = np.clip(np.asarray(probs, dtype=np.float64), 0.0, None)
    return arr / arr.sum(axis=-1, keepdims=True)
