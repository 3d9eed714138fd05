"""Batched support enumeration — stacked indifference systems per block.

The Section 4 cross-checks (experiments E7/E9) enumerate *every* mixed
Nash equilibrium of small games by support profile: fix one non-empty
link subset per user, solve the linear indifference system it induces,
and keep solutions that verify as Nash. Per game that is
``(2^m - 1)^n`` small dense solves — the last per-game sequential hot
path in the library after the mixed/PoA engines were batched.

The batched form exploits two structural facts:

* for a fixed support profile, the system's sparsity pattern (which
  matrix entry holds which ``w_k`` / ``-C[i, l]`` coefficient) is a pure
  function of ``(n, m, supports)`` — independent of the game. The
  assembly *indices* are therefore precomputed once per game shape and
  cached (:func:`_support_structures`), and filling the coefficient
  tensors for ``B`` games is pure fancy indexing;
* profiles with equal system dimension ``k`` stack with the games into
  one ``(P * B, k, k)`` tensor that a single
  :func:`numpy.linalg.solve` call factorises — the Sinkhorn-style trick
  of batching whole families of small linear problems instead of
  looping over them.

Degenerate supports whose systems are exactly singular fall back to the
per-slice minimum-norm :func:`numpy.linalg.lstsq` solution the
sequential code always used; every candidate is then vetted by the same
residual / support-interiority / Nash checks, so the fallback only
affects which representative of a solution continuum is proposed, never
which equilibria survive.

:func:`repro.equilibria.support_enum.enumerate_mixed_nash` is the
``B = 1`` view of :func:`batch_enumerate_mixed_nash`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.batch.mixed import batch_is_mixed_nash, normalize_rows
from repro.errors import DimensionError, ModelError

if TYPE_CHECKING:
    from repro.model.profiles import MixedProfile

__all__ = [
    "MAX_SUPPORT_PROFILES",
    "support_profiles",
    "batch_enumerate_mixed_nash",
]

#: Refuse enumeration beyond this many support profiles per game.
MAX_SUPPORT_PROFILES = 300_000


def support_profiles(
    num_users: int, num_links: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every support profile: one non-empty link subset per user.

    The iteration order (subsets by size then lexicographically, users
    varying fastest on the right) is the library's canonical profile
    order; deduplication keeps the first representative in this order.
    """
    links = range(num_links)
    subsets: list[tuple[int, ...]] = []
    for size in range(1, num_links + 1):
        subsets.extend(itertools.combinations(links, size))
    yield from itertools.product(subsets, repeat=num_users)


@dataclass
class _SupportGroup:
    """All support profiles of one system dimension, assembly-indexed.

    Index-array semantics (``A`` is the ``(P, B, k, k)`` coefficient
    tensor flattened to ``(P, B, k * k)``, ``rhs`` is ``(P, B, k)``):

    * ``A[aw_p, :, aw_rc] = w[:, aw_u]``            (indifference rows)
    * ``A[ac_p, :, ac_rc] = -caps[:, ac_i, ac_l]``  (lambda columns)
    * ``A[a1_p, :, a1_rc] = 1``                     (row-sum rows)
    * ``rhs[rw_p, :, rw_r] = -(w[:, rw_i] + t[:, rw_l])``
    * ``rhs[r1_p, :, r1_r] = 1``
    * ``probs[ps_p, :, ps_i * m + ps_l] = sol[ps_p, :, ps_col]``
    """

    dim: int
    profile_order: np.ndarray  # (P,) canonical profile indices
    aw_p: np.ndarray
    aw_rc: np.ndarray
    aw_u: np.ndarray
    ac_p: np.ndarray
    ac_rc: np.ndarray
    ac_i: np.ndarray
    ac_l: np.ndarray
    a1_p: np.ndarray
    a1_rc: np.ndarray
    rw_p: np.ndarray
    rw_r: np.ndarray
    rw_i: np.ndarray
    rw_l: np.ndarray
    r1_p: np.ndarray
    r1_r: np.ndarray
    ps_p: np.ndarray
    ps_col: np.ndarray
    ps_im: np.ndarray

    @property
    def num_profiles(self) -> int:
        return int(self.profile_order.size)


def _index_array(entries: list[tuple], column: int) -> np.ndarray:
    return np.asarray([e[column] for e in entries], dtype=np.intp)


@lru_cache(maxsize=64)
def _support_structures(num_users: int, num_links: int) -> tuple[_SupportGroup, ...]:
    """The game-independent assembly structure for one ``(n, m)`` shape.

    Grouped by system dimension so each group solves as one stacked
    ``(P * B, k, k)`` call; cached because the verification grids reuse
    a handful of small shapes thousands of times.
    """
    n, m = num_users, num_links
    by_dim: dict[int, dict[str, list]] = {}
    for q, supports in enumerate(support_profiles(n, m)):
        p_index: dict[tuple[int, int], int] = {}
        for i, supp in enumerate(supports):
            for link in supp:
                p_index[(i, link)] = len(p_index)
        num_p = len(p_index)
        dim = num_p + n
        bucket = by_dim.setdefault(
            dim,
            {key: [] for key in ("order", "aw", "ac", "a1", "rw", "r1", "ps")},
        )
        p = len(bucket["order"])
        bucket["order"].append(q)
        r = 0
        for i, supp in enumerate(supports):
            for link in supp:
                for k, supp_k in enumerate(supports):
                    if k != i and link in supp_k:
                        bucket["aw"].append((p, r * dim + p_index[(k, link)], k))
                bucket["ac"].append((p, r * dim + num_p + i, i, link))
                bucket["rw"].append((p, r, i, link))
                r += 1
        for i, supp in enumerate(supports):
            for link in supp:
                bucket["a1"].append((p, r * dim + p_index[(i, link)]))
            bucket["r1"].append((p, r))
            r += 1
        for (i, link), col in p_index.items():
            bucket["ps"].append((p, col, i * m + link))

    groups = []
    for dim in sorted(by_dim):
        b = by_dim[dim]
        groups.append(
            _SupportGroup(
                dim=dim,
                profile_order=np.asarray(b["order"], dtype=np.intp),
                aw_p=_index_array(b["aw"], 0),
                aw_rc=_index_array(b["aw"], 1),
                aw_u=_index_array(b["aw"], 2),
                ac_p=_index_array(b["ac"], 0),
                ac_rc=_index_array(b["ac"], 1),
                ac_i=_index_array(b["ac"], 2),
                ac_l=_index_array(b["ac"], 3),
                a1_p=_index_array(b["a1"], 0),
                a1_rc=_index_array(b["a1"], 1),
                rw_p=_index_array(b["rw"], 0),
                rw_r=_index_array(b["rw"], 1),
                rw_i=_index_array(b["rw"], 2),
                rw_l=_index_array(b["rw"], 3),
                r1_p=_index_array(b["r1"], 0),
                r1_r=_index_array(b["r1"], 1),
                ps_p=_index_array(b["ps"], 0),
                ps_col=_index_array(b["ps"], 1),
                ps_im=_index_array(b["ps"], 2),
            )
        )
    return tuple(groups)


def _min_norm_stacked(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched minimum-norm solve of an ``(N, k, k)`` stack via SVD.

    The stacked equivalent of ``lstsq(a, rhs, rcond=None)``: singular
    values below ``eps * k * sigma_max`` (lstsq's machine-precision
    default) are treated as zero, so degenerate supports get the same
    min-norm continuum representative the sequential enumeration
    proposed — which the downstream residual / Nash checks vet either
    way.
    """
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:  # pragma: no cover - svd rarely fails
        out = np.empty_like(rhs)
        for idx in range(a.shape[0]):
            out[idx] = np.linalg.lstsq(a[idx], rhs[idx], rcond=None)[0]
        return out
    cutoff = np.finfo(a.dtype).eps * max(a.shape[-2:]) * s[..., :1]
    keep = s > cutoff
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    utb = np.matmul(np.swapaxes(u, -2, -1), rhs[..., None])[..., 0]
    return np.matmul(np.swapaxes(vt, -2, -1), (s_inv * utb)[..., None])[..., 0]


def _solve_stacked(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU-solve a ``(N, k, k)`` stack; SVD min-norm for singular slices.

    Degenerate support systems are common (roughly a third at the E7/E9
    widths), and one singular slice makes the whole-stack
    :func:`numpy.linalg.solve` raise — so singular slices are screened
    up front with a batched determinant (the same LU factorisation:
    an exactly-zero pivot is exactly ``det == 0``) and routed to the
    batched min-norm solve instead of a per-slice Python fallback loop.
    """
    out = np.empty_like(rhs)
    regular = np.linalg.det(a) != 0.0
    if regular.any():
        try:
            out[regular] = np.linalg.solve(
                a[regular], rhs[regular][..., None]
            )[..., 0]
        except np.linalg.LinAlgError:  # pragma: no cover - det screen missed
            out[regular] = _min_norm_stacked(a[regular], rhs[regular])
    singular = ~regular
    if singular.any():
        out[singular] = _min_norm_stacked(a[singular], rhs[singular])
    return out


def batch_enumerate_mixed_nash(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    tol: float = 1e-9,
    dedupe_decimals: int = 7,
) -> list[list[MixedProfile]]:
    """Every Nash equilibrium of each game in a ``(B, n, m)`` stack.

    Returns one equilibrium list per game, deduplicated by rounding and
    ordered by the canonical support-profile order — element ``b``
    equals ``enumerate_mixed_nash`` run on game ``b`` alone.

    Parameters mirror the stacked-kernel convention: ``weights``
    ``(B, n)``, ``capacities`` ``(B, n, m)``, optional
    ``initial_traffic`` ``(B, m)``.
    """
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.ndim != 3:
        raise DimensionError(f"capacities must have shape (B, n, m), got {caps.shape}")
    batch, n, m = caps.shape
    if w.shape != (batch, n):
        raise DimensionError(f"weights must have shape ({batch}, {n}), got {w.shape}")
    if initial_traffic is None:
        t = np.zeros((batch, m))
    else:
        t = np.asarray(initial_traffic, dtype=np.float64)
        if t.shape != (batch, m):
            raise DimensionError(
                f"initial_traffic must have shape ({batch}, {m}), got {t.shape}"
            )
    total = (2**m - 1) ** n
    if total > MAX_SUPPORT_PROFILES:
        raise ModelError(
            f"{total} support profiles exceed the enumeration limit "
            f"({MAX_SUPPORT_PROFILES})"
        )

    # (profile index, once-normalised matrix, MixedProfile-normalised
    # matrix) per surviving candidate, per game.
    found: list[list[tuple[int, np.ndarray, np.ndarray]]] = [[] for _ in range(batch)]
    for group in _support_structures(n, m):
        p_count, k = group.num_profiles, group.dim
        a = np.zeros((p_count, batch, k, k))
        a_flat = a.reshape(p_count, batch, k * k)
        a_flat[group.aw_p, :, group.aw_rc] = w[:, group.aw_u].T
        a_flat[group.ac_p, :, group.ac_rc] = -caps[:, group.ac_i, group.ac_l].T
        a_flat[group.a1_p, :, group.a1_rc] = 1.0
        rhs = np.zeros((p_count, batch, k))
        rhs[group.rw_p, :, group.rw_r] = -(w[:, group.rw_i] + t[:, group.rw_l]).T
        rhs[group.r1_p, :, group.r1_r] = 1.0

        sol = _solve_stacked(
            a.reshape(p_count * batch, k, k), rhs.reshape(p_count * batch, k)
        ).reshape(p_count, batch, k)

        good = np.isfinite(sol).all(axis=-1)
        residual = np.linalg.norm(np.matmul(a, sol[..., None])[..., 0] - rhs, axis=-1)
        rhs_norm = np.linalg.norm(rhs, axis=-1)
        good &= residual <= 1e-7 * np.maximum(1.0, rhs_norm)

        probs = np.zeros((p_count, batch, n * m))
        probs[group.ps_p, :, group.ps_im] = sol[group.ps_p, :, group.ps_col]
        # Support semantics: strictly positive on support (off-support
        # entries are structurally zero), nothing above 1 + slack.
        sup_vals = probs[group.ps_p, :, group.ps_im]
        sup_min = np.full((p_count, batch), np.inf)
        sup_max = np.full((p_count, batch), -np.inf)
        np.minimum.at(sup_min, group.ps_p, sup_vals)
        np.maximum.at(sup_max, group.ps_p, sup_vals)
        good &= (sup_min >= tol) & (sup_max <= 1.0 + 1e-9)
        if not good.any():
            continue

        # Renormalise away numerical slack (exactly _solve_support's ops),
        # then apply MixedProfile's clip+renormalise once more: Nash
        # verification and dedupe see the matrix a MixedProfile stores.
        pm = np.clip(probs.reshape(p_count, batch, n, m), 0.0, None)
        sums = pm.sum(axis=-1, keepdims=True)
        good &= (sums[..., 0] > 0).all(axis=-1)
        pm = pm / np.where(sums <= 0, 1.0, sums)
        # Rejected candidates may hold all-zero rows; mask them to a
        # harmless constant so the row renormalisation stays finite
        # (good slices are untouched bit for bit).
        pm2 = normalize_rows(np.where(good[..., None, None], pm, 1.0))

        p_idx, b_idx = np.nonzero(good)
        if p_idx.size == 0:
            continue
        verdicts = batch_is_mixed_nash(
            pm2[p_idx, b_idx], w[b_idx], caps[b_idx], t[b_idx], tol=1e-7
        )
        order = group.profile_order
        for pi, bi, is_nash in zip(p_idx, b_idx, verdicts):
            if is_nash:
                found[bi].append((int(order[pi]), pm[pi, bi], pm2[pi, bi]))

    from repro.model.profiles import MixedProfile

    results: list[list[MixedProfile]] = []
    for candidates in found:
        candidates.sort(key=lambda item: item[0])
        kept: dict[bytes, MixedProfile] = {}
        for _, once, stored in candidates:
            key = np.round(stored, dedupe_decimals).tobytes()
            if key not in kept:
                kept[key] = MixedProfile(once)
        results.append(list(kept.values()))
    return results


def batch_enumerate_for(
    batch_games, indices: Sequence[int] | None = None
) -> list[list[MixedProfile]]:
    """Convenience wrapper: enumerate a :class:`GameBatch` (or a subset).

    *indices* restricts to a subset of the stack (order kept); ``None``
    enumerates every game.
    """
    if indices is None:
        return batch_enumerate_mixed_nash(
            batch_games.weights,
            batch_games.capacities,
            batch_games.initial_traffic,
        )
    idx = np.asarray(indices, dtype=np.intp)
    return batch_enumerate_mixed_nash(
        batch_games.weights[idx],
        batch_games.capacities[idx],
        batch_games.initial_traffic[idx],
    )
