"""Equilibrium queries: request validation, digests, the batched solver.

One query describes one uncertain-routing game by its reduced form —
``weights`` ``(n,)``, effective ``capacities`` ``(n, m)`` and optional
``initial_traffic`` ``(m,)`` — or by any of the model's standard
sugar forms (``link_capacities`` for a KP instance, ``states`` +
``beliefs`` for an explicit belief profile, reduced exactly like the
model layer). The answer is everything the paper can say about a small
game:

* the pure-strategy side — exhaustive pure-NE census plus one concrete
  pure equilibrium found by nashification from the all-on-link-0 start,
  with its before/after social costs (Section 3);
* the fully mixed closed form of Lemmas 4.1-4.3 with its interiority
  verdict (Section 4);
* the exact social optima ``OPT1``/``OPT2`` and the worst empirical
  coordination ratios over all equilibria;
* the Theorem 4.13/4.14 price-of-anarchy bounds (4.13 only where the
  uniform-beliefs premise holds).

:func:`solve_requests` is the single solver seam: it groups arbitrary
mixed-shape request lists into per-shape :class:`GameBatch` stacks
(:meth:`GameBatch.from_requests`) and answers each stack with one pass
of the batched kernels, so a coalesced batch of ``B`` concurrent
queries costs one kernel invocation, not ``B``. Every response is
bit-identical to what the direct ``B = 1`` APIs (`repro.equilibria`,
`repro.analysis.poa`, `repro.model.social`) return for the same game —
the batch kernels' parity contract, pinned by ``tests/test_service.py``.

:func:`solve_fixpoint_requests` is the second solver seam behind the
same callable signature: the iterative fixed-point mixed-equilibrium
solver (:func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash`) for
games past the exhaustive census width. A fixpoint query skips the
``MAX_SERVICE_PROFILES`` guard — beyond-enumeration width is its whole
point — and its response carries the solve's provenance (converged /
stalled / certified / rounds / residual) instead of the census; the
profile is returned only when the iteration converged, so every
answer is either oracle-certified or explicitly flagged.

Wire format: requests, responses and the content digests the cache is
keyed on all use the canonical JSON encoding of
:mod:`repro.runtime.store` (``canonical_dumps`` — ``repr``-shortest
floats, the ``{"__nonfinite__": ...}`` sentinel for ``inf``/``nan``),
the same encoding campaign result stores are written in. The solver
seams return plain response dicts; the server encodes each one once and
caches the bytes (:mod:`repro.service.server`). The shared format is
specified, with doctested examples, in ``docs/STORE_FORMAT.md``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.fixpoint import DEFAULT_MAX_ROUNDS, batch_fixpoint_mixed_nash
from repro.batch.mixed import batch_fully_mixed_candidate
from repro.batch.poa import (
    batch_empirical_ratios,
    batch_poa_bound_general,
    batch_poa_bound_uniform,
)
from repro.batch.pure import batch_nashify
from repro.errors import ConvergenceError

# canonical_payload stays importable from here: perfbench/traced_server.py
# times it under this module's name.
from repro.runtime.store import canonical_dumps, canonical_payload  # noqa: F401

__all__ = [
    "MAX_SERVICE_PROFILES",
    "EquilibriumRequest",
    "RequestError",
    "game_digest",
    "solve_fixpoint_requests",
    "solve_requests",
]

#: Largest ``m^n`` a query may ask for — the single-game optimum's
#: exhaustive/branch-and-bound cutover (see
#: :func:`repro.analysis.poa.empirical_coordination_ratios`). Below it
#: the batched and sequential paths are bit-identical; above it the
#: census would not fit a low-latency request/response cycle anyway.
MAX_SERVICE_PROFILES = 200_000

#: Start profile for the nashification leg: every user on link 0 — the
#: deterministic worst-ish start the examples use, chosen so repeated
#: queries for the same game replay the same trajectory.
_START_LINK = 0


class RequestError(ValueError):
    """A malformed or out-of-contract query payload."""


def game_digest(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray,
) -> str:
    """Content address of a game's reduced form.

    SHA-256 over the canonical JSON of the three arrays. JSON floats use
    ``repr`` shortest round-trip formatting — lossless for float64 — so
    two games share a digest iff their reduced forms are bit-identical,
    which is exactly the equivalence class every solver output is a
    function of.
    """
    doc = canonical_dumps(
        {
            "weights": np.asarray(weights, dtype=np.float64).tolist(),
            "capacities": np.asarray(capacities, dtype=np.float64).tolist(),
            "initial_traffic": np.asarray(
                initial_traffic, dtype=np.float64
            ).tolist(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _as_array(
    payload: Mapping[str, Any], key: str, ndim: int
) -> np.ndarray:
    try:
        arr = np.asarray(payload[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"{key!r} is not numeric: {exc}") from exc
    if arr.ndim != ndim:
        raise RequestError(
            f"{key!r} must be {ndim}-dimensional, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise RequestError(f"{key!r} must be finite")
    return arr


@dataclass(frozen=True)
class EquilibriumRequest:
    """One validated game query, addressed by its reduced-form digest."""

    weights: np.ndarray
    capacities: np.ndarray
    initial_traffic: np.ndarray
    digest: str

    @classmethod
    def from_arrays(
        cls,
        weights: np.ndarray,
        capacities: np.ndarray,
        initial_traffic: np.ndarray | None = None,
        *,
        check_width: bool = True,
    ) -> "EquilibriumRequest":
        """Validate a reduced form (via the ``GameBatch`` invariants).

        ``check_width=False`` skips the ``MAX_SERVICE_PROFILES`` census
        guard — the fixpoint op's spelling, whose solver never
        enumerates pure profiles.
        """
        w = np.asarray(weights, dtype=np.float64)
        caps = np.asarray(capacities, dtype=np.float64)
        if caps.ndim != 2:
            raise RequestError(
                f"capacities must be an (n, m) matrix, got shape {caps.shape}"
            )
        t = (
            np.zeros(caps.shape[1])
            if initial_traffic is None
            else np.asarray(initial_traffic, dtype=np.float64)
        )
        try:
            batch = GameBatch(w[None], caps[None], initial_traffic=t[None])
        except (IndexError, ValueError) as exc:  # Model/DimensionError too
            raise RequestError(str(exc)) from exc
        n, m = batch.num_users, batch.num_links
        if check_width and m**n > MAX_SERVICE_PROFILES:
            raise RequestError(
                f"game has {m}^{n} = {m**n} pure profiles; the service "
                f"serves exhaustively-checkable games "
                f"(<= {MAX_SERVICE_PROFILES})"
            )
        w, caps, t = batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
        return cls(
            weights=w,
            capacities=caps,
            initial_traffic=t,
            digest=game_digest(w, caps, t),
        )

    @classmethod
    def from_payload(
        cls,
        payload: Mapping[str, Any],
        *,
        check_width: bool = True,
    ) -> "EquilibriumRequest":
        """Parse a wire-format query.

        Exactly one capacity spelling is required:

        * ``capacities`` — the ``(n, m)`` reduced form, used verbatim;
        * ``link_capacities`` — ``(m,)`` certain capacities: a KP
          instance, reduced like ``UncertainRoutingGame.kp`` (the
          point-mass belief's double reciprocal, replicated per user);
        * ``states`` ``(S, m)`` + ``beliefs`` ``(n, S)`` — an explicit
          belief profile, reduced to belief-harmonic effective
          capacities exactly like the model layer.

        ``weights`` ``(n,)`` is always required; ``initial_traffic``
        ``(m,)`` is optional and defaults to zeros.
        """
        if not isinstance(payload, Mapping):
            raise RequestError("query must be a JSON object")
        if "weights" not in payload:
            raise RequestError("query needs 'weights'")
        weights = _as_array(payload, "weights", 1)
        spellings = [
            key
            for key in ("capacities", "link_capacities", "states")
            if key in payload
        ]
        if len(spellings) != 1:
            raise RequestError(
                "query needs exactly one of 'capacities', "
                "'link_capacities', or 'states' + 'beliefs'"
            )
        if "capacities" in payload:
            capacities = _as_array(payload, "capacities", 2)
        elif "link_capacities" in payload:
            links = _as_array(payload, "link_capacities", 1)
            if np.any(links <= 0.0):
                raise RequestError("'link_capacities' must be positive")
            # The KP reduction routes through the point-mass belief's
            # harmonic mean: 1 / (1 / c) is not a float identity, and
            # digest-level parity with UncertainRoutingGame.kp needs it.
            reduced = 1.0 / (1.0 / links)
            capacities = np.repeat(reduced[None, :], weights.size, axis=0)
        else:
            if "beliefs" not in payload:
                raise RequestError("'states' also needs 'beliefs'")
            states = _as_array(payload, "states", 2)
            beliefs = _as_array(payload, "beliefs", 2)
            if np.any(states <= 0.0):
                raise RequestError("'states' capacities must be positive")
            if np.any(beliefs < 0.0):
                raise RequestError("'beliefs' must be non-negative")
            if beliefs.shape[1] != states.shape[0]:
                raise RequestError(
                    f"'beliefs' covers {beliefs.shape[1]} states, "
                    f"'states' defines {states.shape[0]}"
                )
            sums = beliefs.sum(axis=1, keepdims=True)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise RequestError("each user's beliefs must sum to 1")
            # The model's belief-harmonic reduction (normalise, then
            # the expected-inverse-capacity reciprocal).
            capacities = 1.0 / ((beliefs / sums) @ (1.0 / states))
        initial_traffic = (
            _as_array(payload, "initial_traffic", 1)
            if "initial_traffic" in payload
            else None
        )
        return cls.from_arrays(
            weights, capacities, initial_traffic, check_width=check_width
        )


def _nashify_records(batch: GameBatch) -> list[dict[str, Any] | None]:
    """Per-game nashification records from one lockstep run.

    A game that exhausts the step budget (no pure NE reachable by
    best response — unobserved in the paper's families, cf. Conjecture
    3.7) must not poison its batch-mates: on a batch-level
    :class:`ConvergenceError` the stack is re-run game by game and only
    the offending games report ``None``.
    """
    start = np.full((len(batch), batch.num_users), _START_LINK, dtype=np.intp)
    try:
        results = [batch_nashify(batch, start)]
        slices = [(results[0], range(len(batch)))]
    except ConvergenceError:
        slices = []
        for index in range(len(batch)):
            sub = batch.subbatch([index])
            try:
                slices.append((batch_nashify(sub, start[:1]), [index]))
            except ConvergenceError:
                slices.append((None, [index]))
    records: list[dict[str, Any] | None] = [None] * len(batch)
    for result, indices in slices:
        if result is None:
            continue
        for row, index in enumerate(indices):
            records[index] = {
                "assignment": result.profiles[row].tolist(),
                "steps": int(result.steps[row]),
                "sc1_before": float(result.sc1_before[row]),
                "sc1": float(result.sc1_after[row]),
                "sc2_before": float(result.sc2_before[row]),
                "sc2": float(result.sc2_after[row]),
                "max_congestion_before": float(
                    result.max_congestion_before[row]
                ),
                "max_congestion": float(result.max_congestion_after[row]),
            }
    return records


def _uniform_beliefs_mask(
    capacities: np.ndarray, *, rtol: float = 1e-9
) -> np.ndarray:
    """Per-game ``has_uniform_beliefs`` verdicts (the Theorem 4.13
    premise), replicating the single-game predicate's tolerance."""
    first = capacities[:, :, :1]
    return np.all(np.abs(capacities - first) <= rtol * first, axis=(1, 2))


def _solve_by_shape(
    requests: Sequence[EquilibriumRequest],
    answer: Callable[[GameBatch, Sequence[str]], list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Group *requests* into per-shape stacks and answer each stack with
    one ``answer(batch, digests)`` call; responses in request order."""
    out: list[dict[str, Any] | None] = [None] * len(requests)
    for batch, indices in GameBatch.from_requests(requests):
        responses = answer(batch, [requests[i].digest for i in indices])
        for index, response in zip(indices, responses):
            out[index] = response
    return out  # type: ignore[return-value]


def _answer_census(
    batch: GameBatch, digests: Sequence[str]
) -> list[dict[str, Any]]:
    """Answer one same-shape stack of queries with one kernel pass.

    Returns one response dict per game, built only from JSON-native
    values (``.tolist()``, ``float``, ``int``, ``bool``, ``None``), so
    it encodes as it stands, with no round trip through
    :func:`repro.runtime.store.canonical_payload`.
    """
    n, m = batch.num_users, batch.num_links
    ratios = batch_empirical_ratios(batch)
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    nash = _nashify_records(batch)
    bound_general = batch_poa_bound_general(batch.capacities)
    bound_uniform = batch_poa_bound_uniform(batch.capacities)
    uniform = _uniform_beliefs_mask(batch.capacities)

    responses = []
    for b in range(len(batch)):
        fm_exists = bool(fm.exists[b])
        num_equilibria = int(ratios.num_equilibria[b])
        num_pure = num_equilibria - int(fm_exists)
        response = {
            "digest": digests[b],
            "num_users": n,
            "num_links": m,
            "pure": {
                "num_pure": num_pure,
                "exists": num_pure > 0,
                "nashify": nash[b],
            },
            "fully_mixed": {
                "exists": fm_exists,
                "probabilities": fm.probabilities[b].tolist(),
                "latencies": fm.latencies[b].tolist(),
                "link_traffic": fm.link_traffic[b].tolist(),
            },
            "social": {
                "opt1": float(ratios.opt1[b]),
                "opt2": float(ratios.opt2[b]),
            },
            "poa": {
                "bound_general": float(bound_general[b]),
                "bound_uniform": (
                    float(bound_uniform[b]) if bool(uniform[b]) else None
                ),
                "ratio_sc1": float(ratios.ratio_sc1[b]),
                "ratio_sc2": float(ratios.ratio_sc2[b]),
                "num_equilibria": num_equilibria,
            },
        }
        responses.append(response)
    return responses


def solve_requests(
    requests: Sequence[EquilibriumRequest],
) -> list[dict[str, Any]]:
    """Solve a mixed-shape request list via per-shape sub-batches.

    The dynamic batcher's solver seam: requests are grouped with
    :meth:`GameBatch.from_requests` and each shape's stack takes one
    pass of the batched kernels; responses come back in request order.
    """
    return _solve_by_shape(requests, _answer_census)


def _answer_fixpoint(
    batch: GameBatch, digests: Sequence[str], *, max_rounds: int
) -> list[dict[str, Any]]:
    """Answer one same-shape stack of fixpoint queries with one solve.

    Per game: the solve's provenance (``converged`` / ``stalled`` /
    ``certified`` / ``rounds`` / ``residual``) plus the equilibrium
    ``probabilities`` — ``None`` when the iteration did not converge,
    so a client can always tell a certified profile from a flagged
    failure. Like :func:`_answer_census`, each response holds only
    JSON-native values and encodes as it stands, and each game's answer
    is bit-identical to its ``B = 1`` solve — trajectories ignore
    batch-mates.
    """
    result = batch_fixpoint_mixed_nash(
        batch.weights,
        batch.capacities,
        batch.initial_traffic,
        max_rounds=max_rounds,
    )
    responses = []
    for b in range(len(batch)):
        converged = bool(result.converged[b])
        response = {
            "digest": digests[b],
            "num_users": batch.num_users,
            "num_links": batch.num_links,
            "converged": converged,
            "stalled": bool(result.stalled[b]),
            "certified": bool(result.certified[b]),
            "rounds": int(result.rounds[b]),
            "residual": float(result.residuals[b]),
            "probabilities": (
                result.probabilities[b].tolist() if converged else None
            ),
        }
        responses.append(response)
    return responses


def solve_fixpoint_requests(
    requests: Sequence[EquilibriumRequest],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[dict[str, Any]]:
    """The fixpoint op's solver seam — same shape as
    :func:`solve_requests`, so the same dynamic batcher drives it."""
    return _solve_by_shape(
        requests, functools.partial(_answer_fixpoint, max_rounds=max_rounds)
    )
