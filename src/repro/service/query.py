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

Validation: :meth:`EquilibriumRequest.from_payload` checks a decoded
request once, in plain Python, and nothing downstream checks it again
but :meth:`GameBatch.from_requests`' one stacked pass per window. A
numeric field is a list (``capacities``, ``states`` and ``beliefs``: a
list of equal-length lists) of elements ``float()`` reads — numbers and
numeric strings, as ``np.asarray(..., dtype=float64)`` reads them;
``None``, booleans and integers past float range are refused — and
every element must be finite. Then ``weights`` must match the capacity
rows and ``initial_traffic`` the links, ``n, m >= 2``, weights and
capacities must be positive, traffic non-negative, and a ``solve``
query's ``m ** n`` at most :data:`MAX_SERVICE_PROFILES`. A ``-0.0``
traffic entry is read as ``0.0``, so the digest and the solver see one
game where the spelling differs only in a zero's sign. The request's
read-only arrays are built once from the validated floats, and the
digest reads them. The ``states`` + ``beliefs`` reduction is the one
step left to NumPy: its row sum is pairwise past 8 states and its
product runs through BLAS, so a Python loop would change the
capacities' bits.

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
from itertools import chain
from math import isfinite
from typing import Any, Callable, Iterable, Mapping, Sequence

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


#: The capacity spellings, in the order :meth:`EquilibriumRequest.from_payload`
#: looks for them.
_SPELLINGS = ("capacities", "link_capacities", "states")
#: How a shape refusal names each spelling's users axis (the rows
#: ``weights`` must match) and links axis (the length ``initial_traffic``
#: must have). ``link_capacities`` gets one row per weight, so its users
#: axis cannot disagree.
_USERS_AXIS = {
    "capacities": "'capacities' has {} rows",
    "states": "'beliefs' has {} rows",
}
_LINKS_AXIS = {
    "capacities": "'capacities' has {} columns",
    "link_capacities": "'link_capacities' has length {}",
    "states": "'states' has {} columns",
}


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


def _is_sequence(value: Any) -> bool:
    """Whether NumPy would nest into *value* when building an array."""
    return isinstance(value, (list, tuple)) or (
        isinstance(value, np.ndarray) and value.ndim > 0
    )


def _number(item: Any) -> float:
    """*item* as ``float()`` reads it; a boolean is refused, where
    ``float()`` would read ``true`` as 1.0."""
    if type(item) is bool:
        raise TypeError("booleans are not numbers")
    return float(item)


def _walk(value: Any, key: str, ndim: int) -> tuple[list, list]:
    """Field *key* as ``ndim``-deep nested lists of floats, and their
    elements in order, for any nesting of lists, tuples and arrays.

    Refuses *value* in the order ``np.asarray(value, dtype=float64)``
    did: ragged nesting, then the first element ``float()`` refuses (or
    the first boolean), then the wrong depth.
    """
    shape: list[int] = []
    level = [value]
    while level and all(map(_is_sequence, level)):
        lengths = set(map(len, level))
        if len(lengths) > 1:
            break
        shape.append(lengths.pop())
        level = [item for sequence in level for item in sequence]
    if any(map(_is_sequence, level)):
        raise RequestError(
            f"{key!r} is ragged: its nested lists differ in length or depth"
        )
    try:
        flat = [_number(item) for item in level]
    except (TypeError, ValueError, OverflowError) as exc:
        raise RequestError(f"{key!r} is not numeric: {exc}") from exc
    if len(shape) != ndim:
        raise RequestError(
            f"{key!r} must be {ndim}-dimensional, got shape {tuple(shape)}"
        )
    if ndim == 1:
        return flat, flat
    rows, width = shape
    return [flat[i * width : (i + 1) * width] for i in range(rows)], flat


def _field(value: Any, key: str, ndim: int) -> list:
    """Field *key* as ``ndim``-deep nested lists of finite floats.

    ``float()`` reads each element, so ints and numeric strings count as
    numbers, as they do for ``np.asarray(value, dtype=float64)``;
    ``None`` and booleans do not. A plain list of the right depth, which
    is what a well-formed request decodes to, is read in one pass;
    anything else, a boolean included, goes through :func:`_walk`.
    """
    try:
        if type(value) is not list:
            raise TypeError
        if ndim == 1:
            numbers = list(map(float, value))
            flat: Iterable[float] = numbers
            if bool in map(type, value):
                raise TypeError
        else:
            numbers = []
            for row in value:
                if type(row) is not list:
                    raise TypeError
                numbers.append(list(map(float, row)))
                if bool in map(type, row):
                    raise TypeError
            if len(set(map(len, numbers))) != 1:
                raise TypeError
            flat = chain.from_iterable(numbers)
    except (TypeError, ValueError, OverflowError):
        numbers, flat = _walk(value, key, ndim)
    if not all(map(isfinite, flat)):
        raise RequestError(f"{key!r} must be finite")
    return numbers


def _frozen(values: list) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class EquilibriumRequest:
    """One validated game query, addressed by its reduced-form digest.

    The arrays are read-only float64, so they cannot drift from the
    digest.
    """

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
        """Validate a reduced form given as arrays.

        The arrays go through :meth:`from_payload` as its ``capacities``
        spelling, via ``tolist()``, so both constructors share one
        validator. ``check_width=False`` skips the
        ``MAX_SERVICE_PROFILES`` census guard — the fixpoint op's
        spelling, whose solver never enumerates pure profiles.
        """
        payload = {
            "weights": np.asarray(weights, dtype=np.float64).tolist(),
            "capacities": np.asarray(capacities, dtype=np.float64).tolist(),
        }
        if initial_traffic is not None:
            payload["initial_traffic"] = np.asarray(
                initial_traffic, dtype=np.float64
            ).tolist()
        return cls.from_payload(payload, check_width=check_width)

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

        The checks run in this order, the first failure refusing the
        query: the fields one by one (``weights``, the spelling's own,
        ``initial_traffic``), then ``weights`` against the capacity
        rows, ``n, m >= 2``, positive weights and capacities,
        ``initial_traffic``'s length and sign, and the width guard.
        """
        if not isinstance(payload, (dict, Mapping)):  # dict first: cheaper
            raise RequestError("query must be a JSON object")
        if "weights" not in payload:
            raise RequestError("query needs 'weights'")
        weights = _field(payload["weights"], "weights", 1)
        spellings = [key for key in _SPELLINGS if key in payload]
        if len(spellings) != 1:
            raise RequestError(
                "query needs exactly one of 'capacities', "
                "'link_capacities', or 'states' + 'beliefs'"
            )
        spelling = spellings[0]
        if spelling == "capacities":
            capacities = _field(payload["capacities"], "capacities", 2)
            num_links = len(capacities[0])
        elif spelling == "link_capacities":
            links = _field(payload["link_capacities"], "link_capacities", 1)
            if any(c <= 0.0 for c in links):
                raise RequestError("'link_capacities' must be positive")
            # The KP reduction routes through the point-mass belief's
            # harmonic mean: 1 / (1 / c) is not a float identity, and
            # digest-level parity with UncertainRoutingGame.kp needs it.
            reduced = [1.0 / (1.0 / c) for c in links]
            capacities = [reduced] * len(weights)
            num_links = len(links)
        else:
            if "beliefs" not in payload:
                raise RequestError("'states' also needs 'beliefs'")
            states = np.array(_field(payload["states"], "states", 2))
            beliefs = np.array(_field(payload["beliefs"], "beliefs", 2))
            if np.any(states <= 0.0):
                raise RequestError("'states' capacities must be positive")
            if np.any(beliefs < 0.0):
                raise RequestError("'beliefs' must be non-negative")
            if beliefs.shape[1] != states.shape[0]:
                raise RequestError(
                    f"'beliefs' covers {beliefs.shape[1]} states, "
                    f"'states' defines {states.shape[0]}"
                )
            # The model's belief-harmonic reduction (normalise, then
            # the expected-inverse-capacity reciprocal) stays in NumPy:
            # the row sum is pairwise past 8 states and the product runs
            # through BLAS, so plain Python would change bits.
            sums = beliefs.sum(axis=1, keepdims=True)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise RequestError("each user's beliefs must sum to 1")
            capacities = (1.0 / ((beliefs / sums) @ (1.0 / states))).tolist()
            num_links = states.shape[1]
        initial_traffic = (
            _field(payload["initial_traffic"], "initial_traffic", 1)
            if "initial_traffic" in payload
            else None
        )
        n, m = len(capacities), num_links
        if len(weights) != n:
            raise RequestError(
                f"'weights' has length {len(weights)} but "
                + _USERS_AXIS[spelling].format(n)
            )
        if n < 2 or m < 2:
            raise RequestError(
                f"the model requires n > 1 and m > 1, got ({n}, {m})"
            )
        if min(weights) <= 0.0:
            raise RequestError("weights must be finite and strictly positive")
        entries = list(chain.from_iterable(capacities))
        if not all(map(isfinite, entries)) or min(entries) <= 0.0:
            raise RequestError("capacities must be finite and strictly positive")
        if initial_traffic is None:
            initial_traffic = [0.0] * m
        elif len(initial_traffic) != m:
            raise RequestError(
                f"'initial_traffic' has length {len(initial_traffic)} but "
                + _LINKS_AXIS[spelling].format(m)
            )
        elif min(initial_traffic) < 0.0:
            raise RequestError("initial_traffic must be finite and non-negative")
        else:
            # -0.0 + 0.0 is 0.0; every other entry is unchanged.
            initial_traffic = [entry + 0.0 for entry in initial_traffic]
        if check_width and m**n > MAX_SERVICE_PROFILES:
            raise RequestError(
                f"game has {m}^{n} = {m**n} pure profiles; the service "
                f"serves exhaustively-checkable games "
                f"(<= {MAX_SERVICE_PROFILES})"
            )
        w, caps, t = _frozen(weights), _frozen(capacities), _frozen(initial_traffic)
        # The digest reads the arrays just built from the validated
        # floats: their ``tolist()`` gives the same lists back and costs
        # less than checking that the lists hold nothing but floats.
        return cls(
            weights=w,
            capacities=caps,
            initial_traffic=t,
            digest=game_digest(w, caps, t),
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
        for (
            index, assignment, steps, sc1_before, sc1, sc2_before, sc2,
            congestion_before, congestion,
        ) in zip(
            indices,
            result.profiles.tolist(),
            result.steps.tolist(),
            result.sc1_before.tolist(),
            result.sc1_after.tolist(),
            result.sc2_before.tolist(),
            result.sc2_after.tolist(),
            result.max_congestion_before.tolist(),
            result.max_congestion_after.tolist(),
        ):
            records[index] = {
                "assignment": assignment,
                "steps": steps,
                "sc1_before": sc1_before,
                "sc1": sc1,
                "sc2_before": sc2_before,
                "sc2": sc2,
                "max_congestion_before": congestion_before,
                "max_congestion": congestion,
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
) -> list[dict[str, Any] | Exception]:
    """Group *requests* into per-shape stacks and answer each stack with
    one ``answer(batch, digests)`` call; responses in request order.

    A stack whose call raises gets the exception in each of its slots,
    so the stacks of other shapes in the same window are still answered.
    """
    out: list[dict[str, Any] | Exception | None] = [None] * len(requests)
    for batch, indices in GameBatch.from_requests(requests):
        try:
            responses = answer(batch, [requests[i].digest for i in indices])
        except Exception as exc:  # noqa: BLE001 - fails this stack only
            responses = [exc] * len(indices)
        for index, response in zip(indices, responses):
            out[index] = response
    return out  # type: ignore[return-value]


def _answer_census(
    batch: GameBatch, digests: Sequence[str]
) -> list[dict[str, Any]]:
    """Answer one same-shape stack of queries with one kernel pass.

    Returns one response dict per game, built only from JSON-native
    values: one ``.tolist()`` per result array of the stack, zipped per
    game, and ``None``. So it encodes as it stands, with no round trip
    through :func:`repro.runtime.store.canonical_payload`.
    """
    n, m = batch.num_users, batch.num_links
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    ratios = batch_empirical_ratios(batch, fully_mixed=fm)
    nash = _nashify_records(batch)
    bound_general = batch_poa_bound_general(batch.capacities)
    bound_uniform = batch_poa_bound_uniform(batch.capacities)
    uniform = _uniform_beliefs_mask(batch.capacities)

    responses = []
    for (
        digest, nashify, fm_exists, probabilities, latencies, link_traffic,
        opt1, opt2, general, uniform_bound, is_uniform, ratio_sc1, ratio_sc2,
        num_equilibria,
    ) in zip(
        digests,
        nash,
        fm.exists.tolist(),
        fm.probabilities.tolist(),
        fm.latencies.tolist(),
        fm.link_traffic.tolist(),
        ratios.opt1.tolist(),
        ratios.opt2.tolist(),
        bound_general.tolist(),
        bound_uniform.tolist(),
        uniform.tolist(),
        ratios.ratio_sc1.tolist(),
        ratios.ratio_sc2.tolist(),
        ratios.num_equilibria.tolist(),
    ):
        num_pure = num_equilibria - fm_exists
        responses.append({
            "digest": digest,
            "num_users": n,
            "num_links": m,
            "pure": {
                "num_pure": num_pure,
                "exists": num_pure > 0,
                "nashify": nashify,
            },
            "fully_mixed": {
                "exists": fm_exists,
                "probabilities": probabilities,
                "latencies": latencies,
                "link_traffic": link_traffic,
            },
            "social": {"opt1": opt1, "opt2": opt2},
            "poa": {
                "bound_general": general,
                "bound_uniform": uniform_bound if is_uniform else None,
                "ratio_sc1": ratio_sc1,
                "ratio_sc2": ratio_sc2,
                "num_equilibria": num_equilibria,
            },
        })
    return responses


def solve_requests(
    requests: Sequence[EquilibriumRequest],
) -> list[dict[str, Any] | Exception]:
    """Solve a mixed-shape request list via per-shape sub-batches.

    The dynamic batcher's solver seam: requests are grouped with
    :meth:`GameBatch.from_requests` and each shape's stack takes one
    pass of the batched kernels; responses come back in request order.
    A request whose stack raised gets the exception in its place.
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
    failure. ``rounds`` counts the solver's update rounds: a game the
    best-response polish finished reads
    :data:`~repro.batch.fixpoint.POLISH_ROUND` (the polish's steps are
    not rounds; the reply does not say which path answered). Like
    :func:`_answer_census`, each response holds only JSON-native values
    and encodes as it stands, and each game's answer is bit-identical to
    its ``B = 1`` solve — trajectories ignore batch-mates.
    """
    result = batch_fixpoint_mixed_nash(
        batch.weights,
        batch.capacities,
        batch.initial_traffic,
        max_rounds=max_rounds,
    )
    responses = []
    for digest, converged, stalled, certified, rounds, residual, probabilities in zip(
        digests,
        result.converged.tolist(),
        result.stalled.tolist(),
        result.certified.tolist(),
        result.rounds.tolist(),
        result.residuals.tolist(),
        result.probabilities.tolist(),
    ):
        responses.append({
            "digest": digest,
            "num_users": batch.num_users,
            "num_links": batch.num_links,
            "converged": converged,
            "stalled": stalled,
            "certified": certified,
            "rounds": rounds,
            "residual": residual,
            "probabilities": probabilities if converged else None,
        })
    return responses


def solve_fixpoint_requests(
    requests: Sequence[EquilibriumRequest],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[dict[str, Any] | Exception]:
    """The fixpoint op's solver seam — same shape as
    :func:`solve_requests`, so the same dynamic batcher drives it."""
    return _solve_by_shape(
        requests, functools.partial(_answer_fixpoint, max_rounds=max_rounds)
    )
