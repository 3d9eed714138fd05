"""Reference request parser for the service front-end tests.

:class:`OracleRequest` is the request front end
:mod:`repro.service.query` used before it validated requests in plain
Python: every field goes through ``np.asarray(..., dtype=float64)``
(:func:`_as_array`), the reduced form is checked by building a ``B = 1``
:class:`~repro.batch.container.GameBatch`, and :func:`game_digest`
round-trips the arrays through ``.tolist()``. ``from_payload``,
``from_arrays``, ``_as_array`` and ``game_digest`` are kept as they
were, so the new front end is held to them: same verdict, same digest,
same arrays, same refusal text except for the changes listed in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.batch.container import GameBatch
from repro.runtime.store import canonical_dumps
from repro.service.query import MAX_SERVICE_PROFILES, RequestError


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
class OracleRequest:
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
    ) -> "OracleRequest":
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
    ) -> "OracleRequest":
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
