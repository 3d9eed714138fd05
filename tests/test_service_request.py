"""The service's request front end against its reference parser.

:meth:`EquilibriumRequest.from_payload` validates a decoded request in
plain Python. ``tests/request_oracle.py`` keeps the NumPy parser it
replaced. Here the two must reach the same verdict on valid and invalid
payloads alike. On an accepted payload the digests and the arrays must
be equal. On a refused one the refusal text must be equal, except where
it changed on purpose:

* a ``None`` element is refused as not numeric (the oracle read it as NaN
  and refused it as not finite, or for its depth);
* an integer past float range is refused as not numeric (the oracle let
  the ``OverflowError`` escape);
* ragged nesting is named as such (the oracle passed NumPy's message on);
* a shape mismatch names both request fields and their lengths (the
  oracle named its internal ``B = 1`` batch's shapes).

The fixed cases below pin each changed text.
"""

from __future__ import annotations

import asyncio
import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from request_oracle import OracleRequest

from repro.runtime.store import canonical_dumps, canonical_loads
from repro.service import EquilibriumRequest, EquilibriumServer, RequestError

NONE_TEXT = "float() argument must be a string or a real number, not 'NoneType'"
OVERFLOW_TEXT = "int too large to convert to float"
HUGE = 10**400
FIELDS = (
    "weights",
    "capacities",
    "link_capacities",
    "states",
    "beliefs",
    "initial_traffic",
)


def _outcome(parse, *args, **kwargs):
    try:
        return parse(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return exc


def _leaves(value) -> list:
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _changed_on_purpose(expected: Exception, actual: str, payload) -> bool:
    """Whether *actual* is the new text for the oracle's refusal
    *expected* under one of the module docstring's changes."""
    old = str(expected)
    numeric = re.fullmatch(r"'(\w+)' is not numeric: (.*)", actual)
    if numeric and numeric[2] in (NONE_TEXT, OVERFLOW_TEXT):
        key = numeric[1]
        leaves = _leaves(payload[key])
        if numeric[2] == OVERFLOW_TEXT:
            return isinstance(expected, OverflowError) and any(
                type(leaf) is int and abs(leaf) >= HUGE for leaf in leaves
            )
        return None in leaves and (
            isinstance(expected, OverflowError) or old.startswith(f"'{key}' ")
        )
    if isinstance(expected, OverflowError):
        return False
    ragged = re.match(r"'(\w+)' is not numeric: setting an array element", old)
    if ragged:
        return actual == (
            f"'{ragged[1]}' is ragged: its nested lists differ in length "
            "or depth"
        )
    rows = "'beliefs'" if "states" in payload else "'capacities'"
    users = re.fullmatch(r"weights must have shape \(1, (\d+)\), got \(1, (\d+)\)", old)
    if users:
        return actual == (
            f"'weights' has length {users[2]} but {rows} has {users[1]} rows"
        )
    links = re.fullmatch(
        r"initial_traffic must have shape \(1, (\d+)\), got \(1, (\d+)\)", old
    )
    if links:
        axis = {
            "capacities": f"'capacities' has {links[1]} columns",
            "link_capacities": f"'link_capacities' has length {links[1]}",
            "states": f"'states' has {links[1]} columns",
        }
        spelling = next(key for key in axis if key in payload)
        return actual == (
            f"'initial_traffic' has length {links[2]} but {axis[spelling]}"
        )
    return False


def _assert_same_request(actual, expected) -> None:
    assert isinstance(actual, EquilibriumRequest), actual
    assert actual.digest == expected.digest
    for name in ("weights", "capacities", "initial_traffic"):
        new, old = getattr(actual, name), getattr(expected, name)
        assert new.dtype == np.float64 and not new.flags.writeable
        assert new.shape == old.shape and np.array_equal(new, old)


def assert_matches_oracle(payload, check_width: bool) -> None:
    expected = _outcome(
        OracleRequest.from_payload, payload, check_width=check_width
    )
    actual = _outcome(
        EquilibriumRequest.from_payload, payload, check_width=check_width
    )
    if isinstance(expected, OracleRequest):
        _assert_same_request(actual, expected)
        return
    assert isinstance(expected, (RequestError, OverflowError)), expected
    assert isinstance(actual, RequestError), actual
    assert str(actual) == str(expected) or _changed_on_purpose(
        expected, str(actual), payload
    ), (str(actual), str(expected))


# ---------------------------------------------------------------- payloads

_positive = st.floats(0.25, 8.0) | st.integers(1, 5).map(float)
#: Elements that are not plain positive floats: spellings ``float()``
#: and NumPy both read, and values either refuses. Copied on each draw,
#: since a mutation may edit a drawn list in place.
_odd = st.sampled_from(
    [
        0.0,
        -0.0,
        -1.5,
        True,
        False,
        3,
        0,
        -2,
        "1.5",
        " 2 ",
        "1_0",
        "-0",
        "nan",
        "inf",
        "-Infinity",
        "abc",
        "",
        math.nan,
        math.inf,
        -math.inf,
        None,
        HUGE,
        -HUGE,
        {},
        {"a": 1},
        [],
        [1.0],
        [[2.0]],
    ]
).map(copy.deepcopy)
#: Replacements for a whole field: bare scalars, empty and wrongly
#: nested lists.
_odd_fields = st.sampled_from(
    [5, "5", "abc", None, True, HUGE, {}, {"a": 1}, [], [[]], [[], []], [[[1.0]]]]
).map(copy.deepcopy)


#: Traffic entries; one in ten is negative.
_traffic = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, -0.5])


def _respell(draw, value: float):
    """*value*, or an equal number spelled as an int, bool or string."""
    choice = draw(st.integers(0, 9))
    if choice == 0 and value.is_integer():
        return int(value)
    if choice == 1 and value == 1.0:
        return True
    if choice == 2:
        return repr(value)
    if choice == 3:
        return f" {value!r}\t"
    return value


def _vector(draw, size: int) -> list:
    return [_respell(draw, draw(_positive)) for _ in range(size)]


def _matrix(draw, rows: int, cols: int) -> list:
    return [_vector(draw, cols) for _ in range(rows)]


def _beliefs(draw, rows: int, states: int) -> list:
    out = []
    for _ in range(rows):
        raw = [draw(st.integers(0, 4)) for _ in range(states)]
        if not any(raw):
            raw[0] = 1
        total = sum(raw)
        out.append([_respell(draw, count / total) for count in raw])
    return out


def _nonempty_lists(value) -> list:
    if not isinstance(value, list) or not value:
        return []
    return [value] + [inner for item in value for inner in _nonempty_lists(item)]


def _mutate(draw, payload: dict) -> None:
    """Break or bend one field of *payload* in place."""
    keys = sorted(key for key in FIELDS if key in payload)
    key = draw(st.sampled_from(keys))
    value = payload[key]
    kind = draw(st.integers(0, 6))
    lists = _nonempty_lists(value)
    if kind <= 2 and lists:
        # One element of one list, at any depth, becomes an odd one.
        target = draw(st.sampled_from(lists))
        target[draw(st.integers(0, len(target) - 1))] = draw(_odd)
    elif kind == 3:
        payload[key] = draw(_odd_fields)
    elif kind == 4:
        payload[key] = [value]  # one level too deep
    elif kind == 5 and lists:
        # One list, the field or one of its rows, loses or gains an
        # entry: a length mismatch, or ragged rows.
        target = draw(st.sampled_from(lists))
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(copy.deepcopy(target[0]))
    else:
        del payload[key]


@st.composite
def payloads(draw) -> dict:
    """A request payload in one of the three spellings, maybe bent."""
    wide = draw(st.integers(0, 9)) == 0
    n = 18 if wide else draw(st.integers(2, 4))
    m = 2 if wide else draw(st.integers(2, 4))
    payload: dict = {"op": "solve", "weights": _vector(draw, n)}
    spelling = draw(st.sampled_from(["capacities", "link_capacities", "states"]))
    if spelling == "capacities":
        payload["capacities"] = _matrix(draw, n, m)
    elif spelling == "link_capacities":
        payload["link_capacities"] = _vector(draw, m)
    else:
        states = draw(st.integers(1, 10))
        payload["states"] = _matrix(draw, states, m)
        payload["beliefs"] = _beliefs(draw, n, states)
    if draw(st.booleans()):
        payload["initial_traffic"] = [
            _respell(draw, draw(_traffic))
            for _ in range(m)
        ]
    for _ in range(draw(st.integers(0, 2))):
        _mutate(draw, payload)
    if draw(st.integers(0, 19)) == 0:
        other = draw(st.sampled_from(["capacities", "link_capacities", "states"]))
        payload.setdefault(other, [[1.0, 1.0], [1.0, 1.0]])
    return payload


@settings(max_examples=600, deadline=None)
@given(payloads(), st.booleans())
def test_from_payload_matches_oracle(payload, check_width):
    assert_matches_oracle(payload, check_width)


@settings(max_examples=200, deadline=None)
@given(payloads(), st.booleans())
def test_decoded_payload_matches_oracle(payload, check_width):
    """The same after the wire's round trip, which is what the server
    parses: non-finite floats come back from their sentinel objects."""
    decoded = canonical_loads(canonical_dumps(payload))
    assert_matches_oracle(decoded, check_width)


@pytest.mark.parametrize(
    "payload",
    [
        [1.0, 2.0],
        "weights",
        None,
        {"capacities": [[1.0, 1.0], [1.0, 1.0]]},
        {"weights": [1.0, 2.0], "states": [[1.0, 2.0]]},
        {"weights": (1.0, 2.0), "capacities": ((1.0, 2.0), (2.0, 1.0))},
        {"weights": np.array([1.0, 2.0]), "capacities": np.ones((2, 3))},
        {"weights": [1.0, 2.0], "capacities": [np.ones(2), np.ones(2)]},
        {"weights": [1.0, 2.0], "capacities": np.ones((2, 2, 1))},
        {"weights": [[[1.0]]], "capacities": [[1.0, 2.0], [2.0, 1.0]]},
        {"weights": [1.0, 2.0], "capacities": [[1.0, 2.0], [2.0]]},
        {"weights": [1.0, [2.0]], "capacities": [[1.0, 2.0], [2.0, 1.0]]},
        {"weights": [1.0, 2.0], "capacities": [[1.0, [2.0]], [2.0, 1.0]]},
        {"weights": [1.0, 2.0], "link_capacities": [1e-320, 1.0]},
        {"weights": [1.0, 2.0], "link_capacities": []},
        {"weights": [], "link_capacities": [1.0, 2.0]},
        {"weights": [1.0, 2.0], "states": [[1e-320, 1.0]], "beliefs": [[1.0], [1.0]]},
        {"weights": [1.0, 2.0], "states": [[]], "beliefs": [[1.0], [1.0]]},
        {"weights": [1.0, 2.0], "states": [[1.0, 1.0]], "beliefs": [[], []]},
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_edge_payloads_match_oracle(payload):
    """Containers JSON never yields, and corners the strategy rarely
    draws: tuples, arrays, capacities that reduce to zero or inf, empty
    fields."""
    for check_width in (True, False):
        assert_matches_oracle(payload, check_width)


# ------------------------------------------------------------- from_arrays

_entries = (
    st.floats(0.25, 8.0)
    | st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, 5e-324, 1e308])
)


@st.composite
def arrays(draw):
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    shapes = {
        "weights": draw(st.sampled_from([(n,), (n,), (n, 1), ()])),
        "capacities": draw(st.sampled_from([(n, m), (n, m), (m,), (n, m, 1)])),
        "initial_traffic": draw(st.sampled_from([(m,), (m,), (m, 1), None])),
    }
    out = {}
    for name, shape in shapes.items():
        if shape is None:
            out[name] = None
            continue
        size = int(np.prod(shape))
        values = [draw(_entries) for _ in range(size)]
        if name == "initial_traffic":
            values = [abs(value) if draw(st.booleans()) else value for value in values]
        out[name] = np.array(values, dtype=np.float64).reshape(shape)
    return out


@settings(max_examples=300, deadline=None)
@given(arrays(), st.booleans())
def test_from_arrays_matches_oracle(arrays, check_width):
    """``from_arrays`` reaches the oracle's verdict, and on an accepted
    game its digest and arrays; its refusals now use the payload texts
    (CHANGES.md lists them)."""
    args = (arrays["weights"], arrays["capacities"], arrays["initial_traffic"])
    expected = _outcome(OracleRequest.from_arrays, *args, check_width=check_width)
    actual = _outcome(EquilibriumRequest.from_arrays, *args, check_width=check_width)
    if isinstance(expected, OracleRequest):
        _assert_same_request(actual, expected)
    else:
        assert isinstance(expected, RequestError), expected
        assert isinstance(actual, RequestError), actual


# ------------------------------------------------------- the changed texts


def _refusal(payload) -> str:
    with pytest.raises(RequestError) as raised:
        EquilibriumRequest.from_payload(payload)
    return str(raised.value)


class TestShapeRefusalsNameTheFields:
    def test_weights_longer_than_capacity_rows(self):
        payload = {"weights": [1.0, 2.0, 3.0], "capacities": [[1.0, 2.0]] * 2}
        assert _refusal(payload) == (
            "'weights' has length 3 but 'capacities' has 2 rows"
        )

    def test_initial_traffic_shorter_than_links(self):
        payload = {
            "weights": [1.0, 2.0],
            "capacities": [[1.0, 2.0]] * 2,
            "initial_traffic": [0.5],
        }
        assert _refusal(payload) == (
            "'initial_traffic' has length 1 but 'capacities' has 2 columns"
        )

    def test_belief_rows_against_weights_blame_both(self):
        payload = {
            "weights": [1.0, 2.0],
            "states": [[1.0, 2.0], [2.0, 1.0]],
            "beliefs": [[0.5, 0.5]] * 3,
        }
        assert _refusal(payload) == (
            "'weights' has length 2 but 'beliefs' has 3 rows"
        )

    @pytest.mark.parametrize(
        "spelling, axis",
        [
            ({"link_capacities": [1.0, 2.0]}, "'link_capacities' has length 2"),
            (
                {"states": [[1.0, 2.0]], "beliefs": [[1.0], [1.0]]},
                "'states' has 2 columns",
            ),
        ],
        ids=["link_capacities", "states"],
    )
    def test_initial_traffic_names_each_spelling(self, spelling, axis):
        payload = {"weights": [1.0, 2.0], **spelling, "initial_traffic": [0.0] * 3}
        assert _refusal(payload) == f"'initial_traffic' has length 3 but {axis}"


class TestNewElementRefusals:
    def test_none_is_not_numeric(self):
        payload = {"weights": [1.0, None], "capacities": [[1.0, 2.0]] * 2}
        assert _refusal(payload) == f"'weights' is not numeric: {NONE_TEXT}"

    def test_ragged_rows(self):
        payload = {"weights": [1.0, 2.0], "capacities": [[1.0, 2.0], [1.0]]}
        assert _refusal(payload) == (
            "'capacities' is ragged: its nested lists differ in length or depth"
        )


def _reply(line: str) -> dict:
    """A fresh server's decoded reply to one request line."""

    async def session():
        server = EquilibriumServer(port=0)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(line.encode("ascii") + b"\n")
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), 60)
            writer.close()
            await writer.wait_closed()
            return json.loads(reply)
        finally:
            await server.close()

    return asyncio.run(session())


@pytest.mark.parametrize(
    "line, field",
    [
        (
            '{"weights": [HUGE, 2.0], "capacities": [[1.0, 2.0], [2.0, 1.0]]}',
            "weights",
        ),
        ('{"weights": [1.0, 2.0], "link_capacities": [-HUGE, 1.0]}', "link_capacities"),
        (
            '{"op": "fixpoint", "weights": [1.0, 2.0], '
            '"capacities": [[1.0, 2.0], [2.0, 1.0]], "initial_traffic": [0.0, HUGE]}',
            "initial_traffic",
        ),
    ],
    ids=["solve-weights", "solve-link_capacities", "fixpoint-initial_traffic"],
)
def test_integers_past_float_range_are_request_errors(line, field):
    """A 401-digit integer is refused as a request error naming its
    field, instead of reaching the solver-failure branch as an
    ``OverflowError``."""
    reply = _reply(line.replace("HUGE", str(HUGE)))
    assert reply == {
        "ok": False,
        "error": f"'{field}' is not numeric: {OVERFLOW_TEXT}",
    }
