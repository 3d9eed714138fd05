"""Byte-level tests of the service wire protocol.

``tests/test_service.py`` compares decoded replies, which cannot see key
order, separators or float spelling. These tests look at the raw lines:

* ``tests/data/service_wire_golden.jsonl`` pins full reply lines. Each
  record holds one request line and the exact bytes the server wrote for
  it, newline included; the requests are replayed in file order, one at
  a time, on one connection to a fresh server, so a repeated game is a
  cache hit. The games' inputs are chosen so that every product and sum
  the BLAS calls (the belief reduction, the fully mixed mat-vec) compute
  for them is exact, so the bytes do not depend on which BLAS kernel the
  host picks. Re-record the replies only for a deliberate wire change::

      PYTHONPATH=src python tests/test_service_wire.py

* every golden ``solve`` and ``fixpoint`` request, rewritten ``id``
  first and sent three times, gets its golden reply apart from the
  ``id``: the request memo answers the third wave with the same bytes;
* every line gets exactly one reply, whatever its bytes (hypothesis);
* lines that once got no reply at all get one.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import EquilibriumServer
from repro.service.server import MAX_LINE_BYTES

GOLDEN = Path(__file__).parent / "data" / "service_wire_golden.jsonl"
#: Failure guard on one session; a healthy server answers in milliseconds.
SESSION_TIMEOUT_S = 60.0

RESERVED_KEY_ID = b'{"op": "ping", "id": {"__nonfinite__": "bogus"}}'
DEEP_LINE = b"[" * 100_000


async def _session(talk):
    """Run ``talk(reader, writer)`` on one connection to a fresh server."""
    server = EquilibriumServer(port=0)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(
            server.host, server.port, limit=MAX_LINE_BYTES
        )
        try:
            return await asyncio.wait_for(talk(reader, writer), SESSION_TIMEOUT_S)
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await server.close()


def replay(lines: list[bytes]) -> list[bytes]:
    """Send *lines* one at a time, each after the previous reply."""

    async def talk(reader, writer):
        replies = []
        for line in lines:
            writer.write(line + b"\n")
            await writer.drain()
            replies.append(await reader.readline())
        return replies

    return asyncio.run(_session(talk))


def pipeline(lines: list[bytes]) -> list[bytes]:
    """Send every line, then end the stream; all reply lines until the
    server closes the connection (it does once every line is answered)."""

    async def talk(reader, writer):
        writer.writelines(line + b"\n" for line in lines)
        await writer.drain()
        writer.write_eof()
        return (await reader.read()).splitlines(keepends=True)

    return asyncio.run(_session(talk))


def _golden() -> tuple[list[dict[str, str]], list[bytes]]:
    """The fixture's records, and the current server's reply to each."""
    entries = [json.loads(line) for line in GOLDEN.read_text("ascii").splitlines()]
    return entries, replay([entry["request"].encode("utf-8") for entry in entries])


def test_golden_reply_bytes():
    entries, replies = _golden()
    assert len(entries) >= 30
    for entry, reply in zip(entries, replies):
        assert reply == entry["reply"].encode("ascii"), entry["request"]


def test_golden_requests_sent_id_first_keep_their_reply_bytes():
    entries = [json.loads(line) for line in GOLDEN.read_text("ascii").splitlines()]
    games = []
    for entry in entries:
        try:
            message = json.loads(entry["request"])
        except ValueError:
            continue
        if isinstance(message, dict) and message.get("op", "solve") in (
            "solve",
            "fixpoint",
        ):
            body = json.dumps({k: v for k, v in message.items() if k != "id"})
            reply = entry["reply"].encode("ascii")
            games.append((body.encode("ascii")[1:], reply[reply.index(b'"ok": ') :]))
    assert len(games) >= 15
    ids = [[wave * 1000 + index for index in range(len(games))] for wave in range(3)]
    lines = [
        b'{"id": %d, ' % request_id + body
        for wave in ids
        for request_id, (body, _) in zip(wave, games)
    ]
    *replies, stats = replay([*lines, b'{"op": "stats"}'])
    expected = [
        b'{"id": %d, ' % request_id + rest
        for wave in ids
        for request_id, (_, rest) in zip(wave, games)
    ]
    assert replies == expected
    answered = {body for body, rest in games if rest.startswith(b'"ok": true')}
    memo = json.loads(stats)["stats"]["memo"]
    assert memo["size"] == len(answered)
    assert memo["hits"] >= len(answered)


@pytest.mark.parametrize(
    "line, error",
    [
        (RESERVED_KEY_ID, "cannot encode id: payload uses the reserved key"),
        (DEEP_LINE, "invalid JSON: "),
    ],
    ids=["reserved-key-id", "deep-nesting"],
)
def test_line_that_got_no_reply_gets_one_error(line, error):
    (reply,) = pipeline([line])
    message = json.loads(reply)
    assert message["ok"] is False and "id" not in message
    assert message["error"].startswith(error)


_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
)
_keys = st.sampled_from(["__nonfinite__", "id", "op"]) | st.text(max_size=4)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _object_lines(draw) -> bytes:
    """A JSON object line with an arbitrary ``op`` and, maybe, ``id``."""
    ops = st.sampled_from(["solve", "fixpoint", "ping", "stats", "bogus"])
    message = {"op": draw(ops | _values)}
    if draw(st.booleans()):
        message["id"] = draw(_values)
    return json.dumps(message).encode("utf-8")


_lines = st.binary(max_size=48).map(lambda raw: raw.replace(b"\n", b""))


@settings(max_examples=40, deadline=None)
@given(st.lists(_lines | _object_lines(), min_size=1, max_size=8))
@example([RESERVED_KEY_ID])
@example([DEEP_LINE])
@example([b'{"op": "ping", "id": ' + b"[" * 600 + b"NaN" + b"]" * 600 + b"}"])
@example([b'{"op": "ping", "id": ' + b"1" * 5000 + b"}"])
def test_every_line_gets_exactly_one_reply(lines):
    replies = pipeline(lines)
    assert len(replies) == len(lines)
    for reply in replies:
        message = json.loads(reply)
        assert isinstance(message, dict) and "ok" in message


if __name__ == "__main__":
    # Re-record: keep the fixture's requests, rewrite their replies.
    entries, replies = _golden()
    GOLDEN.write_text(
        "".join(
            json.dumps({"request": entry["request"], "reply": reply.decode("ascii")})
            + "\n"
            for entry, reply in zip(entries, replies)
        ),
        encoding="ascii",
    )
