"""The server's request memo against the parse path, byte for byte.

A ``solve`` or ``fixpoint`` line that opens ``{"id": <integer>, `` and
repeats a game its op has already answered is answered from a bounded
LRU memo of validated requests, without a decode or a validation
(:mod:`repro.service.server`). The first time a line is sent the memo
cannot hold it, so that reply is the parse path's; every test here
holds the later replies to it. The traps are the ways a line's bytes
after its ``id`` could mean something else under another ``id``: a
second ``id`` key, an escaped one, an ``id`` the decoder refuses or
spells differently, a refusal, another op, a closed batcher.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.service import EquilibriumServer
from repro.service.server import MAX_LINE_BYTES, MEMO_MAX_ENTRY_BYTES

#: Failure guard on one session; a healthy server answers in milliseconds.
SESSION_TIMEOUT_S = 60.0

GAME = b'"weights": [1.0, 2.0], "capacities": [[2.0, 2.0], [2.5, 2.5]]}'
OTHER = b'"weights": [2.0, 1.0], "capacities": [[3.0, 1.0], [1.0, 3.0]]}'
THIRD = b'"weights": [1.0, 1.0, 2.0], "link_capacities": [1.0, 2.0]}'


def line(request_id, body: bytes = GAME, op: bytes = b"solve") -> bytes:
    """``{"id": <request_id>, "op": <op>, `` then *body*."""
    return b'{"id": %s, "op": "%s", ' % (str(request_id).encode(), op) + body


def op_first(request_id: int, body: bytes = GAME, op: bytes = b"solve") -> bytes:
    """The same request with ``op`` first, which the memo never reads."""
    return b'{"op": "%s", "id": %d, ' % (op, request_id) + body


def apart_from_id(reply: bytes, request_id: int) -> bytes:
    """*reply* with the head ``{"id": <request_id>, `` cut to ``{``, if
    it has that head."""
    head = b'{"id": %d, ' % request_id
    return b"{" + reply[len(head) :] if reply.startswith(head) else reply


def without_id(reply: bytes, request_id: int) -> bytes:
    assert reply.startswith(b'{"id": %d, ' % request_id), reply
    return apart_from_id(reply, request_id)


async def _exchange(server: EquilibriumServer, lines: list[bytes]) -> list[bytes]:
    """Send *lines* on one connection, each after the previous reply."""
    reader, writer = await asyncio.open_connection(
        server.host, server.port, limit=MAX_LINE_BYTES
    )
    try:
        replies = []
        for raw in lines:
            writer.write(raw + b"\n")
            await writer.drain()
            replies.append(
                await asyncio.wait_for(reader.readline(), SESSION_TIMEOUT_S)
            )
        return replies
    finally:
        writer.close()
        await writer.wait_closed()


def talk(lines: list[bytes], **kwargs) -> tuple[list[bytes], dict]:
    """A fresh server's replies to *lines*, and its stats afterwards."""

    async def session():
        server = EquilibriumServer(port=0, **kwargs)
        await server.start()
        try:
            return await _exchange(server, lines), server.stats()
        finally:
            await server.close()

    return asyncio.run(session())


def test_a_repeated_line_hits_with_the_parse_paths_bytes():
    replies, stats = talk([line(1), line(2), line(3), line(40)])
    assert [without_id(r, k) for r, k in zip(replies, (1, 2, 3, 40))] == [
        without_id(replies[0], 1)
    ] * 4
    # The first line is solved, the second enters the memo (its game is
    # cached), the third and fourth are memo hits.
    assert stats["memo"] == {
        "size": 1,
        "maxsize": 1024,
        "hits": 2,
        "misses": 2,
        "evictions": 0,
    }
    # The batcher and cache counters read as the parse path's do.
    parsed_replies, parsed = talk([op_first(k) for k in (1, 2, 3, 40)])
    assert [without_id(r, k) for r, k in zip(parsed_replies, (1, 2, 3, 40))] == [
        without_id(replies[0], 1)
    ] * 4
    assert parsed["memo"]["size"] == parsed["memo"]["hits"] == 0
    for name in ("requests", "coalesced", "batches", "batched_games", "cache"):
        assert stats[name] == parsed[name], name


def test_the_stats_op_reports_the_memo():
    replies, _ = talk([line(1), line(2), line(3), b'{"op": "stats"}'])
    memo = json.loads(replies[-1])["stats"]["memo"]
    assert (memo["size"], memo["maxsize"], memo["hits"]) == (1, 1024, 1)


def test_a_second_id_key_answers_every_time():
    """The decoder keeps the last ``id``, so the reply's id is 99 every
    time, also after the line was sent with 99 as its first ``id`` too,
    which its opening then matches."""
    opening = b'{"id": %d, "op": "solve", "id": 99, '
    sent = [opening % k + GAME for k in (99, 99, 4, 5)]
    replies, stats = talk(sent)
    assert replies == [replies[0]] * 4
    assert replies[0].startswith(b'{"id": 99, "ok": true, ')
    assert stats["memo"]["size"] == stats["memo"]["hits"] == 0


def test_an_escaped_id_key_answers_every_time():
    opening = b'{"id": %d, "op": "solve", "\\u0069d": 99, '
    sent = [opening % k + GAME for k in (99, 99, 4, 5)]
    replies, stats = talk(sent)
    assert replies == [replies[0]] * 4
    assert replies[0].startswith(b'{"id": 99, "ok": true, ')
    assert stats["memo"]["size"] == stats["memo"]["hits"] == 0


def _after_memoising(raw: bytes) -> tuple[bytes, dict]:
    """The reply to *raw* once ``GAME``'s solve line is in the memo."""
    replies, stats = talk([line(1), line(2), line(3), raw])
    assert stats["memo"]["size"] == 1
    return replies[-1], stats


def test_an_id_past_the_digit_limit_is_refused_by_the_decoder():
    raw = line("1" * 5000)
    reply, stats = _after_memoising(raw)
    (fresh,), _ = talk([raw])
    assert reply == fresh
    assert json.loads(reply)["error"].startswith("invalid JSON: ")
    assert stats["memo"]["hits"] == 1


def test_a_leading_zero_is_refused_by_the_decoder():
    raw = line("007")
    reply, stats = _after_memoising(raw)
    (fresh,), _ = talk([raw])
    assert reply == fresh
    assert json.loads(reply)["error"].startswith("invalid JSON: ")
    assert stats["memo"]["hits"] == 1


def test_ids_that_are_not_short_canonical_integers_take_the_parse_path():
    for spelling in ("-1", "1.0", "1e2", "1" * 16, "true"):
        reply, stats = _after_memoising(line(spelling))
        assert json.loads(reply)["ok"] is True
        (fresh,), _ = talk([line(spelling)])
        assert reply == fresh
        assert (stats["memo"]["size"], stats["memo"]["hits"]) == (1, 1)


def test_a_refused_line_never_enters_the_memo():
    refused = [
        line(1, b'"weights": [1.0, 2.0]}'),
        line(1, b'"weights": [1.0, 2.0], "link_capacities": [1.0, -1.0]}'),
        line(1, b'"weights": [1.0, true], "link_capacities": [1.0, 2.0]}'),
        line(1, b'"weights": [1.0], "states": [[1.0]]}', op=b"fixpoint"),
        line(1, b'"weights": [1.0] , "bogus": }'),
    ]
    for raw in refused:
        sent = [raw.replace(b'"id": 1,', b'"id": %d,' % k) for k in (1, 2, 3)]
        replies, stats = talk(sent)
        assert json.loads(replies[0])["ok"] is False
        assert [apart_from_id(r, k) for r, k in zip(replies, (1, 2, 3))] == [
            apart_from_id(replies[0], 1)
        ] * 3
        assert stats["memo"]["size"] == stats["memo"]["hits"] == 0


def test_each_op_keeps_its_own_answer():
    sent = [line(k, op=op) for k in (1, 2, 3) for op in (b"solve", b"fixpoint")]
    replies, stats = talk(sent)
    census = [without_id(r, 1 + i // 2) for i, r in enumerate(replies) if i % 2 == 0]
    fixpoint = [without_id(r, 1 + i // 2) for i, r in enumerate(replies) if i % 2]
    assert census == [census[0]] * 3 and fixpoint == [fixpoint[0]] * 3
    assert b'"pure"' in census[0] and b'"converged"' in fixpoint[0]
    assert (stats["memo"]["size"], stats["memo"]["hits"]) == (2, 2)
    assert stats["cache"]["hits"] == stats["fixpoint"]["cache"]["hits"] == 2


def test_cache_size_zero_turns_the_memo_off():
    replies, stats = talk([line(k) for k in (1, 2, 3)], cache_size=0)
    assert [without_id(r, k) for r, k in zip(replies, (1, 2, 3))] == [
        without_id(replies[0], 1)
    ] * 3
    assert stats["memo"] == {
        "size": 0,
        "maxsize": 0,
        "hits": 0,
        "misses": 3,
        "evictions": 0,
    }


def test_the_memo_evicts_its_least_recently_used_line():
    """``cache_size = 2``: ``GAME`` is used again after ``OTHER`` enters,
    so ``THIRD`` evicts ``OTHER`` from the memo."""
    sent = [
        line(1), line(2),  # GAME solved, then memoised
        line(3, OTHER), line(4, OTHER),  # OTHER solved, then memoised
        line(5),  # a memo hit: GAME is now the most recent
        line(6, THIRD), line(7, THIRD),  # THIRD memoised, OTHER evicted
        line(8, OTHER),  # parsed again
        line(9),  # still a memo hit
    ]
    replies, stats = talk(sent, cache_size=2)
    assert without_id(replies[4], 5) == without_id(replies[0], 1)
    assert without_id(replies[7], 8) == without_id(replies[2], 3)
    assert without_id(replies[8], 9) == without_id(replies[0], 1)
    assert stats["memo"]["hits"] == 2
    assert stats["memo"]["evictions"] == 1
    assert stats["memo"]["size"] == 2


def test_a_memo_hit_on_a_closed_batcher_gets_the_parse_paths_error():
    async def session():
        server = EquilibriumServer(port=0)
        await server.start()
        try:
            await _exchange(server, [line(1), line(2)])
            await server.batcher.close()
            replies = await _exchange(server, [line(3), op_first(4)])
            return replies, server.stats()
        finally:
            await server.close()

    (memo, parsed), stats = asyncio.run(session())
    assert memo == (
        b'{"id": 3, "ok": false, "error": "RuntimeError: batcher is closed"}\n'
    )
    assert without_id(memo, 3) == without_id(parsed, 4)
    assert stats["memo"]["hits"] == 1


def test_an_entry_past_the_bound_is_not_memoised():
    """A long line, and a short ``fixpoint`` line that spells a game whose
    arrays are past the bound: 2 users on 1,100 links."""
    padded = b'"weights": [1.0, 2.0],' + b" " * MEMO_MAX_ENTRY_BYTES
    links = b", ".join([b"1"] * 1100)
    for body, op in [
        (padded + b'"capacities": [[2.0, 2.0], [2.5, 2.5]]}', b"solve"),
        (b'"weights": [1, 2], "link_capacities": [' + links + b"]}", b"fixpoint"),
    ]:
        replies, stats = talk([line(k, body, op) for k in (1, 2, 3)])
        assert [without_id(r, k) for r, k in zip(replies, (1, 2, 3))] == [
            without_id(replies[0], 1)
        ] * 3
        assert json.loads(replies[0])["ok"] is True
        assert stats["memo"]["size"] == stats["memo"]["hits"] == 0


# ------------------------------------------------------------ the property

_numbers = st.floats(0.25, 8.0) | st.integers(1, 4) | st.sampled_from(
    [0.0, -0.0, -1.0, True, None, "2", float("inf")]
)
#: Extra members of a game body: a second ``id``, an escaped ``id``, a
#: backslash inside a string, and harmless keys.
_extras = st.sampled_from(
    [
        b'"id": 7, ',
        b'"\\u0069d": "x", ',
        b'"note": "a\\\\b", ',
        b'"note": "id", ',
        b'"valid": 1, ',
        b'"op": "fixpoint", ',
        b"",
    ]
)


@st.composite
def _game_bodies(draw) -> bytes:
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    members = [draw(st.sampled_from([b"", b'"op": "solve", ', b'"op": "fixpoint", ']))]
    members.append(draw(_extras))
    weights = [draw(_numbers) for _ in range(n)]
    capacities = [[draw(_numbers) for _ in range(m)] for _ in range(n)]
    members.append(b'"weights": %s, ' % json.dumps(weights).encode())
    members.append(b'"capacities": %s' % json.dumps(capacities).encode())
    if draw(st.booleans()):
        traffic = [draw(st.sampled_from([0.0, -0.0, 0.5, True])) for _ in range(m)]
        members.append(b', "initial_traffic": %s' % json.dumps(traffic).encode())
    return b"".join(members) + b"}"


_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_objects = st.dictionaries(
    st.sampled_from(["id", "op", "weights", "__nonfinite__"]) | st.text(max_size=3),
    st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=5),
    max_size=3,
).map(lambda obj: json.dumps(obj).encode()[1:])
_bytes = st.binary(max_size=40).map(lambda raw: raw.replace(b"\n", b""))


@settings(max_examples=60, deadline=None)
@given(
    _game_bodies() | _objects | _bytes,
    st.lists(st.integers(0, 10**6), min_size=3, max_size=3, unique=True),
)
def test_any_line_sent_three_times_gets_replies_equal_apart_from_the_id(body, draws):
    ids = [10**12 + draw for draw in draws]
    assume(not any(b"%d" % request_id in body for request_id in ids))
    replies, _ = talk([b'{"id": %d, ' % request_id + body for request_id in ids])
    normal = [apart_from_id(reply, k) for reply, k in zip(replies, ids)]
    assert normal == [normal[0]] * 3, body
