"""The server's connection layer, over real sockets.

Each connection is an ``asyncio.Protocol``: the complete lines of one
read are answered in that read's callback, ready replies leave in one
write, a miss's reply is written by its batcher future's done-callback,
and a full write buffer pauses reading (:mod:`repro.service.server`).
These tests hold the replies to the bytes the server writes for the
same lines sent whole (``tests/data/service_wire_golden.jsonl`` or a
first exchange), whatever way the lines are cut, held back or left.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import struct
from pathlib import Path

import pytest

from repro.service import EquilibriumServer
from repro.service import server as server_module
from repro.service.server import MAX_LINE_BYTES

GOLDEN = Path(__file__).parent / "data" / "service_wire_golden.jsonl"
#: Failure guard on one wait; a healthy server answers in milliseconds.
TIMEOUT_S = 60.0

GAME = b'"op": "solve", "weights": [1.0, 2.0], "capacities": [[2.0, 2.0], [2.5, 2.5]]}'


def _id_line(request_id: int, body: bytes = GAME) -> bytes:
    return b'{"id": %d, ' % request_id + body + b"\n"


def _game(index: int) -> bytes:
    """A distinct (3, 3) ``solve`` body per *index*."""
    weights = [1.0 + index, 2.0, 0.5]
    capacities = [[2.0, 3.0 + index, 1.0], [1.5, 2.0, 2.5], [4.0, 1.0, 2.0]]
    return (
        b'"op": "solve", "weights": %s, "capacities": %s}'
        % (json.dumps(weights).encode(), json.dumps(capacities).encode())
    )


async def _until(condition, what: str) -> None:
    """Test *condition* once per event-loop pass until it holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + TIMEOUT_S
    while not condition():
        if loop.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0)


async def _with_server(talk, **kwargs):
    server = EquilibriumServer(port=0, **kwargs)
    await server.start()
    try:
        return await asyncio.wait_for(talk(server), TIMEOUT_S)
    finally:
        await server.close()


def test_a_burst_sent_one_byte_per_write_is_answered_line_for_line():
    """Every golden request, pipelined one byte per write with a loop
    pass between writes, then a half-close: the replies are the golden
    replies (misses may come back later than the lines after them)."""
    entries = [json.loads(line) for line in GOLDEN.read_text("ascii").splitlines()]
    burst = b"".join(entry["request"].encode("utf-8") + b"\n" for entry in entries)

    async def talk(server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port, limit=MAX_LINE_BYTES
        )
        try:
            for index in range(len(burst)):
                writer.write(burst[index : index + 1])
                await asyncio.sleep(0)
            writer.write_eof()
            return (await reader.read()).splitlines(keepends=True)
        finally:
            writer.close()
            await writer.wait_closed()

    replies = asyncio.run(_with_server(talk))
    golden = [entry["reply"].encode("ascii") for entry in entries]
    assert sorted(replies) == sorted(golden)


def _ping(request_id: int, length: int) -> bytes:
    """A ``ping`` line of exactly *length* bytes before its newline."""
    opening = b'{"op": "ping", "id": %d, "pad": "' % request_id
    return opening + b"x" * (length - len(opening) - 2) + b'"}'


@pytest.mark.parametrize(
    "chunk", [None, 1000, 7], ids=["whole", "1000-bytes", "7-bytes"]
)
@pytest.mark.parametrize(
    "tail, tail_reply",
    [(1025, "refusal"), (1024, "pong"), (5000, "refusal")],
    ids=["over-by-one-at-eof", "at-limit-at-eof", "far-over-at-eof"],
)
def test_the_line_limit_is_exact_and_holds_at_eof(
    monkeypatch, chunk, tail, tail_reply
):
    """With the limit at 1,024 bytes: a line of exactly 1,024 bytes
    before its newline is served, one of 1,025 gets exactly one refusal
    and the next line is served; a final line without a newline is
    answered the same way, whether the bytes come in one write or cut
    into pieces."""
    monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 1024)
    refusal = b'{"ok": false, "error": "request line exceeds 1024 bytes"}\n'
    sent = (
        _ping(1, 1024) + b"\n"
        + _ping(2, 1025) + b"\n"
        + b'{"op": "ping", "id": 3}\n'
        + _ping(4, tail)
    )

    async def talk(server):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            step = chunk or len(sent)
            for start in range(0, len(sent), step):
                writer.write(sent[start : start + step])
                await writer.drain()
                await asyncio.sleep(0)
            writer.write_eof()
            return await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()

    replies = asyncio.run(_with_server(talk))
    pong = b'{"id": 4, "ok": true, "pong": true}\n'
    last = refusal if tail_reply == "refusal" else pong
    assert replies == (
        b'{"id": 1, "ok": true, "pong": true}\n'
        + refusal
        + b'{"id": 3, "ok": true, "pong": true}\n'
        + last
    )


def test_a_client_that_does_not_read_pauses_reading_until_it_does():
    """Cache-hit lines written without reading the replies: once the
    server's write buffer passes its high-water mark it stops reading
    the connection, with lines still unread; when the client reads,
    every line is answered and reading resumes."""
    count = 5000

    async def talk(server):
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await loop.sock_connect(sock, (server.host, server.port))
        reader, writer = await asyncio.open_connection(sock=sock, limit=MAX_LINE_BYTES)
        try:
            writer.write(_id_line(0))
            first = await reader.readline()
            (connection,) = server._connections
            transport = connection._transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            writer.write(b"".join(_id_line(k) for k in range(1, count + 1)))
            await _until(lambda: not transport.is_reading(), "reading to pause")
            read_while_paused = server.stats()["requests"]
            replies = [
                await asyncio.wait_for(reader.readline(), TIMEOUT_S)
                for _ in range(count)
            ]
            await writer.drain()
            return first, read_while_paused, replies, transport.is_reading()
        finally:
            writer.close()
            await writer.wait_closed()

    first, read_while_paused, replies, reading = asyncio.run(_with_server(talk))
    assert first.startswith(b'{"id": 0, "ok": true, ')
    assert 1 < read_while_paused < count + 1
    rest = first[len(b'{"id": 0, ') :]
    assert replies == [b'{"id": %d, ' % k + rest for k in range(1, count + 1)]
    assert reading


@pytest.mark.parametrize("leaving", ["close", "reset"])
def test_a_client_gone_with_misses_in_flight(caplog, leaving):
    """A client sends distinct games and leaves (a close, or a reset)
    before their window is solved: nothing is logged, the answers are
    cached anyway, and the next connection gets them as cache hits."""
    caplog.set_level(logging.WARNING)
    games = [_game(index) for index in range(6)]
    burst = b"".join(_id_line(k, body) for k, body in enumerate(games))

    async def talk(server):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(burst)
        if leaving == "close":
            writer.close()
        else:
            await _until(
                lambda: server.stats()["requests"] == len(games), "the lines"
            )
            assert server.stats()["batches"] == 0  # still in flight
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.transport.abort()
        await _until(
            lambda: server.stats()["cache"]["size"] == len(games)
            and not server._connections,
            "the answers to be cached",
        )
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(
                b"".join(_id_line(10 + k, body) for k, body in enumerate(games))
            )
            replies = [await reader.readline() for _ in games]
        finally:
            writer.close()
            await writer.wait_closed()
        return replies, server.stats()

    replies, stats = asyncio.run(_with_server(talk))
    # asyncio's debug mode (``-X dev``) warns of any callback slower than
    # 0.1 s; that timing note is the one warning this test leaves out.
    logged = [
        record
        for record in caplog.records
        if record.levelno >= logging.WARNING
        and not record.getMessage().startswith("Executing ")
    ]
    assert logged == []
    assert stats["batched_games"] == len(games)
    assert stats["cache"]["hits"] == len(games)
    assert sorted(json.loads(reply)["id"] for reply in replies) == list(
        range(10, 10 + len(games))
    )
    assert all(json.loads(reply)["ok"] for reply in replies)


def test_lines_read_before_a_shutdown_are_answered():
    """Distinct games pipelined ahead of a ``shutdown`` op on the same
    connection: the ack comes at once, and each game gets its reply
    before the server closes the connection and stops."""
    games = [_game(index) for index in range(3)]

    async def session():
        server = EquilibriumServer(port=0)
        await server.start()
        stopping = asyncio.ensure_future(server.serve_until_shutdown())
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(
                b"".join(_id_line(k, body) for k, body in enumerate(games))
                + b'{"op": "shutdown", "id": 9}\n'
            )
            replies = await asyncio.wait_for(reader.read(), TIMEOUT_S)
            await asyncio.wait_for(stopping, TIMEOUT_S)
        finally:
            writer.close()
            await writer.wait_closed()
        return replies.splitlines(keepends=True), server.stats()

    replies, stats = asyncio.run(session())
    ack = b'{"id": 9, "ok": true, "stopping": true}\n'
    assert ack in replies
    answers = [json.loads(reply) for reply in replies if reply != ack]
    assert sorted(answer["id"] for answer in answers) == [0, 1, 2]
    assert all(answer["ok"] for answer in answers)
    assert stats["batched_games"] == len(games)
