"""Dynamic batching vs the sequential ``B = 1`` query path.

Measures a 64-way concurrent burst of distinct mixed-shape queries two
ways:

* ``batched``    — the service's :class:`DynamicBatcher` (no cache, so
  every sample pays full solve cost): the whole burst coalesces into
  one window, :func:`solve_requests` stacks it into per-shape
  :class:`GameBatch` sub-batches, and each shape costs one kernel pass;
* ``sequential`` — the pre-service shape: one :func:`solve_requests`
  call per query, i.e. one full kernel pass each (the exact ``B = 1``
  path a caller without the service would loop over).

Both sides must return identical response objects before any timing is
trusted — the service's bit-parity contract, asserted here on the very
workload being timed. The >= 3x gate is the tentpole's acceptance
criterion at the 64-way concurrent load; sustained throughput and
per-request latency percentiles ride along in the report line and the
``BENCH_trajectory.json`` artifact.

``test_request_front_end`` times what every request pays before the
batcher sees it, decoding its line and
:meth:`EquilibriumRequest.from_payload`, against the NumPy parser
``tests/request_oracle.py`` keeps (decoding with ``json.loads``). It
also times a cache hit through the server's ``_dispatch``, line in and
reply out: an ``id``-first line the request memo answers, against the
same game sent ``op`` first, which takes the parse path. It reports
microseconds per request and asserts only that the digests, and the
two paths' replies apart from the ``id``, agree.

``test_pipelined_hits_over_a_socket`` times the connection layer: bursts
of 256 cache-hit lines, ``id`` first, each burst written at once to a
real server socket and its replies read back whole, client included. It
reports microseconds per line and asserts only that every reply equals
the game's first answer apart from its ``id``.

``test_census_per_stack`` times what every flush pays once per shape:
one ``solve`` stack answered by ``_answer_census``, at ``B = 1`` (a
lone request on an idle server) and ``B = 16``, for the four shapes of
perfbench's serve mix, with its three largest parts beside it. It
reports microseconds per stack and asserts only that each stack's
replies equal the same games answered one at a time.

``test_miss_window_trade`` shows what holding a window open while hits
keep coming trades: a ``serve`` process, one connection with 64
requests outstanding, 256 cached games at Zipf(1.1) popularity mixed
once with 1% and once with 10% fresh games. It reports replies per
second, games per flush and the p50/p99 latency of misses and of hits,
and asserts only that every reply equals its game's in-process answer.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from _timing import _timed

from repro.batch.container import GameBatch
from repro.batch.mixed import batch_fully_mixed_candidate
from repro.batch.poa import batch_empirical_ratios
from repro.runtime.store import canonical_dumps, canonical_loads
from repro.service import (
    DynamicBatcher,
    EquilibriumRequest,
    EquilibriumServer,
    solve_requests,
)
from repro.service.query import _answer_census, _nashify_records
from repro.util.rng import stable_seed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from request_oracle import OracleRequest  # noqa: E402

LABEL = "bench-service"
SHAPES = [(3, 3), (4, 3), (3, 4), (2, 4)]
LOAD = 64


def _requests(count: int = LOAD) -> list[EquilibriumRequest]:
    """*count* distinct queries cycling through the mixed shapes."""
    requests = []
    for index in range(count):
        n, m = SHAPES[index % len(SHAPES)]
        seed = stable_seed(LABEL, n, m, index)
        batch = GameBatch.from_seeds([seed], n, m)
        requests.append(
            EquilibriumRequest.from_arrays(
                batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
            )
        )
    return requests


def sequential_pass(requests):
    """One kernel pass per query — the pre-service calling shape."""
    return [solve_requests([request])[0] for request in requests]


async def _batched_burst(requests):
    """One concurrent burst through a fresh (uncached) batcher.

    Returns the responses in request order plus each request's
    submit-to-result latency as the service's clients observe it.
    """
    batcher = DynamicBatcher(max_batch=len(requests), max_delay_ms=50.0)
    loop = asyncio.get_running_loop()

    async def timed_submit(request):
        start = loop.time()
        response = await batcher.submit(request)
        return response, loop.time() - start

    pairs = await asyncio.gather(
        *(timed_submit(request) for request in requests)
    )
    await batcher.close()
    return [response for response, _ in pairs], [lat for _, lat in pairs]


def batched_pass(requests):
    return asyncio.run(_batched_burst(requests))


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[index]


def test_service_speedup_at_least_3x(report, trajectory):
    """Acceptance gate: batched throughput >= 3x sequential at 64-way
    concurrent load, on bit-identical answers."""
    requests = _requests()
    sequential_results = sequential_pass(requests)
    batched_results, _ = batched_pass(requests)
    assert batched_results == sequential_results

    batched_times = []
    latencies = []
    for _ in range(5):
        sample = {}
        batched_times.append(
            _timed(lambda: sample.setdefault("out", batched_pass(requests)))
        )
        latencies.extend(sample["out"][1])
    sequential_times = [
        _timed(lambda: sequential_pass(requests)) for _ in range(3)
    ]
    trajectory.record(
        "service-dynamic-batching", batched_times, sequential_times
    )
    batched, sequential = min(batched_times), min(sequential_times)
    ratio = sequential / batched
    latencies.sort()
    report.append(
        f"[service] {LOAD}-way concurrent burst over shapes {SHAPES}: "
        f"batched {batched * 1e3:.2f} ms/burst "
        f"({LOAD / batched:.0f} qps, request latency "
        f"p50 {_percentile(latencies, 0.50) * 1e3:.2f} ms, "
        f"p99 {_percentile(latencies, 0.99) * 1e3:.2f} ms), "
        f"sequential B=1 {sequential * 1e3:.2f} ms, speedup {ratio:.1f}x"
    )
    assert ratio >= 3.0, f"dynamic batching only {ratio:.2f}x faster"


def test_batched_burst(benchmark):
    requests = _requests(32)
    results = benchmark(lambda: batched_pass(requests)[0])
    assert len(results) == 32


def test_sequential_burst(benchmark):
    requests = _requests(32)
    results = benchmark(lambda: sequential_pass(requests))
    assert len(results) == 32


def _request_lines(count: int = 256, tag: str = "line") -> list[bytes]:
    """*count* distinct ``solve`` lines cycling through the shapes, in
    the ``capacities`` spelling perfbench's serve workloads send."""
    lines = []
    for index in range(count):
        n, m = SHAPES[index % len(SHAPES)]
        batch = GameBatch.from_seeds([stable_seed(LABEL, tag, n, m, index)], n, m)
        message = {
            "op": "solve",
            "id": index,
            "weights": batch.weights[0].tolist(),
            "capacities": batch.capacities[0].tolist(),
        }
        lines.append(json.dumps(message).encode("utf-8"))
    return lines


def test_request_front_end(report):
    """Decode + ``from_payload`` per request line, and a cache hit
    through ``_dispatch`` with and without the request memo; no timing
    gate."""
    lines = _request_lines()

    def front_end(parse, decode):
        return [parse(decode(line.decode("utf-8"))) for line in lines]

    requests = front_end(EquilibriumRequest.from_payload, canonical_loads)
    expected = front_end(OracleRequest.from_payload, json.loads)
    assert [r.digest for r in requests] == [r.digest for r in expected]

    def per_request_us(parse, decode):
        best = min(_timed(lambda: front_end(parse, decode)) for _ in range(5))
        return best / len(lines) * 1e6

    new = per_request_us(EquilibriumRequest.from_payload, canonical_loads)
    old = per_request_us(OracleRequest.from_payload, json.loads)
    memo, parsed = asyncio.run(_cache_hit_us(lines))
    report.append(
        f"[service] request front end over shapes {SHAPES}: decode + "
        f"from_payload {new:.1f} us/request (NumPy reference parser "
        f"{old:.1f} us); a cache hit through _dispatch {memo:.1f} us "
        f"id-first (request memo) against {parsed:.1f} us op-first "
        f"(parse path)"
    )


def _hit(server: EquilibriumServer, line: bytes) -> bytes:
    """*line*'s reply through ``_dispatch``, which answers a cache hit
    at once, as bytes."""
    reply = server._dispatch(line)
    if not isinstance(reply, bytes):
        raise AssertionError(f"not a cache hit: {line[:40]!r}")
    return reply


def _id_first(lines: list[bytes]) -> list[bytes]:
    """*lines* (``op`` first) rewritten ``id`` first, as the request memo
    reads them."""
    out = []
    for index, line in enumerate(lines):
        message = json.loads(line)
        del message["id"]
        out.append(b'{"id": %d, ' % index + json.dumps(message).encode()[1:])
    return out


async def _cache_hit_us(lines: list[bytes]) -> tuple[float, float]:
    """Microseconds per cache hit through ``_dispatch``: the same games
    sent ``id`` first, each line in the request memo, and *lines*
    (``op`` first), which take the parse path."""
    server = EquilibriumServer(port=0, cache_size=len(lines))
    id_first = _id_first(lines)
    for line in [*lines, *id_first]:  # solve each game, then memoise it
        reply = server._dispatch(line)
        if not isinstance(reply, bytes):
            await reply[1]
    assert server.stats()["memo"]["size"] == len(lines)

    def apart_from_id(reply: bytes) -> bytes:
        return reply[reply.index(b'"ok": ') :]

    assert [apart_from_id(_hit(server, line)) for line in id_first] == [
        apart_from_id(_hit(server, line)) for line in lines
    ]

    def per_hit_us(batch: list[bytes]) -> float:
        best = min(
            _timed(lambda: [_hit(server, line) for line in batch])
            for _ in range(5)
        )
        return best / len(batch) * 1e6

    memo, parsed = per_hit_us(id_first), per_hit_us(lines)
    await server.close()
    return memo, parsed


def test_pipelined_hits_over_a_socket(report):
    """Microseconds per line for a pipelined burst of cache-hit lines
    over a real socket, client included; no timing gate."""
    lines = _request_lines()
    per_line = asyncio.run(_pipelined_hits_us(lines))
    report.append(
        f"[service] a pipelined burst of {len(lines)} cache-hit lines "
        f"(id first, request memo) over one socket: {per_line:.1f} us/line "
        f"(best of 20 bursts, client in the same event loop)"
    )


async def _pipelined_hits_us(lines: list[bytes]) -> float:
    """Send *lines* once to solve their games, then time bursts of the
    same games ``id`` first, each burst written at once and read back
    whole; every reply must equal the first burst's apart from its id."""
    server = EquilibriumServer(port=0, cache_size=len(lines))
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:

            async def burst(sent: list[bytes]) -> list[bytes]:
                writer.write(b"".join(line + b"\n" for line in sent))
                received, count = [], 0
                while count < len(sent):
                    chunk = await reader.read(1 << 16)
                    assert chunk, "the server closed the connection"
                    received.append(chunk)
                    count += chunk.count(b"\n")
                return b"".join(received).splitlines()

            solved = await burst(lines)
            hits = _id_first(lines)
            await burst(hits)  # memoise each line
            best = float("inf")
            for _ in range(20):
                start = time.perf_counter()
                replies = await burst(hits)
                best = min(best, time.perf_counter() - start)
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await server.close()

    def result(reply: bytes) -> tuple[int, bytes]:
        message = json.loads(reply)
        return message["id"], reply[reply.index(b'"ok": ') :]

    assert sorted(map(result, replies)) == sorted(map(result, solved))
    return best / len(hits) * 1e6


def _best_us(fn, repeats: int = 100) -> float:
    return min(_timed(fn) for _ in range(repeats)) * 1e6


def test_census_per_stack(report):
    """Microseconds per ``_answer_census`` stack; no timing gate."""
    width = 16
    rows = []
    for n, m in SHAPES:
        seeds = [stable_seed(LABEL, "stack", n, m, i) for i in range(width)]
        batch = GameBatch.from_seeds(seeds, n, m)
        digests = [f"{n}x{m}-{i}" for i in range(width)]
        one_at_a_time = [
            _answer_census(batch.subbatch([i]), digests[i : i + 1])[0]
            for i in range(width)
        ]
        assert _answer_census(batch, digests) == one_at_a_time
        for b in (1, width):
            stack = batch.subbatch(range(b))
            parts = {
                "stack": lambda: _answer_census(stack, digests[:b]),
                "ratios": lambda: batch_empirical_ratios(stack),
                "nashify": lambda: _nashify_records(stack),
                "closed form": lambda: batch_fully_mixed_candidate(
                    stack.weights, stack.capacities, stack.initial_traffic
                ),
            }
            rows.append(
                f"  ({n}, {m}) B={b:2d}: "
                + ", ".join(f"{name} {_best_us(fn):.0f}" for name, fn in parts.items())
            )
    report.append(
        "[service] solve census per shape stack, us (best of 100):\n"
        + "\n".join(rows)
    )


#: The closed loop's depth: the server's default ``max_batch``.
TRADE_DEPTH = 64
#: Cached games the trade's requests draw from at Zipf(1.1) popularity.
TRADE_POOL = 256
TRADE_REQUESTS = 30_000


def test_miss_window_trade(report):
    """Replies per second, games per flush and the p50/p99 of misses and
    of hits, for one connection with 64 requests outstanding against a
    ``serve`` process, over a cached pool mixed with 1% and with 10%
    fresh games; no timing gate. Every reply must equal its game's
    in-process answer."""
    rows = [_trade_row(share) for share in (0.01, 0.10)]
    report.append(
        f"[service] one connection, {TRADE_DEPTH} outstanding, "
        f"{TRADE_REQUESTS} requests over {TRADE_POOL} cached games "
        f"(Zipf 1.1) plus fresh ones, against a serve process:\n"
        + "\n".join(rows)
    )


def _trade_row(share: float) -> str:
    rng = np.random.default_rng(stable_seed(LABEL, "trade", int(share * 100)))
    fresh = rng.random(TRADE_REQUESTS) < share
    popularity = 1.0 / np.arange(1, TRADE_POOL + 1) ** 1.1
    drawn = rng.choice(TRADE_POOL, size=TRADE_REQUESTS, p=popularity / popularity.sum())
    games = np.where(fresh, TRADE_POOL + np.cumsum(fresh) - 1, drawn).tolist()
    lines = _request_lines(TRADE_POOL + int(fresh.sum()), tag=f"trade-{share}")
    bodies = [b", " + line[line.index(b'"weights"') :] + b"\n" for line in lines]
    expected = [
        b'"ok": true, "result": ' + canonical_dumps(response).encode() + b"}\n"
        for response in solve_requests(
            [EquilibriumRequest.from_payload(json.loads(line)) for line in lines]
        )
    ]
    root = Path(__file__).resolve().parent.parent
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-size", str(4 * len(lines))],
        stdout=subprocess.PIPE,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    try:
        port = int(re.search(r":(\d+) ", server.stdout.readline()).group(1))
        measured = asyncio.run(_closed_loop(port, bodies, expected, games, fresh))
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    qps, per_flush, miss_ms, hit_ms = measured
    return (
        f"  {share:.0%} fresh: {qps:,.0f} replies/s, {per_flush:.1f} games "
        f"per flush; misses p50 {_percentile(miss_ms, 0.50):.2f} ms, "
        f"p99 {_percentile(miss_ms, 0.99):.2f} ms; hits p50 "
        f"{_percentile(hit_ms, 0.50):.2f} ms, p99 {_percentile(hit_ms, 0.99):.2f} ms"
    )


async def _closed_loop(port, bodies, expected, games, fresh):
    """Cache the pool (each game sent twice, so its line is memoised),
    then keep :data:`TRADE_DEPTH` of *games*' requests outstanding on
    one connection; every reply is checked against *expected*."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    buffer = b""

    async def replies():
        nonlocal buffer
        while b"\n" not in buffer:
            chunk = await reader.read(1 << 16)
            assert chunk, "the server closed the connection"
            buffer += chunk
        done, _, buffer = buffer.rpartition(b"\n")
        return done.split(b"\n")

    async def control(op):
        writer.write(b'{"op": "%s"}\n' % op.encode())
        (reply,) = await replies()
        return json.loads(reply)

    for _ in range(2):
        writer.write(b"".join(b'{"id": 0' + body for body in bodies[:TRADE_POOL]))
        answered = 0
        while answered < TRADE_POOL:
            answered += len(await replies())
    before = (await control("stats"))["stats"]
    sent_at = [0.0] * len(games)
    latency = [0.0] * len(games)
    clock = time.perf_counter

    def line(k):
        sent_at[k] = clock()
        return b'{"id": %d' % k + bodies[games[k]]

    start = clock()
    writer.write(b"".join(line(k) for k in range(TRADE_DEPTH)))
    sent = answered = TRADE_DEPTH
    answered = 0
    while answered < len(games):
        batch = await replies()
        now = clock()
        for reply in batch:
            comma = reply.index(b", ", 7)
            k = int(reply[7:comma])
            latency[k] = now - sent_at[k]
            assert reply[comma + 2 :] + b"\n" == expected[games[k]], k
        answered += len(batch)
        more = min(len(batch), len(games) - sent)
        if more:
            writer.write(b"".join(line(k) for k in range(sent, sent + more)))
            sent += more
    elapsed = clock() - start
    after = (await control("stats"))["stats"]
    await control("shutdown")
    writer.close()
    await writer.wait_closed()
    flushes = after["batches"] - before["batches"]
    per_flush = (after["batched_games"] - before["batched_games"]) / max(flushes, 1)
    miss_ms = sorted(1e3 * t for t, f in zip(latency, fresh) if f)
    hit_ms = sorted(1e3 * t for t, f in zip(latency, fresh) if not f)
    return len(games) / elapsed, per_flush, miss_ms, hit_ms
