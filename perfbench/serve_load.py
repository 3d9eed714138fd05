"""The ``serve-*`` workloads: one generator process, one connection.

A run spawns ``python -m repro serve --port 0`` several times to time
set-up (spawn to first ``ping`` reply), keeps the last server, and
drives it through three phases on one pipelined connection:

1. preload (untimed): the hot pool for ``serve-hot``, so timing starts
   with it cached; warm-up games for ``serve-solve``;
2. open loop: Poisson arrivals at a fixed rate; each request's latency
   runs from its *scheduled* send time, so a stall also charges the
   requests queued behind it;
3. closed loop: a fixed number of requests with 64 outstanding, the
   server's default ``max_batch``.

Phases 2 and 3 alternate over :data:`ROUNDS` rounds, each taking its
share of the open-loop schedule and of the closed-loop requests. While
they run, the generator's event loop never sleeps (:func:`spin`), so it
sends on time and stamps each reply as it lands rather than when its
CPU next wakes.

``stats`` ops bracket the timed phases, so batcher and cache counters
cover exactly them. After the server stops, every response is checked
against the library answering the same query in-process.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import ROOT, at_ref, child_env, median, percentile, probe_on

HERE = Path(__file__).resolve().parent
#: The ``bench_service.py`` shape mix, (users, links).
SHAPES = ((2, 4), (3, 3), (3, 4), (4, 3))
#: Closed-loop requests outstanding: the server's default ``max_batch``.
DEPTH = 64
SETUP_SAMPLES = 5
HOT_POOL = 512
#: ``serve-solve`` games sent before timing, never asked again: the
#: first passes through each shape's kernels pay one-off costs.
WARMUP = 256
ZIPF_S = 1.1
FRESH_SHARE = 0.10
#: Share of ``--seconds`` the open loop runs for.
OPEN_SHARE = 0.5
#: The open loop's arrival times come from this fixed stream, not from
#: the workload seed: where the bursts fall decides the tail latency,
#: and it must not differ between the runs being compared.
SCHEDULE_SEED = 20060425
#: The timed phases alternate, open loop then closed loop, this many
#: times, so both sample the whole run rather than one stretch of it;
#: the latency figures are the median of the rounds'.
ROUNDS = 10
#: A run whose generator sent later than this (p99) is invalid. Lateness
#: is charged to latency anyway (requests are timed from their due
#: time); past this the generator, not the server, sets the numbers.
LAG_LIMIT_MS = 50.0
PHASE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    open_qps: float
    #: Closed-loop requests per second of ``--seconds``: sized so the
    #: closed loop takes a quarter to a third of the run on a 2-vCPU
    #: Xeon host.
    closed_per_s: int
    hot: bool


WORKLOADS = {
    "serve-solve": Workload(open_qps=100.0, closed_per_s=800, hot=False),
    "serve-hot": Workload(open_qps=500.0, closed_per_s=1500, hot=True),
}


@dataclass
class Plan:
    """The run's inputs: distinct game bodies and who asks for which."""

    bodies: list[bytes]
    preload: list[int]
    open_games: list[int]
    open_offsets: list[float]
    closed_games: list[int]


def make_games(rng: np.random.Generator, count: int) -> list[bytes]:
    """*count* distinct random games, cycling through :data:`SHAPES`.

    The family of ``repro.generators.games.random_game``: four capacity
    states per link drawn from [0.5, 4), Dirichlet(1) beliefs, weights
    from [0.5, 4); sent in the reduced ``capacities`` spelling. Each
    body is a request object minus its opening brace.
    """
    bodies = []
    for index in range(count):
        n, m = SHAPES[index % len(SHAPES)]
        states = rng.uniform(0.5, 4.0, size=(4, m))
        beliefs = rng.dirichlet(np.ones(4), size=n)
        weights = rng.uniform(0.5, 4.0, size=n)
        capacities = 1.0 / (beliefs @ (1.0 / states))
        body = json.dumps({
            "op": "solve",
            "weights": weights.tolist(),
            "capacities": capacities.tolist(),
        })
        bodies.append(body[1:].encode("ascii"))
    return bodies


def make_plan(name: str, seed: int, seconds: float) -> Plan:
    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    # Every round needs open-loop requests and a closed-loop steady state.
    n_open = max(ROUNDS, round(workload.open_qps * OPEN_SHARE * seconds))
    n_closed = max(3 * DEPTH * ROUNDS, round(workload.closed_per_s * seconds))
    schedule = np.random.default_rng(SCHEDULE_SEED)
    offsets = np.cumsum(schedule.exponential(1.0 / workload.open_qps, n_open))
    total = n_open + n_closed
    if not workload.hot:
        bodies = make_games(rng, WARMUP + total)
        preload = list(range(WARMUP))
        sequence = np.arange(WARMUP, WARMUP + total)
    else:
        fresh = rng.random(total) < FRESH_SHARE
        popularity = np.arange(1, HOT_POOL + 1, dtype=float) ** -ZIPF_S
        ranks = rng.choice(HOT_POOL, size=total, p=popularity / popularity.sum())
        sequence = np.where(fresh, HOT_POOL + np.cumsum(fresh) - 1, ranks)
        bodies = make_games(rng, HOT_POOL + int(fresh.sum()))
        preload = list(range(HOT_POOL))
    return Plan(
        bodies=bodies,
        preload=preload,
        open_games=sequence[:n_open].tolist(),
        open_offsets=offsets.tolist(),
        closed_games=sequence[n_open:].tolist(),
    )


class Connection:
    """One pipelined JSON-lines connection to the service."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.next_id = 0

    async def call(self, op: str) -> dict:
        """A control op, sent while nothing else is in flight."""
        self.writer.write(json.dumps({"op": op, "id": op}).encode() + b"\n")
        raw = await asyncio.wait_for(self.reader.readline(), PHASE_TIMEOUT_S)
        message = json.loads(raw)
        if not message.get("ok"):
            raise RuntimeError(f"{op} failed: {message}")
        return message

    def send(self, request_id: int, body: bytes) -> None:
        self.writer.write(b'{"id": %d, ' % request_id + body + b"\n")

    def ids(self, count: int) -> int:
        base = self.next_id
        self.next_id += count
        return base

    async def collect(self, base: int, received: list, on_reply=None) -> None:
        """Fill ``received[i]`` with (receive ns, line) for id ``base + i``."""
        pending = len(received)
        while pending:
            raw = await self.reader.readline()
            if not raw:
                return
            stamp = time.perf_counter_ns()
            index = reply_id(raw) - base
            if 0 <= index < len(received) and received[index] is None:
                received[index] = (stamp, raw)
                pending -= 1
            if on_reply is not None:
                on_reply()


def reply_id(raw: bytes) -> int:
    """The ``id`` of a response line (the server writes it first)."""
    if raw.startswith(b'{"id": '):
        end = raw.find(b",", 7)
        if end > 7 and raw[7:end].isdigit():
            return int(raw[7:end])
    request_id = json.loads(raw).get("id")
    return request_id if isinstance(request_id, int) else -1


async def bounded(coro) -> None:
    """Await *coro*; a phase that times out leaves its gaps as failures."""
    try:
        await asyncio.wait_for(coro, PHASE_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass


async def closed_loop(conn: Connection, plan: Plan, games: list[int]):
    """Keep :data:`DEPTH` requests outstanding until *games* are answered."""
    base = conn.ids(len(games))
    received: list = [None] * len(games)
    sent = min(DEPTH, len(games))
    for i in range(sent):
        conn.send(base + i, plan.bodies[games[i]])

    def refill() -> None:
        nonlocal sent
        if sent < len(games):
            conn.send(base + sent, plan.bodies[games[sent]])
            sent += 1

    await bounded(conn.collect(base, received, refill))
    return received, steady_span(sorted(r[0] for r in received if r))


def steady_span(stamps: list[int]) -> tuple[int, float] | None:
    """(replies, seconds) of a closed-loop stretch's steady state.

    The first and last :data:`DEPTH` replies are left out: the loop is
    still filling, or draining a backlog no refill joins any more, which
    the server clears in larger batches than it sees in steady state.
    """
    steady = stamps[DEPTH - 1:len(stamps) - DEPTH]
    if len(steady) < 2:
        return None
    return len(steady) - 1, (steady[-1] - steady[0]) / 1e9


def pooled_rate(spans: list[tuple[int, float]]) -> float:
    """Replies per second over every round's steady state together.

    How the 64 outstanding requests split into server batches drifts
    from round to round, and the rate with it (by up to a third on a
    2-vCPU host); pooling weighs each round by its length instead of
    letting the middle round of a bimodal few decide.
    """
    return sum(n for n, _ in spans) / sum(s for _, s in spans)


async def open_loop(conn: Connection, plan: Plan, lo: int, hi: int):
    """Send ``open_games[lo:hi]`` on their Poisson schedule regardless
    of replies."""
    games = plan.open_games[lo:hi]
    offsets = plan.open_offsets[lo:hi]
    base = conn.ids(len(games))
    received: list = [None] * len(games)
    due = [0] * len(games)
    lag_ms = [0.0] * len(games)
    collector = asyncio.ensure_future(conn.collect(base, received))
    start = time.perf_counter_ns() + 10_000_000
    for i, game in enumerate(games):
        due[i] = start + int((offsets[i] - offsets[0]) * 1e9)
        await asyncio.sleep(max(0.0, (due[i] - time.perf_counter_ns()) / 1e9))
        lag_ms[i] = (time.perf_counter_ns() - due[i]) / 1e6
        conn.send(base + i, plan.bodies[game])
    await bounded(collector)
    collector.cancel()
    latency_ms = [
        (r[0] - d) / 1e6 for r, d in zip(received, due) if r is not None
    ]
    return received, latency_ms, lag_ms


async def spin() -> None:
    """Keep the event loop polling until cancelled.

    A sleeping generator pays its CPU's wake-up on every send and every
    reply; on a virtual CPU that is a few hundred microseconds, over
    half the median latency of a cache hit, and it varies with the host.
    """
    while True:
        await asyncio.sleep(0)


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def split_cpus() -> tuple[set[int], set[int]] | None:
    """One CPU for the generator, another for the server, when there are
    two. Left to the scheduler, the two processes, which wake each
    other, tend to share one CPU while the other idles, and how they
    interleave then moves every figure."""
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


class Server:
    """A spawned service process and the connection to it."""

    def __init__(self, command: list[str], log: Path,
                 cpus: set[int] | None) -> None:
        self.command = command
        self.log = log
        self.cpus = cpus
        self.proc: asyncio.subprocess.Process | None = None
        self.conn: Connection | None = None

    async def start(self) -> float:
        """Spawn and connect; returns seconds from spawn to first pong."""
        start = time.perf_counter()
        with self.log.open("ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *self.command, cwd=ROOT, env=child_env(),
                stdout=asyncio.subprocess.PIPE, stderr=log,
            )
        if self.cpus is not None:
            os.sched_setaffinity(self.proc.pid, self.cpus)
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        match = re.search(rb" on [^ ]*:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}, see {self.log}")
        self.conn = Connection(
            *await asyncio.open_connection("127.0.0.1", int(match.group(1)))
        )
        await self.conn.call("ping")
        return time.perf_counter() - start

    async def stop(self) -> None:
        """Shut down gracefully; kill if that fails; always reap."""
        if self.proc is None:
            return
        try:
            if self.conn is not None and self.proc.returncode is None:
                await self.conn.call("shutdown")
                self.conn.writer.close()
            await asyncio.wait_for(self.proc.wait(), 30)
        except (OSError, RuntimeError, asyncio.TimeoutError, ValueError):
            pass
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    keys = ("requests", "coalesced", "batches", "batched_games",
            "size_flushes", "deadline_flushes")
    out = {key: after[key] - before[key] for key in keys}
    for key in ("hits", "misses", "evictions"):
        out[key] = after["cache"][key] - before["cache"][key]
    return out


async def one_pass(command: list[str], plan: Plan, work: Path,
                   spawns: int, cpus: set[int] | None) -> dict:
    """Set-up samples, then preload, open and closed phases on one server.

    The host probe runs on the server's CPU before each spawn and at
    each phase boundary, while the server is idle.
    """
    cpu = min(cpus) if cpus else None
    setups, setup_probes = [], []
    for _ in range(spawns - 1):
        server = Server(command, work / "server.log", cpus)
        try:
            setup_probes.append(probe_on(cpu))
            setups.append(await server.start())
        finally:
            await server.stop()
    server = Server(command, work / "server.log", cpus)
    try:
        setup_probes.append(probe_on(cpu))
        setups.append(await server.start())
        conn = server.conn
        info = (await conn.call("info"))["info"]
        preload, _ = await closed_loop(conn, plan, plan.preload)
        before = (await conn.call("stats"))["stats"]
        opened, latency_ms, lag_ms = [], [], []
        closed, spans = [], []
        n_open, n_closed = len(plan.open_games), len(plan.closed_games)
        probes = [probe_on(cpu)]
        spinner = asyncio.ensure_future(spin())
        try:
            for k in range(ROUNDS):
                replies, latency, lag = await open_loop(
                    conn, plan,
                    n_open * k // ROUNDS, n_open * (k + 1) // ROUNDS,
                )
                probes.append(probe_on(cpu))
                opened += replies
                latency_ms.append(latency)
                lag_ms += lag
                replies, span = await closed_loop(
                    conn, plan, plan.closed_games[
                        n_closed * k // ROUNDS:n_closed * (k + 1) // ROUNDS
                    ],
                )
                probes.append(probe_on(cpu))
                closed += replies
                spans.append(span)
        finally:
            spinner.cancel()
        after = (await conn.call("stats"))["stats"]
        rss = peak_rss_mb(server.proc.pid)
    finally:
        await server.stop()
    return {
        "setups": setups,
        "setup_probes": setup_probes,
        "backend": info["backend"],
        "replies": {
            "preload": list(zip(plan.preload, preload)),
            "open": list(zip(plan.open_games, opened)),
            "closed": list(zip(plan.closed_games, closed)),
        },
        "latency_ms": latency_ms,
        "lag_ms": lag_ms,
        "closed_spans": spans,
        "probes": probes,
        "counters": counter_delta(before, after),
        "peak_rss_mb": rss,
    }


def verify(plan: Plan, replies: dict[str, list]) -> dict[str, dict]:
    """Sent, succeeded and failed per phase: each reply against the
    in-process answer to the same query.

    Expected answers come from ``solve_requests`` on chunks of 64
    requests (the service's batch parity contract makes batch
    composition irrelevant). A sample of games is also solved alone, as
    ``solve_requests([request])[0]``, holding the batched answers to the
    ``B = 1`` ones; it is reported as the ``b1`` phase.
    """
    from repro.runtime.store import canonical_dumps, canonical_loads
    from repro.service.query import EquilibriumRequest, solve_requests

    games = sorted({game for phase in replies.values() for game, _ in phase})
    requests = {
        game: EquilibriumRequest.from_payload(json.loads(b"{" + plan.bodies[game]))
        for game in games
    }
    expected: dict[int, str] = {}
    for lo in range(0, len(games), 64):
        chunk = games[lo:lo + 64]
        answers = solve_requests([requests[game] for game in chunk])
        for game, answer in zip(chunk, answers):
            expected[game] = canonical_dumps(answer, sort_keys=True)
    sample = games[:: max(1, len(games) // 16)]
    counts = {"b1": {"sent": len(sample), "failed": sum(
        canonical_dumps(solve_requests([requests[game]])[0], sort_keys=True)
        != expected[game]
        for game in sample
    )}}
    verified: dict[int, bytes] = {}
    for phase, pairs in replies.items():
        failed = 0
        for game, reply in pairs:
            if reply is None:
                failed += 1
                continue
            raw = reply[1]
            # Replies to one game differ only in their leading id.
            rest = raw[raw.find(b","):]
            if verified.get(game) == rest:
                continue
            message = canonical_loads(raw.decode("utf-8"))
            if message.get("ok") is True and canonical_dumps(
                message["result"], sort_keys=True
            ) == expected[game]:
                verified[game] = rest
            else:
                failed += 1
        counts[phase] = {"sent": len(pairs), "failed": failed}
    for phase in counts.values():
        phase["succeeded"] = phase["sent"] - phase["failed"]
    return counts


async def run(name: str, seed: int, seconds: float, trace: bool, work: Path):
    plan = make_plan(name, seed, seconds)
    split = split_cpus()
    server_cpus = None
    if split is not None:
        os.sched_setaffinity(0, split[0])
        server_cpus = split[1]
    serve = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    passes = []
    if trace:
        # The same inputs untraced, then traced: their closed-loop rates
        # give the tracing overhead.
        passes.append(await one_pass(serve, plan, work, 1, server_cpus))
        summary_path = work / "trace.json"
        traced = [sys.executable, str(HERE / "traced_server.py"),
                  str(summary_path)]
        passes.append(await one_pass(traced, plan, work, 1, server_cpus))
    else:
        passes.append(await one_pass(serve, plan, work, SETUP_SAMPLES,
                                     server_cpus))
    phases = [verify(plan, result.pop("replies")) for result in passes]
    attempted = sum(c["sent"] for counts in phases for c in counts.values())
    failed = sum(c["failed"] for counts in phases for c in counts.values())
    result = passes[-1]
    lag_p99 = percentile(result["lag_ms"], 99)
    spans = scaled_spans(result)
    record = {
        "fingerprint": {"backend": result["backend"]},
        "phases": phases,
        "client.send_lag_ms.p99": lag_p99,
        "counters": result["counters"],
        "setup_s": result["setups"],
        "setup_probe_ms": result["setup_probes"],
        "closed_rates": [
            span[0] / span[1] if span else None
            for span in result["closed_spans"]
        ],
        "open_p50_p99_ms": [
            [percentile(round_ms, 50), percentile(round_ms, 99)]
            for round_ms in result["latency_ms"]
        ],
        "host_probe_ms": result["probes"],
        "closed_rates_at_ref": [n / s for n, s in spans],
        "open_p50_p99_ms_at_ref": scaled_latencies(result),
    }
    if lag_p99 > LAG_LIMIT_MS:
        print(f"perfbench: invalid run, the generator sent {lag_p99:.2f} ms "
              f"late at p99 (limit {LAG_LIMIT_MS} ms); record: "
              + json.dumps(record), file=sys.stderr)
        return None
    counters = result["counters"]
    if trace:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        metrics = layer_metrics(summary, counters)
        metrics["client.send_lag_ms.p99"] = lag_p99
        metrics["trace.overhead_frac"] = (
            pooled_rate(scaled_spans(passes[0]))
            / pooled_rate(spans) - 1.0
        )
        return record, failed == 0, attempted, failed, metrics
    # Across runs, the host's speed is scaled out. Within a run, a stall
    # of a few tens of milliseconds sets the p99 of the round it falls
    # in, and stalls reach more rounds' p99 than their p50, so p50 is
    # the median round's and p99 the lower quartile's.
    throughput = pooled_rate(spans)
    p50s, p99s = zip(*scaled_latencies(result))
    metrics = {
        "setup_s": median([
            at_ref(setup, probe)
            for setup, probe in zip(result["setups"], result["setup_probes"])
        ]),
        "throughput_qps": throughput,
        "latency_p50_ms": median(p50s),
        "latency_p99_ms": statistics.quantiles(p99s, n=4)[0],
        "campaign_s": len(plan.closed_games) / throughput,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return record, failed == 0, attempted, failed, metrics


def scaled_latencies(result: dict) -> list[tuple[float, float]]:
    """Each round's open-loop p50 and p99, scaled to the reference CPU by
    the probes on either side of the open loop."""
    probes = result["probes"]
    return [
        tuple(
            at_ref(percentile(round_ms, q), (probes[2 * k] + probes[2 * k + 1]) / 2)
            for q in (50, 99)
        )
        for k, round_ms in enumerate(result["latency_ms"])
    ]


def scaled_spans(result: dict) -> list[tuple[int, float]]:
    """Each round's closed-loop steady span, scaled to the reference CPU
    by the probes on either side of it."""
    probes = result["probes"]
    return [
        (span[0], at_ref(span[1], (probes[2 * k + 1] + probes[2 * k + 2]) / 2))
        for k, span in enumerate(result["closed_spans"])
        if span is not None
    ]


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    spans, samples = summary["spans"], summary["samples"]

    def span(name: str, kind: str = "total_s") -> float:
        return spans.get(name, {}).get(kind, 0.0)

    waits = samples.get("service.batcher.wait_ms", [])
    lookups = counters["hits"] + counters["misses"]
    return {
        "service.server.decode_s": span("service.server.decode"),
        "service.server.encode_s": span("service.server.encode"),
        "service.server.bytes_out": sum(
            samples.get("service.server.bytes_out", [])
        ),
        "service.query.parse_s": span("service.query.from_payload", "self_s"),
        "service.query.digest_s": span("service.query.digest"),
        "service.query.solve_s": span("service.query.solve"),
        "service.query.canonical_payload_s": span(
            "service.query.canonical_payload"
        ),
        "service.batcher.games_per_batch": (
            counters["batched_games"] / counters["batches"]
            if counters["batches"] else 0.0
        ),
        "service.batcher.wait_ms.p50": percentile(waits, 50),
        "service.batcher.wait_ms.p99": percentile(waits, 99),
        "service.batcher.coalesced": counters["coalesced"],
        "service.batcher.size_flushes": counters["size_flushes"],
        "service.batcher.deadline_flushes": counters["deadline_flushes"],
        "service.cache.hit_ratio": (
            counters["hits"] / lookups if lookups else 0.0
        ),
        "service.cache.evictions": counters["evictions"],
        "batch.poa.census_s": span("batch.poa.census"),
        "batch.pure.nashify_s": span("batch.pure.nashify"),
        "batch.mixed.fully_mixed_s": span("batch.mixed.fully_mixed"),
        "batch.poa.bounds_s": span("batch.poa.bounds"),
        "batch.container.from_requests_s": span(
            "batch.container.from_requests"
        ),
    }
