"""Differential tests for the equilibrium service.

The contract under test is the tentpole's strong one: every service
response — batched, coalesced, cached, or mixed-shape — is
*bit-identical* to what the direct ``B = 1`` single-game APIs
(`repro.equilibria`, `repro.analysis.poa`, `repro.model.social`) return
for the same game. Plus unit coverage for the request spellings, the
digest, the LRU cache, the dynamic batcher's two flush triggers, and a
full CLI ``serve`` + smoke-driver round trip in subprocesses (the exact
shape of the CI service-smoke job).
"""

from __future__ import annotations

import asyncio
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.poa import (
    empirical_coordination_ratios,
    poa_bound_general,
    poa_bound_uniform,
)
from repro.batch.container import GameBatch
from repro.equilibria import fully_mixed_candidate, nashify, pure_nash_profiles
from repro.errors import DimensionError
from repro.model.beliefs import BeliefProfile, StateSpace
from repro.model.game import UncertainRoutingGame
from repro.model.social import opt1, opt2
from repro.service import (
    DEFAULT_MAX_DELAY_MS,
    MAX_SERVICE_PROFILES,
    DynamicBatcher,
    EquilibriumRequest,
    EquilibriumServer,
    RequestError,
    ResultCache,
    ServiceClient,
    game_digest,
    solve_requests,
)
from repro.runtime.store import canonical_dumps, canonical_loads
from repro.service import server as server_module
from repro.util.rng import stable_seed


def _request(tag: str, n: int, m: int, index: int = 0) -> EquilibriumRequest:
    """One validated random-game request (general Dirichlet beliefs)."""
    seed = stable_seed("svc-test", tag, n, m, index)
    batch = GameBatch.from_seeds([seed], n, m, with_initial_traffic=index % 2 == 1)
    return EquilibriumRequest.from_arrays(
        batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
    )


def _payload(request: EquilibriumRequest) -> dict:
    return {
        "weights": request.weights.tolist(),
        "capacities": request.capacities.tolist(),
        "initial_traffic": request.initial_traffic.tolist(),
    }


def _game(request: EquilibriumRequest) -> UncertainRoutingGame:
    return UncertainRoutingGame.from_capacities(
        request.weights,
        request.capacities,
        initial_traffic=request.initial_traffic,
    )


def _check_differential(request: EquilibriumRequest, response: dict) -> None:
    """Assert one response is bit-identical to the B = 1 APIs."""
    game = _game(request)
    n = game.num_users
    assert response["digest"] == request.digest
    assert response["num_users"] == n
    assert response["num_links"] == game.num_links

    pure = list(pure_nash_profiles(game))
    fm = fully_mixed_candidate(game)
    assert response["pure"]["num_pure"] == len(pure)
    assert response["pure"]["exists"] == (len(pure) > 0)

    nash = nashify(game, [0] * n)
    record = response["pure"]["nashify"]
    assert record is not None
    assert record["assignment"] == nash.profile.links.tolist()
    assert record["steps"] == nash.steps
    assert record["sc1_before"] == nash.sc1_before
    assert record["sc1"] == nash.sc1_after
    assert record["sc2_before"] == nash.sc2_before
    assert record["sc2"] == nash.sc2_after
    assert record["max_congestion_before"] == nash.max_congestion_before
    assert record["max_congestion"] == nash.max_congestion_after

    mixed = response["fully_mixed"]
    assert mixed["exists"] == fm.exists
    assert mixed["probabilities"] == fm.probabilities.tolist()
    assert mixed["latencies"] == fm.latencies.tolist()
    assert mixed["link_traffic"] == fm.link_traffic.tolist()

    assert response["social"]["opt1"] == opt1(game)
    assert response["social"]["opt2"] == opt2(game)

    poa = response["poa"]
    assert poa["bound_general"] == poa_bound_general(game)
    if game.has_uniform_beliefs():
        assert poa["bound_uniform"] == poa_bound_uniform(game)
    else:
        assert poa["bound_uniform"] is None
    num_equilibria = len(pure) + int(fm.exists)
    assert poa["num_equilibria"] == num_equilibria
    if num_equilibria:
        ratio_sc1, ratio_sc2 = empirical_coordination_ratios(game)
        assert poa["ratio_sc1"] == ratio_sc1
        assert poa["ratio_sc2"] == ratio_sc2


class TestDigest:
    def test_deterministic_and_content_addressed(self):
        a = _request("digest", 3, 3)
        b = _request("digest", 3, 3)
        assert a.digest == b.digest
        bumped = EquilibriumRequest.from_arrays(
            a.weights * 2.0, a.capacities, a.initial_traffic
        )
        assert bumped.digest != a.digest

    def test_kp_spelling_matches_model_reduction(self):
        """``link_capacities`` reduces exactly like the model's KP
        constructor (double-reciprocal included), digest and all."""
        weights = [1.0, 2.0, 3.0]
        links = [3.0, 5.0, 7.0]
        request = EquilibriumRequest.from_payload(
            {"weights": weights, "link_capacities": links}
        )
        game = UncertainRoutingGame.kp(weights, links)
        assert np.array_equal(request.capacities, game.capacities)
        assert request.digest == game_digest(
            game.weights, game.capacities, game.initial_traffic
        )

    def test_belief_spelling_matches_model_reduction(self):
        weights = [1.0, 2.0, 1.5]
        states = [[4.0, 2.0], [1.0, 3.0]]
        beliefs = [[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]]
        request = EquilibriumRequest.from_payload(
            {"weights": weights, "states": states, "beliefs": beliefs}
        )
        game = UncertainRoutingGame(
            np.asarray(weights),
            BeliefProfile.from_matrix(StateSpace(states), beliefs),
        )
        assert np.array_equal(request.capacities, game.capacities)
        assert request.digest == game_digest(
            game.weights, game.capacities, game.initial_traffic
        )


class TestRequestValidation:
    def test_missing_weights(self):
        with pytest.raises(RequestError, match="weights"):
            EquilibriumRequest.from_payload({"capacities": [[1.0]]})

    def test_requires_exactly_one_spelling(self):
        base = {"weights": [1.0, 2.0]}
        with pytest.raises(RequestError, match="exactly one"):
            EquilibriumRequest.from_payload(base)
        with pytest.raises(RequestError, match="exactly one"):
            EquilibriumRequest.from_payload(
                {
                    **base,
                    "capacities": [[1.0, 1.0]] * 2,
                    "link_capacities": [1.0, 1.0],
                }
            )

    def test_states_without_beliefs(self):
        with pytest.raises(RequestError, match="beliefs"):
            EquilibriumRequest.from_payload(
                {"weights": [1.0, 2.0], "states": [[1.0, 2.0]]}
            )

    def test_beliefs_must_sum_to_one(self):
        with pytest.raises(RequestError, match="sum to 1"):
            EquilibriumRequest.from_payload(
                {
                    "weights": [1.0, 2.0],
                    "states": [[1.0, 2.0], [2.0, 1.0]],
                    "beliefs": [[0.9, 0.3], [0.5, 0.5]],
                }
            )

    def test_non_finite_rejected(self):
        with pytest.raises(RequestError, match="finite"):
            EquilibriumRequest.from_payload(
                {"weights": [1.0, float("inf")], "link_capacities": [1.0, 1.0]}
            )

    def test_wrong_dimensionality(self):
        with pytest.raises(RequestError, match="2-dimensional"):
            EquilibriumRequest.from_payload(
                {"weights": [1.0, 2.0], "capacities": [1.0, 1.0]}
            )

    def test_not_an_object(self):
        with pytest.raises(RequestError, match="JSON object"):
            EquilibriumRequest.from_payload([1, 2, 3])

    def test_profile_budget_enforced(self):
        n, m = 10, 4
        assert m**n > MAX_SERVICE_PROFILES
        with pytest.raises(RequestError, match="profiles"):
            EquilibriumRequest.from_arrays(np.ones(n), np.ones((n, m)))

    def test_model_invariants_forwarded(self):
        with pytest.raises(RequestError):
            EquilibriumRequest.from_arrays(
                np.array([1.0, -2.0]), np.ones((2, 2))
            )


class TestFromRequests:
    def test_groups_by_shape_in_first_appearance_order(self):
        requests = [
            _request("grp", 3, 3, 0),
            _request("grp", 2, 2, 1),
            _request("grp", 3, 3, 2),
        ]
        grouped = GameBatch.from_requests(requests)
        assert [indices for _, indices in grouped] == [[0, 2], [1]]
        first, _ = grouped[0]
        assert len(first) == 2
        assert np.array_equal(first.weights[1], requests[2].weights)
        assert np.array_equal(first.capacities[0], requests[0].capacities)

    def test_empty(self):
        assert GameBatch.from_requests([]) == []

    def test_rejects_non_matrix_capacities(self):
        bad = SimpleNamespace(
            weights=np.ones(2),
            capacities=np.ones(2),
            initial_traffic=np.zeros(2),
        )
        with pytest.raises(DimensionError, match="must be \\(n, m\\)"):
            GameBatch.from_requests([bad])


class TestSolveDifferential:
    """Service responses vs the direct B = 1 APIs, bit for bit."""

    @pytest.mark.parametrize(
        "n,m,index", [(2, 2, 0), (3, 3, 1), (4, 3, 2), (3, 4, 3), (2, 5, 4)]
    )
    def test_single_request_matches_direct_apis(self, n, m, index):
        request = _request("diff", n, m, index)
        _check_differential(request, solve_requests([request])[0])

    def test_uniform_beliefs_report_theorem_413(self):
        batch = GameBatch.from_seeds_uniform_beliefs(
            [stable_seed("svc-test", "u")], 3, 3
        )
        request = EquilibriumRequest.from_arrays(
            batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
        )
        response = solve_requests([request])[0]
        game = _game(request)
        assert game.has_uniform_beliefs()
        assert response["poa"]["bound_uniform"] == poa_bound_uniform(game)
        _check_differential(request, response)

    def test_kp_game_with_distinct_links_is_not_uniform(self):
        """Uniform beliefs = per-user constant across links; a random KP
        game has distinct link capacities, so Theorem 4.13 must NOT be
        reported for it."""
        batch = GameBatch.from_seeds_kp([stable_seed("svc-test", "kp")], 3, 3)
        request = EquilibriumRequest.from_arrays(
            batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
        )
        response = solve_requests([request])[0]
        assert not _game(request).has_uniform_beliefs()
        assert response["poa"]["bound_uniform"] is None
        _check_differential(request, response)

    def test_mixed_shape_batch_equals_singles(self):
        """The stacked mixed-shape pass vs one request at a time."""
        requests = [
            _request("mix", n, m, index)
            for index, (n, m) in enumerate(
                [(3, 3), (2, 2), (4, 3), (3, 3), (2, 5), (3, 4)]
            )
        ]
        combined = solve_requests(requests)
        singles = [solve_requests([request])[0] for request in requests]
        assert combined == singles
        for request, response in zip(requests, combined):
            _check_differential(request, response)


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: b becomes oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == stats["maxsize"] == 2

    def test_zero_size_disables(self):
        cache = ResultCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.stats()["size"] == 0


class TestDynamicBatcher:
    def test_invalid_knobs(self):
        with pytest.raises(ValueError, match="max_batch"):
            DynamicBatcher(max_batch=0)
        with pytest.raises(ValueError, match="max_delay_ms"):
            DynamicBatcher(max_delay_ms=-1.0)

    def test_size_flush_coalesces_concurrent_requests(self):
        requests = [_request("size", 3, 3, i) for i in range(4)]

        async def scenario():
            batcher = DynamicBatcher(max_batch=4, max_delay_ms=10_000.0)
            results = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            await batcher.close()
            return batcher, results

        batcher, results = asyncio.run(scenario())
        assert batcher.size_flushes == 1
        assert batcher.deadline_flushes == 0
        assert batcher.batches == 1
        assert batcher.batched_games == 4
        for request, response in zip(requests, results):
            _check_differential(request, response)

    def test_deadline_flush_releases_lone_request(self):
        request = _request("deadline", 2, 2)

        async def scenario():
            batcher = DynamicBatcher(max_batch=64, max_delay_ms=1.0)
            result = await batcher.submit(request)
            await batcher.close()
            return batcher, result

        batcher, result = asyncio.run(scenario())
        assert batcher.deadline_flushes == 1
        assert batcher.size_flushes == 0
        _check_differential(request, result)

    def test_default_solves_a_lone_request_at_once(self):
        """Under the defaults a lone request reaches the solver within a
        few event-loop passes, counted by a callback that reschedules
        itself once per pass; a timed window would let it spin for as
        many passes as fit in the window."""
        request = _request("idle", 2, 2)

        async def scenario():
            loop = asyncio.get_running_loop()
            passes = [0]

            def tick():
                passes[0] += 1
                loop.call_soon(tick)

            solved_at = []

            def solver(window):
                solved_at.append(passes[0])
                return solve_requests(window)

            loop.call_soon(tick)
            await asyncio.sleep(0)
            batcher = DynamicBatcher(solver)
            submitted_at = passes[0]
            result = await batcher.submit(request)
            await batcher.close()
            return batcher, result, solved_at[0] - submitted_at

        batcher, result, passes = asyncio.run(scenario())
        assert batcher.max_delay_ms == DEFAULT_MAX_DELAY_MS == 0.0
        assert passes <= 3
        assert batcher.deadline_flushes == 1
        assert batcher.size_flushes == 0
        _check_differential(request, result)

    def test_default_still_batches_what_arrives_together(self):
        requests = [_request("together", 3, 3, i) for i in range(5)]

        async def scenario():
            batcher = DynamicBatcher()
            results = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            await batcher.close()
            return batcher, results

        batcher, results = asyncio.run(scenario())
        assert batcher.batches == 1
        assert batcher.batched_games == 5
        for request, response in zip(requests, results):
            _check_differential(request, response)

    def test_explicit_delay_holds_the_window_open(self):
        request = _request("held", 2, 2)
        solved = []

        def solver(window):
            solved.append(len(window))
            return solve_requests(window)

        async def scenario():
            batcher = DynamicBatcher(solver, max_delay_ms=10_000.0)
            waiter = asyncio.ensure_future(batcher.submit(request))
            for _ in range(100):
                await asyncio.sleep(0)
            held = (list(solved), batcher.stats()["pending"])
            await batcher.close()
            return held, await waiter

        (solved_while_held, pending), result = asyncio.run(scenario())
        assert solved_while_held == []
        assert pending == 1
        assert solved == [1]
        _check_differential(request, result)

    def test_duplicate_digests_ride_along(self):
        request = _request("dup", 3, 3)

        async def scenario():
            batcher = DynamicBatcher(max_batch=8, max_delay_ms=1.0)
            first, second = await asyncio.gather(
                batcher.submit(request), batcher.submit(request)
            )
            await batcher.close()
            return batcher, first, second

        batcher, first, second = asyncio.run(scenario())
        assert batcher.coalesced == 1
        assert batcher.batched_games == 1  # the duplicate never enqueued
        assert first == second
        _check_differential(request, first)

    def test_cache_hits_bypass_the_window(self):
        request = _request("cache", 3, 3)

        async def scenario():
            cache = ResultCache(8)
            batcher = DynamicBatcher(
                max_batch=8, max_delay_ms=1.0, cache=cache
            )
            first = await batcher.submit(request)
            second = await batcher.submit(request)
            await batcher.close()
            return batcher, first, second

        batcher, first, second = asyncio.run(scenario())
        assert second is first  # the cached object itself
        assert batcher.batches == 1
        assert batcher.stats()["cache"]["hits"] == 1
        _check_differential(request, first)

    def test_solver_failure_reaches_every_waiter(self):
        requests = [_request("boom", 2, 2, i) for i in range(2)]

        def exploding_solver(window):
            raise RuntimeError("kernel exploded")

        async def scenario():
            batcher = DynamicBatcher(
                exploding_solver, max_batch=2, max_delay_ms=10_000.0
            )
            results = await asyncio.gather(
                *(batcher.submit(request) for request in requests),
                return_exceptions=True,
            )
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 2
        assert all(
            isinstance(r, RuntimeError) and "kernel exploded" in str(r)
            for r in results
        )

    def test_closed_batcher_rejects_submits(self):
        async def scenario():
            batcher = DynamicBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(_request("closed", 2, 2))

        asyncio.run(scenario())


async def _with_server(fn, **kwargs):
    server = EquilibriumServer(port=0, **kwargs)
    await server.start()
    try:
        return await fn(server)
    finally:
        await server.close()


class TestEquilibriumServer:
    def test_mixed_shape_concurrent_load_is_bit_identical(self):
        """The acceptance gate: a pipelined mixed-shape burst over the
        real asyncio server, every answer (cache-hit wave included)
        bit-identical to the direct B = 1 APIs."""
        requests = [
            _request("srv", n, m, index)
            for index, (n, m) in enumerate(
                [(3, 3), (2, 2), (3, 4), (3, 3), (2, 5)]
            )
        ]
        payloads = [_payload(request) for request in requests]

        async def scenario(server):
            client = await ServiceClient.connect(server.host, server.port)
            try:
                burst = await client.solve_many(payloads)
                cached = await client.solve_many(payloads)
                stats = await client.stats()
            finally:
                await client.close()
            return burst, cached, stats

        burst, cached, stats = asyncio.run(_with_server(scenario))
        assert cached == burst
        assert stats["cache"]["hits"] >= len(payloads)
        assert stats["batched_games"] == len(payloads)
        for request, response in zip(requests, burst):
            _check_differential(request, response)

    def test_pipelined_lines_batch_under_the_defaults(self):
        """K solve lines sent in one write are answered in fewer than K
        batches: the first line opens a window, and the lines read with
        it in the same pass land in it (the property CI's service-smoke
        job gates on)."""
        requests = [_request("pipe", 3, 3, index) for index in range(24)]
        lines = b"".join(
            canonical_dumps({"op": "solve", "id": index, **_payload(request)})
            .encode("utf-8") + b"\n"
            for index, request in enumerate(requests)
        )

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(lines)
                await writer.drain()
                replies = [
                    canonical_loads((await reader.readline()).decode("utf-8"))
                    for _ in requests
                ]
            finally:
                writer.close()
                await writer.wait_closed()
            return replies, server.stats()

        replies, stats = asyncio.run(_with_server(scenario))
        assert stats["batched_games"] == len(requests)
        assert stats["batches"] < len(requests)
        by_id = {reply["id"]: reply["result"] for reply in replies}
        for index, request in enumerate(requests):
            _check_differential(request, by_id[index])

    def test_protocol_errors_do_not_kill_the_connection(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                lines = [
                    b"this is not json\n",
                    b"[1, 2, 3]\n",
                    b'{"op": "launch-missiles"}\n',
                    b'{"op": "solve", "weights": [1.0, 2.0]}\n',
                    b'{"op": "ping"}\n',
                ]
                replies = []
                for line in lines:
                    writer.write(line)
                    await writer.drain()
                    replies.append(await reader.readline())
                return [r.decode("utf-8") for r in replies]
            finally:
                writer.close()
                await writer.wait_closed()

        replies = asyncio.run(_with_server(scenario))
        assert '"ok": false' in replies[0] and "invalid JSON" in replies[0]
        assert "JSON object" in replies[1]
        assert "unknown op" in replies[2]
        assert "exactly one" in replies[3]
        assert '"pong": true' in replies[4]

    def test_lines_past_asyncio_default_limit_are_served(self):
        """Lines longer than asyncio's 64 KiB default limit (a wide
        fixpoint game is ~181 KB) pass both ways: the server echoes the
        ``id``, so one padded ping is a long request and a long reply."""
        pad = "x" * 100_000

        async def scenario(server):
            client = await ServiceClient.connect(server.host, server.port)
            try:
                return await client.request({"op": "ping", "id": pad})
            finally:
                await client.close()

        reply = asyncio.run(_with_server(scenario))
        assert reply == {"id": pad, "ok": True, "pong": True}

    def test_over_limit_line_gets_one_error_and_connection_survives(
        self, monkeypatch
    ):
        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 1024)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(b'{"op": "ping", "pad": "' + b"x" * 50_000 + b'"}\n')
                writer.write(b'{"op": "ping", "id": 2}\n')
                await writer.drain()
                return [(await reader.readline()).decode() for _ in range(2)]
            finally:
                writer.close()
                await writer.wait_closed()

        error, pong = asyncio.run(_with_server(scenario))
        assert '"ok": false' in error and "exceeds 1024 bytes" in error
        # The rest of the long line was discarded, not read as a request.
        assert '"id": 2' in pong and '"pong": true' in pong

    def test_shutdown_op_stops_the_server(self):
        async def scenario():
            server = EquilibriumServer(port=0)
            await server.start()
            waiter = asyncio.ensure_future(server.serve_until_shutdown())
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.shutdown()
            finally:
                await client.close()
            await asyncio.wait_for(waiter, timeout=10.0)

        asyncio.run(scenario())


class TestServeCLIRoundTrip:
    """The CI service-smoke job, in miniature: real subprocesses."""

    def test_serve_and_smoke_subprocesses(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=root,
            env=env,
        )
        try:
            ready = server.stdout.readline()
            match = re.search(r"serving equilibria on [^:]+:(\d+)", ready)
            assert match, f"no readiness line, got: {ready!r}"
            port = match.group(1)
            smoke = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.service.smoke",
                    "--port",
                    port,
                    "--games",
                    "9",
                ],
                capture_output=True,
                text=True,
                cwd=root,
                env=env,
                timeout=120,
            )
            assert smoke.returncode == 0, smoke.stdout + smoke.stderr
            assert "smoke ok" in smoke.stdout
            # The smoke driver's shutdown op must stop the server cleanly.
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
