"""Tests for the array-backend seam (``repro.batch.backend``).

Covers resolution (unknown names list the choices, env-var vs
explicit-selection precedence), the fixed two-entry backend map and
its availability report, backend provenance in the result store and
the service ``info`` op, the CLI ``--backend`` flag, and — where numba
is installed — tolerance-based differential tests certifying the numba
JIT backend against the NumPy reference, including a hypothesis
property test that the nashification and dynamics steppers agree with
the reference trajectory state for state. On hosts without numba that
class skips with a visible reason instead of failing.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import backend as backend_module
from repro.batch.backend import (
    ENV_VAR,
    FUSED_HOOKS,
    ArrayBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.batch.container import GameBatch
from repro.batch.dynamics import batch_best_response_dynamics
from repro.batch.fixpoint import batch_fixpoint_mixed_nash
from repro.batch.kernels import (
    batch_count_pure_nash,
    batch_exists_pure_nash,
    batch_loads,
)
from repro.batch.pure import (
    batch_nashify_common_beliefs,
    batch_response_cycle_census,
)
from repro.errors import BackendError
from repro.generators.suites import GridCell
from repro.runtime import SweepSpec, run_sweep
from repro.runtime.store import ResultStore

NUMBA_AVAILABLE = available_backends()["numba"]
needs_numba = pytest.mark.skipif(
    not NUMBA_AVAILABLE,
    reason="numba not installed — JIT backend unavailable "
    "(pip install 'repro-network-uncertainty[jit]')",
)


@pytest.fixture(autouse=True)
def _pristine_backend_state(monkeypatch):
    """Every test starts and ends on default resolution (no explicit
    selection, no env var)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_backend(None)
    yield
    set_backend(None)
    # ``main --backend`` exports the env var; monkeypatch only restores
    # what it touched, so drop any value a test left behind.
    os.environ.pop(ENV_VAR, None)


# ---------------------------------------------------------------------- #
# resolution precedence
# ---------------------------------------------------------------------- #


class TestResolution:
    """An unknown name in :data:`ENV_VAR` makes resolution observable
    without a second working backend: consulting the variable raises."""

    def test_default_is_numpy(self):
        backend = get_backend()
        assert backend.name == "numpy"
        assert type(backend) is ArrayBackend

    def test_unknown_name_lists_registered_choices(self):
        with pytest.raises(BackendError) as excinfo:
            get_backend("fortran77")
        message = str(excinfo.value)
        assert "unknown array backend 'fortran77'" in message
        for name in ("numpy", "numba"):
            assert name in message

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(BackendError, match="unknown array backend 'bogus'"):
            get_backend()

    def test_explicit_selection_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        set_backend("numpy")
        assert get_backend().name == "numpy"
        # Clearing the explicit choice returns resolution to the env var.
        set_backend(None)
        with pytest.raises(BackendError, match="'bogus'"):
            get_backend()

    def test_set_backend_fails_eagerly_and_keeps_selection(self):
        with pytest.raises(BackendError, match="unknown array backend"):
            set_backend("not-a-backend")
        assert get_backend().name == "numpy"

    def test_use_backend_restores_previous_selection(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        set_backend("numpy")
        with use_backend("numpy") as backend:
            assert backend.name == "numpy"
            assert get_backend().name == "numpy"
        # The explicit selection came back; clearing it would consult
        # the env var and raise.
        assert get_backend().name == "numpy"
        set_backend(None)
        with use_backend("numpy"):
            assert get_backend().name == "numpy"
        # No selection before the block, none after it: env var again.
        with pytest.raises(BackendError, match="'bogus'"):
            get_backend()

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_missing_numba_names_the_jit_extra(self, monkeypatch):
        # A ``None`` entry in sys.modules makes the import fail exactly
        # like a host without the package.
        monkeypatch.setitem(sys.modules, "repro.batch._numba_backend", None)
        with pytest.raises(BackendError, match=r"\[jit\]"):
            backend_module._numba_factory()


# ---------------------------------------------------------------------- #
# the fixed backend map
# ---------------------------------------------------------------------- #


class TestRegistry:
    def test_optional_backends_always_reported(self):
        status = available_backends()
        assert set(status) == {"numpy", "numba"}
        assert status["numpy"] is True

    def test_probe_controls_availability(self, monkeypatch):
        """numba's availability is its import probe, ``find_spec``."""
        for spec, expected in ((None, False), (object(), True)):
            monkeypatch.setattr(
                importlib.util, "find_spec", lambda name, spec=spec: spec
            )
            assert available_backends()["numba"] is expected

    def test_fused_hooks_default_to_generic_path(self):
        backend = get_backend("numpy")
        for hook in FUSED_HOOKS:
            assert getattr(backend, hook) is None


# ---------------------------------------------------------------------- #
# store provenance and resume guard
# ---------------------------------------------------------------------- #


def _echo_kernel(chunk):
    return {"n": chunk.num_users, "lo": chunk.rep_lo}


def _provenance_spec() -> SweepSpec:
    return SweepSpec(
        experiment="BK",
        label="bk-prov",
        cells=(GridCell(2, 2, 4),),
        kernel=_echo_kernel,
    )


class TestStoreProvenance:
    def test_chunk_records_carry_backend_name(self, tmp_path):
        path = tmp_path / "store.jsonl"
        run_sweep(_provenance_spec(), batch_size=2, store=path)
        records = ResultStore(path).load_records()
        assert len(records) == 2
        for record in records.values():
            assert record["backend"] == "numpy"
            assert record["payload"]["n"] == 2

    def test_resume_rejects_backend_mismatch(self, tmp_path):
        """A store whose records name another backend (rewritten here,
        so the test needs no numba) must not be resumed under numpy."""
        path = tmp_path / "store.jsonl"
        run_sweep(_provenance_spec(), batch_size=2, store=path)
        rewritten = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record["backend"] = "numba"
            rewritten.append(json.dumps(record))
        path.write_text("\n".join(rewritten) + "\n")
        with pytest.raises(BackendError) as excinfo:
            run_sweep(
                _provenance_spec(), batch_size=2, store=path, resume=True
            )
        message = str(excinfo.value)
        assert "computed under backend 'numba'" in message
        assert "--backend numba" in message

    @staticmethod
    def _write_then_resume(path):
        run_sweep(_provenance_spec(), batch_size=2, store=path)
        return run_sweep(
            _provenance_spec(), batch_size=2, store=path, resume=True
        )

    def test_resume_matching_backend_skips_chunks(self, tmp_path):
        resumed = self._write_then_resume(tmp_path / "store.jsonl")
        assert resumed.resumed_chunks == 2
        assert resumed.computed_chunks == 0

    @needs_numba
    def test_numba_store_resumes_under_numba(self, tmp_path):
        """A store written under a non-default backend resumes under it."""
        path = tmp_path / "store.jsonl"
        with use_backend("numba"):
            resumed = self._write_then_resume(path)
        assert resumed.resumed_chunks == 2
        assert resumed.computed_chunks == 0
        for record in ResultStore(path).load_records().values():
            assert record["backend"] == "numba"

    def test_resume_accepts_legacy_records_without_backend(self, tmp_path):
        """Pre-provenance stores (no ``backend`` field) were all NumPy
        and must keep resuming under any backend name."""
        path = tmp_path / "store.jsonl"
        fresh = run_sweep(_provenance_spec(), batch_size=2, store=path)
        stripped = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("backend")
            stripped.append(json.dumps(record))
        path.write_text("\n".join(stripped) + "\n")
        resumed = run_sweep(
            _provenance_spec(), batch_size=2, store=path, resume=True
        )
        assert resumed.resumed_chunks == 2
        assert resumed.chunk_payloads == fresh.chunk_payloads


# ---------------------------------------------------------------------- #
# service info op
# ---------------------------------------------------------------------- #


class TestServiceInfo:
    def test_info_reports_backend_and_host_offerings(self):
        import asyncio

        from repro.service.client import ServiceClient
        from repro.service.server import EquilibriumServer

        async def scenario():
            server = EquilibriumServer(port=0)
            await server.start()
            try:
                client = await ServiceClient.connect(port=server.port)
                try:
                    return await client.info(), await client.stats()
                finally:
                    await client.close()
            finally:
                await server.close()

        info, stats = asyncio.run(scenario())
        assert info["backend"] == "numpy"
        assert info["backends"] == available_backends()
        assert stats["backend"] == "numpy"


# ---------------------------------------------------------------------- #
# CLI flag
# ---------------------------------------------------------------------- #


class TestCliBackendFlag:
    def test_unknown_backend_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "E8", "--quick", "--backend", "bogus"])
        err = capsys.readouterr().err
        assert "unknown array backend 'bogus'" in err
        assert "numpy" in err

    def test_backend_flag_selects_and_exports(self, capsys):
        from repro.cli import main

        assert main(["run", "E8", "--quick", "--backend", "numpy"]) == 0
        # Explicit selection for this process, env export for workers.
        assert get_backend().name == "numpy"
        assert os.environ.get(ENV_VAR) == "numpy"
        assert "PASS" in capsys.readouterr().out

    def test_serve_parser_accepts_backend(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--backend", "numpy"]
        )
        assert args.backend == "numpy"


# ---------------------------------------------------------------------- #
# NumPy-vs-JIT differential certification (skips without numba)
# ---------------------------------------------------------------------- #


@st.composite
def small_games(draw):
    """A small random batch: shape plus seeds for the generators."""
    b = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return b, n, m, seed


def _random_start(b: int, n: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, m, size=(b, n)).astype(np.intp)


@needs_numba
class TestNumbaDifferential:
    """Tolerance-gated certification of the JIT backend.

    The numba hooks promise the generic path's *verdicts* (and, for the
    steppers, its per-game trajectories); these tests compare both
    backends on the same random games. They run wherever the ``[jit]``
    extra is installed (the CI ``backend-parity`` job) and skip with a
    visible reason elsewhere.
    """

    def test_numba_backend_implements_every_hook(self):
        backend = get_backend("numba")
        assert backend.name == "numba"
        for hook in FUSED_HOOKS:
            assert callable(getattr(backend, hook))

    @settings(max_examples=25, deadline=None)
    @given(small_games())
    def test_loads_and_census_agree(self, shape):
        b, n, m, seed = shape
        batch = GameBatch.from_seeds(
            [seed + i for i in range(b)], n, m, with_initial_traffic=True
        )
        sigma = _random_start(b, n, m, seed)

        def snapshot():
            return (
                batch_loads(sigma, batch.weights, m, batch.initial_traffic),
                batch_count_pure_nash(batch),
                batch_exists_pure_nash(batch),
            )

        reference = snapshot()
        with use_backend("numba"):
            jit = snapshot()
        np.testing.assert_allclose(jit[0], reference[0], rtol=1e-12)
        np.testing.assert_array_equal(jit[1], reference[1])
        np.testing.assert_array_equal(jit[2], reference[2])

    @settings(max_examples=15, deadline=None)
    @given(small_games())
    def test_response_cycle_census_agrees(self, shape):
        b, n, m, seed = shape
        batch = GameBatch.from_seeds([seed + i for i in range(b)], n, m)
        for kind in ("best", "better"):
            reference = batch_response_cycle_census(batch, kind=kind)
            with use_backend("numba"):
                jit = batch_response_cycle_census(batch, kind=kind)
            np.testing.assert_array_equal(jit, reference)

    @settings(max_examples=15, deadline=None)
    @given(small_games())
    def test_dynamics_traces_agree_state_for_state(self, shape):
        """Best-response dynamics: identical per-game trajectories.

        ``max_steps=k`` truncates the stepper after ``k`` per-game
        moves, so comparing the truncated runs for every ``k`` up to
        the reference's own step count pins the whole trajectory, not
        just the endpoint."""
        b, n, m, seed = shape
        batch = GameBatch.from_seeds([seed + i for i in range(b)], n, m)
        start = _random_start(b, n, m, seed)
        reference = batch_best_response_dynamics(batch, start, max_steps=200)
        horizon = int(reference.steps.max()) + 1
        for k in range(1, min(horizon, 12) + 1):
            ref_k = batch_best_response_dynamics(batch, start, max_steps=k)
            with use_backend("numba"):
                jit_k = batch_best_response_dynamics(batch, start, max_steps=k)
            np.testing.assert_array_equal(jit_k.profiles, ref_k.profiles)
            np.testing.assert_array_equal(jit_k.converged, ref_k.converged)
            np.testing.assert_array_equal(jit_k.steps, ref_k.steps)
            np.testing.assert_array_equal(jit_k.cycled, ref_k.cycled)

    @settings(max_examples=15, deadline=None)
    @given(small_games())
    def test_fixpoint_traces_agree_state_for_state(self, shape):
        """Fixed-point solver: the fused hook replays the generic
        trajectory bit for bit.

        ``max_rounds=k`` truncates the iteration after ``k`` rounds, so
        equality of the full result tuple at every budget pins each
        intermediate probability tensor, residual and mask — not just
        the converged endpoint."""
        b, n, m, seed = shape
        batch = GameBatch.from_seeds(
            [seed + i for i in range(b)], n, m, with_initial_traffic=True
        )

        def solve(budget):
            return batch_fixpoint_mixed_nash(
                batch.weights,
                batch.capacities,
                batch.initial_traffic,
                max_rounds=budget,
            )

        for budget in (0, 1, 2, 7, 40, 4000):
            reference = solve(budget)
            with use_backend("numba"):
                jit = solve(budget)
            np.testing.assert_array_equal(
                jit.probabilities, reference.probabilities
            )
            np.testing.assert_array_equal(jit.rounds, reference.rounds)
            np.testing.assert_array_equal(jit.residuals, reference.residuals)
            np.testing.assert_array_equal(jit.converged, reference.converged)
            np.testing.assert_array_equal(jit.stalled, reference.stalled)
            np.testing.assert_array_equal(jit.certified, reference.certified)

    @settings(max_examples=10, deadline=None)
    @given(small_games())
    def test_fixpoint_stall_path_agrees(self, shape):
        """The stall detector's bookkeeping (best/since counters) must
        match across backends too — a tight window forces it to fire."""
        b, n, m, seed = shape
        batch = GameBatch.from_seeds([seed + i for i in range(b)], n, m)

        def solve():
            return batch_fixpoint_mixed_nash(
                batch.weights,
                batch.capacities,
                batch.initial_traffic,
                stall_rounds=5,
            )

        reference = solve()
        with use_backend("numba"):
            jit = solve()
        np.testing.assert_array_equal(jit.stalled, reference.stalled)
        np.testing.assert_array_equal(jit.rounds, reference.rounds)
        np.testing.assert_array_equal(
            jit.probabilities, reference.probabilities
        )

    @settings(max_examples=15, deadline=None)
    @given(small_games())
    def test_nashify_traces_agree_state_for_state(self, shape):
        """Common-beliefs nashification: the JIT stepper walks the
        reference trajectory.

        Endpoint equality alone would accept a stepper that reaches the
        same equilibrium by different moves. Instead, every truncated
        JIT state (the fused hook after ``k`` moves) is handed back to
        the *reference* stepper, which must finish in exactly the
        remaining ``steps - k`` moves at the reference equilibrium —
        i.e. each intermediate JIT state lies on the reference
        trajectory at position ``k``."""
        b, n, m, seed = shape
        batch = GameBatch.from_seeds_kp([seed + i for i in range(b)], n, m)
        start = _random_start(b, n, m, seed)

        reference = batch_nashify_common_beliefs(batch, start)
        with use_backend("numba"):
            jit = batch_nashify_common_beliefs(batch, start)
        np.testing.assert_array_equal(jit.profiles, reference.profiles)
        np.testing.assert_array_equal(jit.steps, reference.steps)
        for name in (
            "sc1_before", "sc1_after", "sc2_before", "sc2_after",
            "max_congestion_before", "max_congestion_after",
        ):
            np.testing.assert_allclose(
                getattr(jit, name), getattr(reference, name), rtol=1e-12
            )

        hook = get_backend("numba").nashify_common_loop
        caps_row = batch.capacities[:, 0, :]
        for k in range(1, int(reference.steps.max()) + 1):
            partial, steps_k, _converged = hook(
                start.copy(),
                batch.weights,
                batch.capacities,
                caps_row,
                batch.initial_traffic,
                k,
            )
            np.testing.assert_array_equal(
                steps_k, np.minimum(reference.steps, k)
            )
            rest = batch_nashify_common_beliefs(batch, partial)
            np.testing.assert_array_equal(rest.profiles, reference.profiles)
            np.testing.assert_array_equal(
                rest.steps, np.maximum(reference.steps - k, 0)
            )

    def test_dynamics_hook_declines_huge_radix(self):
        """Cycle detection needs ``m**n`` profile codes in int64; past
        that the hook must decline so the generic path runs."""
        backend = get_backend("numba")
        b, n, m = 1, 41, 3  # 3**41 > 2**63
        sigma = np.zeros((b, n), dtype=np.intp)
        weights = np.ones((b, n))
        capacities = np.ones((b, n, m))
        traffic = np.zeros((b, m))
        declined = backend.dynamics_loop(
            sigma, weights, capacities, traffic, True, False, 5, 1e-9
        )
        assert declined is None
