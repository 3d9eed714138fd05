"""Tests for the backend's provenance name (``repro.batch.backend``).

NumPy is the only array backend, and its name is provenance: store
records and the service's ``info`` and ``stats`` replies carry
``"numpy"``, and a resume refuses a record that names another backend.
The selection knobs are gone: the CLI has no ``--backend`` flag, and
the environment variable that once chose a backend is ignored.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch.backend import get_backend
from repro.cli import build_parser, main
from repro.errors import BackendError
from repro.generators.suites import GridCell
from repro.runtime import SweepSpec, run_sweep
from repro.runtime.store import ResultStore


class TestResolution:
    def test_default_is_numpy(self):
        assert get_backend().name == "numpy"


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


def _rename_backend(path: Path, name: str) -> None:
    """Rewrite every record of the store at *path* to name *name*."""
    rewritten = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record["backend"] = name
        rewritten.append(json.dumps(record))
    path.write_text("\n".join(rewritten) + "\n")


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
        """A store whose records name another backend (an older
        version's numba) must not be resumed."""
        path = tmp_path / "store.jsonl"
        run_sweep(_provenance_spec(), batch_size=2, store=path)
        _rename_backend(path, "numba")
        with pytest.raises(BackendError) as excinfo:
            run_sweep(
                _provenance_spec(), batch_size=2, store=path, resume=True
            )
        message = str(excinfo.value)
        assert "computed under backend 'numba'" in message
        assert "start a fresh store" in message
        assert "--backend" not in message

    def test_cli_resume_refuses_backend_mismatch_in_one_line(
        self, tmp_path, capsys
    ):
        path = tmp_path / "store.jsonl"
        assert main(["run", "E8", "--quick", "--store", str(path)]) == 0
        _rename_backend(path, "numba")
        # Unterminated, so a resume that healed the tail would write.
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        refused = path.read_bytes()
        capsys.readouterr()
        assert main(
            ["run", "E8", "--quick", "--store", str(path), "--resume"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"run: cannot resume from {path}: chunk ")
        assert "computed under backend 'numba', not 'numpy'" in err
        assert err.count("\n") == 1
        assert path.read_bytes() == refused

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

    def test_resume_accepts_legacy_records_without_backend(self, tmp_path):
        """Pre-provenance stores (no ``backend`` field) were all NumPy
        and must keep resuming."""
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
    def test_info_and_stats_name_numpy(self):
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
        assert info == {"backend": "numpy"}
        assert stats["backend"] == "numpy"


# ---------------------------------------------------------------------- #
# the removed knobs
# ---------------------------------------------------------------------- #


class TestRemovedKnobs:
    @pytest.mark.parametrize("value", ["bogus", "numba"])
    def test_backend_environment_variable_is_ignored(self, value, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            "REPRO_BACKEND": value,
        }
        path = tmp_path / "store.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "E5", "--quick",
             "--store", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        backends = {
            json.loads(line)["backend"] for line in path.read_text().splitlines()
        }
        assert backends == {"numpy"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "E8", "--quick", "--backend", "numpy"],
            ["report", "--quick", "--backend", "numpy"],
            ["serve", "--port", "0", "--backend", "numpy"],
        ],
    )
    def test_backend_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend numpy" in (
            capsys.readouterr().err
        )
