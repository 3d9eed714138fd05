"""Tests for the experiment registry, quick runners and the CLI."""

from __future__ import annotations

import json
import socket

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import (
    EXPERIMENTS,
    UNIVERSAL_OPTIONS,
    get_experiment,
    get_experiment_specs,
    run_experiment,
)
from repro.cli import build_parser, expand_ids, main
from repro.runtime import SweepSpec
from repro.util.tables import Table


class TestRegistry:
    def test_all_thirteen_registered(self):
        assert list(EXPERIMENTS) == [f"E{i}" for i in range(1, 14)]

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("e5") is EXPERIMENTS["E5"][1]

    def test_unknown_raises_with_guidance(self):
        with pytest.raises(KeyError, match="valid ids"):
            get_experiment("E99")

    @pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
    def test_every_entry_carries_specs(self, experiment_id):
        """The registry's sweep metadata: every experiment declares at
        least one spec whose kernel is a picklable module-level
        callable and whose experiment id matches the registry key."""
        for quick in (True, False):
            specs = get_experiment_specs(experiment_id, quick=quick)
            assert specs, experiment_id
            for spec in specs:
                assert isinstance(spec, SweepSpec)
                assert spec.experiment == experiment_id
                assert spec.cells
                assert spec.total_replications > 0
                # Picklability contract for the process-pool fan-out.
                import pickle

                pickle.loads(pickle.dumps(spec.kernel))

    def test_distinct_labels_within_an_experiment(self):
        """Multi-spec experiments must not share seed labels (store
        keys and streams would collide)."""
        for experiment_id in EXPERIMENTS:
            labels = [
                s.label for s in get_experiment_specs(experiment_id, quick=True)
            ]
            assert len(labels) == len(set(labels))


class TestRunExperimentOptions:
    def test_universal_options_filtered_per_signature(self):
        result = run_experiment("E8", quick=True, jobs=1, batch_size=7)
        assert result.passed

    def test_unknown_option_raises(self):
        """The silent-drop bug: a misspelled option must raise, not
        masquerade as a successful run."""
        with pytest.raises(TypeError, match="unknown option"):
            run_experiment("E8", quick=True, batchsize=3)

    def test_unknown_option_message_names_the_option(self):
        with pytest.raises(TypeError, match="replications"):
            run_experiment("e5", quick=True, replications=9)

    def test_universal_options_stay_universal(self):
        assert UNIVERSAL_OPTIONS == {
            "jobs", "batch_size", "seed", "store", "resume",
        }


class TestQuickRunners:
    """Every experiment must run and pass in quick mode. These are the
    reproduction's integration tests: a failure here means a paper claim
    no longer holds in the implementation."""

    @pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
    def test_quick_run_passes(self, experiment_id):
        result = run_experiment(experiment_id, quick=True)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.passed, result.render()
        assert result.tables
        for table in result.tables:
            assert isinstance(table, Table)

    def test_render_contains_verdict(self):
        result = run_experiment("E8", quick=True)
        assert "PASS" in result.render()


#: Answers two requests through a ``serve`` started by ``main``, then
#: prints the ``repro`` and ``numpy`` modules loaded when the readiness
#: line was printed, and those loaded after it.
SERVE_SCRIPT = """
import builtins, json, socket, sys, threading
from repro.cli import main

def ours():
    return {m for m in sys.modules if m.partition(".")[0] in ("repro", "numpy")}

seen, ready, real_print = {}, threading.Event(), builtins.print

def spy(*args, **kwargs):
    real_print(*args, **kwargs)
    if args and str(args[0]).startswith("serving equilibria on "):
        seen["modules"] = ours()
        seen["port"] = int(str(args[0]).split()[3].rpartition(":")[2])
        ready.set()

def client():
    assert ready.wait(60)
    game = '"weights": [1.0, 2.0], "capacities": [[1.0, 2.0], [2.0, 1.0]]'
    with socket.create_connection(("127.0.0.1", seen["port"]), timeout=60) as sock:
        replies = sock.makefile("rb")
        for op in ("solve", "fixpoint", "shutdown"):
            sock.sendall(('{"op": "%s", "id": 1, %s}\\n' % (op, game)).encode())
            seen.setdefault("replies", []).append(json.loads(replies.readline()))

builtins.print = spy
thread = threading.Thread(target=client, daemon=True)
thread.start()
assert main(["serve", "--port", "0"]) == 0
thread.join(60)
assert not thread.is_alive()
builtins.print = real_print
print(json.dumps({
    "ready": sorted(seen["modules"]),
    "later": sorted(ours() - seen["modules"]),
    "ok": [reply["ok"] for reply in seen["replies"]],
}))
"""


class TestRuntimeImports:
    def test_e6_imports_only_declared_dependencies(self, fresh_python):
        """The runtime loads no third-party distribution but numpy: not
        the CLI (what ``serve`` loads), not E4's and E6's game graphs and
        cycle searches (once a graph library), not E6's ordinal potential
        (once scipy, for ``log k!``), not the Milchtaich search, and no
        optional array library. Checked in a fresh interpreter, because
        this process has imported more."""
        script = (
            "import sys\n"
            "from importlib.metadata import packages_distributions\n"
            "before = {name.partition('.')[0] for name in sys.modules}\n"
            "import repro.cli\n"
            "from repro.experiments.registry import run_experiment\n"
            "from repro.substrates import search_no_pne_instance\n"
            "assert run_experiment('E4', quick=True).passed\n"
            "assert run_experiment('E6', quick=True).passed\n"
            "assert search_no_pne_instance(seed=2).verify()\n"
            "after = {name.partition('.')[0] for name in sys.modules}\n"
            "owners = packages_distributions()\n"
            "new = after - before - {'repro'}\n"
            "print(' '.join(sorted({d for t in new for d in owners.get(t, ())})))\n"
        )
        loaded = set(fresh_python(script).split())
        assert loaded <= {"numpy"}

    def test_serve_loads_the_service_and_its_kernels_only(self, fresh_python):
        """``serve`` loads no experiment, no single-game view and no
        analysis: only the service, the batch kernels it calls and the
        store's codecs. It loads all of them, NumPy included, before it
        prints its readiness line, so a request pays no import."""
        result = json.loads(fresh_python(SERVE_SCRIPT).splitlines()[-1])
        assert result["ok"] == [True, True, True]
        ready = set(result["ready"])
        for prefix in ("experiments", "equilibria", "analysis", "model"):
            assert not {m for m in ready if m.startswith(f"repro.{prefix}")}
        assert {
            "numpy",
            "repro.batch.fixpoint",
            "repro.batch.poa",
            "repro.batch.pure",
            "repro.service.query",
        } <= ready
        assert len({m for m in ready if m.startswith("repro")}) <= 25
        assert result["later"] == []

    @pytest.mark.parametrize("command", ["import", "digest", "merge"])
    def test_store_commands_load_no_numpy(self, command, tmp_path, fresh_python):
        """``import repro`` loads no subpackage; ``digest`` and ``merge``
        read and write stores with the stdlib alone."""
        record = (
            '{"experiment": "RT", "label": "x", "m": 2, "n": 2, '
            '"payload": 1, "rep_hi": 4, "rep_lo": 0}\n'
        )
        (tmp_path / "s.shard-0.jsonl").write_text(record)
        argv = {
            "import": None,
            "digest": ["digest", str(tmp_path / "s.shard-0.jsonl")],
            "merge": ["merge", "--store", str(tmp_path / "s.jsonl")],
        }[command]
        script = (
            "import sys\n"
            "import repro\n"
            + ("" if argv is None else
               f"from repro.cli import main\nassert main({argv!r}) == 0\n")
            + "print(sorted(m for m in sys.modules if m.startswith(('repro', 'numpy'))))\n"
        )
        loaded = fresh_python(script).splitlines()[-1]
        assert "numpy" not in loaded
        if argv is None:
            assert loaded == "['repro', 'repro._lazy']"

    def test_list_loads_no_numpy_and_no_runner(self, fresh_python):
        """``list`` prints the registry's ids and titles from the titles
        module alone: no NumPy, no registry, no runner."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['list']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith(('repro', 'numpy'))))\n"
        )
        lines = fresh_python(script).splitlines()
        assert lines[-1] == (
            "['repro', 'repro._lazy', 'repro.cli', 'repro.errors', "
            "'repro.experiments', 'repro.experiments.titles']"
        )
        assert lines[:-1] == [
            f"{key.ljust(3)}  {entry.title}" for key, entry in EXPERIMENTS.items()
        ]

    def test_campaign_runs_import_nothing(self, tmp_path, fresh_python):
        """Importing the registry loads every runner and what it calls,
        so a campaign's timed runs (perfbench's ``campaign`` workload
        starts each clock after that import) import no module."""
        script = (
            "import sys\n"
            "from repro.experiments.registry import run_experiment\n"
            "before = set(sys.modules)\n"
            "for eid in ('E5', 'E6', 'E9', 'E11', 'E13'):\n"
            f"    result = run_experiment(eid, quick=True, batch_size=8, "
            f"store={str(tmp_path / 's.jsonl')!r})\n"
            "    assert result.passed, eid\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        assert fresh_python(script).splitlines()[-1] == "[]"


class TestCli:
    def test_parser_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_parser_run(self):
        args = build_parser().parse_args(["run", "E1", "E2", "--quick"])
        assert args.ids == ["E1", "E2"]
        assert args.quick

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E13" in out

    def test_run_command_quick(self, capsys):
        assert main(["run", "E8", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "all experiments passed" in out

    def test_run_requires_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_expand_ids_dedupes_preserving_order(self):
        assert expand_ids(["E5", "E5", "e5"]) == ["E5"]
        assert expand_ids(["E5", "E5", "all"]) == (
            ["E5"] + [f"E{i}" for i in range(1, 14) if i != 5]
        )
        assert expand_ids(["e8", "E2", "e8"]) == ["E8", "E2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "E99"],
            ["run", "E5", "E99", "--quick"],
            ["run", "E5", "E99", "--shard", "0/2", "--store", "s.jsonl"],
            ["report", "--ids", "E5", "E99", "-o", "out.md", "--quick"],
        ],
    )
    def test_unknown_ids_refused_before_any_work(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unknown experiment id(s) E99" in captured.err
        assert ", ".join(EXPERIMENTS) in captured.err
        # E5 never ran: no table printed, no store or report written.
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_run_dedupes_ids(self, capsys):
        assert main(["run", "E8", "e8", "E8", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("[E8]") == 1

    def test_seed_flag_changes_results(self):
        base = run_experiment("E5", quick=True)
        seeded = run_experiment("E5", quick=True, seed=123)
        again = run_experiment("E5", quick=True, seed=123)
        assert seeded.passed and again.passed
        assert seeded.details == again.details
        # A different stream family: the BRD step statistics differ
        # (pure-NE existence itself holds for every family).
        assert seeded.details != base.details or seeded.tables[0].render() != base.tables[0].render()

    def test_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "E8", "--quick", "--resume"])
        assert "--resume requires --store" in capsys.readouterr().err

    def test_report_resume_requires_store(self, capsys, tmp_path):
        # The same guard must cover the report subcommand — a silently
        # ignored --resume would quietly re-run every experiment.
        with pytest.raises(SystemExit):
            main([
                "report", "-o", str(tmp_path / "out.md"), "--quick", "--resume",
            ])
        assert "--resume requires --store" in capsys.readouterr().err

    def test_run_with_store_and_resume(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        assert main(["run", "E8", "--quick", "--store", str(store)]) == 0
        first = store.read_bytes()
        assert first
        assert main(
            ["run", "E8", "--quick", "--store", str(store), "--resume"]
        ) == 0
        assert store.read_bytes() == first
        out = capsys.readouterr().out
        assert out.count("PASS") >= 2

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_digest_refuses_a_path_that_is_no_store(self, kind, tmp_path, capsys):
        # An empty-set digest for a mistyped path would let an equality
        # gate between two mistyped paths pass.
        path = tmp_path / "no" / "such.jsonl" if kind == "missing" else tmp_path
        assert main(["digest", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"digest: no store file at {path}\n"

    def test_digest_refuses_a_foreign_line(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        path.write_text("garbage\n")
        assert main(["digest", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"digest: {path}, line 1: not a chunk record\n"
        )

    def test_merge_reports_a_foreign_line(self, tmp_path, capsys):
        shard = tmp_path / "s.shard-0.jsonl"
        shard.write_text('{"x": 1}\n')
        assert main(["merge", "--store", str(tmp_path / "s.jsonl")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"merge failed: {shard}, line 1: not a chunk record\n"
        )
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_resume_refuses_another_batch_size(self, command, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        assert main(
            ["run", "E5", "--quick", "--store", str(path), "--batch-size", "4"]
        ) == 0
        before = path.read_bytes()
        assert len(before.splitlines()) == 8
        capsys.readouterr()
        args = ["--quick", "--store", str(path), "--resume", "--batch-size", "2"]
        if command == "run":
            argv = ["run", "E5", *args]
        else:
            argv = ["report", "-o", str(tmp_path / "r.md"), "--ids", "E5", *args]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: cannot resume from {path}: chunk "
            f"('E5', 'E5', 2, 2, 0, 4) is not a chunk of this run's grid "
            f"and chunking (batch_size=2); resume with the grid and batch "
            f"size that wrote the store, or start a fresh store\n"
        )
        assert path.read_bytes() == before

    def test_resume_refuses_a_quick_store_under_the_full_grid(
        self, tmp_path, capsys
    ):
        """The quick and full E5 grids share the label ``E5``; their
        chunks differ, so a full run does not resume a quick store."""
        path = tmp_path / "s.jsonl"
        assert main(["run", "E5", "--quick", "--store", str(path)]) == 0
        before = path.read_bytes()
        capsys.readouterr()
        assert main(["run", "E5", "--store", str(path), "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"run: cannot resume from {path}: chunk "
            f"('E5', 'E5', 2, 2, 0, 8) is not a chunk of this run's grid "
            f"and chunking (batch_size=None); resume with the grid and "
            f"batch size that wrote the store, or start a fresh store\n"
        )
        assert path.read_bytes() == before

    def test_resume_refuses_a_foreign_line(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        path.write_text('{"x": 1}\n')
        assert main(
            ["run", "E8", "--quick", "--store", str(path), "--resume"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == f"run: {path}, line 1: not a chunk record\n"
        assert path.read_text() == '{"x": 1}\n'

    @pytest.mark.parametrize("command", ["run", "run --resume", "report"])
    def test_a_directory_store_is_one_line(self, command, tmp_path, capsys):
        """As ``digest DIR`` does: one line and exit 2, no traceback."""
        store = tmp_path / "d"
        store.mkdir()
        if command == "report":
            argv = ["report", "-o", str(tmp_path / "r.md"), "--ids", "E5"]
        else:
            argv = ["run", "E5", *command.split()[1:]]
        assert main([*argv, "--quick", "--store", str(store)]) == 2
        captured = capsys.readouterr()
        name = command.split()[0]
        assert captured.err == (
            f"{name}: {store}: cannot read the store: Is a directory\n"
        )
        assert list(store.iterdir()) == []

    @pytest.mark.parametrize("resume", [[], ["--resume"]])
    def test_a_file_that_is_not_a_store_keeps_its_bytes(
        self, resume, tmp_path, capsys
    ):
        """An unterminated line that is not a torn record is refused, not
        truncated away as one."""
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"my precious notes, not a store")
        argv = ["run", "E5", "--quick", "--store", str(notes), *resume]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"run: {notes}, line 1: not a chunk record\n"
        assert notes.read_bytes() == b"my precious notes, not a store"

    def test_run_without_resume_refuses_a_file_with_a_note(self, tmp_path, capsys):
        """A run without ``--resume`` never reads its store: it appended
        after the note, and every later read refused line 1."""
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"my notes\n")
        assert main(["run", "E5", "--quick", "--store", str(notes)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"run: {notes}, line 1: not a chunk record\n"
        assert notes.read_bytes() == b"my notes\n"

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_without_resume_a_finished_store_is_refused(
        self, command, tmp_path, capsys
    ):
        """Not written a second time: ``digest`` would have collapsed the
        duplicate chunks without a word."""
        path = tmp_path / "s.jsonl"
        assert main(["run", "E5", "--quick", "--store", str(path)]) == 0
        before = path.read_bytes()
        capsys.readouterr()
        if command == "run":
            argv = ["run", "E5"]
        else:
            argv = ["report", "-o", str(tmp_path / "r.md"), "--ids", "E5"]
        assert main([*argv, "--quick", "--store", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: {path} is not empty; pass --resume to continue it, "
            f"or name a new store\n"
        )
        assert path.read_bytes() == before
        assert not (tmp_path / "r.md").exists()

    def test_a_shard_run_checks_its_own_shard_file(self, tmp_path, capsys):
        base = tmp_path / "s.jsonl"
        base.write_bytes(b"not read by a shard run\n")
        argv = ["run", "E5", "--quick", "--shard", "0/2", "--store", str(base)]
        assert main(argv) == 0
        shard = tmp_path / "s.shard-0.jsonl"
        before = shard.read_bytes()
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"run: {shard} is not empty; pass --resume to continue it, "
            f"or name a new store\n"
        )
        assert shard.read_bytes() == before
        assert main([*argv, "--resume"]) == 0
        assert shard.read_bytes() == before


class TestServeFlags:
    """Bad ``serve`` flags get one line and a non-zero exit, no traceback."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--port", "99999"),
            ("--max-delay-ms", "-1"),
            # Never flushes a window that does not fill.
            ("--max-delay-ms", "inf"),
            ("--max-delay-ms", "nan"),
        ],
    )
    def test_refused_by_the_parser(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_port_in_use(self, capsys):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"serve: cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1

    def test_host_that_is_not_local(self, capsys):
        # 192.0.2.1 (TEST-NET-1) is a numeric address no host owns, so
        # the bind fails locally, without a name lookup.
        with socket.socket() as probe:
            try:
                probe.bind(("192.0.2.1", 0))
            except OSError:
                pass
            else:  # the server would start and never return
                pytest.skip("this host binds non-local addresses")
        assert main(["serve", "--host", "192.0.2.1", "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("serve: cannot listen on 192.0.2.1:0: ")
        assert err.count("\n") == 1
