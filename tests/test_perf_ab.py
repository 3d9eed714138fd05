"""The A/B verdict of ``tools/perf_ab.py`` on synthetic run records.

No benchmark runs here: each record has the shape ``perfbench/run.py``
prints (``attempted``, ``failed`` and ``metrics``), and the verdict is
checked against the rules the tool states — a regression is a median
worse by more than the bound, a parent spread wider than the bound is
unresolved unless the sides separate, and a gain needs 9 of 10 pair
wins, a median gap larger than the parent's interquartile range and no
larger share of failed operations. The command line is driven with the
benchmark runs replaced by synthetic records.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("perf_ab", ROOT / "tools" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

BENCHMARK = {
    "end_to_end": [
        {"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}
PARENT_S = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]


def _runs(campaign_s, qps=None, failed=0):
    qps = qps if qps is not None else [100.0] * len(campaign_s)
    return [
        {
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "campaign_s": {"value": s, "unit": "s"},
                "throughput_qps": {"value": q, "unit": "1/s"},
            },
        }
        for s, q in zip(campaign_s, qps)
    ]


def _verdict(parent, change):
    return perf_ab.verdict(parent, change, BENCHMARK)


class TestVerdict:
    def test_quartiles_interpolate_inclusively(self):
        assert perf_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
        assert perf_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_halved_time_in_every_pair_is_a_gain(self):
        summary = _verdict(_runs(PARENT_S), _runs([s / 2 for s in PARENT_S]))
        row = summary["metrics"]["campaign_s"]
        assert row["verdict"] == "gain" and row["wins"] == 10
        assert row["parent"]["median"] == pytest.approx(1.09)
        assert row["change_rel"] == pytest.approx(-0.5)
        assert summary["gains"] == ["campaign_s"]
        assert summary["regressions"] == []
        assert summary["metrics"]["throughput_qps"]["verdict"] == "same"

    def test_eight_wins_are_not_a_gain(self):
        change = [s / 2 for s in PARENT_S]
        change[0], change[1] = 2.0, 2.0
        row = _verdict(_runs(PARENT_S), _runs(change))["metrics"]["campaign_s"]
        assert row["wins"] == 8 and row["verdict"] == "same"

    def test_nine_wins_are_a_gain(self):
        change = [s / 2 for s in PARENT_S]
        change[0] = 2.0
        row = _verdict(_runs(PARENT_S), _runs(change))["metrics"]["campaign_s"]
        assert row["wins"] == 9 and row["verdict"] == "gain"

    def test_every_win_inside_the_parent_iqr_is_not_a_gain(self):
        # The parent's IQR is 0.09; every pair is 0.05 faster.
        change = [s - 0.05 for s in PARENT_S]
        row = _verdict(_runs(PARENT_S), _runs(change))["metrics"]["campaign_s"]
        assert row["wins"] == 10 and row["verdict"] == "same"

    @pytest.mark.parametrize(
        ("factor", "outcome"), [(1.2, "same"), (1.3, "regression")]
    )
    def test_regression_is_a_median_past_the_bound(self, factor, outcome):
        summary = _verdict(_runs(PARENT_S), _runs([s * factor for s in PARENT_S]))
        assert summary["metrics"]["campaign_s"]["verdict"] == outcome
        assert ("campaign_s" in summary["regressions"]) == (outcome == "regression")

    def test_higher_is_better_metrics_judge_upward(self):
        parent = _runs(PARENT_S, qps=[100.0 + i for i in range(10)])
        faster = _runs(PARENT_S, qps=[150.0 + i for i in range(10)])
        slower = _runs(PARENT_S, qps=[60.0 + i for i in range(10)])
        for change, outcome in ((faster, "gain"), (slower, "regression")):
            row = _verdict(parent, change)["metrics"]["throughput_qps"]
            assert row["verdict"] == outcome

    def test_more_failures_on_the_change_side_is_a_regression(self):
        summary = _verdict(_runs(PARENT_S), _runs(PARENT_S, failed=1))
        assert summary["failed_frac"] == {"parent": 0.0, "change": 0.01}
        assert summary["regressions"] == ["failed_frac"]

    def test_more_failures_void_every_gain(self):
        change = _runs([s / 2 for s in PARENT_S], failed=1)
        summary = _verdict(_runs(PARENT_S), change)
        assert summary["gains"] == []
        assert summary["regressions"] == ["failed_frac"]
        row = summary["metrics"]["campaign_s"]
        assert row["wins"] == 10 and row["verdict"] == "same"

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        # The parent's IQR is 0.5 against a median of 1.0 (bound 0.25);
        # the change wins 9 of 10 pairs by 0.6, but its runs overlap
        # the parent's.
        parent = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
        change = [s - 0.6 if s > 0.5 else 0.7 for s in parent]
        summary = _verdict(_runs(parent), _runs(change))
        row = summary["metrics"]["campaign_s"]
        assert row["parent"]["q3"] - row["parent"]["q1"] > 0.25
        assert row["wins"] == 9 and row["verdict"] == "unresolved"
        assert summary["unresolved"] == ["campaign_s"]
        assert summary["gains"] == [] and summary["regressions"] == []
        assert "unresolved: campaign_s" in perf_ab.render(summary)

    def test_wide_parent_spread_resolves_when_the_sides_separate(self):
        parent = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
        faster = [s / 4 for s in parent]
        row = _verdict(_runs(parent), _runs(faster))["metrics"]["campaign_s"]
        assert max(faster) < min(parent) and row["verdict"] == "gain"
        # Separated, but the median gap is inside the parent's IQR.
        nearer = [0.45] * 10
        row = _verdict(_runs(parent), _runs(nearer))["metrics"]["campaign_s"]
        assert row["wins"] == 10 and row["verdict"] == "same"

    def test_metric_reading_zero_everywhere_is_not_judged(self):
        zero = _runs(PARENT_S, qps=[0.0] * 10)
        summary = _verdict(zero, zero)
        assert summary["metrics"]["throughput_qps"] == {"verdict": "n/a"}
        assert "n/a" in perf_ab.render(summary)

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError, match="same positive number"):
            _verdict(_runs(PARENT_S), _runs(PARENT_S[:9]))
        with pytest.raises(ValueError):
            _verdict([], [])

    def test_summary_is_json_and_renders(self):
        summary = _verdict(_runs(PARENT_S), _runs([s / 2 for s in PARENT_S]))
        assert json.loads(json.dumps(summary)) == summary
        text = perf_ab.render(summary)
        assert "campaign_s" in text and "10/10" in text and "gain" in text

    def test_recorded_history_is_unresolved_nowhere(self):
        """Each committed entry's verdicts follow from its quartiles."""
        history = json.loads((ROOT / "BENCH_perfbench.json").read_text("utf-8"))
        for entry in history:
            assert entry["unresolved"] == []
            for row in entry["metrics"].values():
                if row["verdict"] == "n/a":
                    continue
                parent = row["parent"]
                spread = parent["q3"] - parent["q1"]
                assert spread <= row["bound"] * abs(parent["median"])
                assert row["verdict"] != "unresolved"

    def test_repository_benchmark_declares_what_the_verdict_reads(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        for spec in declared["end_to_end"]:
            assert {"name", "unit", "better", "bound"} <= set(spec)
            assert spec["better"] in ("lower", "higher")


def _checkouts(tmp_path):
    """A parent and a change checkout holding only what ``main`` reads."""
    benchmark = {
        "run_seconds": 7,
        "workloads": [{"name": "campaign"}, {"name": "serve-hot"}],
        **BENCHMARK,
    }
    dirs = []
    for side in ("parent", "change"):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text("")
        (checkout / "BENCHMARK.json").write_text(json.dumps(benchmark))
        dirs.append(checkout)
    return dirs


class TestCommandLine:
    def test_protocol_comes_from_the_benchmark_file(self, tmp_path, monkeypatch):
        """The run length is the file's ``run_seconds``, the seeds
        alternate parent first on odd seeds, and ``--record`` appends."""
        parent_dir, change_dir = _checkouts(tmp_path)
        calls = []

        def fake_run(checkout, workload, seed, seconds):
            calls.append((checkout.name, workload, seed, seconds))
            record = _runs([1.0 if checkout == parent_dir else 0.5])[0]
            return {**record, "fingerprint": {"commit": checkout.name, "cpu": "x"}}

        monkeypatch.setattr(perf_ab, "run_once", fake_run)
        record = tmp_path / "history.json"
        argv = [str(parent_dir), str(change_dir), "--workload", "serve-hot",
                "--pairs", "2", "--first-seed", "3", "--record", str(record)]
        assert perf_ab.main(argv) == 0
        assert calls == [
            ("parent", "serve-hot", 3, 7), ("change", "serve-hot", 3, 7),
            ("change", "serve-hot", 4, 7), ("parent", "serve-hot", 4, 7),
        ]
        (entry,) = json.loads(record.read_text("utf-8"))
        assert entry["seconds"] == 7 and entry["seeds"] == [3, 4]
        assert entry["parent_commit"] == "parent"
        assert entry["fingerprint"] == {"cpu": "x"}
        assert entry["unresolved"] == [] and entry["gains"] == ["campaign_s"]

    @pytest.mark.parametrize(
        "extra", [["--workload", "serve-solve"], ["--workload", "campaign", "--seconds", "5"]]
    )
    def test_workloads_and_run_length_are_not_options(self, tmp_path, extra):
        parent_dir, change_dir = _checkouts(tmp_path)
        with pytest.raises(SystemExit) as exc:
            perf_ab.main([str(parent_dir), str(change_dir), *extra])
        assert exc.value.code == 2


class TestBytecodeState:
    """Both checkouts run with no bytecode: every cache under ``src/``
    and ``perfbench/`` is cleared before the first pair, and the runs
    write none."""

    @staticmethod
    def _caches(checkout):
        made = []
        for rel in ("src/repro", "src/repro/batch", "perfbench", "tests"):
            cache = checkout / rel / "__pycache__"
            cache.mkdir(parents=True)
            (cache / "m.cpython-311.pyc").write_bytes(b"stale")
            made.append(cache)
        return made

    def test_clears_every_cache_under_src_and_perfbench(self, tmp_path):
        src_repro, src_batch, perfbench, tests = self._caches(tmp_path)
        assert perf_ab.clear_bytecode(tmp_path) == 3
        assert not src_repro.exists() and not src_batch.exists()
        assert not perfbench.exists()
        assert tests.is_dir()  # outside the program and the benchmark
        assert (tmp_path / "src" / "repro").is_dir()
        assert perf_ab.clear_bytecode(tmp_path) == 0

    def test_runs_write_no_bytecode(self, tmp_path, monkeypatch):
        seen = {}

        def fake_subprocess_run(argv, *, cwd, env, **kwargs):
            seen.update(cwd=cwd, env=env)
            record = {"fingerprint": {"commit": "c"}}
            result = _runs([1.0])[0]
            stdout = f"record: {json.dumps(record)}\n{json.dumps(result)}\n"
            return perf_ab.subprocess.CompletedProcess(argv, 0, stdout, "")

        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
        monkeypatch.setattr(perf_ab.subprocess, "run", fake_subprocess_run)
        result = perf_ab.run_once(tmp_path, "campaign", 1, 25)
        assert result["fingerprint"] == {"commit": "c"}
        assert seen["cwd"] == tmp_path
        assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"

    def test_both_sides_are_cleared_before_the_first_pair(
        self, tmp_path, monkeypatch, capsys
    ):
        parent_dir, change_dir = _checkouts(tmp_path)
        self._caches(parent_dir)

        def fake_run(checkout, workload, seed, seconds):
            for side in (parent_dir, change_dir):
                assert not list(side.rglob("src/**/__pycache__"))
                assert not list(side.rglob("perfbench/__pycache__"))
            return {**_runs([1.0])[0], "fingerprint": {}}

        monkeypatch.setattr(perf_ab, "run_once", fake_run)
        perf_ab.main([str(parent_dir), str(change_dir), "--workload", "campaign",
                      "--pairs", "1"])
        out = capsys.readouterr().out
        assert "__pycache__ directories cleared: parent 3, change 0" in out
