#!/usr/bin/env python3
"""A/B the repository benchmark between two checkouts.

Runs ``perfbench/run.py --workload W --seed S --seconds T`` in a parent
and a change checkout, alternating: pair ``i`` uses seed
``first_seed + i``, and the parent runs first on odd seeds, the change
first on even ones, so a drift in host speed falls on both sides. The
change checkout's ``BENCHMARK.json`` is the one place the protocol is
set: ``T`` is its ``run_seconds``, ``W`` must be one of its workloads,
and the verdict reads its bounds. The tool prints, for every end-to-end
metric that file declares, each side's median and quartiles, how many
pairs the change won, and the verdict against the metric's bound:

* ``regression`` — the change's median is worse than the parent's by
  more than the bound (a fraction of the parent's median);
* ``unresolved`` — not a regression, but the parent's interquartile
  range is wider than the bound (as a fraction of its median), so the
  runs spread too widely to tell, unless every change run beats every
  parent run;
* ``gain`` — the change won at least 9 of 10 pairs (the same share of
  any other count), its median is better than the parent's by more
  than the parent's interquartile range, and the change failed no
  larger share of operations;
* ``same`` — none of these; ``n/a`` when the metric reads 0 on every
  run.

A larger share of failed operations on the change's side is a
``regression`` too, and it voids every gain.

Both checkouts run in the same bytecode state: before the first pair,
every ``__pycache__`` directory under their ``src/`` and ``perfbench/``
is deleted (the tool prints how many on each side), and every run has
``PYTHONDONTWRITEBYTECODE=1``. So each process start compiles the
modules it imports, on both sides alike; a stale cache on one side
once read as a 15% ``setup_s`` difference. Usage, from anywhere::

    python3 tools/perf_ab.py PARENT_DIR CHANGE_DIR --workload campaign \\
        [--pairs 10] [--first-seed 1] [--record FILE]

``--record FILE`` appends the summary (medians, quartiles, wins,
verdicts, the parent's commit and the machine fingerprint) to the JSON
list in FILE, for a committed performance history such as
``BENCH_perfbench.json``. An entry names its parent's commit only: the
change is usually measured before it is committed, and it lands as that
commit's child. Make the parent checkout with ``git clone`` so that its
runs can read the commit. Exit status: 0 when no metric is a regression
or unresolved, 1 otherwise, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

#: Share of pairs the change must win for a gain (9 of 10).
GAIN_WIN_SHARE = 0.9
#: The directories of a checkout whose bytecode caches are cleared.
BYTECODE_ROOTS = ("src", "perfbench")


def clear_bytecode(checkout: Path) -> int:
    """Delete every ``__pycache__`` directory under *checkout*'s
    :data:`BYTECODE_ROOTS`; returns how many there were."""
    caches = [
        cache
        for root in BYTECODE_ROOTS
        for cache in (checkout / root).rglob("__pycache__")
        if cache.is_dir()
    ]
    for cache in caches:
        shutil.rmtree(cache)
    return len(caches)


def run_env() -> dict[str, str]:
    """The environment of every benchmark run: this one, writing no
    bytecode."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in *checkout*: its JSON result, plus the run
    record's fingerprint under ``"fingerprint"``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=run_env(), capture_output=True, text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{checkout}: run.py exited {proc.returncode}: "
            f"{proc.stderr.strip()[-500:]}"
        )
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record: "))
    result["fingerprint"] = record.get("fingerprint", {})
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, linear interpolation between order
    statistics (``statistics.quantiles(..., method="inclusive")``)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[dict], change: list[dict], benchmark: dict) -> dict:
    """Judge paired runs (``parent[i]`` and ``change[i]`` are pair *i*)
    against *benchmark*'s end-to-end metrics and bounds.

    Each run is a ``run.py`` result: ``{"attempted", "failed",
    "metrics": {name: {"value", "unit"}}}``. Returns ``{"pairs",
    "metrics": {name: {...}}, "failed_frac": {...}, "regressions",
    "unresolved", "gains"}``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    pairs = len(parent)
    needed = math.ceil(GAIN_WIN_SHARE * pairs - 1e-9)
    failed = {
        side: sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)
        for side, runs in (("parent", parent), ("change", change))
    }
    more_failures = failed["change"] > failed["parent"]
    metrics, regressions, unresolved, gains = {}, [], [], []
    for spec in benchmark["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        if not any(a) and not any(b):
            metrics[name] = {"verdict": "n/a"}
            continue
        qa, qb = quartiles(a), quartiles(b)
        sign = -1.0 if lower else 1.0
        # Positive: the change is better.
        gap = sign * (qb[1] - qa[1])
        wins = sum(sign * (y - x) > 0.0 for x, y in zip(a, b))
        worse = -gap / abs(qa[1]) if qa[1] else 0.0
        spread = qa[2] - qa[0]
        # Every change run beats every parent run.
        separated = max(b) < min(a) if lower else min(b) > max(a)
        if worse > spec["bound"]:
            outcome = "regression"
            regressions.append(name)
        elif spread > spec["bound"] * abs(qa[1]) and not separated:
            outcome = "unresolved"
            unresolved.append(name)
        elif not more_failures and wins >= needed and gap > spread:
            outcome = "gain"
            gains.append(name)
        else:
            outcome = "same"
        metrics[name] = {
            "unit": spec["unit"],
            "parent": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
            "change": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
            "change_rel": (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0,
            "wins": wins,
            "bound": spec["bound"],
            "verdict": outcome,
        }
    if more_failures:
        regressions.append("failed_frac")
    return {
        "pairs": pairs,
        "metrics": metrics,
        "failed_frac": failed,
        "regressions": regressions,
        "unresolved": unresolved,
        "gains": gains,
    }


def render(summary: dict) -> str:
    lines = [
        f"{'metric':<16} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
        f"{'rel':>8} {'wins':>6}  verdict"
    ]
    for name, row in summary["metrics"].items():
        if row["verdict"] == "n/a":
            lines.append(f"{name:<16} {'':>28} {'':>28} {'':>8} {'':>6}  n/a")
            continue
        p, c = row["parent"], row["change"]
        lines.append(
            f"{name:<16} {p['q1']:>9.4g} {p['median']:>9.4g} {p['q3']:>9.4g} "
            f"{c['q1']:>9.4g} {c['median']:>9.4g} {c['q3']:>9.4g} "
            f"{row['change_rel']:>+8.1%} {row['wins']:>3}/{summary['pairs']:<2}  "
            f"{row['verdict']}"
        )
    failed = summary["failed_frac"]
    lines.append(
        f"failed share: parent {failed['parent']:.4f}, change {failed['change']:.4f}"
    )
    lines.append(
        f"regressions: {', '.join(summary['regressions']) or 'none'}; "
        f"unresolved: {', '.join(summary['unresolved']) or 'none'}; "
        f"gains: {', '.join(summary['gains']) or 'none'}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    seconds = benchmark["run_seconds"]
    cleared = {
        side: clear_bytecode(checkout)
        for side, checkout in (("parent", args.parent), ("change", args.change))
    }
    print(f"__pycache__ directories cleared: parent {cleared['parent']}, "
          f"change {cleared['change']}; runs write no bytecode")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(
                    run_once(checkout, args.workload, seed, seconds)
                )
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    except RuntimeError as exc:
        print(f"perf_ab: {exc}", file=sys.stderr)
        return 2
    summary = verdict(runs["parent"], runs["change"], benchmark)
    print(f"workload {args.workload}, {args.pairs} pairs, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}, "
          f"--seconds {seconds:g}")
    print(render(summary))
    if args.record is not None:
        history = (
            json.loads(args.record.read_text("utf-8")) if args.record.exists() else []
        )
        history.append({
            "workload": args.workload,
            "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
            "seconds": seconds,
            "parent_commit": runs["parent"][-1]["fingerprint"].get("commit"),
            "fingerprint": {
                key: value
                for key, value in runs["change"][-1]["fingerprint"].items()
                if key != "commit"
            },
            **summary,
        })
        args.record.write_text(json.dumps(history, indent=1) + "\n", "utf-8")
    return 1 if summary["regressions"] or summary["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
