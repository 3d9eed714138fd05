"""Registry mapping experiment ids to runners and sweep metadata.

Importing the registry imports every runner and all they call, so an
experiment that has started imports nothing: its time is its work.
"""

from __future__ import annotations

import inspect
from typing import Callable, NamedTuple

from repro.experiments.algorithms import (
    e1_specs, e2_specs, e3_specs, e4_specs,
    run_e1, run_e2, run_e3, run_e4,
)
from repro.experiments.anarchy import (
    e10_specs, e11_specs, e12_specs,
    run_e10, run_e11, run_e12,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.campaign import e5_specs, e6_specs, run_e5, run_e6
from repro.experiments.fixpoint_tier import e13_specs, run_e13
from repro.experiments.mixed import (
    e7_specs, e8_specs, e9_specs,
    run_e7, run_e8, run_e9,
)
from repro.runtime.spec import SweepSpec

__all__ = [
    "EXPERIMENTS",
    "ExperimentEntry",
    "UNIVERSAL_OPTIONS",
    "get_experiment",
    "get_experiment_specs",
    "run_experiment",
]

Runner = Callable[..., ExperimentResult]
SpecFactory = Callable[..., tuple[SweepSpec, ...]]


class ExperimentEntry(NamedTuple):
    """One registry row: title, runner, and the runner's sweep metadata.

    ``specs(quick=...)`` returns the declarative
    :class:`~repro.runtime.spec.SweepSpec` objects the runner executes
    through the campaign runtime — the machine-readable description of
    the experiment's grid, seed labels and kernels.
    """

    title: str
    runner: Runner
    specs: SpecFactory


#: Experiment id -> (title, runner, spec factory). Mirrors the
#: DESIGN.md experiment index; tuple position 1 stays the runner for
#: backward compatibility with ``EXPERIMENTS[eid][1]`` callers.
EXPERIMENTS: dict[str, ExperimentEntry] = {
    "E1": ExperimentEntry("Figure 1 / Thm 3.3 — Atwolinks", run_e1, e1_specs),
    "E2": ExperimentEntry("Figure 2 / Thm 3.5 — Asymmetric", run_e2, e2_specs),
    "E3": ExperimentEntry("Figure 3 / Thm 3.6 — Auniform", run_e3, e3_specs),
    "E4": ExperimentEntry("Section 3.1 — n=3 existence", run_e4, e4_specs),
    "E5": ExperimentEntry(
        "Section 3.2 — Conjecture 3.7 campaign", run_e5, e5_specs
    ),
    "E6": ExperimentEntry(
        "Section 3.2 — no exact/ordinal potential", run_e6, e6_specs
    ),
    "E7": ExperimentEntry(
        "Theorem 4.6 — FMNE closed form & uniqueness", run_e7, e7_specs
    ),
    "E8": ExperimentEntry(
        "Theorem 4.8 — uniform beliefs => p=1/m", run_e8, e8_specs
    ),
    "E9": ExperimentEntry(
        "Lemma 4.9 / Thms 4.11-4.12 — FMNE dominance", run_e9, e9_specs
    ),
    "E10": ExperimentEntry(
        "Theorem 4.13 — PoA bound (uniform beliefs)", run_e10, e10_specs
    ),
    "E11": ExperimentEntry(
        "Theorem 4.14 — PoA bound (general)", run_e11, e11_specs
    ),
    "E12": ExperimentEntry(
        "[17] contrast — Milchtaich separation", run_e12, e12_specs
    ),
    "E13": ExperimentEntry(
        "Fixed-point tier — certified NE beyond enumeration",
        run_e13,
        e13_specs,
    ),
}

#: Global execution options every CLI invocation may carry. They are
#: forwarded to runners that declare them and dropped (not an error) for
#: runners that don't — they configure *how* a campaign executes, never
#: *what* it computes. Anything else unknown to a runner raises.
UNIVERSAL_OPTIONS = frozenset({"jobs", "batch_size", "seed", "store", "resume"})


def _entry(experiment_id: str) -> ExperimentEntry:
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; valid ids: "
            f"{', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def get_experiment(experiment_id: str) -> Runner:
    """The runner for *experiment_id* (KeyError with guidance otherwise)."""
    return _entry(experiment_id).runner


def get_experiment_specs(
    experiment_id: str, *, quick: bool = False
) -> tuple[SweepSpec, ...]:
    """The declarative sweep specs behind *experiment_id*'s runner."""
    return _entry(experiment_id).specs(quick=quick)


def run_experiment(
    experiment_id: str, *, quick: bool = False, **options
) -> ExperimentResult:
    """Run one experiment by id.

    Universal execution options (:data:`UNIVERSAL_OPTIONS` — ``jobs``,
    ``batch_size``, ``seed``, ``store``, ``resume``) are forwarded to
    runners that declare them and dropped otherwise, so global CLI flags
    can be applied to any id set. Any *other* option unknown to the
    runner raises :class:`TypeError` instead of being silently ignored —
    a misspelled keyword must not masquerade as a successful run.
    """
    runner = get_experiment(experiment_id)
    accepted = inspect.signature(runner).parameters
    unknown = sorted(
        k for k in options if k not in accepted and k not in UNIVERSAL_OPTIONS
    )
    if unknown:
        raise TypeError(
            f"unknown option(s) for {experiment_id.upper()}: "
            f"{', '.join(unknown)}; the runner accepts "
            f"{', '.join(sorted(accepted))}"
        )
    kwargs = {k: v for k, v in options.items() if k in accepted}
    return runner(quick=quick, **kwargs)
