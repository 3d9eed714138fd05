"""Common result type for experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.tables import Table

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id:
        The DESIGN.md identifier (``"E1"`` ... ``"E13"``).
    title:
        The paper artefact being reproduced.
    passed:
        Overall verdict: did the reproduced behaviour match the paper's
        claim (existence, dominance, bound, complexity class, ...)?
    tables:
        Human-readable result tables (these are what EXPERIMENTS.md
        records).
    details:
        Machine-readable quantities for tests and downstream analysis.
    """

    experiment_id: str
    title: str
    passed: bool
    tables: list[Table] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = [f"[{self.experiment_id}] {self.title} — {verdict}"]
        parts.extend(t.render() for t in self.tables)
        return "\n\n".join(parts)
