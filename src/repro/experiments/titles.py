"""The experiments' ids and titles, apart from their runners.

``python -m repro list`` prints these and loads nothing else, so it
imports no NumPy and no runner. The registry
(:mod:`repro.experiments.registry`) takes its ids and titles from here.
"""

from __future__ import annotations

__all__ = ["TITLES"]

#: Experiment id -> title, in registry order. Mirrors the DESIGN.md
#: experiment index.
TITLES: dict[str, str] = {
    "E1": "Figure 1 / Thm 3.3 — Atwolinks",
    "E2": "Figure 2 / Thm 3.5 — Asymmetric",
    "E3": "Figure 3 / Thm 3.6 — Auniform",
    "E4": "Section 3.1 — n=3 existence",
    "E5": "Section 3.2 — Conjecture 3.7 campaign",
    "E6": "Section 3.2 — no exact/ordinal potential",
    "E7": "Theorem 4.6 — FMNE closed form & uniqueness",
    "E8": "Theorem 4.8 — uniform beliefs => p=1/m",
    "E9": "Lemma 4.9 / Thms 4.11-4.12 — FMNE dominance",
    "E10": "Theorem 4.13 — PoA bound (uniform beliefs)",
    "E11": "Theorem 4.14 — PoA bound (general)",
    "E12": "[17] contrast — Milchtaich separation",
    "E13": "Fixed-point tier — certified NE beyond enumeration",
}
