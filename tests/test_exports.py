"""The public surface: every package's ``__all__``, exported lazily.

Each package ``__init__`` binds its exports on first use
(``repro._lazy.attach``), so these tests pin what ``from repro import X``
and ``from repro.<package> import X`` promise: every listed name
resolves to the object its defining module holds, and never to a
submodule of the same name.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

#: ``repro.__all__``; a change to the public surface edits this list.
PUBLIC = [
    "AlgorithmDomainError", "BatchDynamicsResult", "Belief", "BeliefError",
    "BeliefProfile", "ConvergenceError", "DimensionError", "GameBatch",
    "MixedProfile", "ModelError", "NoEquilibriumError", "NotFullyMixedError",
    "OptimumResult", "PlayerSpecificGame", "PureProfile", "ReproError",
    "ResultStore", "SolverError", "StateSpace", "SweepResult", "SweepSpec",
    "UncertainRoutingGame", "__version__", "asymmetric", "atwolinks",
    "auniform", "batch_best_response_dynamics",
    "batch_better_response_dynamics", "batch_count_pure_nash",
    "batch_deviation_latencies", "batch_empirical_ratios",
    "batch_enumerate_mixed_nash", "batch_exists_pure_nash",
    "batch_fully_mixed_candidate", "batch_is_mixed_nash", "batch_loads",
    "batch_min_expected_latencies", "batch_mixed_latency_matrix",
    "batch_poa_bound_general", "batch_poa_bound_uniform",
    "batch_pure_latencies", "batch_pure_nash_mask", "batch_social_optima",
    "best_response_dynamics", "better_response_dynamics",
    "common_belief_profile", "coordination_ratios", "count_pure_nash",
    "dirichlet_belief", "enumerate_mixed_nash", "exists_pure_nash",
    "fully_mixed_candidate", "fully_mixed_nash", "has_fully_mixed_nash",
    "is_mixed_nash", "is_pure_nash", "kp_game", "opt1", "opt2", "optimum",
    "poa_bound_general", "poa_bound_uniform", "point_mass_belief",
    "pure_nash_profiles", "random_game_batch", "run_conjecture_campaign",
    "run_sweep", "sc1", "sc2", "solve_pure_nash", "uniform_belief",
    "verify_fmne_dominance",
]

PACKAGES = ["repro"] + [
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]


def test_top_level_exports_are_pinned():
    assert sorted(repro.__all__) == PUBLIC
    assert len(set(repro.__all__)) == len(repro.__all__)


def test_every_package_is_covered():
    assert PACKAGES == [
        "repro", "repro.analysis", "repro.batch", "repro.equilibria",
        "repro.experiments", "repro.generators", "repro.model",
        "repro.runtime", "repro.service", "repro.substrates", "repro.util",
    ]


def test_every_export_resolves_to_an_object_not_a_module(fresh_python):
    """Loading a submodule sets the package attribute of its name, which
    would shadow an export of the same name (``repro.equilibria.nashify``
    is both). So a fresh interpreter loads every module before it reads
    any export, then reads every name of every package's ``__all__``."""
    script = (
        "import importlib, pkgutil, types\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name != 'repro.__main__':\n"
        "        importlib.import_module(info.name)\n"
        f"for package in {PACKAGES!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    assert len(set(module.__all__)) == len(module.__all__), package\n"
        "    for name in module.__all__:\n"
        "        value = getattr(module, name)\n"
        "        assert not isinstance(value, types.ModuleType), (package, name)\n"
        "        assert name in dir(module), (package, name)\n"
        "        print(package, name)\n"
    )
    resolved = fresh_python(script).splitlines()
    assert "repro.equilibria nashify" in resolved
    assert len(resolved) == sum(
        len(importlib.import_module(package).__all__) for package in PACKAGES
    )


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["GameBatch"] is importlib.import_module(
        "repro.batch.container"
    ).GameBatch


def test_submodules_load_on_attribute_access(fresh_python):
    """``import repro`` loads no subpackage, and reading one as an
    attribute loads it (checked in a fresh interpreter)."""
    fresh_python(
        "import sys\n"
        "import repro\n"
        "assert 'repro.batch' not in sys.modules\n"
        "assert repro.batch.kernels is sys.modules['repro.batch.kernels']\n"
        "assert repro.service.query is sys.modules['repro.service.query']\n"
        "from repro.runtime import store\n"
        "assert store is sys.modules['repro.runtime.store']\n"
    )


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        repro.no_such_name
    with pytest.raises(ImportError):
        exec("from repro.batch import no_such_name", {})
    assert not hasattr(repro.model, "no_such_name")
