"""Batched game engine — stack B instances into ``(B, n, m)`` tensors.

The subsystem behind the library's instance-parallel workloads:

* :class:`GameBatch`             — the stacked container (weights,
  effective capacities, initial traffic);
* :mod:`repro.batch.kernels`     — broadcastable latency / Nash kernels;
  the single-game functions in :mod:`repro.model.latency` and
  :mod:`repro.equilibria.enumeration` are their ``B = 1`` views;
* :mod:`repro.batch.dynamics`    — lockstep best-/better-response
  dynamics with an active mask and per-game cycle detection;
* :mod:`repro.batch.mixed`       — fully-mixed closed form (Lemmas
  4.1-4.3), expected-latency and mixed-Nash kernels over stacks; the
  single-game Section 4 APIs are their ``B = 1`` views;
* :mod:`repro.batch.poa`         — batched Theorem 4.13/4.14 bounds,
  exhaustive social optima and worst empirical coordination ratios;
* :mod:`repro.batch.support`     — stacked ``(B, k, k)`` support
  enumeration; :mod:`repro.equilibria.support_enum` is its ``B = 1``
  view;
* :mod:`repro.batch.fixpoint`    — the iterative smoothed best-response
  / proportional-fitting mixed-equilibrium solver for widths beyond
  enumeration, certified per game by the mixed-Nash oracle;
  :mod:`repro.equilibria.fixpoint` is its ``B = 1`` view;
* :mod:`repro.batch.pure`        — lockstep nashification, batched
  potential evaluators / four-cycle gaps, the PNE/response-cycle
  census, improvement-cycle realisability and the lockstep Section 3
  solvers; :mod:`repro.equilibria.nashify`, the evaluators in
  :mod:`repro.equilibria.potential`, the game graphs and
  :func:`repro.analysis.cycles.realize_cycle` are their ``B = 1``
  views;
* :mod:`repro.batch.generator`   — one-pass vectorised instance drawing;
* :mod:`repro.batch.backend`     — the fused-hook seam: the kernels
  above are NumPy code, and the ``numba`` backend may take over their
  branch-heavy loops (census, nashification, dynamics, fixed point).
"""

from repro.batch.backend import (
    ArrayBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.batch.container import GameBatch
from repro.batch.dynamics import (
    BatchDynamicsResult,
    batch_best_response_dynamics,
    batch_better_response_dynamics,
)
from repro.batch.generator import random_game_batch
from repro.batch.kernels import (
    batch_count_pure_nash,
    batch_deviation_latencies,
    batch_exists_pure_nash,
    batch_loads,
    batch_pure_latencies,
    batch_pure_nash_mask,
)
from repro.batch.mixed import (
    BatchFullyMixedResult,
    batch_fully_mixed_candidate,
    batch_is_mixed_nash,
    batch_min_expected_latencies,
    batch_mixed_latency_matrix,
    normalize_rows,
)
from repro.batch.fixpoint import (
    CERT_TOL,
    BatchFixpointResult,
    batch_fixpoint_mixed_nash,
)
from repro.batch.support import (
    MAX_SUPPORT_PROFILES,
    batch_enumerate_for,
    batch_enumerate_mixed_nash,
    support_profiles,
)
from repro.batch.pure import (
    BatchNashifyResult,
    batch_asymmetric,
    batch_atwolinks,
    batch_auniform,
    batch_four_cycle_gaps,
    batch_nashify,
    batch_nashify_common_beliefs,
    batch_ordinal_potential_symmetric,
    batch_realisable_cycles,
    batch_response_cycle_census,
    batch_sampled_cycle_gaps,
    batch_verify_ordinal_potential_symmetric,
    batch_verify_weighted_potential,
    batch_weighted_potential,
)
from repro.batch.poa import (
    BatchRatioResult,
    EquilibriumStack,
    batch_all_pure_latencies,
    batch_empirical_ratios,
    batch_equilibrium_profiles,
    batch_poa_bound_general,
    batch_poa_bound_uniform,
    batch_social_optima,
)

__all__ = [
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "GameBatch",
    "BatchDynamicsResult",
    "batch_best_response_dynamics",
    "batch_better_response_dynamics",
    "random_game_batch",
    "batch_count_pure_nash",
    "batch_deviation_latencies",
    "batch_exists_pure_nash",
    "batch_loads",
    "batch_pure_latencies",
    "batch_pure_nash_mask",
    "CERT_TOL",
    "BatchFixpointResult",
    "batch_fixpoint_mixed_nash",
    "BatchFullyMixedResult",
    "batch_fully_mixed_candidate",
    "batch_is_mixed_nash",
    "batch_min_expected_latencies",
    "batch_mixed_latency_matrix",
    "normalize_rows",
    "MAX_SUPPORT_PROFILES",
    "batch_enumerate_for",
    "batch_enumerate_mixed_nash",
    "support_profiles",
    "BatchNashifyResult",
    "batch_asymmetric",
    "batch_atwolinks",
    "batch_auniform",
    "batch_four_cycle_gaps",
    "batch_nashify",
    "batch_nashify_common_beliefs",
    "batch_ordinal_potential_symmetric",
    "batch_realisable_cycles",
    "batch_response_cycle_census",
    "batch_sampled_cycle_gaps",
    "batch_verify_ordinal_potential_symmetric",
    "batch_verify_weighted_potential",
    "batch_weighted_potential",
    "BatchRatioResult",
    "EquilibriumStack",
    "batch_all_pure_latencies",
    "batch_empirical_ratios",
    "batch_equilibrium_profiles",
    "batch_poa_bound_general",
    "batch_poa_bound_uniform",
    "batch_social_optima",
]
