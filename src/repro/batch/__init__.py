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
* :mod:`repro.batch.backend`     — the backend's provenance name: every
  kernel above is NumPy code, so :func:`get_backend` names ``numpy``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.batch.backend": ("get_backend",),
        "repro.batch.container": ("GameBatch",),
        "repro.batch.dynamics": (
            "BatchDynamicsResult",
            "batch_best_response_dynamics",
            "batch_better_response_dynamics",
        ),
        "repro.batch.fixpoint": (
            "CERT_TOL",
            "BatchFixpointResult",
            "batch_fixpoint_mixed_nash",
        ),
        "repro.batch.generator": ("random_game_batch",),
        "repro.batch.kernels": (
            "batch_count_pure_nash",
            "batch_deviation_latencies",
            "batch_exists_pure_nash",
            "batch_loads",
            "batch_pure_latencies",
            "batch_pure_nash_mask",
        ),
        "repro.batch.mixed": (
            "BatchFullyMixedResult",
            "batch_fully_mixed_candidate",
            "batch_is_mixed_nash",
            "batch_min_expected_latencies",
            "batch_mixed_latency_matrix",
            "normalize_rows",
        ),
        "repro.batch.poa": (
            "BatchRatioResult",
            "EquilibriumStack",
            "batch_all_pure_latencies",
            "batch_empirical_ratios",
            "batch_equilibrium_profiles",
            "batch_poa_bound_general",
            "batch_poa_bound_uniform",
            "batch_social_optima",
        ),
        "repro.batch.pure": (
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
        ),
        "repro.batch.support": (
            "MAX_SUPPORT_PROFILES",
            "batch_enumerate_for",
            "batch_enumerate_mixed_nash",
            "support_profiles",
        ),
    },
)
