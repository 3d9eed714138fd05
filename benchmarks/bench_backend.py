"""NumPy reference vs numba JIT backend (the backend-seam gate).

Times the branch-heavy kernels the JIT backend exists for, at
campaign-representative widths, under both backends:

* ``numpy`` — the bit-parity reference: generic kernel compositions
  (blocked one-hot census sweeps, the flattened Kahn peel, the lockstep
  nashification stepper);
* ``numba`` — the fused per-game loops of
  :mod:`repro.batch._numba_backend` behind the same public kernels.

Both backends must agree verdict for verdict before any timing is
trusted (the tier-1 differential suite pins the same contract on random
games). The >= 2x gates then hold the JIT backend to its reason for
existing; their timings land in ``BENCH_trajectory.json`` next to the
batched-vs-seed gates, so the per-backend performance history is
tracked per commit.

On hosts without the ``[jit]`` extra the module skips with a visible
reason — the gates certify an optional accelerator, not the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from _timing import _timed

from repro.batch.backend import available_backends, use_backend
from repro.batch.container import GameBatch
from repro.batch.kernels import batch_count_pure_nash, batch_exists_pure_nash
from repro.batch.pure import (
    batch_nashify_common_beliefs,
    batch_response_cycle_census,
)
from repro.util.rng import as_generator, stable_seed

pytestmark = pytest.mark.skipif(
    not available_backends().get("numba", False),
    reason="numba not installed — JIT backend gates need the "
    "'repro-network-uncertainty[jit]' extra",
)

LABEL = "bench-backend"

CENSUS_B, CENSUS_N, CENSUS_M = 48, 8, 3
NASHIFY_B, NASHIFY_N, NASHIFY_M = 192, 10, 4


def _census_batch() -> GameBatch:
    seeds = [stable_seed(LABEL, "census", i) for i in range(CENSUS_B)]
    return GameBatch.from_seeds(seeds, CENSUS_N, CENSUS_M)


def _nashify_inputs() -> tuple[GameBatch, np.ndarray]:
    seeds = [stable_seed(LABEL, "nashify", i) for i in range(NASHIFY_B)]
    batch = GameBatch.from_seeds_kp(seeds, NASHIFY_N, NASHIFY_M)
    starts = as_generator(stable_seed(LABEL, "starts")).integers(
        0, NASHIFY_M, size=(NASHIFY_B, NASHIFY_N)
    )
    return batch, starts


def census_pass(batch: GameBatch) -> tuple:
    """One full census sweep: counts, existence, cycle verdicts."""
    return (
        batch_count_pure_nash(batch),
        batch_exists_pure_nash(batch),
        batch_response_cycle_census(batch, kind="best"),
    )


def nashify_pass(batch: GameBatch, starts: np.ndarray):
    return batch_nashify_common_beliefs(batch, starts)


def test_backend_census_speedup_at_least_2x(report, trajectory):
    """Acceptance gate: the JIT ``m^n`` census >= 2x the NumPy sweep."""
    batch = _census_batch()
    with use_backend("numpy"):
        reference = census_pass(batch)
    with use_backend("numba"):
        # First call JIT-compiles the kernels; it doubles as the
        # differential check, so timing below measures steady state.
        jit = census_pass(batch)
    for ref, got in zip(reference, jit):
        np.testing.assert_array_equal(got, ref)

    with use_backend("numba"):
        jit_times = [_timed(lambda: census_pass(batch)) for _ in range(5)]
    with use_backend("numpy"):
        numpy_times = [_timed(lambda: census_pass(batch)) for _ in range(3)]
    jit_s, numpy_s = min(jit_times), min(numpy_times)
    ratio = numpy_s / jit_s
    report.append(
        f"[backend] m^n census (B={CENSUS_B}, n={CENSUS_N}, m={CENSUS_M}): "
        f"numba {jit_s * 1e3:.2f} ms, numpy {numpy_s * 1e3:.2f} ms, "
        f"speedup {ratio:.1f}x"
    )
    trajectory.record("backend-census", jit_times, numpy_times)
    assert ratio >= 2.0, f"JIT census only {ratio:.2f}x faster than numpy"


def test_backend_nashify_speedup_at_least_2x(report, trajectory):
    """Acceptance gate: the JIT nashification stepper >= 2x lockstep."""
    batch, starts = _nashify_inputs()
    with use_backend("numpy"):
        reference = nashify_pass(batch, starts)
    with use_backend("numba"):
        jit = nashify_pass(batch, starts)  # compiles + certifies
    np.testing.assert_array_equal(jit.profiles, reference.profiles)
    np.testing.assert_array_equal(jit.steps, reference.steps)
    np.testing.assert_allclose(
        jit.max_congestion_after, reference.max_congestion_after, rtol=1e-12
    )

    with use_backend("numba"):
        jit_times = [
            _timed(lambda: nashify_pass(batch, starts)) for _ in range(5)
        ]
    with use_backend("numpy"):
        numpy_times = [
            _timed(lambda: nashify_pass(batch, starts)) for _ in range(3)
        ]
    jit_s, numpy_s = min(jit_times), min(numpy_times)
    ratio = numpy_s / jit_s
    report.append(
        f"[backend] lockstep nashification (B={NASHIFY_B}, n={NASHIFY_N}, "
        f"m={NASHIFY_M}): numba {jit_s * 1e3:.2f} ms, numpy "
        f"{numpy_s * 1e3:.2f} ms, speedup {ratio:.1f}x"
    )
    trajectory.record("backend-nashify", jit_times, numpy_times)
    assert ratio >= 2.0, f"JIT nashification only {ratio:.2f}x faster"
