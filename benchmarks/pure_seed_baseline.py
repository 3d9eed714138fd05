"""The pre-batch Section 3 pure-strategy pipeline, vendored verbatim.

Every function below is an unmodified copy of the sequential
implementation this repository shipped before the batched pure-strategy
engine existed (``equilibria/nashify.py``, ``equilibria/potential.py``'s
evaluators and the sampled/exhaustive four-cycle gap, and the
E1-E4/E6 chunk kernels of ``experiments/algorithms.py`` and
``experiments/campaign.py`` as of commit 67044e4), with only the
intra-module imports rewired to this file. ``benchmarks/bench_pure.py``
times it as the historical per-game baseline, and ``python
benchmarks/pure_seed_baseline.py`` regenerates
``tests/data/pure_seed_baseline.json`` — the frozen fingerprint the
regression tests pin the batched E1-E4/E6 pipeline against, bit for bit.

Modules the batched-pure PR did *not* refactor (the paper's three
algorithms, the pure-NE conditions and enumerator, the random-game
generators, the latency engine) are imported from the library: they
are byte-identical to what the seed pipeline called, so importing them
keeps the baseline honest without duplicating unchanged code. The
best-response dynamics come from ``seed_baseline.py``, which vendors
the seed's per-game loop verbatim: the library's dynamics have since
become ``B = 1`` views of the lockstep engine. The response graphs are
imported from the library, but they are no longer the seed's code
either: they have since become ``B = 1`` views of the batched census.
The E4 cycle counts only need their verdicts, which
``tests/test_batch_pure.py`` checks edge for edge against the seed's
per-state loop (kept in ``tests/response_oracle.py``). The one other
departure is the ordinal potential's ``log k!``, which uses
:func:`math.lgamma` where the seed used ``scipy.special.gammaln``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.equilibria.conditions import is_pure_nash
from repro.equilibria.enumeration import count_pure_nash
from repro.equilibria.game_graph import best_response_graph, find_response_cycle
from repro.equilibria.symmetric import asymmetric
from repro.equilibria.two_links import atwolinks
from repro.equilibria.uniform import auniform
from repro.errors import AlgorithmDomainError, ConvergenceError
from repro.generators.games import (
    random_game,
    random_kp_game,
    random_symmetric_game,
    random_two_link_game,
    random_uniform_beliefs_game,
)
from repro.generators.suites import GridCell
from repro.model.latency import pure_latency_of_user
from repro.model.profiles import PureProfile, as_assignment, loads_of
from repro.model.social import enumerate_assignments, social_costs_of_pure
from repro.util.rng import as_generator, stable_seed
from seed_baseline import best_response_dynamics


# --- seed equilibria/nashify.py ------------------------------------ #


def seed_objective_congestion(game, sigma):
    """Common-beliefs objective congestion ``max_l L_l / c^l``."""
    caps = game.capacities[0]
    loads = loads_of(sigma, game.weights, game.num_links, game.initial_traffic)
    return float((loads / caps).max())


def seed_nashify_common_beliefs(game, start, *, max_steps=100_000):
    """The pre-batch nashification loop (Feldmann et al. style).

    Returns the fields of the library's ``NashifyResult`` as a plain
    dict so the bench can compare against the lockstep engine without
    importing the refactored result type.
    """
    from repro.model.latency import deviation_latencies

    sigma = as_assignment(start, game.num_users, game.num_links).copy()
    caps = game.capacities[0]
    sc1_before, sc2_before = social_costs_of_pure(game, sigma)
    congestion_before = seed_objective_congestion(game, sigma)

    steps = 0
    while steps < max_steps:
        dev = deviation_latencies(game, sigma)
        current = dev[np.arange(game.num_users), sigma]
        scale = np.maximum(current, 1.0)
        movers = np.flatnonzero(dev.min(axis=1) < current - 1e-9 * scale)
        if movers.size == 0:
            break
        loads = loads_of(sigma, game.weights, game.num_links, game.initial_traffic)
        congestion = loads / caps
        worst_links = np.flatnonzero(
            congestion >= congestion.max() * (1 - 1e-12)
        )
        on_worst = movers[np.isin(sigma[movers], worst_links)]
        user = int(on_worst[0]) if on_worst.size else int(movers[0])
        sigma[user] = int(np.argmin(dev[user]))
        steps += 1
    else:
        raise ConvergenceError(
            f"nashification exceeded {max_steps} steps (weights n={game.num_users})"
        )

    profile = PureProfile(sigma, game.num_links)
    sc1_after, sc2_after = social_costs_of_pure(game, profile)
    return {
        "links": sigma.copy(),
        "steps": steps,
        "sc1_before": sc1_before,
        "sc1_after": sc1_after,
        "sc2_before": sc2_before,
        "sc2_after": sc2_after,
        "max_congestion_before": congestion_before,
        "max_congestion_after": seed_objective_congestion(game, profile.links),
    }


def seed_nashify(game, start, *, max_steps=100_000):
    """The pre-batch general nashification (best-response improvement)."""
    sigma = as_assignment(start, game.num_users, game.num_links)
    sc1_before, sc2_before = social_costs_of_pure(game, sigma)
    mean_caps = game.capacities.mean(axis=0)
    loads = loads_of(sigma, game.weights, game.num_links, game.initial_traffic)
    congestion_before = float((loads / mean_caps).max())

    result = best_response_dynamics(
        game, sigma, schedule="max_regret", max_steps=max_steps,
        raise_on_budget=True,
    )
    profile = result.profile
    if not is_pure_nash(game, profile):  # pragma: no cover - defensive
        raise ConvergenceError("dynamics stopped at a non-equilibrium")
    sc1_after, sc2_after = social_costs_of_pure(game, profile)
    loads_after = loads_of(
        profile.links, game.weights, game.num_links, game.initial_traffic
    )
    return {
        "links": np.asarray(profile.links).copy(),
        "steps": result.steps,
        "sc1_before": sc1_before,
        "sc1_after": sc1_after,
        "sc2_before": sc2_before,
        "sc2_after": sc2_after,
        "max_congestion_before": congestion_before,
        "max_congestion_after": float((loads_after / mean_caps).max()),
    }


# --- seed equilibria/potential.py ----------------------------------- #


def seed_weighted_potential(game, assignment):
    """The weighted potential for common-beliefs games."""
    if not game.has_common_beliefs():
        raise AlgorithmDomainError(
            "the weighted potential requires common beliefs "
            "(all users sharing one effective-capacity row)"
        )
    sigma = as_assignment(assignment, game.num_users, game.num_links)
    w = game.weights
    caps = game.capacities[0]  # common row
    loads = loads_of(sigma, w, game.num_links, game.initial_traffic)
    own = np.bincount(sigma, weights=w**2, minlength=game.num_links)
    return float(((loads**2 + own) / (2.0 * caps)).sum())


def seed_ordinal_potential_symmetric(game, assignment):
    """The ordinal potential for the symmetric-users case."""
    if not game.has_symmetric_users():
        raise AlgorithmDomainError(
            "the ordinal potential requires symmetric users (equal weights)"
        )
    if np.any(game.initial_traffic > 0):
        raise AlgorithmDomainError(
            "the ordinal potential requires zero initial traffic"
        )
    sigma = as_assignment(assignment, game.num_users, game.num_links)
    counts = np.bincount(sigma, minlength=game.num_links)
    log_factorials = sum(math.lgamma(k + 1.0) for k in counts)
    users = np.arange(game.num_users)
    return log_factorials - float(np.log(game.capacities[users, sigma]).sum())


def seed_verify_weighted_potential(game, assignment, user, new_link, *, rtol=1e-9):
    """Check ``Delta Phi = w_i * Delta lambda_i`` for one unilateral move."""
    sigma = as_assignment(assignment, game.num_users, game.num_links).copy()
    phi_before = seed_weighted_potential(game, sigma)
    lat_before = pure_latency_of_user(game, sigma, user)
    sigma[user] = new_link
    phi_after = seed_weighted_potential(game, sigma)
    lat_after = pure_latency_of_user(game, sigma, user)
    lhs = phi_after - phi_before
    rhs = game.weights[user] * (lat_after - lat_before)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= rtol * scale


def seed_verify_ordinal_potential_symmetric(
    game, assignment, user, new_link, *, rtol=1e-9
):
    """Check ``Delta Phi = log lambda_after - log lambda_before``."""
    sigma = as_assignment(assignment, game.num_users, game.num_links).copy()
    phi_before = seed_ordinal_potential_symmetric(game, sigma)
    lat_before = pure_latency_of_user(game, sigma, user)
    sigma[user] = new_link
    phi_after = seed_ordinal_potential_symmetric(game, sigma)
    lat_after = pure_latency_of_user(game, sigma, user)
    lhs = phi_after - phi_before
    rhs = np.log(lat_after) - np.log(lat_before)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= rtol * scale


def seed_four_cycle_gap(game, base, i, j, links_i, links_j):
    """Net deviator cost change around one two-player four-cycle."""
    a, a2 = links_i
    b, b2 = links_j
    sigma = base.copy()
    sigma[i], sigma[j] = a, b

    total = 0.0
    # move order: i: a->a2, j: b->b2, i: a2->a, j: b2->b
    for user, new_link in ((i, a2), (j, b2), (i, a), (j, b)):
        before = pure_latency_of_user(game, sigma, user)
        sigma[user] = new_link
        after = pure_latency_of_user(game, sigma, user)
        total += after - before
    return total


def seed_exact_potential_cycle_gap(game, *, num_samples=None, seed=None):
    """Maximum |cycle sum| over two-player four-cycles (pre-batch loop)."""
    n, m = game.num_users, game.num_links
    pairs = list(itertools.combinations(range(n), 2))
    link_pairs = list(itertools.permutations(range(m), 2))
    exhaustive_count = len(pairs) * len(link_pairs) ** 2 * m ** max(n - 2, 0)

    worst = 0.0
    if num_samples is None and exhaustive_count <= 200_000:
        others = [u for u in range(n)]
        for i, j in pairs:
            rest = [u for u in others if u not in (i, j)]
            if rest:
                rest_assignments = enumerate_assignments(len(rest), m)
            else:
                rest_assignments = np.zeros((1, 0), dtype=np.intp)
            for rest_row in rest_assignments:
                base = np.zeros(n, dtype=np.intp)
                base[rest] = rest_row
                for li in link_pairs:
                    for lj in link_pairs:
                        gap = seed_four_cycle_gap(game, base, i, j, li, lj)
                        worst = max(worst, abs(gap))
        return worst

    rng = as_generator(seed)
    samples = 1_000 if num_samples is None else int(num_samples)
    for _ in range(samples):
        i, j = rng.choice(n, size=2, replace=False)
        base = rng.integers(0, m, size=n).astype(np.intp)
        li = tuple(rng.choice(m, size=2, replace=False))
        lj = tuple(rng.choice(m, size=2, replace=False))
        gap = seed_four_cycle_gap(game, base, int(i), int(j), li, lj)
        worst = max(worst, abs(gap))
    return worst


# --- seed experiments/algorithms.py chunk kernels ------------------- #


def seed_examine_e1_chunk(chunk):
    """How many of the chunk's two-link games Atwolinks solves to a NE."""
    ok = 0
    for seed in chunk.seeds():
        game = random_two_link_game(
            chunk.num_users, with_initial_traffic=True, seed=seed
        )
        if is_pure_nash(game, atwolinks(game)):
            ok += 1
    return ok


def seed_examine_e2_chunk(chunk):
    """How many of the chunk's symmetric games Asymmetric solves."""
    ok = 0
    for seed in chunk.seeds():
        game = random_symmetric_game(chunk.num_users, chunk.num_links, seed=seed)
        if is_pure_nash(game, asymmetric(game)):
            ok += 1
    return ok


def seed_examine_e3_chunk(chunk):
    """How many of the chunk's uniform-beliefs games Auniform solves."""
    ok = 0
    for seed in chunk.seeds():
        game = random_uniform_beliefs_game(
            chunk.num_users, chunk.num_links, with_initial_traffic=True, seed=seed
        )
        if is_pure_nash(game, auniform(game)):
            ok += 1
    return ok


def seed_examine_e4_chunk(chunk):
    """(games with a pure NE, best-response-graph cycles) for one chunk."""
    with_pne = 0
    cycles = 0
    for seed in chunk.seeds():
        game = random_game(chunk.num_users, chunk.num_links, seed=seed)
        if count_pure_nash(game) > 0:
            with_pne += 1
        graph = best_response_graph(game)
        if find_response_cycle(graph) is not None:
            cycles += 1
    return with_pne, cycles


# --- seed experiments/campaign.py E6 chunk kernels ------------------ #


def seed_probe_move(label, game, seed):
    """A reproducible (profile, user, new link) probe for one instance."""
    draw = as_generator(stable_seed(label, "probe", seed))
    sigma = draw.integers(0, game.num_links, size=game.num_users)
    user = int(draw.integers(game.num_users))
    new_link = int(draw.integers(game.num_links))
    return sigma, user, new_link


def seed_examine_e6_gap_chunk(chunk):
    """Exact-potential 4-cycle gaps for the chunk's general games."""
    gaps = []
    for seed in chunk.seeds():
        game = random_game(chunk.num_users, chunk.num_links, seed=seed)
        gaps.append(
            float(seed_exact_potential_cycle_gap(game, num_samples=200, seed=seed))
        )
    return gaps


def seed_examine_e6_kp_chunk(chunk):
    """Weighted-potential identity verdict over the chunk's KP games."""
    ok = True
    for seed in chunk.seeds():
        game = random_kp_game(chunk.num_users, chunk.num_links, seed=seed)
        sigma, user, new_link = seed_probe_move(chunk.label, game, seed)
        ok = ok and seed_verify_weighted_potential(game, sigma, user, new_link)
    return bool(ok)


def seed_examine_e6_sym_chunk(chunk):
    """Ordinal-potential identity verdict over the chunk's symmetric games."""
    ok = True
    for seed in chunk.seeds():
        game = random_symmetric_game(chunk.num_users, chunk.num_links, seed=seed)
        sigma, user, new_link = seed_probe_move(chunk.label, game, seed)
        ok = ok and seed_verify_ordinal_potential_symmetric(
            game, sigma, user, new_link
        )
    return bool(ok)


# --- the frozen grids (as of the pre-batch pipeline) ---------------- #


def e1_cells(*, quick):
    sizes = [2, 3, 5, 8, 13, 21] if quick else [2, 3, 5, 8, 13, 21, 34, 55, 89]
    reps = 10 if quick else 30
    return [GridCell(n, 2, reps) for n in sizes]


def e2_cells(*, quick):
    pairs = [(3, 2), (5, 3), (8, 4)] if quick else [
        (3, 2), (5, 3), (8, 4), (13, 5), (21, 6), (34, 8),
    ]
    reps = 10 if quick else 30
    return [GridCell(n, m, reps) for (n, m) in pairs]


def e3_cells(*, quick):
    pairs = [(4, 2), (8, 3), (16, 4)] if quick else [
        (4, 2), (8, 3), (16, 4), (32, 5), (64, 8), (128, 8), (512, 16),
    ]
    reps = 10 if quick else 30
    return [GridCell(n, m, reps) for (n, m) in pairs]


def e4_cells(*, quick):
    reps = 40 if quick else 250
    return [GridCell(3, m, reps) for m in [2, 3, 4]]


def e6_cells(*, quick):
    reps = 5 if quick else 25
    return {
        "E6-gap": GridCell(3, 3, reps),
        "E6-kp": GridCell(4, 3, reps),
        "E6-sym": GridCell(4, 3, reps),
    }


class _Chunk:
    """A minimal stand-in for the runtime's ReplicationChunk (one cell)."""

    def __init__(self, label, cell):
        self.label = label
        self.num_users = cell.num_users
        self.num_links = cell.num_links
        self.rep_lo = 0
        self.rep_hi = cell.replications

    def seeds(self):
        return [
            stable_seed(self.label, self.num_users, self.num_links, rep)
            for rep in range(self.rep_lo, self.rep_hi)
        ]


def generate_baseline():
    """Recompute the frozen E1-E4/E6 fingerprints with the seed pipeline."""
    out = {}
    for quick in (True, False):
        mode = "quick" if quick else "full"
        fingerprint = {}
        for label, cells, kernel in (
            ("E1", e1_cells(quick=quick), seed_examine_e1_chunk),
            ("E2", e2_cells(quick=quick), seed_examine_e2_chunk),
            ("E3", e3_cells(quick=quick), seed_examine_e3_chunk),
        ):
            fingerprint[label] = [
                [cell.num_users, cell.num_links, cell.replications,
                 kernel(_Chunk(label, cell))]
                for cell in cells
            ]
        fingerprint["E4"] = []
        for cell in e4_cells(quick=quick):
            with_pne, cycles = seed_examine_e4_chunk(_Chunk("E4", cell))
            fingerprint["E4"].append(
                [cell.num_users, cell.num_links, cell.replications,
                 with_pne, cycles]
            )
        e6 = e6_cells(quick=quick)
        fingerprint["E6"] = {
            "gaps": seed_examine_e6_gap_chunk(_Chunk("E6-gap", e6["E6-gap"])),
            "kp_ok": seed_examine_e6_kp_chunk(_Chunk("E6-kp", e6["E6-kp"])),
            "sym_ok": seed_examine_e6_sym_chunk(_Chunk("E6-sym", e6["E6-sym"])),
        }
        out[mode] = fingerprint
    return out


if __name__ == "__main__":  # pragma: no cover
    import json
    from pathlib import Path

    target = Path(__file__).resolve().parent.parent / "tests" / "data"
    target /= "pure_seed_baseline.json"
    with target.open("w") as fh:
        json.dump(generate_baseline(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {target}")
