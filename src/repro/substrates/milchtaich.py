"""The Milchtaich separation (experiment E12).

Milchtaich [17] proved that weighted singleton congestion games with
player-specific payoff functions need not possess a pure Nash equilibrium
and exhibited a 3-player/3-link counterexample. The paper under
reproduction observes that this phenomenon *cannot arise in its model*:
for three users the belief game always has a pure NE (Section 3.1),
because its cost functions are multiplicatively separable.

The IPPS paper does not reprint Milchtaich's payoff table, so this module
ships a witness **derived from scratch** by an exact constraint search
(:func:`search_no_pne_instance`): pick, for every one of the 27 pure
profiles, one deviation that must strictly improve; each pick is a strict
inequality between two cost-table entries; together with the monotonicity
chains this forms a partial order that is consistent iff no cycle
contains a strict edge. A satisfying selection was found for weights
``(1, 2, 3)`` and its longest-path labelling gives the integer tables of
:data:`WITNESS_TABLES` — verified to admit **no** pure Nash equilibrium
over all 27 profiles.

For the contrast, :func:`multiplicative_pne_sweep` draws cost tables of
the paper's restricted form ``load / c^l_i`` and confirms every sampled
instance has a pure NE.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from graphlib import TopologicalSorter

import numpy as np

from repro.errors import SolverError
from repro.model.social import enumerate_assignments
from repro.substrates.player_specific import PlayerSpecificGame
from repro.util.rng import RandomState, as_generator, spawn_generators

__all__ = [
    "WITNESS_WEIGHTS",
    "WITNESS_TABLES",
    "CounterexampleReport",
    "search_no_pne_instance",
    "canonical_counterexample",
    "multiplicative_pne_sweep",
    "multiplicative_pne_hits",
]

#: Weights of the stored no-PNE witness.
WITNESS_WEIGHTS: tuple[int, ...] = (1, 2, 3)

#: Cost tables (players x links x loads 1..6) of the stored witness,
#: found by the exact constraint search with seed fixed; nondecreasing in
#: the load and admitting no pure NE. Index ``[i][l][L-1]`` is the cost
#: of player ``i`` on link ``l`` at total load ``L``.
WITNESS_TABLES: tuple = (
    ((3, 3, 3, 3, 3, 3), (2, 2, 2, 2, 2, 2), (1, 1, 1, 4, 4, 4)),
    ((1, 4, 4, 4, 4, 4), (1, 1, 3, 3, 3, 3), (1, 1, 2, 2, 2, 2)),
    ((1, 1, 2, 2, 2, 2), (1, 1, 3, 3, 3, 3), (1, 1, 1, 1, 3, 3)),
)


#: Backtracking steps per restart of :func:`search_no_pne_instance`.
#: Seed 2's sixth restart succeeds in 28; the five before it run past
#: 20 000, so any cap in between gives the same witness.
MAX_BACKTRACK_CALLS = 1_000


@dataclass(frozen=True)
class CounterexampleReport:
    """A player-specific game without pure NE, plus search metadata."""

    game: PlayerSpecificGame
    tries: int
    seed: int

    def verify(self) -> bool:
        """Re-run the exhaustive check on the stored witness."""
        return not self.game.exists_pure_nash()


def _witness_game() -> PlayerSpecificGame:
    w = np.asarray(WITNESS_WEIGHTS, dtype=np.int64)
    total = int(w.sum())
    n = w.size
    m = len(WITNESS_TABLES[0])
    tables = np.zeros((n, m, total + 1))
    for i in range(n):
        for l in range(m):
            tables[i, l, 1:] = WITNESS_TABLES[i][l]
            tables[i, l, 0] = tables[i, l, 1]
    return PlayerSpecificGame(w, tables)


@lru_cache(maxsize=1)
def canonical_counterexample() -> CounterexampleReport:
    """The stored, verified no-PNE witness (instant)."""
    return CounterexampleReport(game=_witness_game(), tries=0, seed=0)


# --------------------------------------------------------------------- #
# exact constraint search (how the witness was derived)
# --------------------------------------------------------------------- #


def search_no_pne_instance(
    *,
    weights: tuple[int, ...] = WITNESS_WEIGHTS,
    num_links: int = 3,
    max_restarts: int = 25,
    seed: RandomState = 0,
) -> CounterexampleReport:
    """Exact backtracking search for a no-PNE player-specific game.

    Chooses one strictly-improving deviation per pure profile and checks
    the induced strict partial order on cost-table entries for
    consistency (a strict edge ``a < b`` is infeasible iff a path
    ``b -> a`` already exists). Randomised restarts reshuffle profile and
    option orders, each with :data:`MAX_BACKTRACK_CALLS` steps. Returns
    the first consistent selection, materialised into integer cost
    tables by longest-path levelling and *verified* against all profiles.

    Raises :class:`~repro.errors.SolverError` when *max_restarts* run out
    — use :func:`canonical_counterexample` for a guaranteed witness.
    """
    rng = as_generator(seed)
    w = np.asarray(weights, dtype=np.int64)
    for tries in range(1, max_restarts + 1):
        restart_seed = int(rng.integers(2**62))
        chosen = _search_selection(w, num_links, restart_seed)
        if chosen is None:
            continue
        tables = _tables_from_selection(w, num_links, chosen)
        game = PlayerSpecificGame(w, tables)
        if not game.exists_pure_nash():
            seed_tag = seed if isinstance(seed, int) else -1
            return CounterexampleReport(game=game, tries=tries, seed=seed_tag)
    raise SolverError(
        f"no counterexample found within {max_restarts} restarts for weights "
        f"{tuple(int(x) for x in w)} — use canonical_counterexample()"
    )


def _profile_options(w: np.ndarray, m: int) -> list[list[tuple[tuple, tuple]]]:
    """For each pure profile, the candidate strict constraints
    ``cost(alt) < cost(current)`` — one per unilateral deviation."""
    n = w.size
    profiles = []
    for row in enumerate_assignments(n, m):
        loads = np.bincount(row, weights=w, minlength=m).astype(int)
        opts = []
        for i in range(n):
            cur = (i, int(row[i]), int(loads[row[i]]))
            for link in range(m):
                if link == row[i]:
                    continue
                opts.append(((i, link, int(loads[link] + w[i])), cur))
        profiles.append(opts)
    return profiles


def _search_selection(
    w: np.ndarray, m: int, seed: int
) -> list[tuple[tuple, tuple]] | None:
    """One randomized backtracking run; None on exhaustion of any kind."""
    n = w.size
    total = int(w.sum())
    rng = np.random.default_rng(seed)
    profiles = _profile_options(w, m)
    order = rng.permutation(len(profiles))
    profiles = [profiles[k] for k in order]
    for opts in profiles:
        rng.shuffle(opts)

    succ: dict[tuple, set] = defaultdict(set)
    refcount: dict[tuple, int] = defaultdict(int)
    for i in range(n):
        for link in range(m):
            for load in range(1, total):
                succ[(i, link, load)].add((i, link, load + 1))
                refcount[((i, link, load), (i, link, load + 1))] += 1

    def reachable(src: tuple, dst: tuple) -> bool:
        if src == dst:
            return True
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            for nxt in succ[node]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    chosen: list = [None] * len(profiles)
    calls = itertools.count(1)

    def forward_ok(k: int) -> bool:
        return all(
            any(not reachable(b, a) for a, b in profiles[j])
            for j in range(k, len(profiles))
        )

    def backtrack(k: int) -> bool:
        if next(calls) > MAX_BACKTRACK_CALLS:
            raise SolverError("restart budget exhausted")
        if k == len(profiles):
            return True
        for a, b in profiles[k]:
            if reachable(b, a):
                continue
            refcount[(a, b)] += 1
            succ[a].add(b)
            chosen[k] = (a, b)
            if forward_ok(k + 1) and backtrack(k + 1):
                return True
            refcount[(a, b)] -= 1
            if refcount[(a, b)] == 0:
                succ[a].discard(b)
            chosen[k] = None
        return False

    try:
        return list(chosen) if backtrack(0) else None
    except SolverError:
        return None


def _tables_from_selection(
    w: np.ndarray, m: int, chosen: list[tuple[tuple, tuple]]
) -> np.ndarray:
    """Longest-path levelling of the strict partial order into tables
    (acyclic: the search adds ``a -> b`` only if no path ``b -> a``)."""
    n = w.size
    total = int(w.sum())
    preds: dict[tuple, dict[tuple, int]] = defaultdict(dict)
    for i in range(n):
        for link in range(m):
            for load in range(1, total):
                preds[(i, link, load + 1)][(i, link, load)] = 0
    for a, b in chosen:
        preds[b][a] = 1
    level: dict[tuple, int] = {}
    for node in TopologicalSorter(preds).static_order():
        level[node] = max(
            (level[p] + bump for p, bump in preds.get(node, {}).items()), default=0
        )
    tables = np.zeros((n, m, total + 1))
    for i in range(n):
        for link in range(m):
            for load in range(1, total + 1):
                tables[i, link, load] = 1.0 + level[(i, link, load)]
            tables[i, link, 0] = tables[i, link, 1]
    return tables


def multiplicative_pne_sweep(
    *,
    num_instances: int = 200,
    weights: tuple[int, ...] = WITNESS_WEIGHTS,
    num_links: int = 3,
    seed: RandomState = 0,
) -> int:
    """Count sampled *multiplicative* instances possessing a pure NE.

    Cost tables take the paper's form ``load / c^l_i`` with random
    player-specific capacities — the same weights and link count as the
    witness. Returning ``num_instances`` (all of them) reproduces the
    paper's point that Milchtaich's negative result does not transfer to
    the belief model.

    Each instance draws from its own spawned child stream (the library's
    per-rep seeding pattern), so instance ``k`` is reproducible in
    isolation and independent of how many instances ran before it.
    """
    streams = spawn_generators(seed, num_instances)
    w = np.asarray(weights, dtype=np.int64)
    total = int(w.sum())
    loads = np.arange(total + 1, dtype=np.float64)
    hits = 0
    for rng in streams:
        caps = rng.uniform(0.25, 4.0, size=(w.size, num_links))
        tables = loads[None, None, :] / caps[:, :, None]
        game = PlayerSpecificGame(w, tables)
        if game.exists_pure_nash():
            hits += 1
    return hits


def multiplicative_pne_hits(
    seeds,
    *,
    weights: tuple[int, ...] = WITNESS_WEIGHTS,
    num_links: int = 3,
) -> int:
    """Count multiplicative instances with a pure NE, one per seed.

    The campaign-runtime form of :func:`multiplicative_pne_sweep`: the
    caller supplies one independent stream seed per instance (the E12
    kernel passes its chunk's :func:`~repro.util.rng.stable_seed`
    values), so the sweep can be chunked, parallelised and resumed
    without a shared parent stream.
    """
    w = np.asarray(weights, dtype=np.int64)
    total = int(w.sum())
    loads = np.arange(total + 1, dtype=np.float64)
    hits = 0
    for seed in seeds:
        rng = as_generator(int(seed))
        caps = rng.uniform(0.25, 4.0, size=(w.size, num_links))
        tables = loads[None, None, :] / caps[:, :, None]
        game = PlayerSpecificGame(w, tables)
        if game.exists_pure_nash():
            hits += 1
    return hits
