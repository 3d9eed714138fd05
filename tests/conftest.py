"""Shared fixtures: canonical small games used across the suite, and a
fresh interpreter for checks of what a process imports."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.model.beliefs import Belief, BeliefProfile
from repro.model.game import UncertainRoutingGame
from repro.model.state import StateSpace


@pytest.fixture
def two_state_space() -> StateSpace:
    """Two states over two links with mirrored capacities."""
    return StateSpace([[1.0, 2.0], [2.0, 1.0]], names=("fast-right", "fast-left"))


@pytest.fixture
def simple_game(two_state_space: StateSpace) -> UncertainRoutingGame:
    """Two users with opposing beliefs on the mirrored two-link network."""
    beliefs = BeliefProfile.from_matrix(
        two_state_space, [[0.9, 0.1], [0.2, 0.8]]
    )
    return UncertainRoutingGame([1.0, 2.0], beliefs)


@pytest.fixture
def three_user_game() -> UncertainRoutingGame:
    """Three users, three links, distinct deterministic reduced forms."""
    caps = np.array(
        [
            [1.0, 2.0, 3.0],
            [3.0, 1.0, 2.0],
            [2.0, 3.0, 1.0],
        ]
    )
    return UncertainRoutingGame.from_capacities([1.0, 1.5, 2.5], caps)


@pytest.fixture
def kp_game_fixture() -> UncertainRoutingGame:
    """A classic complete-information KP instance."""
    return UncertainRoutingGame.kp([2.0, 1.0, 1.0], [2.0, 1.0])


@pytest.fixture
def uniform_beliefs_game() -> UncertainRoutingGame:
    """Four users who each believe all three links equally fast."""
    caps = np.repeat(np.array([[1.0], [2.0], [0.5], [1.5]]), 3, axis=1)
    return UncertainRoutingGame.from_capacities([3.0, 2.0, 2.0, 1.0], caps)


@pytest.fixture
def fresh_python():
    """Run a script in a fresh interpreter on ``src/``; returns its stdout.

    For checks of what a process imports, which this one, having run
    other tests, cannot show.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(script: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
