import numpy as np
import pytest

from skilldiff.envs import ENV_PRESETS, build_env


@pytest.fixture(scope="session")
def cliff_bundle():
    return build_env(ENV_PRESETS["cliff"])


@pytest.fixture(scope="session")
def puzzle_bundle():
    return build_env(ENV_PRESETS["puzzle8"])


@pytest.fixture(scope="session")
def cube_bundle():
    """Full pocket-cube build (about five seconds); shared across the session."""
    return build_env(ENV_PRESETS["cube"])


def random_dsmdp(rng, num_states, num_actions, dead_frac=0.15):
    """Random deterministic sparse-reward MDP (not necessarily separable)."""
    from skilldiff.mdp import TabularDsmdp

    n = num_states
    succ = rng.integers(0, n, size=(n, num_actions)).astype(np.int32)
    dead = rng.random(size=succ.shape) < dead_frac
    succ[dead] = n
    succ[0] = n  # goal row
    return TabularDsmdp(successor=succ, goal=0,
                        action_labels=[f"a{i}" for i in range(num_actions)])
