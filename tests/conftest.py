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
def pickup_bundle():
    return build_env(ENV_PRESETS["pickup"])


@pytest.fixture(scope="session")
def cube_bundle():
    """Full pocket-cube build (about three seconds); shared across the session."""
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


def exact_q(mdp, delta):
    """q* as Fractions; see ``exact_solve``."""
    return exact_solve(mdp, delta)[0]


def exact_solve(mdp, delta):
    """(q*, t*) as Fractions: Gauss-Jordan elimination of
    (I - cP_SS) [q_S, t_S] = [b_S, 1] in exact rational arithmetic, with
    c = (1 - delta)/|A| and b the goal column of cP.

    S holds the non-goal states, only the solvable ones (by BFS) when
    delta = 0, where q = 0 elsewhere and the full system is singular; t* is
    0 outside S, so max(t*) = ||(I - cP_SS)^-1||_inf.  delta may be a float
    (taken exactly) or a Fraction."""
    from fractions import Fraction

    from skilldiff.mdp import shortest_solution_lengths

    n = mdp.num_states
    c = (1 - Fraction(delta)) / mdp.num_actions
    solvable = shortest_solution_lengths(mdp).solvable
    S = [s for s in range(n)
         if s != mdp.goal and (delta != 0 or solvable[s])]
    pos = {s: i for i, s in enumerate(S)}
    k = len(S)
    rows = [[Fraction(0)] * k + [Fraction(0), Fraction(1)] for _ in range(k)]
    for i, s in enumerate(S):
        rows[i][i] += 1
        for t in mdp.successor[s].tolist():
            if t == mdp.goal:
                rows[i][k] += c
            elif t in pos:
                rows[i][pos[t]] -= c
    for col in range(k):
        piv = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    q = [Fraction(0)] * n
    t = [Fraction(0)] * n
    q[mdp.goal] = Fraction(1)
    for i, s in enumerate(S):
        q[s] = rows[i][k] / rows[i][i]
        t[s] = rows[i][k + 1] / rows[i][i]
    return q, t
