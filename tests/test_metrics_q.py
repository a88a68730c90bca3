"""q-solver, difficulty, density, and per-length-count tests.

The q oracle here is an independent per-length enumeration: it counts exact-
arrival solutions length by length through a dictionary-based forward fold,
never touching the fixed-point solver.
"""

from fractions import Fraction

import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain, build_sequence_consume
from skilldiff.mdp import TabularDsmdp
from skilldiff.metrics import (DeltaZeroError, NotConvergedError,
                               QUnderflowError, p_exploration_difficulty,
                               p_exploration_difficulty_am,
                               p_learning_difficulty, per_length_counts,
                               solution_density, solve_q)
from skilldiff.metrics.solver import DIRECT_MAX_STATES

from conftest import exact_q, random_dsmdp


def oracle_q_per_start(mdp, s0, delta, l_max):
    """(q estimate, truncation bound) for one start state."""
    coef = (1.0 - delta) / mdp.num_actions
    alive = {s0: 1.0}
    total = 0.0
    for _ in range(l_max):
        nxt: dict = {}
        for s, mass in alive.items():
            for a in range(mdp.num_actions):
                t = int(mdp.successor[s, a])
                if t == mdp.dead:
                    continue
                nxt[t] = nxt.get(t, 0.0) + mass * coef
        total += nxt.pop(mdp.goal, 0.0)
        alive = nxt
    return total, sum(alive.values())


def test_q_all_actions_to_goal():
    succ = np.array([[2, 2], [0, 0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    for delta in (0.0, 0.1, 0.5):
        q = solve_q(mdp, delta)
        assert q.q[1] == pytest.approx(1.0 - delta, abs=1e-12)


def test_q_chain_closed_form():
    mdp, _ = build_chain(6)
    for delta in (0.0, 0.02, 0.3):
        q = solve_q(mdp, delta)
        for s in range(1, 7):
            assert q.q[s] == pytest.approx((1.0 - delta) ** s, abs=1e-10)


def test_q_oracle_equivalence_small_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mdp = random_dsmdp(rng, int(rng.integers(3, 13)),
                           int(rng.integers(1, 4)))
        for delta in (0.0, 0.1):
            q = solve_q(mdp, delta)
            for s in rng.integers(1, mdp.num_states, size=3):
                est, bound = oracle_q_per_start(mdp, int(s), delta, 60)
                assert abs(q.q[s] - est) <= bound + 1e-9


def test_q_not_converged_reports_residual():
    # longer than the cut-off, so the sweep loop starts from zero
    mdp, _ = build_chain(DIRECT_MAX_STATES + 50)
    with pytest.raises(NotConvergedError) as e:
        solve_q(mdp, 0.0, tol=1e-15, max_iter=5)
    assert e.value.residual > 0.0


def test_q_goal_is_one_dead_is_absent():
    mdp, _ = build_chain(2)
    q = solve_q(mdp, 0.2)
    assert q.q[mdp.goal] == 1.0
    assert len(q.q) == mdp.num_states


def test_learning_difficulty_examples(cliff_bundle):
    mdp, p, _ = cliff_bundle
    assert p_learning_difficulty(mdp, p) == pytest.approx(52.0)


def test_exploration_difficulty_chain_delta0():
    mdp, p = build_chain(5)
    q = solve_q(mdp, 0.0)
    assert p_exploration_difficulty(mdp, p, q) == pytest.approx(0.0, abs=1e-9)


# q*(start) on the cliff at delta = 1/50, rounded to float from the exact
# rational solution; test_cliff_q_start_is_the_exact_fixed_point re-derives it
CLIFF_Q_START = 0.003038647526683348


def test_cliff_q_start_is_the_exact_fixed_point(cliff_bundle):
    mdp, _, info = cliff_bundle
    exact = exact_q(mdp, Fraction(1, 50))[info["start"]]
    assert CLIFF_Q_START == float(exact)


def test_cliff_exploration_regression(cliff_bundle):
    mdp, p, info = cliff_bundle
    q = solve_q(mdp, 1.0 / 50.0)
    assert q.q[info["start"]] == pytest.approx(CLIFF_Q_START, abs=1e-12)
    je = p_exploration_difficulty(mdp, p, q)
    assert je == pytest.approx(-np.log(CLIFF_Q_START), abs=1e-9)
    # single start: arithmetic and geometric means coincide exactly
    assert p_exploration_difficulty_am(mdp, p, q) == je


def test_underflow_raises():
    mdp, p = build_chain(3)
    q = solve_q(mdp, 0.1)
    q.q[:] = 0.0
    q.q[mdp.goal] = 1.0
    with pytest.raises(QUnderflowError):
        p_exploration_difficulty(mdp, p, q)


def test_density_closed_form_sequence_consume():
    # coverage is exactly 1 for each length l <= L, so
    # D = sum_{l<=L} delta (1-delta)^{l-1}
    delta = 0.25
    for L in (1, 2, 4):
        mdp, _ = build_sequence_consume(2, L)
        q = solve_q(mdp, delta)
        d = solution_density(mdp, delta, q)
        expect = sum(delta * (1 - delta) ** (l - 1) for l in range(1, L + 1))
        assert d == pytest.approx(expect, abs=1e-10)


def test_density_needs_positive_delta():
    mdp, _ = build_chain(3)
    q = solve_q(mdp, 0.0)
    with pytest.raises(DeltaZeroError):
        solution_density(mdp, 0.0, q)


def test_density_mass_skill_augmentation():
    # one skill sending every solvable state straight to the goal pushes the
    # density toward delta * |solvable|
    from skilldiff.metrics import canonical_shortest_solution
    from skilldiff.skills import Skill, augment

    mdp, _ = build_chain(10)
    seqs = [canonical_shortest_solution(mdp, s) if s != mdp.goal else ()
            for s in range(mdp.num_states)]
    skills = [Skill.from_sequences(seqs, label=f"solve{j}")
              for j in range(60)]
    delta = 0.1
    aug = augment(mdp, skills)
    q = solve_q(aug.mdp, delta)
    dens = solution_density(aug.mdp, delta, q)
    assert dens == pytest.approx(delta * 10, rel=0.05)


# -- per-length counts --------------------------------------------------------

def test_counts_chain():
    mdp, _ = build_chain(4)
    c = per_length_counts(mdp, 6)
    for s in range(1, 5):
        for l in range(1, 7):
            assert c.counts[s, l] == (1.0 if l == s else 0.0)


def test_counts_two_parallel_goal_actions():
    succ = np.array([[2, 2], [0, 0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    c = per_length_counts(mdp, 3)
    assert c.counts[1, 1] == 2.0
    assert c.counts[1, 2] == 0.0


def test_counts_recurrence_and_reconstruction():
    rng = np.random.default_rng(12)
    for _ in range(10):
        mdp = random_dsmdp(rng, 10, 2)
        L = 40
        c = per_length_counts(mdp, L)
        # recurrence: counts(s, l) = sum_a counts(T(s,a), l-1)
        pad = np.vstack([c.counts, np.zeros(L + 1)])
        for s in range(1, 10):
            for l in range(1, L + 1):
                expect = sum(pad[mdp.successor[s, a], l - 1]
                             for a in range(2))
                assert c.counts[s, l] == expect
        for delta in (0.05, 0.2):
            q = solve_q(mdp, delta)
            recon = c.reconstruct_q(delta)
            assert np.all(np.abs(recon - q.q) <= (1 - delta) ** L + 1e-9)


def test_length_dp_rejects_a_negative_l_max():
    from skilldiff.experiments import (random_invertible_mdp,
                                       random_macro_skills)
    from skilldiff.metrics import expansion_length_q
    from skilldiff.skills import GOAL_PASS_DEAD, augment

    mdp, _ = build_chain(4)
    with pytest.raises(ValueError, match="l_max"):
        per_length_counts(mdp, -1)
    rng = np.random.default_rng(13)
    base = random_invertible_mdp(rng, 8, 2)
    aug = augment(base, random_macro_skills(rng, base), GOAL_PASS_DEAD)
    with pytest.raises(ValueError, match="l_max"):
        expansion_length_q(aug, -1)


def test_counts_cliff_optimal_paths(cliff_bundle):
    mdp, _, info = cliff_bundle
    c = per_length_counts(mdp, 15)
    # the optimal 13-step route is unique: up, eleven rights, down
    assert c.counts[info["start"], 13] == 1.0
