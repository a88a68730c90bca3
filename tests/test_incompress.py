import warnings

import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain
from skilldiff.mdp import StateDistribution, TabularDsmdp, shortest_solution_lengths
from skilldiff.metrics import (DegenerateDenominatorError,
                               compute_difficulty_report, ic_expressive,
                               ic_merged, ic_unmerged,
                               max_entropy_assignment,
                               merged_solution_entropy,
                               min_entropy_assignment,
                               enumerate_shortest_solutions)
from skilldiff.metrics.incompress import _exhaustive_entropy
from skilldiff.metrics.tightness import tightness_augmentation
from skilldiff.skills import GOAL_PASS_DEAD, Skill, augment, macro_from_labels


def two_state_mdp():
    """p uniform over two states at distance 1, |A| = 2, separable."""
    succ = np.array([[4, 4], [0, 4], [4, 0], [4, 4]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    p = StateDistribution(np.array([0.0, 0.5, 0.5, 0.0]))
    return mdp, p


def dense_epsilon_sweep(H, Ed, A, num=200_000):
    eps = np.linspace(1e-6, 1 - 1e-6, num)
    vals = (H - np.log((1 - eps) / eps)) / (Ed * np.log(A / (1 - eps)))
    return float(vals.max())


def test_fixed_epsilon_clamps_negative(cliff_bundle):
    mdp, p, _ = cliff_bundle
    ic = ic_unmerged(mdp, p, mode="fixed_epsilon", epsilon=1.0 / 50.0)
    assert ic.value == 0.0
    assert ic.clamped


def test_sup_mode_never_below_boundary(cliff_bundle):
    mdp, p, _ = cliff_bundle
    sup = ic_unmerged(mdp, p, mode="sup")
    assert sup.value >= 1.0 / 13.0 - 1e-12
    assert sup.value == pytest.approx(1.0 / 13.0)  # point mass: H[p] = 0


def test_sup_matches_dense_sweep_oracle():
    mdp, p = two_state_mdp()
    ic = ic_unmerged(mdp, p, mode="sup")
    oracle = dense_epsilon_sweep(np.log(2.0), 1.0, 2.0)
    # the calculus supremum is 1 (attained in the eps -> 1 limit)
    assert ic.value == pytest.approx(1.0, abs=1e-9)
    assert oracle <= ic.value + 1e-6
    assert ic.value - oracle < 1e-4


def test_sup_matches_dense_sweep_interior_case(puzzle_bundle):
    mdp, p, _ = puzzle_bundle
    d = shortest_solution_lengths(mdp)
    ic = ic_unmerged(mdp, p, mode="sup", d=d)
    oracle = dense_epsilon_sweep(p.entropy(), d.expected(p),
                                 mdp.num_actions)
    assert ic.value == pytest.approx(max(oracle, 1.0 / d.expected(p)),
                                     abs=1e-6)


def test_unmerged_needs_multiple_actions():
    mdp, p = build_chain(3)
    with pytest.raises(DegenerateDenominatorError):
        ic_unmerged(mdp, p)


# -- canonical assignment machinery ------------------------------------------

def test_max_entropy_matching_exact():
    probs = np.array([0.5, 0.3, 0.2])
    cands = [["x", "y"], ["y"], ["z"]]
    res = max_entropy_assignment(probs, cands)
    assert res.method == "matching_exact"
    assert res.entropy == pytest.approx(-(probs * np.log(probs)).sum())


def test_max_entropy_exhaustive_oracle():
    # 3 states, only 2 distinct solutions: exhaustive max over assignments
    probs = np.array([0.5, 0.3, 0.2])
    cands = [["x", "y"], ["x", "y"], ["x", "y"]]
    res = max_entropy_assignment(probs, cands)
    assert res.method == "exhaustive_exact"
    best = -1.0
    for c0 in "xy":
        for c1 in "xy":
            for c2 in "xy":
                mass = {}
                for c, q in zip((c0, c1, c2), probs):
                    mass[c] = mass.get(c, 0.0) + q
                m = np.array(list(mass.values()))
                best = max(best, float(-(m * np.log(m)).sum()))
    assert res.entropy == pytest.approx(best)


def test_exhaustive_search_declines_a_large_support_without_overflow():
    # 2,000 states of two candidates each: the count product 2^2000 is beyond
    # float64, and the support size alone already rules the search out
    n = 2000
    probs = np.full(n, 1.0 / n)
    cands = [[2 * i, 2 * i + 1] for i in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _exhaustive_entropy(probs, cands, max) is None
        assert _exhaustive_entropy(probs, cands, min) is None


def test_min_entropy_merges_everything_possible():
    probs = np.array([0.5, 0.3, 0.2])
    res = min_entropy_assignment(probs, [["x", "y"], ["x"], ["x", "z"]])
    assert res.method == "exhaustive_exact"
    assert res.entropy == pytest.approx(0.0)  # all pick "x"


def test_greedy_is_lower_bound():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = 14  # above the exhaustive support cap
        probs = rng.dirichlet(np.ones(n))
        keys = list("abcdef")
        cands = [list(rng.choice(keys, size=rng.integers(1, 4),
                                 replace=False)) for _ in range(n)]
        res = max_entropy_assignment(probs, cands)
        hp = float(-(probs * np.log(probs)).sum())
        assert res.entropy <= hp + 1e-12


# -- merged incompressibility -------------------------------------------------

def test_single_skill_to_goal_gives_zero_merged_ic():
    # all support states (at base distance >= 2) share the one-token shortest
    # solution (z), so H[P+] = 0 and the fixed-epsilon incompressibility
    # clamps to zero; the sup convention instead lands on the eps -> 1
    # boundary limit 1/E[d0] (the same convention split as the published
    # zero-entropy table entry).
    from skilldiff.metrics import canonical_shortest_solution

    # chain with two actions so |A0| > 1: second action duplicates the first
    base = np.array([[5, 5], [0, 0], [1, 1], [2, 2], [3, 3]], dtype=np.int32)
    mdp = TabularDsmdp(successor=base, goal=0, action_labels=["a", "b"])
    p = StateDistribution(np.array([0.0, 0.0, 0.4, 0.3, 0.3]))
    d = shortest_solution_lengths(mdp)
    seqs = [canonical_shortest_solution(mdp, s) if d.solvable[s] and
            s != mdp.goal else () for s in range(mdp.num_states)]
    z = Skill.from_sequences(seqs, label="solve")
    aug = augment(mdp, [z], mode=GOAL_PASS_DEAD)
    asg = merged_solution_entropy(aug, p)
    assert asg.entropy == pytest.approx(0.0)  # every state's solution is (z)
    fixed = ic_merged(aug, p, mode="fixed_epsilon", epsilon=1.0 / 50.0)
    assert fixed.value == 0.0 and fixed.clamped
    sup = ic_merged(aug, p, mode="sup")
    assert sup.value == pytest.approx(1.0 / d.expected(p))


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 1.5])
def test_fixed_epsilon_outside_the_open_unit_interval_is_rejected(epsilon):
    from skilldiff.experiments import build_star_base

    mdp, p = build_star_base(4)
    aug = augment(mdp, [], mode=GOAL_PASS_DEAD)
    with pytest.raises(ValueError, match="epsilon"):
        ic_unmerged(mdp, p, mode="fixed_epsilon", epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        ic_merged(aug, p, mode="fixed_epsilon", epsilon=epsilon)


def test_macro_augmentation_merged_equals_unmerged():
    # distinct solutions stay distinct under macros in a separable base
    from skilldiff.experiments import random_invertible_mdp, random_macro_skills

    rng = np.random.default_rng(14)
    for _ in range(10):
        mdp = random_invertible_mdp(rng, int(rng.integers(5, 12)), 2)
        p_arr = np.zeros(mdp.num_states)
        sup = [s for s in range(mdp.num_states) if s != mdp.goal]
        p_arr[sup] = rng.dirichlet(np.ones(len(sup)))
        p = StateDistribution(p_arr)
        aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
        icm = ic_merged(aug, p, mode="sup")
        icu = ic_unmerged(mdp, p, mode="sup")
        assert icm.method == "separable_exact"
        assert icm.value == icu.value


def test_cube_merged_and_expressive_ic_are_exact_by_separability(
        cube_bundle):
    # the cube and its cube/top augmentation are solution-separable, so
    # neither IC enumerates the 3.67M support states' solutions
    from skilldiff.experiments import VariantSpec, materialize_variant
    from skilldiff.skills import MACRO_PRESETS

    mdp, p, _ = cube_bundle
    aug = materialize_variant(
        mdp, VariantSpec("cube/top", list(MACRO_PRESETS["cube/top"])),
        GOAL_PASS_DEAD)
    icu = ic_unmerged(mdp, p, mode="sup")
    for ic in (ic_merged(aug, p, mode="sup"),
               ic_expressive(mdp, p, 1.0, mode="sup")):
        assert (ic.method, ic.value) == ("separable_exact", icu.value)


def test_difficulty_report_of_an_augmentation_adds_merged_ic(cliff_bundle):
    mdp, p, _ = cliff_bundle
    aug = augment(mdp, [macro_from_labels("RR", mdp.action_labels)],
                  GOAL_PASS_DEAD)
    rep = compute_difficulty_report(aug, p, 1.0 / 50.0)
    table = compute_difficulty_report(aug.mdp, p, 1.0 / 50.0)
    assert rep.goal_pass_mode == GOAL_PASS_DEAD
    assert table.goal_pass_mode is None and table.ic_merged is None
    icm = ic_merged(aug, p, mode="sup")
    assert (rep.ic_merged["value"], rep.ic_merged["method"]) == \
        (icm.value, icm.method)
    # every other field is the augmented MDP's own
    rest = {k: v for k, v in vars(rep).items()
            if k not in ("goal_pass_mode", "ic_merged")}
    assert rest == {k: vars(table)[k] for k in rest}


def test_tightness_augmentation_matching(cliff_bundle):
    from skilldiff.experiments import random_invertible_mdp

    rng = np.random.default_rng(15)
    mdp = random_invertible_mdp(rng, 20, 3)
    n = mdp.num_states
    p_arr = np.zeros(n)
    p_arr[[s for s in range(n) if s != mdp.goal]] = 1.0 / (n - 1)
    p = StateDistribution(p_arr)
    aug, info = tightness_augmentation(mdp, p, 0.2, 1000)
    asg = merged_solution_entropy(aug, p)
    assert asg.method == "matching_exact"
    assert asg.entropy == pytest.approx(p.entropy())


def test_enumeration_cap_flag():
    from skilldiff.experiments import random_invertible_mdp

    rng = np.random.default_rng(16)
    mdp = random_invertible_mdp(rng, 10, 3)
    sols, cap_hit = enumerate_shortest_solutions(mdp, range(10), cap=1)
    assert all(len(v) == 1 for v in sols.values())
    assert sols[mdp.goal] == [()]


def test_enumeration_cap_flag_only_when_a_solution_is_dropped():
    chain, _ = build_chain(3)
    assert enumerate_shortest_solutions(chain, [1], cap=1) == ({1: [(0,)]},
                                                               False)
    # state 2 has exactly four shortest solutions, (0, 0) .. (1, 1)
    succ = np.array([[3, 3], [0, 0], [1, 1]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    all4 = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for cap, hit in ((3, True), (4, False), (5, False)):
        sols, cap_hit = enumerate_shortest_solutions(mdp, [2], cap=cap)
        assert sols[2] == all4[:cap] and cap_hit is hit


# -- expressive incompressibility ---------------------------------------------

def test_expressive_equals_unmerged_at_e1_separable():
    mdp, p = two_state_mdp()
    a = ic_expressive(mdp, p, 1.0, mode="sup")
    b = ic_unmerged(mdp, p, mode="sup")
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_expressive_decreases_in_e():
    mdp, p = two_state_mdp()
    vals = [ic_expressive(mdp, p, E, mode="fixed_epsilon", epsilon=0.5).value
            for E in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]


def test_expressive_denominator_substitution():
    # at E = 1 the fixed-eps formula reduces to the unmerged one
    mdp, p = two_state_mdp()
    a = ic_expressive(mdp, p, 1.0, mode="fixed_epsilon", epsilon=0.7)
    b = ic_unmerged(mdp, p, mode="fixed_epsilon", epsilon=0.7)
    assert a.value == pytest.approx(b.value, abs=1e-15)


def test_expressive_reads_solution_separability():
    # separable: each state keeps a solution of its own, so the entropy is
    # H[p]; states 1 and 2 below share the solution "a" and merge
    mdp, p = two_state_mdp()
    ice = ic_expressive(mdp, p, 1.0)
    assert (ice.method, ice.entropy_term) == ("separable_exact", p.entropy())
    succ = np.array([[3, 3], [0, 3], [0, 3]], dtype=np.int32)
    shared = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    ice = ic_expressive(shared, StateDistribution(np.array([0.0, 0.5, 0.5])),
                        1.0)
    assert (ice.method, ice.entropy_term) == ("exhaustive_exact", 0.0)
