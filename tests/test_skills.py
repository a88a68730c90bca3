import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain
from skilldiff.mdp import shortest_solution_lengths
from skilldiff.skills import (GOAL_PASS_DEAD, GOAL_PASS_SUCCESS, MACRO_LAWS,
                              MacroGenSpec, Skill, SkillError, augment,
                              behavior_variety, expand_rewriting,
                              generate_macro_sets, macro_from_labels,
                              rewrite_min_length)


def test_macro_length_at_least_two():
    with pytest.raises(SkillError):
        Skill.from_macro((0,))


def test_empty_augmentation_is_identity():
    mdp, _ = build_chain(4)
    aug = augment(mdp, [])
    assert np.array_equal(aug.mdp.successor, mdp.successor)
    assert aug.mdp.num_actions == mdp.num_actions
    assert aug.mdp.base_action_count == mdp.num_actions


def test_goal_pass_semantics_table():
    mdp, _ = build_chain(3)
    # the macro "aa" and the tabular skill that plays "aa" in every state
    for aa in (Skill.from_macro((0, 0), label="aa"),
               Skill.from_sequences([(0, 0)] * mdp.num_states, label="aa")):
        dead_mode = augment(mdp, [aa], mode=GOAL_PASS_DEAD)
        success_mode = augment(mdp, [aa], mode=GOAL_PASS_SUCCESS)
        # distance-1 state: the goal is crossed after the first of two actions
        assert dead_mode.mdp.successor[1, 1] == mdp.dead
        assert success_mode.mdp.successor[1, 1] == mdp.goal
        # distance-2 state: exact arrival in both modes
        assert dead_mode.mdp.successor[2, 1] == mdp.goal
        assert success_mode.mdp.successor[2, 1] == mdp.goal
        # distance-3 state: the skill falls short and lands at distance 1
        assert dead_mode.mdp.successor[3, 1] == 1
        assert success_mode.mdp.successor[3, 1] == 1
        # success mode records the truncated unroll length
        assert success_mode.skill_lengths[:, 0].tolist() == [0, 1, 2, 2]
        assert dead_mode.skill_lengths[:, 0].tolist() == [0, 2, 2, 2]
        # the goal row is dead
        assert dead_mode.mdp.successor[0, 1] == mdp.dead
        assert success_mode.mdp.successor[0, 1] == mdp.dead


def test_tabular_skill_with_empty_and_mixed_sequences():
    mdp, _ = build_chain(4)
    z = Skill.from_sequences([(0, 0), (), (0, 0, 0), (0, 0, 0), (0,)],
                             label="mixed")
    # empty sequence: identity with no base action consumed; crossing after
    # two of three actions; exact arrival; falling short
    aug = augment(mdp, [z], mode=GOAL_PASS_DEAD)
    assert aug.mdp.successor[:, 1].tolist() == [mdp.dead, 1, mdp.dead,
                                                mdp.goal, 3]
    assert aug.skill_lengths[:, 0].tolist() == [0, 0, 3, 3, 1]
    aug = augment(mdp, [z], mode=GOAL_PASS_SUCCESS)
    assert aug.mdp.successor[:, 1].tolist() == [mdp.dead, 1, mdp.goal,
                                                mdp.goal, 3]
    assert aug.skill_lengths[:, 0].tolist() == [0, 0, 2, 3, 1]


def test_tabular_skill_must_cover_the_base_states():
    mdp, _ = build_chain(3)
    for num_seqs in (mdp.num_states + 2, mdp.num_states - 1):
        z = Skill.from_sequences([(0, 0)] * num_seqs, label="wrong")
        with pytest.raises(SkillError, match="states"):
            augment(mdp, [z])


def test_augmented_action_ordering_and_counts():
    mdp, _ = build_chain(5)
    z1 = Skill.from_macro((0, 0), label="aa")
    z2 = Skill.from_macro((0, 0, 0), label="aaa")
    aug = augment(mdp, [z1, z2])
    assert aug.mdp.num_actions == 3
    assert aug.mdp.base_action_count == 1
    assert aug.mdp.action_labels == ["a", "aa", "aaa"]
    d = shortest_solution_lengths(aug.mdp)
    assert d.d[5] == 2  # aaa then aa


def test_duplicate_skills_count_with_multiplicity():
    mdp, _ = build_chain(3)
    z = Skill.from_macro((0, 0), label="aa")
    aug = augment(mdp, [z, z])
    assert aug.mdp.num_actions == 3


def test_skill_out_of_range_action():
    mdp, _ = build_chain(3)
    with pytest.raises(SkillError):
        augment(mdp, [Skill.from_macro((0, 5), label="bad")])


def test_skill_negative_action_is_rejected():
    # numpy would read -1 as the last base action, so the check must catch it
    from conftest import random_dsmdp

    mdp = random_dsmdp(np.random.default_rng(9), 6, 3)
    with pytest.raises(SkillError, match="-1"):
        augment(mdp, [Skill.from_macro((0, -1), label="neg")])
    seqs = [(0, 1)] * mdp.num_states
    seqs[2] = (1, -1)
    with pytest.raises(SkillError):
        augment(mdp, [Skill.from_sequences(seqs, label="neg-tab")])


def test_d_never_increases_under_success_mode():
    rng = np.random.default_rng(4)
    from conftest import random_dsmdp
    from skilldiff.experiments import random_macro_skills

    for _ in range(20):
        mdp = random_dsmdp(rng, int(rng.integers(4, 25)),
                           int(rng.integers(2, 4)))
        d0 = shortest_solution_lengths(mdp)
        aug = augment(mdp, random_macro_skills(rng, mdp),
                      mode=GOAL_PASS_SUCCESS)
        dp = shortest_solution_lengths(aug.mdp)
        solv = d0.solvable
        assert np.all(dp.d[solv] <= d0.d[solv])
        assert np.all(dp.solvable[solv])


def test_macro_augmentation_preserves_separability():
    from skilldiff.experiments import random_invertible_mdp, random_macro_skills

    rng = np.random.default_rng(5)
    for _ in range(10):
        mdp = random_invertible_mdp(rng, int(rng.integers(4, 10)), 2)
        aug = augment(mdp, random_macro_skills(rng, mdp, max_k=2),
                      mode=GOAL_PASS_DEAD)
        assert aug.mdp.solution_separable


# -- rewriting -------------------------------------------------------------

def test_rewrite_basic():
    out = rewrite_min_length((1, 1, 1, 1), [(1, 1)], 4)
    assert out == [4, 4]


def test_rewrite_unusable_macro():
    out = rewrite_min_length((0, 1, 2), [(1, 1)], 4)
    assert out == [0, 1, 2]


def test_rewrite_canonical_tie_break():
    # RRRRR with macros RR, RRR: two token-2 rewritings; the canonical form
    # takes the longest macro first
    out = rewrite_min_length((1,) * 5, [(1, 1), (1, 1, 1)], 4)
    assert out == [5, 4]  # RRR then RR


def test_rewrite_round_trip_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        sol = tuple(rng.integers(0, 3, size=rng.integers(1, 15)))
        macros = []
        for _ in range(rng.integers(0, 4)):
            macros.append(tuple(rng.integers(0, 3,
                                             size=rng.integers(2, 5))))
        out = rewrite_min_length(sol, macros, 3)
        assert tuple(expand_rewriting(out, macros, 3)) == sol
        assert len(out) <= len(sol)


def test_behavior_variety():
    mdp, _ = build_chain(3)
    assert behavior_variety(Skill.from_macro((0, 0)), mdp) == 1
    z = Skill.from_sequences([(), (0,), (0, 0), (0, 0, 0)], label="solve")
    assert behavior_variety(z, mdp) == 3  # goal row excluded
    empty = Skill.from_sequences([(), (), (), ()], label="stay")
    assert behavior_variety(empty, mdp) == 1


# -- macro generation --------------------------------------------------------

def test_generate_macro_sets_reproducible_and_distinct():
    spec = MacroGenSpec(env_kind="cliff_walking", seed=0)
    a = generate_macro_sets(spec)
    b = generate_macro_sets(spec)
    assert a == b
    for k, sets in a.items():
        assert len(sets) == 5
        for words in sets:
            assert len(words) == k
            assert len(set(words)) == k
            for w in words:
                assert len(w) >= 2
                assert set(w) <= {"U", "R", "D", "L"}


def test_generate_macro_sets_cube_alphabet():
    gen = generate_macro_sets(MacroGenSpec(env_kind="pocket_cube", seed=1))
    for sets in gen.values():
        for words in sets:
            for w in words:
                assert set(w) <= {"F", "R", "U"}
                assert len(w) >= 2


def test_macro_law_symbol_marginals():
    # empirical symbol frequencies follow the two-level bucket law
    law = MACRO_LAWS["cliff_walking"]
    marginal = {}
    for bp, syms in law["buckets"]:
        for s, sp in syms:
            marginal[s] = marginal.get(s, 0.0) + bp * sp
    gen = generate_macro_sets(MacroGenSpec(env_kind="cliff_walking", seed=2,
                                           ks=(5,), sets_per_k=200))
    text = "".join(w for sets in gen.values() for words in sets
                   for w in words)
    for s, expect in marginal.items():
        freq = text.count(s) / len(text)
        assert abs(freq - expect) < 0.03


def test_macro_from_labels_unknown_label():
    mdp, _ = build_chain(3)
    with pytest.raises(SkillError):
        macro_from_labels("ax", mdp.action_labels)
