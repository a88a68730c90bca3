import numpy as np
import pytest

from skilldiff.envs import EnvSpec, build_env
from skilldiff.envs.cliff import build_cliff_walking
from skilldiff.envs.npuzzle import build_n_puzzle, perm_rank, perm_unrank
from skilldiff.envs.pickup import (DEFAULT_PICKUP_CONFIG, PickupWorldConfig,
                                   build_pickup_world, parse_pickup_config)
from skilldiff.envs.scramble import ScrambleMove, scramble_distribution
from skilldiff.envs.synthetic import (build_chain, build_sequence_consume,
                                      sequence_state_index)
from skilldiff.mdp import (BudgetExceededError, MdpError,
                           shortest_solution_lengths)
from skilldiff.metrics import per_length_counts


def test_chain_point_mass_on_far_end():
    mdp, p = build_chain(5)
    d = shortest_solution_lengths(mdp)
    assert p.probs[5] == 1.0
    assert d.d[5] == 5


def test_every_builder_output_is_valid(cliff_bundle, puzzle_bundle):
    for mdp, p, _ in (cliff_bundle, puzzle_bundle,
                      build_env(EnvSpec("pickup_world")),
                      build_env(EnvSpec("sequence_consume",
                                        {"alphabet_size": 2, "max_len": 3}))):
        d = shortest_solution_lengths(mdp)
        p.validate(mdp, d.d)
        assert abs(p.probs.sum() - 1.0) < 1e-12


# -- cliff walking ------------------------------------------------------------

def test_cliff_reachable_state_count_and_distance(cliff_bundle):
    mdp, p, info = cliff_bundle
    assert mdp.num_states == 38
    d = shortest_solution_lengths(mdp)
    assert d.d[info["start"]] == 13


def test_cliff_cliff_teleports_to_start(cliff_bundle):
    mdp, _, info = cliff_bundle
    cells = info["cells"]
    start = info["start"]
    idx = {c: i for i, c in enumerate(cells)}
    # stepping D(own) from (2, 5) hits the cliff -> back to start
    s = idx[(2, 5)]
    assert mdp.successor[s, 2] == start
    # moving off-grid is a no-op: L(eft) from the start column
    assert mdp.successor[idx[(2, 0)], 3] == idx[(2, 0)]


def test_cliff_optimal_macro_is_full_solution(cliff_bundle):
    from skilldiff.skills import GOAL_PASS_SUCCESS, augment, macro_from_labels

    mdp, p, info = cliff_bundle
    mac = macro_from_labels("URRRRRRRRRRRD", mdp.action_labels)
    aug = augment(mdp, [mac], mode=GOAL_PASS_SUCCESS)
    d = shortest_solution_lengths(aug.mdp)
    assert d.d[info["start"]] == 1


def test_cliff_without_a_path_to_the_goal_is_rejected():
    # one row: every cell between the start and the goal is cliff
    with pytest.raises(MdpError, match="no start reaches the goal"):
        build_cliff_walking(height=1, width=5)


# -- sliding puzzle -----------------------------------------------------------

def test_puzzle_orbit_and_support(puzzle_bundle):
    mdp, p, info = puzzle_bundle
    assert mdp.num_states == 181_440
    assert p.support_size == 181_439
    assert p.probs[mdp.goal] == 0.0


def test_puzzle_max_distance_is_31(puzzle_bundle):
    mdp, _, _ = puzzle_bundle
    d = shortest_solution_lengths(mdp)
    assert d.solvable.all()
    assert int(d.d.max()) == 31


def test_puzzle_vacuous_mode_invertibility(puzzle_bundle):
    mdp, _, _ = puzzle_bundle
    assert not mdp.solution_separable
    mdp_death, _, _ = build_n_puzzle(3, vacuous="death")
    assert mdp_death.solution_separable


def test_puzzle_scramble_k1_uniform_over_goal_neighbors(puzzle_bundle):
    mdp, _, _ = puzzle_bundle
    _, p1, _ = build_n_puzzle(3, k_max=1)
    sup = p1.support
    # blank in a corner: exactly 2 legal moves
    assert len(sup) == 2
    assert np.allclose(p1.probs[sup], 0.5)
    # and they are the states one move from the goal
    d = shortest_solution_lengths(mdp)
    assert set(d.d[sup].tolist()) == {1}


def test_perm_rank_roundtrip():
    rng = np.random.default_rng(7)
    perms = np.stack([rng.permutation(7) for _ in range(500)]).astype(np.int8)
    ranks = perm_rank(perms)
    # equal permutations share a rank and distinct ones never do
    assert len(np.unique(ranks)) == len(np.unique(perms, axis=0))
    back = perm_unrank(ranks, 7)
    assert np.array_equal(back, perms)


# -- scramble DP --------------------------------------------------------------

def test_scramble_chain_two_steps():
    # a walk on a chain of 4 states: step 1 must go away from the goal;
    # step 2 goes on or back, 1/2 each, so K uniform on {1,2} gives
    # [1/4, 1/2, 1/4, 0], and the goal's 1/4 is conditioned away
    away = np.array([1, 2, 3, 3], dtype=np.int32)  # a no-op at the far end
    back = np.array([0, 0, 1, 2], dtype=np.int32)  # a no-op at the goal
    res = scramble_distribution(4, 0, [ScrambleMove(successor=away),
                                       ScrambleMove(successor=back)], 2)
    assert np.allclose(res.step_marginal_sums, 1.0)
    assert res.goal_mass_removed == pytest.approx(0.25)
    assert np.allclose(res.distribution.probs, [0.0, 2 / 3, 1 / 3, 0.0])


def test_scramble_goal_conditioning():
    # two-cycle: even K returns to the goal; conditioning removes that mass
    move = np.array([1, 0], dtype=np.int32)
    res = scramble_distribution(2, 0, [ScrambleMove(successor=move)], 2)
    assert res.goal_mass_removed == pytest.approx(0.5)
    assert res.distribution.probs[1] == pytest.approx(1.0)


def test_scramble_no_consecutive_same_group():
    # on a chain of 4 states, steps of one (group 0) and of two (group 1),
    # each with the step back in its group; a step off the chain is a no-op
    one = [np.array([1, 2, 3, 3], dtype=np.int32),
           np.array([0, 0, 1, 2], dtype=np.int32)]
    two = [np.array([2, 3, 2, 3], dtype=np.int32),
           np.array([0, 1, 0, 1], dtype=np.int32)]
    # different groups: step 1 from the goal goes to 1 or 2 (1/2 each);
    # step 2 must switch groups, so 1 -> 3, and 2 -> 3 or 1 (1/4 each):
    # [0, 3/8, 1/4, 3/8] (ignoring the groups would give [0, .4, .4, .2]
    # after conditioning)
    res = scramble_distribution(
        4, 0, [ScrambleMove(successor=t, group=g)
               for g, pair in enumerate((one, two)) for t in pair], 2)
    assert np.allclose(res.step_marginal_sums, 1.0)
    assert np.allclose(res.distribution.probs, [0.0, 0.375, 0.25, 0.375])
    # same group: no move is legal after step 1, so the mass stays put
    res = scramble_distribution(
        4, 0, [ScrambleMove(successor=t, group=0) for t in one + two], 2)
    assert np.allclose(res.step_marginal_sums, 1.0)
    assert np.allclose(res.distribution.probs, [0.0, 0.5, 0.5, 0.0])


@pytest.mark.parametrize("goal, k_max, what", [
    (0, 0, "k_max is 0"),
    (0, -2, "k_max is -2"),
    (-1, 2, "goal -1 is outside"),
    (4, 2, "goal 4 is outside"),
])
def test_scramble_rejects_bad_goal_and_k_max(goal, k_max, what):
    move = ScrambleMove(successor=np.array([1, 2, 3, 3], dtype=np.int32))
    with pytest.raises(ValueError, match=what):
        scramble_distribution(4, goal, [move], k_max)


def test_scramble_k_max_from_an_env_spec_is_checked():
    spec = EnvSpec("n_puzzle", {"n": 2, "k_max": 0})
    with pytest.raises(ValueError, match="k_max is 0"):
        build_env(spec)


def test_scramble_step_states_on_puzzle8(puzzle_bundle):
    mdp, _, info = puzzle_bundle
    written = info["scramble"].step_states
    assert len(written) == 31
    # the goal and the two states one blank move from it
    assert written[0] == 3
    assert np.all(np.diff(written) >= 0)
    assert written.max() <= mdp.num_states


# -- sequence consume ---------------------------------------------------------

def test_sequence_consume_structure():
    mdp, p = build_sequence_consume(2, 2)
    assert mdp.num_states == 7  # goal + 2 + 4
    d = shortest_solution_lengths(mdp)
    # d equals the string length for every state
    for w in ("a", "b"):
        assert d.d[sequence_state_index(w, 2, mdp.action_labels)] == 1
    for w in ("aa", "ab", "ba", "bb"):
        assert d.d[sequence_state_index(w, 2, mdp.action_labels)] == 2
    assert mdp.solution_separable
    counts = per_length_counts(mdp, 3)
    assert counts.coverage(1) == pytest.approx(1.0)
    assert counts.coverage(2) == pytest.approx(1.0)
    assert counts.coverage(3) == pytest.approx(0.0)


def test_sequence_consume_custom_length_weights():
    mdp, p = build_sequence_consume(2, 3, length_weights=[1.0, 0.0, 1.0])
    d = shortest_solution_lengths(mdp)
    mass_by_len = {}
    for s in p.support:
        mass_by_len.setdefault(int(d.d[s]), 0.0)
        mass_by_len[int(d.d[s])] += p.probs[s]
    assert mass_by_len[1] == pytest.approx(0.5)
    assert 2 not in mass_by_len
    assert mass_by_len[3] == pytest.approx(0.5)


# -- pickup world -------------------------------------------------------------

def test_pickup_parse_and_build():
    cfg = parse_pickup_config(DEFAULT_PICKUP_CONFIG)
    assert cfg.target == ["a", "b"]
    mdp, p, info = build_pickup_world(cfg)
    d = mdp.solution_lengths
    # uniform over solvable empty-handed starts
    sup = p.support
    assert np.allclose(p.probs[sup], p.probs[sup][0])
    assert np.all(d.d[sup] >= 1)


def test_pickup_goal_merging_and_wrong_pick():
    text = """\
a.b
...
a.b
target: ab
"""
    cfg = parse_pickup_config(text)
    mdp, p, info = build_pickup_world(cfg)
    d = mdp.solution_lengths
    states = info["states"]
    idx = {s: i for i, s in enumerate(states)}
    # exactly one goal state even though two (a, b) orders exist
    assert sum(1 for s in states if s == "goal") == 1
    # picking b first is reachable but unsolvable
    bad = [i for s, i in idx.items()
           if s != "goal" and len(s[1]) == 1
           and cfg.objects[s[1][0]][0] == "b"]
    assert bad and all(d.d[i] == -1 for i in bad)
    # pickup on an empty cell is a no-op
    empty_cell_state = idx[((1, 1), ())]
    assert mdp.successor[empty_cell_state, 4] == empty_cell_state


def test_pickup_unrealizable_target():
    with pytest.raises(MdpError):
        build_pickup_world(PickupWorldConfig(
            width=3, height=1, walls=set(), objects=[("a", (0, 0))],
            target=["b"]))


def test_pickup_state_budget():
    cfg = parse_pickup_config(DEFAULT_PICKUP_CONFIG)
    n = build_pickup_world(cfg)[0].num_states
    assert build_pickup_world(cfg, state_budget=n)[0].num_states == n
    with pytest.raises(BudgetExceededError):
        build_pickup_world(cfg, state_budget=n - 1)


def test_pickup_grid_size_cap():
    with pytest.raises(MdpError):
        PickupWorldConfig(width=13, height=3, target=["a"],
                          objects=[("a", (0, 0))]).validate()
