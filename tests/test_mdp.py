import copy
import math
import pickle

import numpy as np
import pytest

from skilldiff.mdp import (MdpError, SolutionLengthTable, StateDistribution,
                           TabularDsmdp, build_reverse_graph, shannon_entropy,
                           shortest_solution_lengths)
from skilldiff.envs.scramble import ScrambleMove, ScrambleResult
from skilldiff.envs.synthetic import build_chain
from skilldiff.metrics import (StochasticTabularMdp, TightnessInfo,
                               per_length_counts, solve_q,
                               stochastic_weighted_depth)
from skilldiff.rl import PlannerResult
from skilldiff.skills import Skill, augment

from conftest import random_dsmdp


def test_reverse_graph_chain():
    mdp, _ = build_chain(2)
    rg = build_reverse_graph(mdp)
    assert rg.num_edges == 2
    # state t's predecessors sit at indptr[t]:indptr[t + 1]
    assert rg.indptr.tolist() == [0, 1, 2, 2]
    assert rg.preds.tolist() == [1, 2]


def test_reverse_graph_excludes_dead_transitions():
    # every action from state 1 goes to the dead sink
    succ = np.array([[3, 3], [3, 3], [1, 0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    rg = build_reverse_graph(mdp)
    assert rg.num_edges == 2  # only state 2's two edges
    assert rg.indptr.tolist() == [0, 1, 2, 2]
    assert rg.preds.tolist() == [2, 2]


def test_reverse_graph_edge_count_equals_non_dead_transitions():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mdp = random_dsmdp(rng, int(rng.integers(3, 30)),
                           int(rng.integers(1, 4)))
        rg = build_reverse_graph(mdp)
        expected = int((mdp.successor != mdp.dead).sum())
        assert rg.num_edges == expected


def test_successor_is_a_read_only_view_of_the_callers_array():
    succ = np.array([[3, 3], [0, 3], [1, 0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    assert np.shares_memory(mdp.successor, succ)  # a view, not a copy
    with pytest.raises(ValueError):
        mdp.successor[1, 1] = 2
    with pytest.raises(ValueError):
        mdp.solution_lengths.d[2] = 1
    assert succ.flags.writeable
    assert mdp.successor.tolist() == [[3, 3], [0, 3], [1, 0]]


def test_pickle_and_deepcopy_rebuild_through_the_constructor():
    # numpy pickles no flags.writeable: a copy must come back read-only and
    # recompute d rather than trust a cached table it was handed
    succ = np.array([[3, 3], [0, 3], [1, 0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"],
                       base_action_count=1)
    d = mdp.solution_lengths.d
    for clone in (pickle.loads(pickle.dumps(mdp)), copy.deepcopy(mdp)):
        assert not clone.successor.flags.writeable
        assert not np.shares_memory(clone.successor, mdp.successor)
        assert "solution_lengths" not in vars(clone)
        assert clone.solution_lengths.d.tolist() == d.tolist()
        assert not clone.solution_lengths.d.flags.writeable
        assert (clone.successor.tolist(), clone.goal, clone.action_labels,
                clone.base_action_count) == (succ.tolist(), 0, ["a", "b"], 1)


def test_equality_of_array_holding_dataclasses_is_identity():
    # a generated __eq__ compares array fields inside a tuple and raises
    # "truth value of an array ... is ambiguous"
    succ = np.array([[3, 3], [0, 3], [1, 0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    aug = augment(mdp, [Skill.from_macro((1, 0), label="ba")])
    kernel = np.array([[0.0, 0.0], [1.0, 0.0]])
    makers = [
        lambda: StateDistribution(np.array([0.0, 0.5, 0.5])),
        lambda: SolutionLengthTable(np.array([0, 1, 2], dtype=np.int32)),
        lambda: solve_q(mdp, 0.1),
        lambda: Skill.from_sequences([(), (0,), (1, 0)], label="z"),
        lambda: ScrambleMove(np.array([1, 0, 2], dtype=np.int32)),
        lambda: ScrambleResult(StateDistribution(np.array([0.0, 1.0, 0.0])),
                               np.ones(1), 0.0, np.ones(1, dtype=np.int64)),
        lambda: per_length_counts(mdp, 2),
        lambda: TightnessInfo(np.zeros(3), [], np.zeros(3)),
        lambda: PlannerResult({}, None, np.zeros(3), 0),
        lambda: StochasticTabularMdp(kernel, goal=0),
        lambda: stochastic_weighted_depth(StochasticTabularMdp(kernel, 0), 1),
    ]
    for x, twin in [(mdp, pickle.loads(pickle.dumps(mdp))),
                    (aug, copy.copy(aug))] + [(f(), f()) for f in makers]:
        assert (x == twin) is False and (x != twin) is True
        assert (x == x) is True
        assert len({x, twin}) == 2


def test_bfs_chain_lengths():
    mdp, _ = build_chain(3)
    d = shortest_solution_lengths(mdp)
    assert d.d.tolist() == [0, 1, 2, 3]


def test_bfs_unsolvable_state():
    succ = np.array([[3, 3], [3, 3], [0, 3]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    d = shortest_solution_lengths(mdp)
    assert d.d[1] == -1
    assert d.d[2] == 1


def test_bellman_recurrence_on_random_mdps():
    rng = np.random.default_rng(1)
    for _ in range(30):
        mdp = random_dsmdp(rng, int(rng.integers(3, 40)),
                           int(rng.integers(1, 4)))
        d = shortest_solution_lengths(mdp)
        dpad = d.padded().astype(np.int64)
        dpad[-1] = np.iinfo(np.int32).max  # dead
        dvals = dpad[mdp.successor]
        dvals[dvals == -1] = np.iinfo(np.int32).max
        best = dvals.min(axis=1)
        for s in range(mdp.num_states):
            if s == mdp.goal or not d.solvable[s]:
                continue
            assert d.d[s] == 1 + best[s]


def test_d_invariant_under_state_relabeling():
    rng = np.random.default_rng(2)
    mdp = random_dsmdp(rng, 25, 3)
    d = shortest_solution_lengths(mdp)
    perm = rng.permutation(mdp.num_states)
    inv = np.argsort(perm)
    # relabel: new state perm[s] behaves like old s
    succ = np.full_like(mdp.successor, mdp.dead)
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            t = mdp.successor[s, a]
            succ[perm[s], a] = mdp.dead if t == mdp.dead else perm[t]
    relabeled = TabularDsmdp(successor=succ, goal=int(perm[mdp.goal]),
                             action_labels=mdp.action_labels)
    d2 = shortest_solution_lengths(relabeled)
    assert np.array_equal(d2.d[perm], d.d)


def test_invertible_single_state_to_goal():
    succ = np.array([[2], [0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a"])
    assert mdp.solution_separable


def test_invertible_detects_collision():
    # states 1 and 2 both reach the (solvable) state 3 under action 0
    succ = np.array([[4, 4], [3, 4], [3, 4], [0, 4]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    assert not mdp.solution_separable


def test_collisions_on_unsolvable_targets_are_allowed():
    # both states map to an unsolvable state under action b: still invertible
    succ = np.array([[4, 4], [0, 3], [1, 3], [4, 4]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    assert mdp.solution_lengths.d[3] == -1
    assert mdp.solution_separable


def test_separable_chain():
    mdp, _ = build_chain(4)
    assert mdp.solution_separable


def test_separability_violation_two_states_one_step():
    # both 1 and 2 reach the goal under action a
    succ = np.array([[3, 3], [0, 3], [0, 3]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    assert not mdp.solution_separable


def test_invertible_implies_separable_randomized():
    from skilldiff.experiments import random_invertible_mdp

    rng = np.random.default_rng(3)
    for _ in range(25):
        mdp = random_invertible_mdp(rng, int(rng.integers(4, 13)),
                                    int(rng.integers(2, 4)))
        assert mdp.solution_separable


def test_distribution_validation():
    mdp, p = build_chain(3)
    d = shortest_solution_lengths(mdp)
    p.validate(mdp, d.d)
    bad = StateDistribution(np.array([0.5, 0.0, 0.0, 0.5]))
    with pytest.raises(MdpError):
        bad.validate(mdp, d.d)  # mass on the goal
    ent = StateDistribution(np.array([0.0, 0.5, 0.25, 0.25]))
    assert ent.entropy() == pytest.approx(-(0.5 * np.log(0.5)
                                            + 0.5 * np.log(0.25)))


def test_validate_checks_the_support_against_the_mdps_own_d(monkeypatch):
    # state 1 only reaches the dead state
    succ = np.array([[3, 3], [3, 3], [0, 3]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    p = StateDistribution(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(MdpError, match="unsolvable"):
        p.validate(mdp)
    with pytest.raises(MdpError, match="unsolvable"):
        p.validate(mdp, mdp.solution_lengths.d)
    # a d passed in is used as it is, with no BFS of the MDP
    fresh = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    monkeypatch.setattr("skilldiff.mdp.shortest_solution_lengths", None)
    StateDistribution(np.array([0.0, 0.0, 1.0])).validate(
        fresh, np.array([0, -1, 1]))
    assert "solution_lengths" not in vars(fresh)


def test_entropy_of_a_point_mass_is_positive_zero():
    h = shannon_entropy([1.0])
    assert h == 0.0 and math.copysign(1.0, h) == 1.0  # not -0.0


def test_goal_row_must_be_dead():
    succ = np.array([[1], [0]], dtype=np.int32)
    with pytest.raises(MdpError):
        TabularDsmdp(successor=succ, goal=0, action_labels=["a"])
