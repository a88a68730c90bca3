import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain
from skilldiff.metrics import (StochasticTabularMdp, SupportUnsolvableError,
                               stochastic_learning_difficulty,
                               stochastic_weighted_depth)


def test_deterministic_reduction_to_d():
    mdp, _ = build_chain(4)
    smdp = StochasticTabularMdp.from_deterministic(mdp)
    r = stochastic_weighted_depth(smdp, l_max=6)
    for s in range(1, 5):
        assert r.depth[s] == pytest.approx(float(s))
        assert r.cumulative_mass[s] == pytest.approx(1.0)
        assert not r.truncated[s]


def test_coin_flip_geometric_depth():
    # one action: goal w.p. 1/2, else stay; the weighted depth is the
    # geometric mean length sum k 2^-k -> 2 under the clipping rule
    k = np.zeros((2, 1, 2))
    k[1, 0, 0] = 0.5  # to goal
    k[1, 0, 1] = 0.5  # self loop
    smdp = StochasticTabularMdp(kernel=k.reshape(2, 2), goal=0)
    r = stochastic_weighted_depth(smdp, l_max=40, mass_tol=1e-9)
    assert r.depth[1] == pytest.approx(2.0, abs=1e-9)
    assert not r.truncated[1]
    # truncating early reports the residual mass
    r5 = stochastic_weighted_depth(smdp, l_max=5, mass_tol=1e-9)
    assert r5.truncated[1]
    assert r5.residual_mass[1] == pytest.approx(2.0 ** -5)


def test_exact_arrival_semantics():
    # passing through the goal mid-sequence does not count: state 1 reaches
    # the goal w.p. 1/2 in one step and dies otherwise, so no sequence of
    # two or more actions succeeds and half the mass is never taken
    smdp = StochasticTabularMdp(np.array([[0.0, 0.0], [0.5, 0.0]]), goal=0)
    r = stochastic_weighted_depth(smdp, l_max=3)
    assert (r.depth[1], r.cumulative_mass[1]) == (0.5, 0.5)
    assert r.truncated[1] and not r.k_max_reached[1]


def test_sure_short_solution_dominates():
    # two actions: action 0 solves in one step surely; ordering then puts all
    # weight on the first length-1 sequence
    k = np.zeros((3, 2, 3))
    k[1, 0, 0] = 1.0
    k[1, 1, 2] = 1.0
    k[2, 0, 2] = 1.0
    k[2, 1, 2] = 1.0
    smdp = StochasticTabularMdp(kernel=k.reshape(6, 3), goal=0)
    r = stochastic_weighted_depth(smdp, l_max=10)
    assert r.depth[1] == pytest.approx(1.0)
    assert r.k_max_reached[1]


def test_stochastic_learning_difficulty_deterministic_case():
    mdp, p = build_chain(5)
    smdp = StochasticTabularMdp.from_deterministic(mdp)
    jl = stochastic_learning_difficulty(smdp, p, l_max=8)
    assert jl == pytest.approx(1 * 5.0)


def test_learning_difficulty_rejects_a_support_state_cut_by_l_max():
    # the far end of the chain needs 5 steps; 3 leave all its mass untaken
    mdp, p = build_chain(5)
    smdp = StochasticTabularMdp.from_deterministic(mdp)
    with pytest.raises(SupportUnsolvableError, match="state 5 .* l_max = 3"):
        stochastic_learning_difficulty(smdp, p, l_max=3)


_CHAIN = np.array([[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("kernel, goal, what", [
    (_CHAIN, -1, "goal -1"),
    (_CHAIN, 2, "goal 2"),
    (np.array([[0.0, 0.0], [np.nan, 0.0]]), 0, "finite"),
    (np.array([[0.0, 0.0], [-0.5, 0.5]]), 0, "non-negative"),
    (np.array([[0.0, 0.0], [0.7, 0.7]]), 0, "subprobabilities"),
    (np.zeros((3, 2)), 0, "multiple of 2 states"),
    (np.zeros((0, 2)), 0, "multiple of 2 states"),
    (np.array([[0.0, 0.5], [1.0, 0.0]]), 0, "goal kernel rows"),
], ids=["negative_goal", "goal_past_the_states", "nan_entry",
        "negative_entry", "row_over_one", "rows_not_a_multiple", "no_rows",
        "goal_row_not_empty"])
def test_malformed_kernels_are_rejected(kernel, goal, what):
    with pytest.raises(ValueError, match=what):
        StochasticTabularMdp(kernel, goal)


@pytest.mark.parametrize("bundle", ["cliff_bundle", "pickup_bundle",
                                    "puzzle_bundle"])
def test_depth_is_d_on_deterministic_embeddings(bundle, request):
    mdp = request.getfixturevalue(bundle)[0]
    d = mdp.solution_lengths
    r = stochastic_weighted_depth(StochasticTabularMdp.from_deterministic(mdp),
                                  l_max=int(d.d.max()))
    solvable = d.solvable
    assert np.array_equal(r.depth[solvable], d.d[solvable])
    assert np.all(r.cumulative_mass[solvable] == 1.0)
    assert not r.truncated[solvable].any()
    assert r.k_max_reached[solvable].all()
    assert np.all(r.cumulative_mass[~solvable] == 0.0)
