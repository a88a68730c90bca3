"""The reverse graph, the BFS and the scramble DP against the code they
replaced.

``_argsort_reverse_graph``, ``_unique_bfs`` and ``_bincount_scramble`` are
the implementations that ``build_reverse_graph``, ``shortest_solution_lengths``
and ``scramble_distribution`` had before they became a counting sort, a
marking BFS and a preimage-gather DP.  They stay here as oracles.  The graph
and the lengths must match bit for bit, and so must the scramble DP when no
move has a group; with groups it sums the contexts in another order and is
held to 1e-15.
"""

import numpy as np
import pytest

from skilldiff.envs.scramble import (ScrambleMove, ScrambleResult,
                                     scramble_distribution)
from skilldiff.mdp import (UNSOLVABLE, ReverseGraph, SolutionLengthTable,
                           StateDistribution, TabularDsmdp, _gather_ragged,
                           build_reverse_graph, shortest_solution_lengths)


def _argsort_reverse_graph(mdp):
    n, m = mdp.num_states, mdp.num_actions
    succ = mdp.successor.ravel()
    valid = np.flatnonzero(succ != mdp.dead)
    targets = succ[valid]
    order = np.argsort(targets, kind="stable")
    sorted_edges = valid[order]
    preds = (sorted_edges // m).astype(np.int32)
    actions = (sorted_edges % m).astype(np.int32)
    counts = np.bincount(targets, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return ReverseGraph(indptr, preds, actions)


def _unique_bfs(mdp, rev):
    d = np.full(mdp.num_states, UNSOLVABLE, dtype=np.int32)
    d[mdp.goal] = 0
    frontier = np.array([mdp.goal], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        preds = _gather_ragged(rev, frontier)
        if len(preds) == 0:
            break
        fresh = np.unique(preds[d[preds] == UNSOLVABLE])
        d[fresh] = level
        frontier = fresh
    return SolutionLengthTable(d=d)


def _bincount_scramble(num_states, goal, moves, k_max):
    n = num_states
    dead = n
    groups = sorted({m.group for m in moves if m.group is not None})
    gindex = {g: i for i, g in enumerate(groups)}
    C = len(groups) + 1
    none_ctx = C - 1

    valid = np.zeros((len(moves), n), dtype=bool)
    for j, mv in enumerate(moves):
        t = mv.successor
        valid[j] = (t != dead) & (t != np.arange(n))

    counts = np.zeros((C, n), dtype=np.float64)
    for c in range(C):
        for j, mv in enumerate(moves):
            ctx = gindex[mv.group] if mv.group is not None else None
            if ctx is not None and ctx == c:
                continue
            counts[c] += valid[j]

    w = np.zeros((C, n), dtype=np.float64)
    w[none_ctx, goal] = 1.0
    mixture = np.zeros(n, dtype=np.float64)
    marg_sums = np.zeros(k_max, dtype=np.float64)

    for k in range(k_max):
        w_new = np.zeros_like(w)
        for c in range(C):
            mass = w[c]
            active = mass > 0.0
            if not active.any():
                continue
            denom = counts[c]
            stuck = active & (denom == 0.0)
            if stuck.any():
                w_new[c][stuck] += mass[stuck]
            share = np.where(denom > 0.0, mass / np.maximum(denom, 1.0), 0.0)
            for j, mv in enumerate(moves):
                ctx = gindex[mv.group] if mv.group is not None else none_ctx
                if mv.group is not None and gindex[mv.group] == c:
                    continue
                sel = valid[j] & (share > 0.0)
                if not sel.any():
                    continue
                w_new[ctx] += np.bincount(mv.successor[sel], weights=share[sel],
                                          minlength=n)
        w = w_new
        marginal = w.sum(axis=0)
        marg_sums[k] = marginal.sum()
        mixture += marginal
    mixture /= k_max
    goal_mass = float(mixture[goal])
    mixture[goal] = 0.0
    total = mixture.sum()
    if total <= 0.0:
        raise ValueError("scramble distribution has no non-goal mass")
    mixture /= total
    return ScrambleResult(
        distribution=StateDistribution(mixture),
        step_marginal_sums=marg_sums,
        goal_mass_removed=goal_mass,
    )


# -- reverse graph and BFS ------------------------------------------------------

def _random_table(rng):
    """Random MDP with dead entries, 1-7 actions and forced duplicate
    successors (some action columns copy another on part of the rows)."""
    n = int(rng.integers(2, 60))
    m = int(rng.integers(1, 8))
    succ = rng.integers(0, n, size=(n, m)).astype(np.int32)
    succ[rng.random(succ.shape) < rng.uniform(0.0, 0.6)] = n
    if m > 1:
        rows = rng.random(n) < 0.3
        succ[rows, m - 1] = succ[rows, 0]
    goal = int(rng.integers(n))
    succ[goal] = n
    return TabularDsmdp(successor=succ, goal=goal,
                        action_labels=[f"a{i}" for i in range(m)])


def _assert_same_arrays(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def test_reverse_graph_and_bfs_match_oracles():
    rng = np.random.default_rng(50)
    for _ in range(300):
        mdp = _random_table(rng)
        rev, rev0 = build_reverse_graph(mdp), _argsort_reverse_graph(mdp)
        for name in ("indptr", "preds", "actions"):
            _assert_same_arrays(getattr(rev, name), getattr(rev0, name))
        d0 = _unique_bfs(mdp, rev0).d
        _assert_same_arrays(shortest_solution_lengths(mdp, rev).d, d0)
        _assert_same_arrays(shortest_solution_lengths(mdp).d, d0)


def test_reverse_graph_of_an_all_dead_table_is_empty():
    succ = np.full((3, 2), 3, dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=1, action_labels=["a", "b"])
    rev = build_reverse_graph(mdp)
    assert rev.num_edges == 0
    assert rev.indptr.tolist() == [0, 0, 0, 0]
    assert shortest_solution_lengths(mdp, rev).d.tolist() == [-1, 0, -1]


def test_reverse_graph_and_bfs_on_puzzle8_match_oracles(puzzle_bundle):
    mdp, _, _ = puzzle_bundle
    rev, rev0 = build_reverse_graph(mdp), _argsort_reverse_graph(mdp)
    for name in ("indptr", "preds", "actions"):
        _assert_same_arrays(getattr(rev, name), getattr(rev0, name))
    _assert_same_arrays(shortest_solution_lengths(mdp, rev).d,
                        _unique_bfs(mdp, rev0).d)


# -- scramble DP ----------------------------------------------------------------

def _random_moves(rng, n, grouped):
    """Moves mixing permutations, many-to-one maps, dead entries and no-ops;
    with ``grouped`` some moves share a group and some have none.  A state
    that no legal move leaves is stuck and keeps its mass."""
    moves = []
    for j in range(int(rng.integers(1, 7))):
        kind = rng.integers(3)
        if kind == 0:
            t = rng.permutation(n)
        elif kind == 1:
            t = rng.integers(0, n, size=n)
        else:
            t = rng.integers(0, max(1, n // 4), size=n)  # heavy collisions
        noop = rng.random(n) < rng.uniform(0.0, 0.5)
        t[noop] = np.flatnonzero(noop)
        t[rng.random(n) < rng.uniform(0.0, 0.4)] = n
        group = None
        if grouped and rng.random() < 0.7:
            group = int(rng.integers(3))
        moves.append(ScrambleMove(successor=t.astype(np.int32), group=group,
                                  label=f"m{j}"))
    return moves


def _scramble_pair(rng, grouped):
    n = int(rng.integers(2, 40))
    goal = int(rng.integers(n))
    moves = _random_moves(rng, n, grouped)
    k_max = int(rng.integers(1, 12))
    try:
        res = scramble_distribution(n, goal, moves, k_max)
    except ValueError:
        with pytest.raises(ValueError):
            _bincount_scramble(n, goal, moves, k_max)
        return None
    return res, _bincount_scramble(n, goal, moves, k_max)


def test_ungrouped_scramble_matches_bincount_oracle_exactly():
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(300):
        pair = _scramble_pair(rng, grouped=False)
        if pair is None:
            continue
        res, res0 = pair
        assert np.array_equal(res.distribution.probs,
                              res0.distribution.probs)
        assert np.array_equal(res.step_marginal_sums, res0.step_marginal_sums)
        assert res.goal_mass_removed == res0.goal_mass_removed
        checked += 1
    assert checked > 200


def test_grouped_scramble_matches_bincount_oracle():
    rng = np.random.default_rng(52)
    checked = 0
    for _ in range(300):
        pair = _scramble_pair(rng, grouped=True)
        if pair is None:
            continue
        res, res0 = pair
        assert np.allclose(res.distribution.probs, res0.distribution.probs,
                           rtol=0.0, atol=1e-15)
        assert np.allclose(res.step_marginal_sums, res0.step_marginal_sums,
                           rtol=0.0, atol=1e-15)
        assert abs(res.goal_mass_removed - res0.goal_mass_removed) <= 1e-15
        checked += 1
    assert checked > 200


def test_puzzle8_scramble_matches_bincount_oracle(monkeypatch):
    import skilldiff.envs.npuzzle as npuzzle

    calls = []

    def both(n, goal, moves, k_max):
        calls.append(_bincount_scramble(n, goal, moves, k_max))
        return scramble_distribution(n, goal, moves, k_max)

    monkeypatch.setattr(npuzzle, "scramble_distribution", both)
    _, p, info = npuzzle.build_n_puzzle(3)
    assert np.array_equal(p.probs, calls[0].distribution.probs)
    assert np.array_equal(info["scramble"].step_marginal_sums,
                          calls[0].step_marginal_sums)


@pytest.mark.parametrize("successor, what", [
    ([1, 5, 3, 3], "outside"),
    ([1, 2, 3], "shape"),
    ([1, -1, 3, 3], "outside"),
])
def test_scramble_rejects_malformed_moves(successor, what):
    move = ScrambleMove(successor=np.array(successor, dtype=np.int32),
                        label="bad-move")
    with pytest.raises(ValueError, match=f"'bad-move'.*{what}"):
        scramble_distribution(4, 0, [move], 2)
