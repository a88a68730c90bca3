"""The reverse graph, the BFS, the scramble DP, the RL run and IC(sup)
against the code they replaced.

``_argsort_reverse_graph``, ``_unique_bfs`` and ``_bincount_scramble`` are
the implementations that ``build_reverse_graph``, ``shortest_solution_lengths``
and ``scramble_distribution`` had before they became a counting sort, a
marking BFS and a preimage-gather DP; ``_unique_bfs`` is also the
reverse-graph BFS that MDPs of at most ``DIRECT_MAX_STATES`` states ran
before they took the pull BFS.  ``_solvable_mask`` is the former
``mdp.solvable_mask``, which ``solve_q`` and ``random_invertible_mdp`` used
before they read the solvable set of a BFS.
``_scalar_enumerate_shortest_solutions`` is ``enumerate_shortest_solutions``
as it was before it read the tables as Python lists, and
``_scipy_every_state_matched`` is the perfect-matching test that
``max_entropy_assignment`` ran through ``scipy.sparse.csgraph`` before
Kuhn's search.  ``_run_oracle`` is ``rl.run`` as it
was before one episode routine served training and evaluation and before
``rl._Draws`` replayed its draws from raw PCG64 blocks: it makes every draw
through a numpy ``Generator``.  ``_bfs_random_invertible_mdp`` is
``random_invertible_mdp`` as it was before it tested solvability without a
reverse graph.  ``_grid_ic_sup`` is
``incompress._ic_sup`` as it was before one root solve replaced its grid and
bounded Brent search over ``_ic_at_logit``.  ``_cliff_closure`` and
``_pickup_closure`` are the cliff and pickup builders as they were before
``mdp.enumerate_closure`` numbered and tabulated both, and
``_two_pass_rewrite`` is ``skills.rewrite_min_length`` as it was before one
backward pass recorded each position's token: a cost DP and a forward pass
that re-derived each choice.  ``_greedy_canonical_solution`` is
``canonical_shortest_solution`` as it was before it took the first solution
of ``enumerate_shortest_solutions``.  ``_dense_scramble`` is the scramble DP
as it was before it ran on a frontier and before a move undone by a move of
its set gathered through that move's successor array: it scatters one
preimage table for every move (``_scatter_table``), and rejects a
many-to-one move, which has none.  ``_unroll_macro_column`` and
``_unroll_tabular_column`` (with ``_unroll_one``, the former public
``skills.unroll``) are the two column builders ``augment`` had before one
unroll from every state served macros and tabular skills; they match it on
every non-goal row.  ``_enumerated_separable`` decides solution
separability by ``_shared_solution``, which folds every action sequence of
``itertools.product`` from every state; it replaces the budgeted
depth-first sequence search that backed the separability check before
``TabularDsmdp.solution_separable`` decided it from (action, successor)
pairs alone.  ``_length1_state_has_longer_solutions`` and
``_counted_several_lengths`` are the one-solution-length tests of bound
claims 6 and 7 before both read the edge test ``bounds._Case.longer``; the
second reads the per-length solution counts up to max d + 2.
``_enumerated_weighted_depth`` (with ``_sequence_success_probability``, once
public in ``metrics.stochastic``) is ``stochastic_weighted_depth`` as it was
before one length DP over the action-summed kernel replaced its per-state
enumeration of action sequences, with the empty sequence now counted at the
goal as the DP counts it; it adds in another order, so depth and masses are
held to 1e-12, and its truncation and clip flags must be equal.
They stay here as oracles.  The graph, the lengths, the solvable sets, the
enumerated solutions, the matching verdicts, the separability and length
verdicts, the RL records, the cliff and pickup MDPs and
the rewritings must match bit for bit, and so must the scramble DP when no
move has a group; with groups it sums the contexts in another order and is
held to 1e-15.  IC(sup) is held to 1e-12 relative.  The ``test_split_*`` tests hold the passes that
``_ranges.split`` runs on state ranges to themselves: the scramble DP, the
cube's index maps, the reverse graph and BFS and the q solve give equal
arrays with one range and with 2, 3 or 7.
"""

import itertools
import math
import multiprocessing as mp
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from skilldiff import _ranges
from skilldiff.envs import ENV_PRESETS, build_env
from skilldiff.envs import cliff, scramble
from skilldiff.envs.cube import _index_map, move_tables as cube_move_tables
from skilldiff.envs.cliff import build_cliff_walking
from skilldiff.envs.npuzzle import _factorials, perm_rank
from skilldiff.envs.pickup import (ACTIONS as PICKUP_ACTIONS,
                                   DEFAULT_PICKUP_CONFIG, PickupWorldConfig,
                                   build_pickup_world, parse_pickup_config)
from skilldiff.envs.scramble import (FRONTIER_SHARE, ScrambleMove,
                                     ScrambleResult, scramble_distribution)
from skilldiff.envs.synthetic import build_chain, build_sequence_consume
from skilldiff.experiments import (VariantSpec, materialize_variant,
                                   random_invertible_mdp, random_macro_skills,
                                   random_tabular_skills, variant_grid)
from skilldiff.mdp import (DIRECT_MAX_STATES, UNSOLVABLE, MdpError,
                           ReverseGraph, SolutionLengthTable,
                           StateDistribution, TabularDsmdp, _gather_ragged,
                           build_reverse_graph, pull_solution_lengths,
                           shortest_solution_lengths)
from skilldiff.metrics.bounds import _Case
from skilldiff.metrics.difficulty import per_length_counts
from skilldiff.metrics.solver import _symmetric_nongoal_operator, solve_q
from skilldiff.metrics.incompress import (SOL_CAP, _every_state_matched,
                                          _ic_sup,
                                          enumerate_shortest_solutions,
                                          max_entropy_assignment)
from skilldiff.metrics.stochastic import (StochasticTabularMdp,
                                          stochastic_weighted_depth)
from skilldiff.metrics.tightness import canonical_shortest_solution
from skilldiff.rl import (Q_LEARNING, REINFORCE, RL_VALUE_ITERATION,
                          RunRecord, _ground_truth, adaptive_epsilon_step,
                          protocol_preset, run)
from skilldiff.skills import (GOAL_PASS_DEAD, GOAL_PASS_SUCCESS,
                              AugmentedMdp, Skill, augment,
                              rewrite_min_length)

from conftest import random_dsmdp


def _argsort_reverse_graph(mdp):
    n, m = mdp.num_states, mdp.num_actions
    succ = mdp.successor.ravel()
    valid = np.flatnonzero(succ != mdp.dead)
    targets = succ[valid]
    order = np.argsort(targets, kind="stable")
    sorted_edges = valid[order]
    preds = (sorted_edges // m).astype(np.int32)
    counts = np.bincount(targets, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return ReverseGraph(indptr, preds)


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
        step_states=np.full(k_max, n, dtype=np.int64),
    )


def _scatter_table(successor, legal, n):
    """The int32 table that holds each target's legal preimage, or n; a
    move that takes two legal entries to one target has none."""
    src = np.flatnonzero(legal).astype(np.int32)
    tgt = np.asarray(successor)[src]
    if len(np.unique(tgt)) < len(tgt):
        raise ValueError("a many-to-one move has no single preimage table")
    table = np.full(n + 1, n, dtype=np.int32)
    table[tgt] = src
    return table


def _dense_scramble(num_states, goal, moves, k_max):
    n = num_states
    groups = sorted({m.group for m in moves if m.group is not None})
    gindex = {g: i for i, g in enumerate(groups)}
    C = len(groups) + 1
    ctx = [gindex[m.group] if m.group is not None else C - 1 for m in moves]

    counts = np.zeros((C, n), dtype=np.min_scalar_type(len(moves)))
    tables = [[] for _ in range(C)]
    for mv, g in zip(moves, ctx):
        t = np.asarray(mv.successor)
        legal = (t != n) & (t != np.arange(n))
        for c in range(C):
            if c != g or g == C - 1:
                counts[c] += legal
        if legal.any():
            tables[g].append(_scatter_table(t, legal, n))
    stuck = [np.flatnonzero(row == 0) for row in counts]
    np.maximum(counts, 1, out=counts)

    w = np.zeros((C, n + 1), dtype=np.float64)
    w[C - 1, goal] = 1.0
    w_new = np.empty_like(w)
    total, entering = np.empty((2, n + 1), dtype=np.float64)
    marginal = entering[:n]
    mixture = np.zeros(n, dtype=np.float64)
    marg_sums = np.zeros(k_max, dtype=np.float64)

    for k in range(k_max):
        w_new.fill(0.0)
        for c in range(C):
            w_new[c, stuck[c]] = w[c, stuck[c]]
        w[:, :n] /= counts
        np.sum(w, axis=0, out=total)
        for g in range(C):
            if g == C - 1:
                pool = total
            else:
                pool = np.subtract(total, w[g], out=w[g])
            for table in tables[g]:
                np.take(pool, table, out=entering, mode="clip")
                w_new[g] += entering
        w, w_new = w_new, w
        np.sum(w[:, :n], axis=0, out=marginal)
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
        step_states=np.full(k_max, n, dtype=np.int64),
    )


def _outer_perm_rank(perms):
    B, k = perms.shape
    f = _factorials(k)
    less = perms[:, :, None] > perms[:, None, :]
    tri = np.triu(np.ones((k, k), dtype=bool), 1)
    digits = (less & tri).sum(axis=2)
    return digits @ f


# -- reverse graph and BFS ------------------------------------------------------

def _bfs_random_invertible_mdp(rng, num_states, num_actions, max_tries=200):
    for _ in range(max_tries):
        succ = np.empty((num_states, num_actions), dtype=np.int32)
        for a in range(num_actions):
            succ[:, a] = rng.permutation(num_states)
        succ[0] = num_states
        mdp = TabularDsmdp(successor=succ, goal=0,
                           action_labels=[f"a{i}" for i in range(num_actions)])
        if shortest_solution_lengths(mdp).solvable.all():
            return mdp
    raise RuntimeError("failed to sample a fully solvable invertible MDP")


def test_random_invertible_mdp_matches_bfs_oracle():
    # same accept/reject decisions, hence the same draws and the same MDPs;
    # one and two actions reject often, and one action can exhaust the tries
    rng, rng0 = np.random.default_rng(90), np.random.default_rng(90)
    for _ in range(300):
        n, m = int(rng0.integers(2, 41)), int(rng0.integers(1, 4))
        assert (n, m) == (int(rng.integers(2, 41)), int(rng.integers(1, 4)))
        try:
            mdp0 = _bfs_random_invertible_mdp(rng0, n, m, max_tries=20)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                random_invertible_mdp(rng, n, m, max_tries=20)
            continue
        mdp = random_invertible_mdp(rng, n, m, max_tries=20)
        assert np.array_equal(mdp.successor, mdp0.successor)
        assert mdp.action_labels == mdp0.action_labels
    assert rng.bit_generator.state == rng0.bit_generator.state


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
        for name in ("indptr", "preds"):
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
    for name in ("indptr", "preds"):
        _assert_same_arrays(getattr(rev, name), getattr(rev0, name))
    _assert_same_arrays(shortest_solution_lengths(mdp, rev).d,
                        _unique_bfs(mdp, rev0).d)


def test_pull_bfs_does_not_read_rev_below_the_cutoff():
    # a reverse graph without edges would leave every state but the goal
    # unsolvable if the BFS read it
    rng = np.random.default_rng(52)
    reached = 0
    for _ in range(50):
        mdp = _random_table(rng)
        n = mdp.num_states
        empty = ReverseGraph(np.zeros(n + 1, dtype=np.int64),
                             np.empty(0, dtype=np.int32))
        want = _unique_bfs(mdp, _argsort_reverse_graph(mdp)).d
        _assert_same_arrays(shortest_solution_lengths(mdp, empty).d, want)
        reached += int((want > 0).sum())
    assert reached > 0


@pytest.mark.parametrize("n", [DIRECT_MAX_STATES - 1, DIRECT_MAX_STATES,
                               DIRECT_MAX_STATES + 1])
def test_pull_bfs_matches_reverse_graph_oracle_around_the_cutoff(n):
    # dead entries, and ten trap states that only reach each other, so
    # some states are unsolvable; n + 1 takes the reverse-graph BFS
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        succ = rng.integers(0, n, size=(n, m)).astype(np.int32)
        succ[rng.random(succ.shape) < rng.uniform(0.0, 0.5)] = n
        trap = rng.choice(n, size=10, replace=False)
        succ[trap] = rng.choice(trap, size=(10, m))
        goal = int(rng.choice(np.setdiff1d(np.arange(n), trap)))
        succ[goal] = n
        mdp = TabularDsmdp(successor=succ, goal=goal,
                           action_labels=[f"a{i}" for i in range(m)])
        want = _unique_bfs(mdp, _argsort_reverse_graph(mdp)).d
        assert np.all(want[trap] == UNSOLVABLE)
        _assert_same_arrays(shortest_solution_lengths(mdp).d, want)
        _assert_same_arrays(pull_solution_lengths(succ, goal).d, want)


def test_cached_solution_lengths_match_a_fresh_bfs():
    # random tables, and tables either side of the cut-off with dead
    # entries; the first access fills the cache, later ones return it
    rng = np.random.default_rng(54)
    tables = [_random_table(rng) for _ in range(100)]
    for n in (DIRECT_MAX_STATES - 1, DIRECT_MAX_STATES, DIRECT_MAX_STATES + 1):
        for _ in range(5):
            succ = rng.integers(0, n, size=(n, 3)).astype(np.int32)
            succ[rng.random(succ.shape) < 0.4] = n
            goal = int(rng.integers(n))
            succ[goal] = n
            tables.append(TabularDsmdp(successor=succ, goal=goal,
                                       action_labels=["a", "b", "c"]))
    unsolvable = 0
    for mdp in tables:
        d = mdp.solution_lengths
        assert mdp.solution_lengths is d
        _assert_same_arrays(d.d, shortest_solution_lengths(mdp).d)
        unsolvable += int((~d.solvable).sum())
    assert unsolvable > 0


def _solvable_mask(successor, goal):
    n = successor.shape[0]
    ok = np.zeros(n + 1, dtype=bool)  # ok[n] is the dead state
    ok[goal] = True
    count = 1
    while True:
        ok[:n] |= ok[successor].any(axis=1)
        new_count = int(np.count_nonzero(ok))
        if new_count == count:
            return ok[:n]
        count = new_count


def test_solvable_mask_is_the_bfs_solvable_set():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        mdp = random_dsmdp(rng, n, int(rng.integers(1, 5)),
                           dead_frac=float(rng.uniform(0.0, 0.8)))
        goal = int(rng.integers(0, n))  # move the goal off state 0
        succ = mdp.successor.copy()
        succ[0], succ[goal] = succ[goal].copy(), succ[0].copy()
        mdp = TabularDsmdp(successor=succ, goal=goal,
                           action_labels=mdp.action_labels)
        mask = _solvable_mask(mdp.successor, mdp.goal)
        assert mask.dtype == bool and mask.shape == (n,)
        assert np.array_equal(mask, shortest_solution_lengths(mdp).solvable)
        assert np.array_equal(
            mask, pull_solution_lengths(mdp.successor, mdp.goal).solvable)


# -- solution enumeration and matching ------------------------------------------

def _scalar_enumerate_shortest_solutions(mdp, d, states, cap=SOL_CAP):
    dpad = d.padded()
    succ = mdp.successor
    out = {}
    cap_hit = False
    for s0 in states:
        sols = []
        stack = [(int(s0), ())]
        while stack and len(sols) < cap:
            s, prefix = stack.pop()
            if dpad[s] == 0:
                sols.append(prefix)
                continue
            step = dpad[s] - 1
            for a in range(mdp.num_actions - 1, -1, -1):
                t = succ[s, a]
                if dpad[t] == step:
                    stack.append((int(t), prefix + (a,)))
        if stack:
            cap_hit = True
        out[int(s0)] = sols
    return out, cap_hit


def test_enumerator_matches_numpy_scalar_oracle():
    rng = np.random.default_rng(53)
    tables = [_random_table(rng) for _ in range(100)]
    for _ in range(50):  # augmented tables: many shortest solutions
        mdp = random_invertible_mdp(rng, int(rng.integers(5, 30)), 3)
        tables.append(augment(mdp, random_macro_skills(rng, mdp)).mdp)
        tables.append(augment(mdp, random_tabular_skills(rng, mdp)).mdp)
    hit = {True: 0, False: 0}
    for mdp in tables:
        d = shortest_solution_lengths(mdp)
        states = rng.permutation(mdp.num_states)
        for cap in (1, 2, 5, SOL_CAP):
            got = enumerate_shortest_solutions(mdp, states, cap)
            assert got == _scalar_enumerate_shortest_solutions(
                mdp, d, states, cap)
            assert all(type(a) is int for sols in got[0].values()
                       for sol in sols for a in sol)
            hit[got[1]] += 1
    assert min(hit.values()) > 0


def _scipy_every_state_matched(candidates):
    keys = sorted({k for cand in candidates for k in cand})
    kidx = {k: i for i, k in enumerate(keys)}
    n = len(candidates)
    rows = np.repeat(np.arange(n), [len(c) for c in candidates])
    cols = np.array([kidx[k] for c in candidates for k in c], dtype=np.int64)
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(n, len(keys)))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int((match >= 0).sum()) == n


def test_matching_matches_scipy_oracle():
    rng = np.random.default_rng(54)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        n = int(rng.integers(1, 16))
        nkeys = int(rng.integers(1, 2 * n + 1))
        cands = [sorted({(int(k),) for k in rng.integers(
                    0, nkeys, size=int(rng.integers(1, 4)))})
                 for _ in range(n)]
        want = _scipy_every_state_matched(cands)
        assert _every_state_matched(cands) is want
        probs = rng.dirichlet(np.ones(n))
        asg = max_entropy_assignment(probs, cands)
        assert (asg.method == "matching_exact") is want
        verdicts[want] += 1
    assert min(verdicts.values()) > 100


@pytest.mark.parametrize("perfect", [True, False])
def test_matching_augments_along_a_path_through_every_state(perfect):
    # state i < n - 1 first takes (i,); the last state wants only (0,), so
    # its augmenting path passes every state, too deep for a recursive
    # search; without (n - 1,) there is none
    n = 3000
    cands = [[(i,), (i + 1,)] for i in range(n - 1)] + [[(0,)]]
    if not perfect:
        cands[n - 2] = [(n - 2,)]
    assert _scipy_every_state_matched(cands) is perfect
    assert _every_state_matched(cands) is perfect


# -- scramble DP ----------------------------------------------------------------

def _undone_pair(rng, n, perm, keep):
    """Successor arrays (t, u): t is perm on the states in keep, and u undoes
    it on their images; every other entry of either is a no-op or dead."""
    t, u = np.where(rng.random((2, n)) < 0.5, np.arange(n), n)
    t[keep] = perm[keep]
    u[perm[keep]] = np.flatnonzero(keep)
    return t, u


def _cut(t, u, x):
    """Make t a no-op at x, and u at the image t had there, so that u still
    undoes t; t may be u."""
    y = t[x]
    if y != x and y != len(t):
        t[x], u[y] = x, y


def _random_moves(rng, n, grouped):
    """Pairs of moves that undo each other, and self-inverse moves: a random
    permutation of the states, or a random pairing of them, on a random part
    of the states, with no-ops and dead entries elsewhere.  With
    ``grouped`` some moves share a group and some have none.  A state that
    no legal move leaves is stuck and keeps its mass."""
    moves = []
    for j in range(int(rng.integers(1, 4))):
        keep = rng.random(n) < rng.uniform(0.3, 1.0)
        if rng.random() < 0.3:  # pair kept states off: one move
            a = rng.permutation(np.flatnonzero(keep))
            a = a[:len(a) // 2 * 2].reshape(-1, 2)
            perm = np.arange(n)
            perm[a[:, 0]], perm[a[:, 1]] = a[:, 1], a[:, 0]
            keep[:] = False
            keep[a.ravel()] = True
            pair = _undone_pair(rng, n, perm, keep)[:1]
        else:
            pair = _undone_pair(rng, n, rng.permutation(n), keep)
        for k, t in enumerate(pair):
            group = None
            if grouped and rng.random() < 0.7:
                group = int(rng.integers(3))
            moves.append(ScrambleMove(successor=t.astype(np.int32),
                                      group=group, label=f"m{j}{'ab'[k]}"))
    rng.shuffle(moves)
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
    (np.array([1, 5, 3, 3], dtype=np.int32), "outside"),
    (np.array([1, 2, 3], dtype=np.int32), "shape"),
    (np.array([1, -1, 3, 3], dtype=np.int32), "outside"),
    (np.array([1., 2., 3., 0.]), "dtype"),
])
def test_scramble_rejects_malformed_moves(successor, what):
    move = ScrambleMove(successor=successor, label="bad-move")
    with pytest.raises(ValueError, match=f"'bad-move'.*{what}"):
        scramble_distribution(4, 0, [move], 2)


def _local_moves(rng, n, grouped):
    """Low-degree moves on a line of n states under a random labelling, in
    pairs that undo each other.

    A pair's first move shifts every place by its own one to six places on,
    then swaps about a tenth of the neighbouring places; its second move
    undoes that.  So a walk from one state covers few states for many
    steps.  A shift off the line, and about a twentieth of the others, is a
    no-op or dead in the first move, and so is its image in the second.  On
    a tenth of the states every move outside one group, or every move, is a
    no-op: they are stuck in that group's context, or in all contexts.
    """
    label = rng.permutation(n)  # the state at each place on the line
    places = np.arange(n)
    pairs = []
    for j in range(int(rng.integers(1, 4))):
        shift = int(rng.integers(1, 7))
        swap = places.copy()
        i = np.flatnonzero(rng.random(n - 1) < 0.1)
        i = i[np.diff(i, prepend=-2) > 1]  # disjoint neighbour swaps
        swap[i], swap[i + 1] = i + 1, i
        perm, keep = np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
        perm[label] = label[swap[np.minimum(places + shift, n - 1)]]
        keep[label] = (places + shift < n) & (rng.random(n) >= 0.05)
        pair = []
        for k, t in enumerate(_undone_pair(rng, n, perm, keep)):
            group = None
            if grouped and rng.random() < 0.8:
                group = int(rng.integers(2))
            pair.append(ScrambleMove(successor=t.astype(np.int32), group=group,
                                     label=f"m{2 * j + k}"))
        pairs.append(pair)
    for s in rng.choice(n, size=n // 10, replace=False):
        spared = rng.choice([None, 0, 1]) if grouped else None
        for a, b in pairs + [pair[::-1] for pair in pairs]:
            if spared is None or a.group != spared:
                _cut(a.successor, b.successor, s)
    return [mv for pair in pairs for mv in pair]


@pytest.mark.parametrize("grouped", [False, True])
def test_frontier_scramble_matches_dense_oracle(grouped):
    # walks that stay sparse for several steps run the frontier phase, and
    # the switch to dense steps, or not, depending on n and k_max
    rng = np.random.default_rng(53 + grouped)
    switched = sparse_only = 0
    for _ in range(150):
        n = int(rng.integers(100, 2000))
        goal = int(rng.integers(n))
        moves = _local_moves(rng, n, grouped)
        k_max = int(rng.integers(10, 80))
        try:
            res0 = _dense_scramble(n, goal, moves, k_max)
        except ValueError:
            with pytest.raises(ValueError):
                scramble_distribution(n, goal, moves, k_max)
            continue
        res = scramble_distribution(n, goal, moves, k_max)
        assert np.array_equal(res.distribution.probs,
                              res0.distribution.probs)
        assert np.array_equal(res.step_marginal_sums, res0.step_marginal_sums)
        assert res.goal_mass_removed == res0.goal_mass_removed
        sparse = res.step_states[res.step_states < n]
        assert len(sparse) >= 2 and np.all(sparse <= FRONTIER_SHARE * n)
        if len(sparse) < k_max:
            switched += 1
            assert np.all(res.step_states[len(sparse):] == n)
        else:
            sparse_only += 1
    assert switched >= 30 and sparse_only >= 30


def _cycle_power(label, L, k):
    """The k-th power of the permutation that steps every run of L
    consecutive places one place on, cyclically; label[i] is the state at
    place i."""
    i = np.arange(len(label))
    t = np.empty(len(label), dtype=np.int32)
    t[label] = label[i - i % L + (i % L + k) % L]
    return t


def _closed_moves(rng, n, grouped):
    """Fixed-point-free permutations with their inverses and powers.

    Each generator cycles runs of L places (L = 2, 3, 4, 6 or 12, which
    divide n, or a ring of all n) under its own random labelling; the set
    holds its powers 1..L-1, or 1, 2, L-2 and L-1 when L > 4, so every move's
    inverse is in the set and no move fixes a state.  L = 2 is a
    self-inverse move.  With ``grouped`` a generator's powers share a group,
    as a cube face's turns do, or have none."""
    moves = []
    for j in range(int(rng.integers(1, 4))):
        L = int(rng.choice([2, 3, 4, 6, 12, n]))
        label = rng.permutation(n)
        group = j if grouped and rng.random() < 0.8 else None
        powers = range(1, L) if L <= 4 else sorted({1, 2, L - 2, L - 1})
        moves += [ScrambleMove(successor=_cycle_power(label, L, k),
                               group=group, label=f"g{j}^{k}") for k in powers]
    rng.shuffle(moves)
    return moves


def _gather_tables(monkeypatch):
    """Record the per-group gather tables that each scramble step gets."""
    seen = []
    for name in ("_frontier_step", "_dense_step"):
        def spy(w, counts, stuck, tables, *rest, step=getattr(scramble, name)):
            seen.append(tables)
            return step(w, counts, stuck, tables, *rest)
        monkeypatch.setattr(scramble, name, spy)
    return seen


def _assert_matches_dense_oracle(n, goal, moves, k_max):
    """scramble_distribution equals the dense oracle on p, the step marginal
    sums and the goal mass.  Returns the result."""
    res = scramble_distribution(n, goal, moves, k_max)
    res0 = _dense_scramble(n, goal, moves, k_max)
    assert np.array_equal(res.distribution.probs, res0.distribution.probs)
    assert np.array_equal(res.step_marginal_sums, res0.step_marginal_sums)
    assert res.goal_mass_removed == res0.goal_mass_removed
    return res


@pytest.mark.parametrize("grouped", [False, True])
def test_inverse_scramble_matches_dense_oracle(grouped):
    # every move pulls through its inverse's successor array; small walks
    # stay on the frontier, the others switch to dense steps
    rng = np.random.default_rng(57 + grouped)
    switched = sparse_only = 0
    for _ in range(120):
        n = 12 * int(rng.integers(1, 120))
        goal = int(rng.integers(n))
        moves = _closed_moves(rng, n, grouped)
        k_max = int(rng.integers(1, 30))
        res = _assert_matches_dense_oracle(n, goal, moves, k_max)
        if np.any(res.step_states == n):
            switched += 1
        else:
            sparse_only += 1
    assert switched >= 30 and sparse_only >= 30


def test_self_inverse_scramble_move_pulls_through_itself(monkeypatch):
    # a fixed-point-free flip gathers through its own array, and the flip
    # with one swapped pair cut through a masked copy of itself
    rng = np.random.default_rng(60)
    flip = ScrambleMove(successor=_cycle_power(rng.permutation(10), 2, 1))
    cut = ScrambleMove(successor=flip.successor.copy())
    _cut(cut.successor, cut.successor, 4)
    tables = _gather_tables(monkeypatch)
    res = _assert_matches_dense_oracle(10, 3, [flip], 5)
    assert [len(g) for g in tables[0]] == [1]
    assert tables[0][0][0] is flip.successor
    # the walk alternates between the goal and its partner
    assert np.count_nonzero(res.distribution.probs) == 1
    tables.clear()
    _assert_matches_dense_oracle(10, 3, [cut], 5)
    legal = cut.successor != np.arange(10)
    assert np.array_equal(tables[0][0][0],
                          _scatter_table(cut.successor, legal, 10)[:10])


@pytest.mark.parametrize("grouped", [False, True])
def test_scramble_rejects_a_move_that_no_move_undoes(grouped):
    # next to moves closed under inversion: a derangement whose inverse is
    # not in the set, a partial move whose only candidate, its inverse on
    # every state, has one more legal entry, and a many-to-one move; each is
    # named, and the dense oracle rejects the many-to-one move too
    rng = np.random.default_rng(61 + grouped)
    for it in range(60):
        n = 12 * int(rng.integers(1, 60))
        moves = _closed_moves(rng, n, grouped)
        perm = rng.permutation(n)
        bad, inverse = _cycle_power(perm, 3, 1), _cycle_power(perm, 3, 2)
        x = int(rng.integers(n))
        if it % 3 == 1:
            bad[x] = x
        elif it % 3 == 2:  # x and bad[x] both go to bad[bad[x]]
            bad[x] = bad[bad[x]]
        extra = [ScrambleMove(successor=bad, label="bad")]
        if it % 3:
            extra.append(ScrambleMove(successor=inverse, label="inverse"))
        if grouped:
            for mv in extra:
                mv.group = int(rng.integers(5))
        with pytest.raises(ValueError, match="'bad' has legal entries but "
                                             "no move of the set undoes it"):
            scramble_distribution(n, 0, moves + extra, 3)
        if it % 3 == 2:
            with pytest.raises(ValueError, match="many-to-one"):
                _dense_scramble(n, 0, moves + extra, 3)


def _mixed_moves(rng, n, grouped):
    """Moves legal on every state, from ``_closed_moves`` and sometimes a
    ring of all n states with its inverse, followed by the partial moves of
    ``_local_moves``; or the partial moves alone, whose stuck states stay
    stuck in the "none" context."""
    moves = _local_moves(rng, n, grouped)
    if rng.random() < 0.4:
        return moves
    everywhere = _closed_moves(rng, n, grouped)
    if rng.random() < 0.5:
        label = rng.permutation(n)
        everywhere += [ScrambleMove(successor=_cycle_power(label, n, k),
                                    label=f"ring^{k}") for k in (1, n - 1)]
    return everywhere + moves


@pytest.mark.parametrize("grouped", [False, True])
def test_mixed_legality_scramble_matches_dense_oracle_and_fallback(
        grouped, monkeypatch):
    # the legal-move counts keep one column per context while every move is
    # legal everywhere, and one per state otherwise; rows of contexts that
    # no move enters and where no state is stuck are skipped once zero
    rng = np.random.default_rng(63 + grouped)
    first_dense = []
    dense_step = scramble._dense_step

    def spy(w, counts, stuck, tables, *rest):
        if not first_dense:
            first_dense.append((counts.shape[1], len(stuck[-1]),
                                any(not row.any() for row in w[:-1])))
        return dense_step(w, counts, stuck, tables, *rest)

    monkeypatch.setattr(scramble, "_dense_step", spy)
    widened = none_stuck = zero_group = 0
    for _ in range(150):
        n = 12 * int(rng.choice([1, 2, rng.integers(3, 100)]))
        goal = int(rng.integers(n))
        moves = _mixed_moves(rng, n, grouped)
        k_max = int(rng.integers(1, 40))
        first_dense.clear()
        try:
            _dense_scramble(n, goal, moves, k_max)
        except ValueError:
            with pytest.raises(ValueError):
                scramble_distribution(n, goal, moves, k_max)
            continue
        _assert_matches_dense_oracle(n, goal, moves, k_max)
        if first_dense:
            wide, stuck_none, zero_row = first_dense[0]
            widened += wide == n and moves[0].label != "m0"
            none_stuck += stuck_none > 0 and grouped
            zero_group += zero_row and grouped
    assert widened >= 40
    if grouped:
        assert none_stuck >= 10 and zero_group >= 30


def test_scramble_checks_each_inverse_pair_once(monkeypatch):
    # shifts on a ring of 12 states: a move's probe entry matches only its
    # inverse, so every full check finds the inverse, and a pair is checked
    # once from its first member; the self-inverse shift by 6 once on its
    # own, and the shifts by 4 and 8, each cut at one state, once together
    shifts = [1, 2, 3, 4, 6, 8, 9, 10, 11]
    ring = np.arange(12)
    moves = [ScrambleMove(successor=((ring + k) % 12).astype(np.int32),
                          group=k % 3, label=f"+{k}") for k in shifts]
    _cut(moves[3].successor, moves[5].successor, 5)
    checks = []
    equal = np.array_equal

    def array_equal(a, b):
        checks.append(1)
        return equal(a, b)

    monkeypatch.setattr(np, "array_equal", array_equal)
    scramble_distribution(12, 0, moves, 6)
    assert len(checks) == 5
    monkeypatch.undo()
    _assert_matches_dense_oracle(12, 0, moves, 6)


def test_scramble_pairs_the_cube_and_puzzle8_moves(cube_bundle, monkeypatch):
    # each cube turn is undone by the opposite turn of its face, a half turn
    # by itself, and gathers through that turn's own array; puzzle8's blank
    # moves pair up as U, D and R, L and gather through masked copies, equal
    # to the scattered preimage tables
    import skilldiff.envs.npuzzle as npuzzle

    def pairs(succs, labels, n):
        states = np.arange(n, dtype=np.int32)
        legals = [scramble._legal(t, states) for t in succs]
        found = [labels[scramble._undoing_move(i, succs, legals, states,
                                               labels[i])]
                 for i in range(len(succs))]
        return dict(zip(labels, found)), legals

    maps = {label: _index_map(tab) for label, tab in cube_move_tables().items()}
    found, legals = pairs(list(maps.values()), list(maps),
                          cube_bundle[0].num_states)
    assert legals == [None] * 9
    assert found == {label: label[0] + str(4 - int(label[1]))
                     for label in maps}

    inputs = []

    def capture(*args):
        inputs.append(args)
        return scramble_distribution(*args)

    tables = _gather_tables(monkeypatch)
    monkeypatch.setattr(npuzzle, "scramble_distribution", capture)
    npuzzle.build_n_puzzle(3)
    n, _, moves, _ = inputs[0]
    found, legals = pairs([mv.successor for mv in moves],
                          [mv.label for mv in moves], n)
    assert found == {"U": "D", "D": "U", "R": "L", "L": "R"}
    for mv, legal, table in zip(moves, legals, tables[0][0]):
        assert np.array_equal(table,
                              _scatter_table(mv.successor, legal, n)[:n])


def test_perm_rank_matches_outer_product_oracle():
    def same(perms):
        r, r0 = perm_rank(perms), _outer_perm_rank(perms)
        assert r.dtype == r0.dtype
        assert np.array_equal(r, r0)

    all7 = np.array(list(itertools.permutations(range(7))), dtype=np.int8)
    same(all7)
    assert np.array_equal(perm_rank(all7), np.arange(5040))
    rng = np.random.default_rng(54)
    same(rng.permuted(np.tile(np.arange(9, dtype=np.int8), (2000, 1)),
                      axis=1))
    same(np.zeros((4, 1), dtype=np.int8))
    same(np.zeros((0, 9), dtype=np.int8))


# -- IC(sup) ------------------------------------------------------------------

def _ic_at_logit(u, H, Ed, a_eff):
    return (H + u) / (Ed * (np.log(a_eff) + np.logaddexp(0.0, u)))


def _grid_ic_sup(H, Ed, a_eff):
    grid = np.linspace(-40.0, 40.0, 2001)
    vals = _ic_at_logit(grid, H, Ed, a_eff)
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(lambda u: -_ic_at_logit(u, H, Ed, a_eff),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    interior = max(float(vals[i]), float(-res.fun))
    boundary = 1.0 / Ed
    if boundary >= interior:
        return boundary, None
    eps = float(1.0 / (1.0 + np.exp(-res.x)))
    return interior, eps


def test_ic_sup_matches_grid_oracle():
    rng = np.random.default_rng(55)
    k = 3500
    a = np.exp(rng.uniform(0.01, 3.5, 3 * k))
    log_a = np.log(a)
    H = np.concatenate([
        rng.uniform(0.0, 12.0, k),                    # either side
        log_a[k:2 * k] * rng.uniform(0.0, 1.0, k),    # H <= log a
        log_a[2 * k:] + rng.uniform(0.0, 1e-6, k),    # just above log a
    ])
    Ed = rng.uniform(0.5, 50.0, 3 * k)
    interior = 0
    for h, d, aa, la in zip(H, Ed, a, log_a):
        v, eps = _ic_sup(h, d, aa)
        v0, eps0 = _grid_ic_sup(h, d, aa)
        assert abs(v - v0) <= 1e-12 * abs(v0), (h, d, aa)
        if abs(h - la) > 1e-9:
            assert (eps is None) == (eps0 is None), (h, d, aa)
        interior += eps is not None
    assert 3000 <= interior <= 3 * k - 3000


# -- RL run -------------------------------------------------------------------

class _Env:
    """Uniform view over a base or augmented MDP for the RL loop."""

    def __init__(self, env):
        if isinstance(env, AugmentedMdp):
            self.mdp = env.mdp
            self.base_actions = env.base.num_actions
            self._skill_lengths = env.skill_lengths
        else:
            self.mdp = env
            self.base_actions = env.num_actions
            self._skill_lengths = None
        self.n = self.mdp.num_states
        self.m = self.mdp.num_actions
        self.goal = self.mdp.goal
        self.dead = self.mdp.dead
        self.succ = self.mdp.successor_padded()

    def action_cost(self, s: int, a: int) -> int:
        if s == self.dead or a < self.base_actions or self._skill_lengths is None:
            return 1
        return max(1, int(self._skill_lengths[s, a - self.base_actions]))

    def step(self, s: int, a: int) -> int:
        if s == self.dead:
            return self.dead  # absorbing
        return int(self.succ[s, a])


def _run_oracle(env, p, cfg):
    e = _Env(env)
    children = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(children[0])
    eval_rng_seed = children[1]
    v_star, q_star = _ground_truth(e.mdp, cfg.gamma)
    sup = p.support
    psup = p.probs[sup]
    cumsup = np.cumsum(psup)

    def sample_start(r: float) -> int:
        i = min(int(np.searchsorted(cumsup, r, side="right")), len(sup) - 1)
        return int(sup[i])

    algo = cfg.algorithm
    if algo in (Q_LEARNING, RL_VALUE_ITERATION):
        q = np.zeros((e.n + 1, e.m))  # dead row stays zero
        theta = None
    elif algo == REINFORCE:
        q = None
        theta = np.zeros((e.n + 1, e.m))
    else:
        raise ValueError(f"unknown algorithm {algo!r}")

    replay_s = np.zeros(cfg.replay_size, dtype=np.int64)
    replay_a = np.zeros(cfg.replay_size, dtype=np.int64)
    replay_fill = 0
    replay_ptr = 0

    eps = cfg.eps_start
    best_reward = 0.0
    env_steps = 0
    last_eval = 0
    episodes = 0
    samples = []
    converged = False

    def greedy_action(s: int) -> int:
        if algo == Q_LEARNING:
            return int(np.argmax(q[s]))
        if algo == RL_VALUE_ITERATION:
            t = e.succ[s]
            targets = np.where(t == e.goal, 1.0,
                               cfg.gamma * q[t, 0] * (t != e.dead))
            return int(np.argmax(targets))
        raise AssertionError

    def policy_action(s: int) -> int:
        if algo == REINFORCE:
            logits = theta[s] - theta[s].max()
            probs = np.exp(logits)
            probs /= probs.sum()
            return int(rng.choice(e.m, p=probs))
        if rng.random() < eps:
            return int(rng.integers(e.m))
        return greedy_action(s)

    def evaluate():
        ev = np.random.default_rng(eval_rng_seed)
        n_ep = 1 if p.support_size == 1 else cfg.eval_episodes
        total = 0.0
        for _ in range(n_ep):
            s = sample_start(ev.random()) if p.support_size > 1 else int(sup[0])
            steps = 0
            base_used = 0
            while steps < cfg.horizon and base_used < cfg.base_action_budget:
                if algo == REINFORCE:
                    logits = theta[s] - theta[s].max()
                    probs = np.exp(logits)
                    probs /= probs.sum()
                    a = int(ev.choice(e.m, p=probs))
                else:
                    a = greedy_action(s)
                base_used += e.action_cost(s, a)
                s2 = e.step(s, a)
                steps += 1
                if s2 == e.goal:
                    total += cfg.gamma ** (steps - 1)
                    break
                s = s2
        reward = total / n_ep
        if algo == Q_LEARNING:
            err = float(np.dot(psup,
                               np.abs(q[sup] - q_star[sup]).mean(axis=1)))
        elif algo == RL_VALUE_ITERATION:
            err = float(np.dot(psup, np.abs(q[sup, 0] - v_star[sup])))
        else:
            err = float("nan")
        return reward, err

    def update_from_replay():
        if replay_fill < cfg.batch_size:
            return
        idx = rng.integers(0, replay_fill, size=cfg.batch_size)
        for i in idx:
            s, a = int(replay_s[i]), int(replay_a[i])
            if algo == Q_LEARNING:
                t = e.succ[s, a] if s != e.dead else e.dead
                if t == e.goal:
                    target = 1.0
                elif t == e.dead:
                    target = 0.0
                else:
                    target = cfg.gamma * float(q[t].max())
                q[s, a] += cfg.alpha * (target - q[s, a])
            else:
                t = e.succ[s]
                targets = np.where(t == e.goal, 1.0,
                                   cfg.gamma * q[t, 0] * (t != e.dead))
                q[s, 0] += cfg.alpha * (float(targets.max()) - q[s, 0])

    while env_steps < cfg.max_env_steps and not converged:
        s = sample_start(rng.random()) if p.support_size > 1 else int(sup[0])
        trajectory = []
        steps = 0
        base_used = 0
        success_len = None
        while steps < cfg.horizon and base_used < cfg.base_action_budget:
            a = policy_action(s)
            cost = e.action_cost(s, a)
            t = e.step(s, a)
            steps += 1
            base_used += cost
            mult = e.m if algo == RL_VALUE_ITERATION else 1
            env_steps += cost * mult
            trajectory.append((s, a))
            if s != e.dead and algo in (Q_LEARNING, RL_VALUE_ITERATION):
                replay_s[replay_ptr] = s
                replay_a[replay_ptr] = a
                replay_ptr = (replay_ptr + 1) % cfg.replay_size
                replay_fill = min(replay_fill + 1, cfg.replay_size)
            if t == e.goal:
                success_len = steps
                break
            s = t
        episodes += 1

        if algo == REINFORCE:
            if success_len is not None:
                g = cfg.gamma ** (success_len - 1)
                for (s_t, a_t) in trajectory:
                    if s_t == e.dead:
                        continue
                    logits = theta[s_t] - theta[s_t].max()
                    probs = np.exp(logits)
                    probs /= probs.sum()
                    grad = -probs
                    grad[a_t] += 1.0
                    theta[s_t] += cfg.alpha * g * grad
        elif episodes % cfg.update_every == 0:
            update_from_replay()

        if env_steps - last_eval >= cfg.eval_every_env_steps:
            last_eval = env_steps
            reward, err = evaluate()
            samples.append((env_steps, reward, err))
            eps, best_reward = adaptive_epsilon_step(eps, best_reward,
                                                     reward, cfg)
            if cfg.stop_reward is not None and reward >= cfg.stop_reward:
                converged = True
            if (cfg.stop_value_error is not None and not math.isnan(err)
                    and err <= cfg.stop_value_error):
                converged = True

    return RunRecord(samples=samples, converged=converged,
                     terminal_env_steps=env_steps, algorithm=algo,
                     seed=cfg.seed)


_ALGORITHMS = (Q_LEARNING, RL_VALUE_ITERATION, REINFORCE)


def _assert_same_run(env, p, cfg):
    got, want = run(env, p, cfg), _run_oracle(env, p, cfg)
    assert len(got.samples) == len(want.samples)
    for a, b in zip(got.samples, want.samples):
        assert a[0] == b[0] and type(a[0]) is int
        assert np.array_equal(a[1:], b[1:], equal_nan=True)
    assert got.converged == want.converged
    assert got.terminal_env_steps == want.terminal_env_steps
    assert type(got.terminal_env_steps) is int
    return got


def _spread_p(mdp, rng):
    """p on up to six random solvable non-goal states."""
    d = shortest_solution_lengths(mdp)
    cand = np.flatnonzero(d.solvable)
    cand = cand[cand != mdp.goal]
    pick = rng.choice(cand, size=min(6, len(cand)), replace=False)
    probs = np.zeros(mdp.num_states)
    probs[pick] = rng.random(len(pick)) + 0.1
    return StateDistribution(probs / probs.sum())


def _cfg(algo, seed, **kw):
    return replace(protocol_preset(algo, seed=seed, max_env_steps=8_000),
                   eval_every_env_steps=1000, eval_episodes=40, **kw)


@pytest.mark.parametrize("algo", _ALGORITHMS)
def test_run_matches_oracle_on_cliff_variants(cliff_bundle, algo):
    mdp, p, _ = cliff_bundle
    variants = variant_grid("cliff", 7)
    reached = 0
    for i in (0, 1, 3, 5, 9, 24, 27):
        env = mdp if variants[i].is_base else materialize_variant(
            mdp, variants[i], GOAL_PASS_SUCCESS)
        rec = _assert_same_run(env, p, _cfg(algo, 100 + i, stop_reward=None))
        reached += any(s[1] > 0.0 for s in rec.samples)
    assert reached >= 2


@pytest.mark.parametrize("algo", _ALGORITHMS)
def test_run_matches_oracle_on_pickup(algo):
    mdp, p, _ = build_env(ENV_PRESETS["pickup"])
    assert p.support_size > 1
    macro = materialize_variant(mdp, VariantSpec("m", ["PUURRRP", "LL"]),
                                GOAL_PASS_SUCCESS)
    for env in (mdp, macro):
        _assert_same_run(env, p, _cfg(algo, 7))


@pytest.mark.parametrize("algo", _ALGORITHMS)
def test_run_matches_oracle_on_random_invertible_mdps(algo):
    rng = np.random.default_rng(90)
    empty = 0
    for k in range(4):
        mdp = random_invertible_mdp(rng, int(rng.integers(6, 16)), 3)
        p = _spread_p(mdp, rng)
        tabular = augment(mdp, random_tabular_skills(rng, mdp),
                          mode=(GOAL_PASS_SUCCESS, GOAL_PASS_DEAD)[k % 2])
        lengths = np.delete(tabular.skill_lengths, mdp.goal, axis=0)
        empty += int((lengths == 0).sum())
        macros = augment(mdp, [Skill.from_macro((0, 1)),
                               Skill.from_macro((2, 2, 1))],
                         mode=GOAL_PASS_SUCCESS)
        for env in (mdp, tabular, macros):
            _assert_same_run(env, p, _cfg(algo, k, gamma=0.95, horizon=20,
                                          base_action_budget=30))
    assert empty > 0


@pytest.mark.parametrize("algo", _ALGORITHMS)
def test_run_matches_oracle_on_tables_with_dead_entries(algo):
    rng = np.random.default_rng(91)
    checked = 0
    for k in range(5):
        mdp = random_dsmdp(rng, int(rng.integers(8, 25)), 3, dead_frac=0.2)
        assert (mdp.successor[1:] == mdp.dead).any()
        if shortest_solution_lengths(mdp).solvable.sum() <= 2:
            continue
        p = _spread_p(mdp, rng)
        assert p.support_size > 1
        _assert_same_run(mdp, p, _cfg(algo, k, gamma=0.9))
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("algo", _ALGORITHMS)
def test_run_matches_oracle_on_chain(algo):
    mdp, p = build_chain(5)
    _assert_same_run(mdp, p, _cfg(algo, 3))
    _assert_same_run(mdp, p, _cfg(algo, 4, stop_reward=None,
                                  stop_value_error=0.05))


@pytest.mark.parametrize("algo", _ALGORITHMS)
def test_run_matches_oracle_with_one_sample_batches(algo):
    """Replay batches of one: `integers(0, fill, size=1)`, and with a buffer
    of one `integers(0, 1, size=1)`, which draws nothing."""
    mdp, p, _ = build_env(ENV_PRESETS["pickup"])
    for replay_size in (1, 1000):
        _assert_same_run(mdp, p, _cfg(algo, 5, batch_size=1,
                                      replay_size=replay_size))


def test_run_matches_oracle_over_long_budgets(cliff_bundle):
    """About 40k env steps under the cliff-rl protocol: hundreds of replay
    update windows, and epsilon at its floor once the greedy policy
    reaches the goal."""
    mdp, p, _ = cliff_bundle
    variants = variant_grid("cliff", 7)
    longest = max((v for v in variants if v.name.startswith("gen/")),
                  key=lambda v: max(map(len, v.macros)))
    reached = 0
    for algo in (Q_LEARNING, RL_VALUE_ITERATION):
        for i, v in enumerate((variants[0], variants[1], longest)):
            env = mdp if v.is_base else materialize_variant(
                mdp, v, GOAL_PASS_SUCCESS)
            cfg = replace(protocol_preset(algo, seed=200 + i,
                                          max_env_steps=40_000),
                          eval_every_env_steps=2000, stop_reward=None)
            rec = _assert_same_run(env, p, cfg)
            reached += any(s[1] == 1.0 for s in rec.samples)
    assert reached >= 3
    cfg = replace(protocol_preset(REINFORCE, seed=210, max_env_steps=40_000),
                  eval_every_env_steps=2000, stop_reward=None)
    _assert_same_run(mdp, p, cfg)


# -- canonical shortest solution ----------------------------------------------

def _greedy_canonical_solution(mdp, d, s):
    dpad = d.padded()
    seq = []
    cur = s
    while cur != mdp.goal:
        for a in range(mdp.num_actions):
            t = mdp.successor[cur, a]
            if dpad[t] == d.d[cur] - 1:
                seq.append(a)
                cur = int(t)
                break
        else:
            raise MdpError(f"state {cur} has no d-decreasing edge")
    return tuple(seq)


def test_canonical_solution_matches_greedy_descent_oracle():
    rng = np.random.default_rng(51)
    tables = [_random_table(rng) for _ in range(150)]
    for _ in range(50):  # augmented tables: many columns reach the goal
        mdp = random_invertible_mdp(rng, int(rng.integers(5, 20)), 2)
        tables.append(augment(mdp, random_tabular_skills(rng, mdp)).mdp)
    unsolvable = 0
    for mdp in tables:
        d = shortest_solution_lengths(mdp)
        sols, _ = enumerate_shortest_solutions(mdp, range(mdp.num_states))
        for s in range(mdp.num_states):
            assert sols[s] == sorted(sols[s])
            if not d.solvable[s]:
                unsolvable += 1
                assert sols[s] == []
                with pytest.raises(MdpError):
                    canonical_shortest_solution(mdp, s)
                with pytest.raises(MdpError):
                    _greedy_canonical_solution(mdp, d, s)
                continue
            want = _greedy_canonical_solution(mdp, d, s)
            assert canonical_shortest_solution(mdp, s) == want
            assert sols[s][0] == want
    assert unsolvable > 0


# -- skill unroll ---------------------------------------------------------------

def _unroll_one(base, s, seq):
    """(final state, 1-based step at which the goal was reached or None)."""
    cur = s
    for k, a in enumerate(seq, start=1):
        cur = int(base.successor[cur, a])
        if cur == base.goal:
            return base.goal, k
        if cur == base.dead:
            return base.dead, None
    return cur, None


def _unroll_macro_column(base, macro, mode):
    n = base.num_states
    succ_pad = base.successor_padded()
    cur = np.arange(n + 1, dtype=np.int64)
    goal_step = np.zeros(n + 1, dtype=np.int32)  # 0 = never hit the goal
    for k, a in enumerate(macro, start=1):
        cur = succ_pad[cur, a].astype(np.int64)
        hit = (cur == base.goal) & (goal_step == 0)
        goal_step[hit] = k
    cur = cur[:n]
    goal_step = goal_step[:n]
    length = np.full(n, len(macro), dtype=np.int32)
    col = np.where(goal_step > 0, base.goal, cur).astype(np.int32)
    if mode == GOAL_PASS_DEAD:
        crossed = (goal_step > 0) & (goal_step < len(macro))
        col[crossed] = base.dead
    else:
        length = np.where(goal_step > 0, goal_step, length).astype(np.int32)
    return col, length


def _unroll_tabular_column(base, z, mode):
    n = base.num_states
    col = np.empty(n, dtype=np.int32)
    length = np.zeros(n, dtype=np.int32)
    for s in range(n):
        if s == base.goal:
            col[s] = base.dead
            continue
        seq = z.sequence(s)
        if not seq:
            col[s] = s
            continue
        final, goal_step = _unroll_one(base, s, seq)
        if goal_step is not None:
            if goal_step == len(seq):
                col[s] = base.goal
                length[s] = len(seq)
            elif mode == GOAL_PASS_SUCCESS:
                col[s] = base.goal
                length[s] = goal_step
            else:
                col[s] = base.dead
                length[s] = len(seq)
        else:
            col[s] = final
            length[s] = len(seq)
    return col, length


def _oracle_augment(base, skills, mode):
    """(skill columns, skill lengths) built column by column by the oracles."""
    cols, lengths = [], []
    for z in skills:
        if z.kind == "macro":
            col, length = _unroll_macro_column(base, z.macro, mode)
        else:
            col, length = _unroll_tabular_column(base, z, mode)
        cols.append(col)
        lengths.append(length)
    return np.stack(cols, axis=1), np.stack(lengths, axis=1)


def test_augment_matches_unroll_column_oracles():
    rng = np.random.default_rng(61)
    empty = dead = crossed = 0
    for t in range(240):
        if t % 3 == 0:
            mdp = random_dsmdp(rng, int(rng.integers(2, 41)),
                               int(rng.integers(1, 4)),
                               dead_frac=rng.uniform(0.05, 0.5))
        elif t % 3 == 1:
            mdp = random_invertible_mdp(rng, int(rng.integers(3, 41)),
                                        int(rng.integers(1, 4)))
        else:
            mdp = _random_table(rng)
        skills = (random_macro_skills(rng, mdp, max_len=6)
                  + random_tabular_skills(rng, mdp))
        rows = np.arange(mdp.num_states) != mdp.goal
        got = {}
        for mode in (GOAL_PASS_DEAD, GOAL_PASS_SUCCESS):
            aug = augment(mdp, skills, mode=mode)
            cols = aug.mdp.successor[:, mdp.num_actions:]
            want_cols, want_lengths = _oracle_augment(mdp, skills, mode)
            assert np.array_equal(cols[rows], want_cols[rows])
            assert np.array_equal(aug.skill_lengths[rows], want_lengths[rows])
            assert (cols[mdp.goal] == mdp.dead).all()
            assert (aug.skill_lengths[mdp.goal] == 0).all()
            got[mode] = aug
        # every outcome occurs: empty sequences, runs into dead (the HRL
        # mode has no dead goal crossings) and goal crossings
        formal, hrl = got[GOAL_PASS_DEAD], got[GOAL_PASS_SUCCESS]
        empty += int((formal.skill_lengths[rows] == 0).sum())
        dead += int((hrl.mdp.successor[rows, mdp.num_actions:]
                     == mdp.dead).sum())
        crossed += int((hrl.skill_lengths < formal.skill_lengths).sum())
    assert min(empty, dead, crossed) > 0


# -- solution separability ----------------------------------------------------

def _shared_solution(mdp, max_len):
    """(sequence, s, s') for the first action sequence, shortest and then
    lexicographic, of at most ``max_len`` actions that solves two distinct
    states, or None.  Each sequence from ``itertools.product`` is folded
    through the successor table from every non-goal state.  A walk that
    meets the goal early continues into its all-dead row, so a walk ends on
    the goal exactly when the sequence solves its start."""
    succ = mdp.successor_padded()
    starts = np.flatnonzero(np.arange(mdp.num_states) != mdp.goal)
    for length in range(1, max_len + 1):
        seqs = np.array(list(itertools.product(range(mdp.num_actions),
                                               repeat=length)))
        pos = np.broadcast_to(starts, (len(seqs), len(starts)))
        for j in range(length):
            pos = succ[pos, seqs[:, j:j + 1]]
        solved = pos == mdp.goal
        hits = np.flatnonzero(solved.sum(axis=1) >= 2)
        if len(hits):
            s, t = starts[solved[hits[0]]][:2]
            return tuple(seqs[hits[0]].tolist()), int(s), int(t)
    return None


def _enumerated_separable(mdp):
    """Separability by enumeration up to max d + 1 actions: two states that
    share a solution share one of at most that length (a collision under
    one action, then a shortest solution of the state both reach)."""
    max_len = int(mdp.solution_lengths.d.max()) + 1
    return _shared_solution(mdp, max_len) is None


def _unsolvable_collision(mdp):
    """True when one action takes two states to the same unsolvable state,
    a collision that must not count against separability."""
    unsolvable = ~mdp.solution_lengths.solvable
    for col in mdp.successor.T:
        tgts = col[col != mdp.dead]
        tgts = tgts[unsolvable[tgts]]
        if len(np.unique(tgts)) < len(tgts):
            return True
    return False


def test_solution_separable_matches_enumeration_oracle():
    rng = np.random.default_rng(71)
    seen = Counter()
    for t in range(160):
        n = int(rng.integers(2, 9))
        if t % 2 == 0:
            mdp = random_dsmdp(rng, n, int(rng.integers(1, 4)),
                               dead_frac=rng.uniform(0.05, 0.5))
        else:
            mdp = random_invertible_mdp(rng, n, int(rng.integers(1, 3)))
        mdps = [mdp]
        for skills in (random_macro_skills(rng, mdp, max_k=2, max_len=3),
                       random_tabular_skills(rng, mdp, max_k=1)):
            mdps += [augment(mdp, skills, mode=mode).mdp
                     for mode in (GOAL_PASS_DEAD, GOAL_PASS_SUCCESS)]
        for m in mdps:
            want = _enumerated_separable(m)
            assert m.solution_separable is want
            seen[want] += 1
            seen["unsolvable_collision"] += want and _unsolvable_collision(m)
    assert seen[True] > 100 and seen[False] > 100
    assert seen["unsolvable_collision"] > 0


# -- one solution length per state ---------------------------------------------

def _length1_state_has_longer_solutions(mdp):
    """Claim 6's precondition test before the edge test: some state with a
    length-1 solution has an action into a solvable non-goal state."""
    solvable_pad = np.concatenate([mdp.solution_lengths.solvable, [False]])
    has_len1 = (mdp.successor == mdp.goal).any(axis=1)
    has_len1[mdp.goal] = False
    longer = (solvable_pad[mdp.successor]
              & (mdp.successor != mdp.goal)).any(axis=1)
    return bool(np.any(has_len1 & longer))


def _counted_several_lengths(mdp):
    """Claim 7's test before the edge test: some solvable non-goal state has
    solutions of more than one length in the per-length counts up to
    max d + 2."""
    d = mdp.solution_lengths
    l_full = int(d.d.max()) + 2
    counts = per_length_counts(mdp, l_full).counts
    solvable = d.solvable.copy()
    solvable[mdp.goal] = False
    nz = (counts[:, 1:l_full + 1] > 0).sum(axis=1)
    return bool(np.any(nz[solvable] != 1))


def test_longer_solution_edge_test_matches_count_oracles():
    rng = np.random.default_rng(73)
    mdps = []
    for t in range(300):
        n = int(rng.integers(2, 13))
        if t % 3 == 0:
            mdps.append(random_invertible_mdp(rng, n, int(rng.integers(1, 4))))
        else:  # dead entries, and duplicate successors within a row
            mdps.append(random_dsmdp(rng, n, int(rng.integers(1, 5)),
                                     dead_frac=rng.uniform(0.0, 0.6)))
        if t % 5 == 0:
            mdps.append(augment(mdps[-1], random_macro_skills(
                rng, mdps[-1], max_k=2, max_len=3), GOAL_PASS_DEAD).mdp)
    for alphabet, max_len in ((1, 4), (2, 3), (3, 2)):
        w = 0.5 ** np.arange(1, max_len + 1)
        mdps.append(build_sequence_consume(alphabet, max_len, w / w.sum())[0])
    seen = Counter()
    for mdp in mdps:
        d = mdp.solution_lengths
        sup = d.solvable & (np.arange(mdp.num_states) != mdp.goal)
        if not sup.any():
            continue
        case = _Case(augment(mdp, [], GOAL_PASS_DEAD),
                     StateDistribution(sup / sup.sum()), 0.1)
        got = (bool(np.any(case.longer[d.d == 1])), bool(np.any(case.longer)))
        assert got == (_length1_state_has_longer_solutions(mdp),
                       _counted_several_lengths(mdp))
        seen[got] += 1
    assert min(seen[False, False], seen[False, True], seen[True, True]) >= 10


# -- stochastic weighted depth --------------------------------------------------

def _sequence_success_probability(kernel, goal, s, seq):
    """P(taking seq from s ends at the goal exactly at the last step), with
    kernel dense [S, A, S].

    Mass that reaches the goal before the sequence is exhausted does not
    count: the run is over and the remaining actions are undefined.  The
    empty sequence solves the goal alone.
    """
    if not seq:
        return float(s == goal)
    alive = np.zeros(kernel.shape[0])
    alive[s] = 1.0
    goal_mass = 0.0
    for i, a in enumerate(seq):
        nxt = alive @ kernel[:, a, :]
        if i == len(seq) - 1:
            goal_mass = float(nxt[goal])
        nxt[goal] = 0.0
        alive = nxt
    return goal_mass


def _enumerated_weighted_depth(smdp, s, l_max, mass_tol=1e-9):
    """(depth, cumulative mass, residual mass, truncated, clipped) of s from
    every action sequence of length 0..l_max in turn."""
    n, m = smdp.num_states, smdp.num_actions
    kernel = smdp.kernel.toarray().reshape(n, m, n)
    depth = 0.0
    cum = 0.0
    clipped = False
    for l in range(l_max + 1):
        for seq in itertools.product(range(m), repeat=l):
            W = _sequence_success_probability(kernel, smdp.goal, s, seq)
            if W <= 0.0:
                continue
            if cum + W < 1.0:
                w = W
            else:
                w = 1.0 - cum
                clipped = True
            depth += w * l
            cum += w
            if clipped:
                break
        if clipped:
            break
    residual = max(0.0, 1.0 - cum)
    return depth, cum, residual, residual > mass_tol, clipped


def _random_kernel(rng, n, m, goal, dyadic):
    """Dense [S, A, S] subprobability kernel with empty goal rows; about a
    fifth of the other rows are empty and the rest may loop on their state.
    Dyadic rows hold quarters, so sums are exact in any order and the
    clipping rule meets exact ties."""
    k = np.zeros((n, m, n))
    for s in range(n):
        for a in range(m):
            if s == goal or rng.random() < 0.2:
                continue
            if dyadic:
                np.add.at(k[s, a], rng.integers(0, n, rng.integers(2, 5)),
                          0.25)
            else:
                row = rng.dirichlet(np.full(n, 0.7)) * rng.uniform(0.5, 1.0)
                k[s, a] = np.where(rng.random(n) < 0.3, 0.0, row)
    return k


def test_stochastic_depth_matches_enumeration_oracle():
    rng = np.random.default_rng(50)
    seen = Counter()
    for t in range(300):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        goal, l_max = int(rng.integers(n)), int(rng.integers(0, 7))
        k = _random_kernel(rng, n, m, goal, dyadic=t % 2 == 0)
        smdp = StochasticTabularMdp(k.reshape(n * m, n), goal)
        got = stochastic_weighted_depth(smdp, l_max)
        # goal mass reached up to each length, summed in length order; a
        # state whose mass meets 1 exactly is a tie of the clipping rule
        P = k.sum(axis=1)
        reach = np.cumsum([np.zeros(n)] + [
            np.linalg.matrix_power(P, l)[:, goal] for l in range(1, l_max + 1)],
            axis=0)
        for s in range(n):
            depth, cum, residual, truncated, clipped = \
                _enumerated_weighted_depth(smdp, s, l_max)
            assert got.depth[s] == pytest.approx(depth, abs=1e-12)
            assert got.cumulative_mass[s] == pytest.approx(cum, abs=1e-12)
            assert got.residual_mass[s] == pytest.approx(residual,
                                                         abs=1e-12)
            assert got.truncated[s] == truncated
            assert got.k_max_reached[s] == clipped
            seen["states"] += 1
            seen["truncated"] += truncated
            seen["clipped"] += clipped
            seen["self_loop"] += bool(k[s, :, s].any())
            seen["tie"] += bool(np.any(reach[:, s] == 1.0))
    assert seen["states"] > 1200 and seen["self_loop"] > 300
    assert 100 < seen["truncated"] < seen["states"] - 100
    assert seen["clipped"] > 150 and seen["tie"] > 10


# -- explicit environments ------------------------------------------------------

def _cliff_closure(height, width):
    bottom = height - 1
    start = (bottom, 0)
    goal_cell = (bottom, width - 1)
    cliff_cells = {(bottom, c) for c in range(1, width - 1)}

    def move(cell, a):
        dr, dc = cliff.DELTAS[a]
        r, c = cell[0] + dr, cell[1] + dc
        if not (0 <= r < height and 0 <= c < width):
            return cell
        if (r, c) in cliff_cells:
            return start
        return (r, c)

    order = [start]
    index = {start: 0}
    for cell in order:
        if cell == goal_cell:
            continue
        for a in cliff.ACTIONS:
            t = move(cell, a)
            if t not in index:
                index[t] = len(order)
                order.append(t)
    n = len(order)
    goal = index[goal_cell]
    succ = np.full((n, len(cliff.ACTIONS)), n, dtype=np.int32)
    for cell, s in index.items():
        if s == goal:
            continue
        for j, a in enumerate(cliff.ACTIONS):
            succ[s, j] = index[move(cell, a)]
    mdp = TabularDsmdp(successor=succ, goal=goal,
                       action_labels=list(cliff.ACTIONS))
    p = np.zeros(n)
    p[index[start]] = 1.0
    return mdp, StateDistribution(p), {"cells": order, "start": index[start]}


def _pickup_closure(config):
    config.validate()
    H, W = config.height, config.width
    free = [(r, c) for r in range(H) for c in range(W)
            if (r, c) not in config.walls]
    obj_kind = [k for k, _ in config.objects]
    obj_cell = [cell for _, cell in config.objects]
    target = tuple(config.target)
    if config.agent_start is not None:
        starts = [(config.agent_start, ())]
    else:
        starts = [(cell, ()) for cell in free]

    def move(cell, a):
        dr, dc = cliff.DELTAS[a]
        t = (cell[0] + dr, cell[1] + dc)
        if not (0 <= t[0] < H and 0 <= t[1] < W) or t in config.walls:
            return cell
        return t

    GOAL = "goal"
    index: dict = {}
    order: list = []

    def intern(state):
        if state not in index:
            index[state] = len(order)
            order.append(state)
        return index[state]

    def transition(state, a):
        pos, picked = state
        if a != "P":
            return (move(pos, a), picked)
        here = [i for i in range(len(config.objects))
                if obj_cell[i] == pos and i not in picked]
        if not here:
            return state
        new_picked = picked + (here[0],)
        if tuple(obj_kind[j] for j in new_picked) == target:
            return GOAL
        return (pos, new_picked)

    for st in starts:
        intern(st)
    cursor = 0
    goal_seen = False
    while cursor < len(order):
        state = order[cursor]
        cursor += 1
        if state == GOAL:
            continue
        for a in PICKUP_ACTIONS:
            t = transition(state, a)
            if t == GOAL:
                goal_seen = True
            intern(t)
    if not goal_seen:
        raise MdpError("target is not realizable from any start")
    n = len(order)
    goal_id = index[GOAL]
    succ = np.full((n, len(PICKUP_ACTIONS)), n, dtype=np.int32)
    for state, s in index.items():
        if state == GOAL:
            continue
        for j, a in enumerate(PICKUP_ACTIONS):
            succ[s, j] = index[transition(state, a)]
    mdp = TabularDsmdp(successor=succ, goal=goal_id,
                       action_labels=list(PICKUP_ACTIONS))
    d = shortest_solution_lengths(mdp)
    start_ids = [index[s] for s in starts]
    solvable_starts = [s for s in start_ids if d.d[s] != -1 and s != goal_id]
    if not solvable_starts:
        raise MdpError("no solvable initial state")
    p = np.zeros(n)
    p[solvable_starts] = 1.0 / len(solvable_starts)
    return mdp, StateDistribution(p), {"states": order,
                                       "start_ids": start_ids}


def _assert_same_env(got, want):
    (mdp, p, info), (mdp0, p0, info0) = got, want
    _assert_same_arrays(mdp.successor, mdp0.successor)
    assert mdp.goal == mdp0.goal
    assert mdp.action_labels == mdp0.action_labels
    _assert_same_arrays(p.probs, p0.probs)
    _assert_same_arrays(mdp.solution_lengths.d,
                        shortest_solution_lengths(mdp0).d)
    assert info.keys() == info0.keys()
    for key in info:
        assert info[key] == info0[key]


@pytest.mark.parametrize("height,width", [(2, 2), (3, 5), (4, 12), (5, 7)])
def test_cliff_matches_closure_oracle(height, width):
    _assert_same_env(build_cliff_walking(height, width),
                     _cliff_closure(height, width))


def _random_pickup_config(rng):
    h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    cells = [(r, c) for r in range(h) for c in range(w)]
    order = rng.permutation(len(cells))
    n_walls = int(rng.integers(0, len(cells) // 3 + 1))
    walls = {cells[i] for i in order[:n_walls]}
    free = [cells[i] for i in order[n_walls:]]
    n_obj = int(rng.integers(1, min(4, len(free)) + 1))
    objects = [("abc"[int(rng.integers(0, 3))], free[i])
               for i in range(n_obj)]
    kinds = [k for k, _ in objects]
    target = [kinds[i] for i in rng.permutation(n_obj)[
        :int(rng.integers(1, n_obj + 1))]]
    start = free[int(rng.integers(len(free)))] if rng.random() < 0.3 else None
    return PickupWorldConfig(width=w, height=h, walls=walls, objects=objects,
                             target=target, agent_start=start)


def test_pickup_matches_closure_oracle():
    cfg = parse_pickup_config(DEFAULT_PICKUP_CONFIG)
    _assert_same_env(build_pickup_world(cfg), _pickup_closure(cfg))
    rng = np.random.default_rng(71)
    built = unrealizable = 0
    for _ in range(80):
        cfg = _random_pickup_config(rng)
        try:
            want = _pickup_closure(cfg)
        except MdpError:
            unrealizable += 1
            with pytest.raises(MdpError):
                build_pickup_world(cfg)
            continue
        _assert_same_env(build_pickup_world(cfg), want)
        built += 1
    assert built >= 50 and unrealizable > 0


# -- minimum-length rewriting ---------------------------------------------------

def _two_pass_rewrite(solution, macros, num_base_actions):
    sol = tuple(int(a) for a in solution)
    n = len(sol)
    INF = n + 2
    cost = [INF] * (n + 1)
    cost[n] = 0
    for i in range(n - 1, -1, -1):
        cost[i] = 1 + cost[i + 1]
        for mac in macros:
            L = len(mac)
            if i + L <= n and sol[i:i + L] == mac and 1 + cost[i + L] < cost[i]:
                cost[i] = 1 + cost[i + L]
    out = []
    i = 0
    while i < n:
        best_len, best_token = 1, sol[i]
        for j, mac in enumerate(macros):
            L = len(mac)
            if i + L <= n and sol[i:i + L] == mac and 1 + cost[i + L] == cost[i]:
                token = num_base_actions + j
                if L > best_len or (L == best_len and token < best_token):
                    best_len, best_token = L, token
        if best_len == 1 and 1 + cost[i + 1] != cost[i]:
            raise AssertionError("rewriting DP is inconsistent")
        out.append(best_token)
        i += best_len
    return out


def test_rewrite_matches_two_pass_oracle():
    rng = np.random.default_rng(81)
    empty = rewritten = 0
    for _ in range(400):
        base = int(rng.integers(1, 5))
        sol = tuple(rng.integers(0, base, size=int(rng.integers(0, 25))).tolist())
        # macros of length 0 to 5: an empty macro is never chosen
        macros = [tuple(rng.integers(0, base,
                                     size=int(rng.integers(0, 6))).tolist())
                  for _ in range(int(rng.integers(0, 6)))]
        got = rewrite_min_length(sol, macros, base)
        assert got == _two_pass_rewrite(sol, macros, base)
        empty += not sol
        rewritten += any(t >= base for t in got)
    assert empty > 0 and rewritten > 100


# -- state-range splits ---------------------------------------------------------

def _across_ranges(monkeypatch, run):
    """run() with the default ranges, then with the floor at 0 and 1, 2, 3
    and 7 ranges, the 3 ranges in blocks of 997 states, switching threads
    often; every thread a call starts has ended when it returns."""
    threads = threading.active_count()
    results = [run()]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for k, block in ((1, _ranges.BLOCK), (2, _ranges.BLOCK), (3, 997),
                         (7, _ranges.BLOCK)):
            with monkeypatch.context() as mp:
                mp.setattr(_ranges, "CPUS", k)
                mp.setattr(_ranges, "FLOOR", 0)
                mp.setattr(_ranges, "BLOCK", block)
                results.append(run())
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    return results


def _scramble_arrays(n, goal, moves, k_max):
    try:
        res = scramble_distribution(n, goal, moves, k_max)
    except ValueError as e:
        return str(e)
    return (res.distribution.probs, res.step_marginal_sums,
            np.float64(res.goal_mass_removed), res.step_states)


def _assert_all_equal(results):
    first, *rest = results
    for other in rest:
        if isinstance(first, str):
            assert other == first
        else:
            assert len(other) == len(first)
            for a, b in zip(first, other):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("grouped", [False, True])
def test_split_scramble_does_not_depend_on_the_ranges(grouped, monkeypatch):
    # moves legal everywhere and partial ones, each with the move that
    # undoes it, and stuck states; walks that turn dense
    rng = np.random.default_rng(71 + grouped)
    dense = 0
    for _ in range(40):
        n = 12 * int(rng.integers(1, 40))
        moves = (_random_moves(rng, n, grouped) if rng.random() < 0.4
                 else _mixed_moves(rng, n, grouped))
        args = (n, int(rng.integers(n)), moves, int(rng.integers(1, 30)))
        results = _across_ranges(monkeypatch,
                                 lambda: _scramble_arrays(*args))
        _assert_all_equal(results)
        dense += not isinstance(results[0], str) and results[0][3][-1] == n
    assert dense >= 20


def test_split_puzzle8_scramble_does_not_depend_on_the_ranges(monkeypatch):
    import skilldiff.envs.npuzzle as npuzzle

    inputs = []

    def capture(*args):
        inputs.append(args)
        return scramble_distribution(*args)

    with monkeypatch.context() as mp:
        mp.setattr(npuzzle, "scramble_distribution", capture)
        npuzzle.build_n_puzzle(3)
    _assert_all_equal(_across_ranges(
        monkeypatch, lambda: _scramble_arrays(*inputs[0])))


def test_split_cube_index_maps_do_not_depend_on_the_ranges(monkeypatch):
    tables = cube_move_tables()
    _assert_all_equal(_across_ranges(
        monkeypatch, lambda: [_index_map(tables[label]) for label in tables]))


def test_split_bfs_and_reverse_graph_do_not_depend_on_the_ranges(
        monkeypatch, puzzle_bundle):
    rng = np.random.default_rng(73)
    mdps = [random_dsmdp(rng, int(rng.integers(DIRECT_MAX_STATES + 1, 3000)),
                         int(rng.integers(1, 5)),
                         dead_frac=float(rng.uniform(0.0, 0.4)))
            for _ in range(12)]
    for mdp in mdps + [puzzle_bundle[0]]:
        def run():
            rev = build_reverse_graph(mdp)
            d = shortest_solution_lengths(mdp, rev).d
            return rev.indptr, rev.preds, d
        _assert_all_equal(_across_ranges(monkeypatch, run))


def test_split_q_solve_does_not_depend_on_the_ranges(monkeypatch,
                                                     puzzle_bundle):
    # puzzle8 starts from CG; the random MDP's operator is not symmetric,
    # so it starts from zero
    rng = np.random.default_rng(74)
    mdp = random_dsmdp(rng, 400, 3)
    assert _symmetric_nongoal_operator(mdp) is None
    for m, delta in ((puzzle_bundle[0], 1 / 50), (mdp, 1 / 50), (mdp, 0.1)):
        def run():
            qt = solve_q(m, delta)
            return (qt.q, np.float64(qt.residual), np.int64(qt.iterations),
                    np.float64(qt.error_bound))
        _assert_all_equal(_across_ranges(monkeypatch, run))


def test_split_raises_a_later_ranges_exception_in_the_caller(monkeypatch):
    monkeypatch.setattr(_ranges, "CPUS", 3)
    monkeypatch.setattr(_ranges, "FLOOR", 0)
    threads = threading.active_count()
    seen = []

    def fn(lo, hi):
        seen.append((lo, hi))
        if lo in (4, 8):
            raise KeyError(lo)

    with pytest.raises(KeyError, match="4"):
        _ranges.split(fn, 12)
    assert sorted(seen) == [(0, 4), (4, 8), (8, 12)]
    assert threading.active_count() == threads
    # blocks after the failing one in its range are not called
    monkeypatch.setattr(_ranges, "BLOCK", 2)
    seen.clear()
    with pytest.raises(KeyError, match="4"):
        _ranges.split(fn, 12)
    assert sorted(seen) == [(0, 2), (2, 4), (4, 6), (8, 10)]


def _build_puzzle8_mass():
    return float(build_env(ENV_PRESETS["puzzle8"])[1].probs.sum())


def test_split_leaves_no_thread_to_a_forked_child(monkeypatch):
    # the child inherits the forced ranges, so its build splits too
    monkeypatch.setattr(_ranges, "CPUS", 2)
    monkeypatch.setattr(_ranges, "FLOOR", 0)
    seen = np.zeros(1000)
    _ranges.split(lambda lo, hi: seen[lo:hi].fill(1.0), len(seen))
    assert seen.all()
    with mp.get_context("fork").Pool(1) as pool:
        mass = pool.apply_async(_build_puzzle8_mass).get(timeout=120)
    assert mass == pytest.approx(1.0)


def test_split_starts_no_thread_below_the_floor(monkeypatch):
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    rng = np.random.default_rng(75)
    mdp = random_dsmdp(rng, 40, 3)
    shortest_solution_lengths(mdp, build_reverse_graph(mdp))
    solve_q(mdp, 0.1)
    ring = np.arange(40)
    scramble_distribution(40, 0, [
        ScrambleMove(successor=((ring + k) % 40).astype(np.int32), group=k)
        for k in (1, 2, 38, 39)], 30)
    _ranges.split(lambda lo, hi: None, 40)
    assert started == []
