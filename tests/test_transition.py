"""The transition operator and the q solver against the loops they replaced.

The ``_gather_*`` functions below are the padded-table sweeps that
``solve_q``, ``per_length_counts`` and ``expansion_length_q`` ran before
they read the successor table through ``transition_matrix``.  They stay here
as oracles: the operator must reproduce them bit for bit (the expansion DP
groups actions by expansion length, so it is held to 1e-14).  Above
``DIRECT_MAX_STATES`` an asymmetric operator keeps the sweep from zero, so
``solve_q`` reproduces the sweep oracle bit for bit.  The direct start below
the cut-off and the CG start of symmetric operators above it must agree
with the oracle within both certified bounds, and with the exact solution
(``exact_q`` or a closed form) within their own.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from skilldiff.envs import ENV_PRESETS, build_env
from skilldiff.envs.npuzzle import build_n_puzzle
from skilldiff.envs.synthetic import build_chain
from skilldiff.experiments import random_invertible_mdp, random_macro_skills
from skilldiff.mdp import TabularDsmdp, transition_matrix
from skilldiff.metrics import (NotConvergedError, expansion_length_q,
                               p_exploration_difficulty, per_length_counts,
                               solve_q)
from skilldiff.metrics import solver
from skilldiff.metrics.solver import (DIRECT_MAX_STATES, _direct_start,
                                      _symmetric_nongoal_operator)
from skilldiff.skills import GOAL_PASS_DEAD, Skill, augment

from conftest import exact_q, exact_solve


def _gather_solve_q(mdp, delta, tol=1e-12, max_iter=50_000):
    n, m = mdp.num_states, mdp.num_actions
    succ = mdp.successor_padded()
    coef = (1.0 - delta) / m
    q = np.zeros(n + 1)
    q[mdp.goal] = 1.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        new = q[succ[:, 0]].copy()
        for a in range(1, m):
            new += q[succ[:, a]]
        new *= coef
        new[mdp.goal] = 1.0
        new[n] = 0.0
        residual = float(np.max(np.abs(new - q)))
        q = new
        if residual <= tol:
            return q[:n], it, residual
    raise NotConvergedError(max_iter, residual, tol)


def _gather_per_length_counts(mdp, l_max):
    n, m = mdp.num_states, mdp.num_actions
    succ = mdp.successor_padded()
    counts = np.zeros((n, l_max + 1))
    cur = np.zeros(n + 1)
    cur[mdp.goal] = 1.0
    counts[mdp.goal, 0] = 1.0
    for l in range(1, l_max + 1):
        nxt = cur[succ[:, 0]].copy()
        for a in range(1, m):
            nxt += cur[succ[:, a]]
        nxt[n] = 0.0
        counts[:, l] = nxt[:n]
        cur = nxt
    return counts


def _gather_expansion_length_q(augmented, l_max):
    mdp = augmented.mdp
    n, m = mdp.num_states, mdp.num_actions
    w = [1] * augmented.base.num_actions + [len(z.macro)
                                           for z in augmented.skills]
    succ = mdp.successor_padded()
    G = np.zeros((l_max + 1, n + 1))
    G[0, mdp.goal] = 1.0
    inv = 1.0 / m
    for l in range(1, l_max + 1):
        acc = np.zeros(n + 1)
        for a in range(m):
            if l - w[a] >= 0:
                acc[:n] += G[l - w[a], succ[:n, a]]
        G[l] = inv * acc
        G[l, mdp.goal] = 0.0
        G[l, n] = 0.0
    return G[:, :n].T


def _random_table(rng, lo=3, hi=30):
    """Random MDP of lo..hi-1 states with dead entries, 1-7 actions and
    forced duplicate successors (some action columns copy another on part
    of the rows)."""
    n = int(rng.integers(lo, hi))
    m = int(rng.integers(1, 8))
    succ = rng.integers(0, n, size=(n, m)).astype(np.int32)
    succ[rng.random(succ.shape) < 0.2] = n
    if m > 1:
        rows = rng.random(n) < 0.3
        succ[rows, m - 1] = succ[rows, 0]
    succ[0] = n
    return TabularDsmdp(successor=succ, goal=0,
                        action_labels=[f"a{i}" for i in range(m)])


def _outcome(solve):
    """(q, iterations, residual), with q = None when the solve gave up."""
    try:
        return solve()
    except NotConvergedError as e:
        return None, e.iterations, e.residual


def _solve_q_triple(mdp, delta, max_iter):
    qt = solve_q(mdp, delta, max_iter=max_iter)
    return qt.q, qt.iterations, qt.residual


def _sweep_bound(mdp, delta, residual):
    """Certified error of a sweep iterate at delta > 0: the contraction
    bound plus the rounding of one sweep."""
    r = (mdp.num_actions + 2) * np.finfo(np.float64).eps
    return (1.0 - delta) / delta * (residual + r) + r


def _assert_within_exact(mdp, qt):
    """Every state of qt within qt.error_bound of the rational q*."""
    assert math.isfinite(qt.error_bound)
    bound = Fraction(qt.error_bound)
    exact = exact_q(mdp, qt.delta)
    for s in range(mdp.num_states):
        assert abs(Fraction(float(qt.q[s])) - exact[s]) <= bound, s


def _assert_near_oracle(mdp, delta, qt):
    """delta > 0: q within the sum of both certified bounds of the sweep
    oracle's q; delta = 0: within its bound of the exact solution."""
    if delta == 0.0:
        _assert_within_exact(mdp, qt)
        return
    q0, _, res0 = _gather_solve_q(mdp, delta)
    gap = float(np.max(np.abs(qt.q - q0)))
    assert gap <= qt.error_bound + _sweep_bound(mdp, delta, res0)


@pytest.mark.parametrize("delta", [0.0, 0.02, 0.1])
def test_solve_q_matches_gather_oracle(delta):
    rng = np.random.default_rng(40)
    for _ in range(60):
        mdp = _random_table(rng)
        qt = solve_q(mdp, delta)
        assert qt.iterations == 1 and qt.residual <= 1e-12
        _assert_near_oracle(mdp, delta, qt)


def test_solve_q_on_augmented_mdps_matches_gather_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        base = random_invertible_mdp(rng, int(rng.integers(5, 30)),
                                     int(rng.integers(2, 4)))
        aug = augment(base, random_macro_skills(rng, base), GOAL_PASS_DEAD)
        for delta in (0.0, 0.02, 0.1):
            qt = solve_q(aug.mdp, delta)
            assert qt.iterations == 1
            _assert_near_oracle(aug.mdp, delta, qt)


@pytest.mark.parametrize("delta", [0.0, 0.02, 0.1])
def test_solve_q_above_the_cut_off_is_the_sweep_oracle(delta):
    # q, sweep count and residual are bit-identical to the sweep from zero,
    # or both give up after the same sweeps with the same residual
    rng = np.random.default_rng(45)
    for _ in range(4):
        mdp = _random_table(rng, DIRECT_MAX_STATES + 1, DIRECT_MAX_STATES + 60)
        q, it, res = _outcome(lambda: _solve_q_triple(mdp, delta, 3000))
        q0, it0, res0 = _outcome(
            lambda: _gather_solve_q(mdp, delta, max_iter=3000))
        assert (it, res) == (it0, res0)
        assert (q is None) == (q0 is None)
        assert q is None or np.array_equal(q, q0)
        if q is not None:
            eb = solve_q(mdp, delta, max_iter=3000).error_bound
            assert eb == (_sweep_bound(mdp, delta, res) if delta else math.inf)


def test_solve_q_on_pickup_is_the_sweep_oracle():
    mdp = build_env(ENV_PRESETS["pickup"])[0]
    assert mdp.num_states > DIRECT_MAX_STATES
    qt = solve_q(mdp, 0.1)
    q0, it0, res0 = _gather_solve_q(mdp, 0.1)
    assert np.array_equal(qt.q, q0)
    assert (qt.iterations, qt.residual) == (it0, res0)


@pytest.mark.parametrize("delta", [0.0, 0.02, 0.1])
def test_solve_q_within_its_bound_of_the_exact_solution(delta):
    rng = np.random.default_rng(46)
    for _ in range(30):
        mdp = _random_table(rng, 2, 13)
        _assert_within_exact(mdp, solve_q(mdp, delta))
    for _ in range(15):  # recurrent: every action permutes the states
        mdp = random_invertible_mdp(rng, int(rng.integers(3, 13)),
                                    int(rng.integers(1, 4)))
        _assert_within_exact(mdp, solve_q(mdp, delta))


def test_delta_zero_gain_bounds_the_exact_inverse_norm(cliff_bundle):
    # the delta = 0 bound rests on gain >= ||(I - cP_SS)^-1||_inf = max t*
    rng = np.random.default_rng(47)
    mdps = [_random_table(rng, 2, 13) for _ in range(30)]
    mdps += [random_invertible_mdp(rng, int(rng.integers(3, 13)),
                                   int(rng.integers(1, 4)))
             for _ in range(15)]
    for mdp in mdps + [cliff_bundle[0]]:
        m = mdp.num_actions
        gain = _direct_start(transition_matrix(mdp.successor), mdp, 1.0 / m,
                             np.zeros(mdp.num_states),
                             (m + 2) * np.finfo(np.float64).eps)
        assert gain >= max(exact_solve(mdp, 0.0)[1])


def test_solve_q_on_the_cliff_at_delta_zero_is_certified(cliff_bundle):
    # the sweep from zero gave up here after 50,000 sweeps; q* = 1 on every
    # state, and the certified bound is about 1e-11
    mdp = cliff_bundle[0]
    qt = solve_q(mdp, 0.0, tol=1e-12)
    assert qt.iterations == 1
    assert qt.error_bound <= 1e-10
    _assert_within_exact(mdp, qt)
    assert all(x == 1 for x in exact_q(mdp, 0.0))


def _involution_table(rng, n, m, traps=0, dead_pairs=0.0):
    """Random MDP of n states whose actions are involutions, so the operator
    is symmetric: each action pairs up states (an odd one out maps to
    itself).  The last ``traps`` states pair only among themselves, so
    they are unsolvable; a pair dies in both directions with probability
    ``dead_pairs``."""
    succ = np.empty((n, m), dtype=np.int32)
    for a in range(m):
        for block in (np.arange(n - traps), np.arange(n - traps, n)):
            order = rng.permutation(block)
            succ[order, a] = order
            pairs = order[:len(order) // 2 * 2].reshape(-1, 2)
            succ[pairs[:, 0], a], succ[pairs[:, 1], a] = pairs[:, 1], pairs[:, 0]
            dead = pairs[rng.random(len(pairs)) < dead_pairs].ravel()
            succ[dead, a] = n
    succ[0] = n
    return TabularDsmdp(successor=succ, goal=0,
                        action_labels=[f"a{i}" for i in range(m)])


def _line(n):
    """States 0..n-1 on a line, goal 0: "left" and "right" step to a
    neighbour, and "right" from n - 1 dies.  At delta = 0 this is gambler's
    ruin, q*(i) = 1 - i/n."""
    i = np.arange(n)
    succ = np.column_stack([i - 1, i + 1]).astype(np.int32)
    succ[0] = n
    return TabularDsmdp(successor=succ, goal=0, action_labels=["l", "r"])


def _cg_steps(monkeypatch):
    """Record the steps of every CG solve ``solve_q`` makes."""
    steps, cg = [], solver._cg

    def spy(*args):
        x, k = cg(*args)
        steps.append(k)
        return x, k

    monkeypatch.setattr(solver, "_cg", spy)
    return steps


@pytest.mark.parametrize("delta", [0.02, 0.1])
def test_cg_start_matches_the_sweep_oracle(delta, monkeypatch):
    steps = _cg_steps(monkeypatch)
    rng = np.random.default_rng(48)
    for _ in range(6):
        n = int(rng.integers(DIRECT_MAX_STATES + 1, DIRECT_MAX_STATES + 80))
        mdp = _involution_table(rng, n, int(rng.integers(1, 5)),
                                traps=int(rng.integers(0, 20)), dead_pairs=0.1)
        assert _symmetric_nongoal_operator(mdp) is not None
        steps.clear()
        qt = solve_q(mdp, delta)
        # CG to half of tol, then the one sweep that certifies it
        assert qt.iterations == steps[0] + 1 and qt.residual <= 1e-12
        _assert_near_oracle(mdp, delta, qt)
        assert np.all(qt.q[~mdp.solution_lengths.solvable] == 0.0)


def test_cg_start_at_delta_zero_is_certified(monkeypatch):
    # the sweep from zero certifies nothing here (bound inf); the CG start
    # solves t as well, and its bound covers the distance to the closed-form
    # q*: 1 on the solvable states without dead entries, 1 - i/n on the line
    steps = _cg_steps(monkeypatch)
    rng = np.random.default_rng(49)
    mdps = [_involution_table(rng, int(rng.integers(DIRECT_MAX_STATES + 1,
                                                    DIRECT_MAX_STATES + 80)),
                              int(rng.integers(1, 5)),
                              traps=int(rng.integers(0, 20)))
            for _ in range(6)]
    exact = [[Fraction(int(x)) for x in mdp.solution_lengths.solvable]
             for mdp in mdps]
    mdps.append(_line(DIRECT_MAX_STATES + 50))
    exact.append([1 - Fraction(i, DIRECT_MAX_STATES + 50)
                  for i in range(DIRECT_MAX_STATES + 50)])
    for mdp, q_star in zip(mdps, exact):
        steps.clear()
        qt = solve_q(mdp, 0.0)
        # q's steps, t's steps and t's check, then one sweep
        assert len(steps) == 2 and qt.iterations == sum(steps) + 2
        assert qt.error_bound <= 1e-6
        bound = Fraction(qt.error_bound)
        assert all(abs(Fraction(float(x)) - y) <= bound
                   for x, y in zip(qt.q, q_star))


def test_cg_start_on_puzzle8_is_within_the_oracles_bounds(puzzle_bundle):
    # puzzle8's blank moves are closed under inversion, so its operator is
    # symmetric; from zero, delta = 0 stalls (residual 1.3e-6 after 3,000
    # sweeps) and certifies nothing
    mdp = puzzle_bundle[0]
    assert _symmetric_nongoal_operator(mdp) is not None
    qt = solve_q(mdp, 1.0 / 50.0)
    q0, it0, res0 = _gather_solve_q(mdp, 1.0 / 50.0)
    gap = float(np.max(np.abs(qt.q - q0)))
    assert gap <= qt.error_bound + _sweep_bound(mdp, 1.0 / 50.0, res0)
    assert qt.iterations < it0 / 4
    qt = solve_q(mdp, 0.0)
    assert qt.residual <= 1e-12 and qt.error_bound <= 1e-6


@pytest.mark.parametrize("delta", [1.0 / 50.0, 0.0])
def test_cg_start_floor_keeps_solvable_q_positive(delta, monkeypatch):
    # puzzle8 where a blank move off the board dies: CG clipped at zero
    # alone left q = 0 on 983 solvable states at delta = 1/50 and on 223 at
    # delta = 0, so J_explore raised; raised to the floor c^d, every
    # solvable q is positive and J_explore agrees with the sweep from zero
    mdp, p, _ = build_n_puzzle(3, vacuous="death")
    qt = solve_q(mdp, delta)
    assert np.all(qt.q[mdp.solution_lengths.solvable] > 0.0)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_cg_start", lambda *args: (math.inf, 0))
        q0 = solve_q(mdp, delta)
    assert (p_exploration_difficulty(mdp, p, qt)
            == pytest.approx(p_exploration_difficulty(mdp, p, q0), rel=1e-6))
    if delta > 0:
        gap = float(np.max(np.abs(qt.q - q0.q)))
        assert gap <= qt.error_bound + q0.error_bound


def _symmetric_by_transpose(mdp):
    """Oracle: the non-goal operator built whole, returned when it equals
    its transpose, else None."""
    n = mdp.num_states
    M = transition_matrix(np.where(mdp.successor == mdp.goal, n,
                                   mdp.successor))
    M.sum_duplicates()
    return M if (M != M.T).nnz == 0 else None


def _table(succ):
    return TabularDsmdp(successor=succ, goal=0,
                        action_labels=[f"a{i}" for i in range(succ.shape[1])])


def _asymmetric_variants(rng, mdp):
    """Copies of an involution table each turned asymmetric in one place:
    one edge anywhere, and an edge of a state next to the goal."""
    succ, n = mdp.successor, mdp.num_states
    s, t = rng.choice(np.arange(1, n), 2, replace=False)
    edge = succ.copy()
    edge[s, 0] = t if edge[s, 0] != t else n
    near = succ.copy()
    other = (succ != 0) & (succ != n) & (succ != np.arange(n)[:, None])
    s, a = np.argwhere(other & (succ == 0).any(axis=1)[:, None])[0]
    near[s, a] = n
    return [_table(edge), _table(near)]


def _quarter_turns_and_inverse(k):
    """k 4-cycles, goal 0 in the first, one action turning each cycle and
    the macro of three turns, its inverse.  Through the goal the macro
    dies, so the operator is asymmetric only next to the goal, as on the
    cube with F and FFF."""
    i = np.arange(4 * k)
    succ = (4 * (i // 4) + (i + 1) % 4).astype(np.int32)[:, None]
    succ[0] = 4 * k
    turns = _table(succ)
    return augment(turns, [Skill.from_macro((0, 0, 0), label="fff")],
                   GOAL_PASS_DEAD).mdp


def test_symmetry_check_matches_the_transpose_oracle():
    rng = np.random.default_rng(52)
    for _ in range(8):
        n = int(rng.integers(DIRECT_MAX_STATES + 1, DIRECT_MAX_STATES + 120))
        sym = _involution_table(rng, n, int(rng.integers(2, 5)),
                                traps=int(rng.integers(0, 20)),
                                dead_pairs=0.1)
        # a copy of an action doubles its entries and keeps the symmetry;
        # a copy on half of the rows breaks it
        dup = np.column_stack([sym.successor, sym.successor[:, 0]])
        half = dup.copy()
        half[::2, -1] = n
        mdps = [sym, _table(dup), _table(half), _random_table(rng, n, n + 1),
                _quarter_turns_and_inverse(n // 4 + 1)]
        mdps += _asymmetric_variants(rng, sym)
        got = [_symmetric_nongoal_operator(mdp) for mdp in mdps]
        assert [M is None for M in got] == \
            [False, False, True, True, True, True, True]
        for mdp, M in zip(mdps, got):
            ref = _symmetric_by_transpose(mdp)
            assert (M is None) == (ref is None)
            if M is not None:
                for key in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(M, key), getattr(ref, key))


def test_symmetry_check_rejects_asymmetric_operators_unbuilt(
        cube_bundle, monkeypatch):
    # the cube's quarter turns, pickup (whose moves are mutual inverses
    # away from the pick cells), a chain, random tables and involution
    # tables with one asymmetric edge are declined before any operator is
    # built
    built = []
    monkeypatch.setattr(solver, "transition_matrix",
                        lambda succ: built.append(succ))
    rng = np.random.default_rng(50)
    mdps = [cube_bundle[0], build_env(ENV_PRESETS["pickup"])[0],
            build_chain(DIRECT_MAX_STATES + 50)[0]]
    mdps += [_random_table(rng, DIRECT_MAX_STATES + 1, DIRECT_MAX_STATES + 60)
             for _ in range(10)]
    mdps += _asymmetric_variants(
        rng, _involution_table(rng, DIRECT_MAX_STATES + 40, 3))
    mdps.append(_quarter_turns_and_inverse(DIRECT_MAX_STATES))
    for mdp in mdps:
        assert _symmetric_nongoal_operator(mdp) is None
    assert built == []


def test_symmetry_check_declines_one_asymmetric_edge():
    # one edge turned asymmetric anywhere: solve_q is the sweep from zero,
    # bit for bit
    rng = np.random.default_rng(51)
    n = DIRECT_MAX_STATES + 40
    for _ in range(3):
        mdp = _involution_table(rng, n, 3)
        succ = mdp.successor.copy()
        s, t = rng.choice(np.arange(1, n), 2, replace=False)
        succ[s, 0] = t if succ[s, 0] != t else n
        mdp = _table(succ)
        assert _symmetric_nongoal_operator(mdp) is None
        for delta in (0.02, 0.1):
            qt = solve_q(mdp, delta)
            q0, it0, res0 = _gather_solve_q(mdp, delta)
            assert np.array_equal(qt.q, q0)
            assert (qt.iterations, qt.residual) == (it0, res0)


def test_per_length_counts_match_gather_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        mdp = _random_table(rng)
        c = per_length_counts(mdp, 12)
        assert np.array_equal(c.counts, _gather_per_length_counts(mdp, 12))


def test_expansion_length_q_matches_gather_oracle():
    rng = np.random.default_rng(43)
    for _ in range(40):
        base = random_invertible_mdp(rng, int(rng.integers(5, 30)),
                                     int(rng.integers(2, 4)))
        aug = augment(base, random_macro_skills(rng, base), GOAL_PASS_DEAD)
        G = expansion_length_q(aug, 40)
        G0 = _gather_expansion_length_q(aug, 40)
        assert G.shape == G0.shape
        assert np.max(np.abs(G - G0)) <= 1e-14


def test_transition_matrix_sums_live_successors():
    # dense at or below the cut-off, CSR above it; the CSR product adds in
    # action order, bit for bit, and the dense one in column order, so it is
    # checked on integers, which every order adds exactly
    rng = np.random.default_rng(44)
    above = (DIRECT_MAX_STATES + 1, DIRECT_MAX_STATES + 60)
    for lo, hi in [(3, 30)] * 30 + [above] * 10:
        mdp = _random_table(rng, lo, hi)
        n, m = mdp.num_states, mdp.num_actions
        P = transition_matrix(mdp.successor)
        dense = n <= DIRECT_MAX_STATES
        assert isinstance(P, np.ndarray) == dense
        counts = np.zeros((n, n))
        for s in range(n):
            for a in range(m):
                if mdp.successor[s, a] != n:
                    counts[s, mdp.successor[s, a]] += 1
        assert np.array_equal(P if dense else P.toarray(), counts)
        x = rng.integers(0, 2**20, n).astype(float) if dense else rng.random(n)
        xpad = np.concatenate([x, [0.0]])
        loop = np.zeros(n)
        for s in range(n):
            for a in range(m):
                loop[s] += xpad[mdp.successor[s, a]]
        assert np.array_equal(P @ x, loop)
        if not dense:
            assert P.indptr[mdp.goal] == P.indptr[mdp.goal + 1]  # empty row
            assert P.nnz == int((mdp.successor != mdp.dead).sum())


def test_transition_matrix_counts_duplicates_and_drops_dead():
    # state 1 reaches 2 twice and dies once; state 2 reaches 1 and 2
    succ = np.array([[3, 3, 3], [2, 3, 2], [1, 2, 3]], dtype=np.int32)
    P = transition_matrix(succ)
    assert P.tolist() == [[0, 0, 0], [0, 0, 2], [0, 1, 1]]
    assert np.array_equal(P @ np.array([5.0, 7.0, 11.0]), [0.0, 22.0, 18.0])
