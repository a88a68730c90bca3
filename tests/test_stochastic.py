import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain
from skilldiff.metrics import (StochasticTabularMdp,
                               sequence_success_probability,
                               stochastic_learning_difficulty,
                               stochastic_weighted_depth)


def test_deterministic_reduction_to_d():
    mdp, _ = build_chain(4)
    smdp = StochasticTabularMdp.from_deterministic(mdp)
    for s in range(1, 5):
        r = stochastic_weighted_depth(smdp, s, l_max=6)
        assert r.depth == pytest.approx(float(s))
        assert r.cumulative_mass == pytest.approx(1.0)
        assert not r.truncated


def test_coin_flip_geometric_depth():
    # one action: goal w.p. 1/2, else stay; the weighted depth is the
    # geometric mean length sum k 2^-k -> 2 under the clipping rule
    k = np.zeros((2, 1, 2))
    k[1, 0, 0] = 0.5  # to goal
    k[1, 0, 1] = 0.5  # self loop
    smdp = StochasticTabularMdp(kernel=k, goal=0)
    r = stochastic_weighted_depth(smdp, 1, l_max=40, mass_tol=1e-9)
    assert r.depth == pytest.approx(2.0, abs=1e-9)
    assert not r.truncated
    # truncating early reports the residual mass
    r5 = stochastic_weighted_depth(smdp, 1, l_max=5, mass_tol=1e-9)
    assert r5.truncated
    assert r5.residual_mass == pytest.approx(2.0 ** -5)


def test_exact_arrival_semantics():
    # passing through the goal mid-sequence does not count
    mdp, _ = build_chain(3)
    smdp = StochasticTabularMdp.from_deterministic(mdp)
    assert sequence_success_probability(smdp, 1, (0,)) == 1.0
    assert sequence_success_probability(smdp, 1, (0, 0)) == 0.0


def test_sure_short_solution_dominates():
    # two actions: action 0 solves in one step surely; ordering then puts all
    # weight on the first length-1 sequence
    k = np.zeros((3, 2, 3))
    k[1, 0, 0] = 1.0
    k[1, 1, 2] = 1.0
    k[2, 0, 2] = 1.0
    k[2, 1, 2] = 1.0
    smdp = StochasticTabularMdp(kernel=k, goal=0)
    r = stochastic_weighted_depth(smdp, 1, l_max=10)
    assert r.depth == pytest.approx(1.0)
    assert r.k_max_reached


def test_weighted_depth_exhaustive_oracle():
    # independent check: enumerate sequences, fold the kernel by hand
    rng = np.random.default_rng(50)
    n, m = 4, 2
    k = np.zeros((n, m, n))
    for s in range(1, n):
        for a in range(m):
            row = rng.dirichlet(np.ones(n) * 0.7) * rng.uniform(0.6, 1.0)
            k[s, a, :] = row
    smdp = StochasticTabularMdp(kernel=k, goal=0)

    def oracle(s0, l_max):
        from itertools import product

        seqs = []
        for L in range(1, l_max + 1):
            for seq in product(range(m), repeat=L):
                seqs.append(seq)
        cum = 0.0
        depth = 0.0
        for seq in seqs:
            alive = np.zeros(n)
            alive[s0] = 1.0
            w = 0.0
            for i, a in enumerate(seq):
                nxt = alive @ k[:, a, :]
                if i == len(seq) - 1:
                    w = float(nxt[0])
                nxt[0] = 0.0
                alive = nxt
            if w <= 0:
                continue
            take = w if cum + w < 1.0 else 1.0 - cum
            depth += take * len(seq)
            cum += take
            if cum >= 1.0:
                break
        return depth, cum

    for s in (1, 2, 3):
        got = stochastic_weighted_depth(smdp, s, l_max=8)
        want_depth, want_cum = oracle(s, 8)
        assert got.depth == pytest.approx(want_depth, abs=1e-12)
        assert got.cumulative_mass == pytest.approx(want_cum, abs=1e-12)


def test_stochastic_learning_difficulty_deterministic_case():
    mdp, p = build_chain(5)
    smdp = StochasticTabularMdp.from_deterministic(mdp)
    jl = stochastic_learning_difficulty(smdp, p, l_max=8)
    assert jl == pytest.approx(1 * 5.0)
