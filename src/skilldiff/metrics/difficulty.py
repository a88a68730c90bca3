"""Learning/exploration difficulty, solution density, per-length solution counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from ..mdp import (BudgetExceededError, MdpError, SolutionLengthTable,
                   StateDistribution, TabularDsmdp, transition_matrix)
from .solver import QTable


class SupportUnsolvableError(MdpError):
    pass


class QUnderflowError(MdpError):
    def __init__(self, state, q):
        super().__init__(f"q({state}) = {q:g} underflows the log")
        self.state = state
        self.q = q


class DeltaZeroError(MdpError):
    pass


def p_learning_difficulty(mdp: TabularDsmdp, p: StateDistribution,
                          d: SolutionLengthTable | None = None) -> float:
    """|A| times the p-weighted mean shortest-solution length; d defaults
    to the MDP's own."""
    if d is None:
        d = mdp.solution_lengths
    sup = p.support
    if np.any(~d.solvable[sup]):
        bad = sup[~d.solvable[sup]][0]
        raise SupportUnsolvableError(f"state {bad} in support is unsolvable")
    return mdp.num_actions * float(np.dot(p.probs[sup], d.d[sup]))


def _support_q(p: StateDistribution, qtable: QTable):
    """p's support and q on it; QUnderflowError where q underflows."""
    sup = p.support
    qs = qtable.q[sup]
    if np.any(qs < 1e-300):
        i = int(np.argmin(qs))
        raise QUnderflowError(int(sup[i]), float(qs[i]))
    return sup, qs


def p_exploration_difficulty(mdp: TabularDsmdp, p: StateDistribution,
                             qtable: QTable) -> float:
    """p-weighted mean of -log q, in nats."""
    sup, qs = _support_q(p, qtable)
    return float(-np.dot(p.probs[sup], np.log(qs)))


def p_exploration_difficulty_am(mdp: TabularDsmdp, p: StateDistribution,
                                qtable: QTable) -> float:
    """Arithmetic-mean variant: log E_p[1/q], computed in the log domain."""
    sup, qs = _support_q(p, qtable)
    return float(logsumexp(np.log(p.probs[sup]) - np.log(qs)))


def solution_density(mdp: TabularDsmdp, delta: float, qtable: QTable) -> float:
    """Total mass of solutions in the geometric-length sequence space:
    D = sum_s (delta/(1-delta)) q(s) over non-goal states."""
    if delta <= 0.0:
        raise DeltaZeroError("solution density needs delta > 0")
    if abs(qtable.delta - delta) > 1e-15:
        raise MdpError("qtable was solved at a different delta")
    return float(delta / (1.0 - delta) * (qtable.q.sum() - qtable.q[mdp.goal]))


_SATURATION = float(2**53)
# Largest per-length count table, in bytes, that per_length_counts builds.
COUNT_TABLE_BUDGET = 2_000_000_000


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class PerLengthSolutionCounts:
    """counts[s, l] = number of solutions to s of exact length l (0..L_max).

    Stored as float64; exact until counts exceed 2^53, after which
    ``saturated`` flags the loss of integer exactness.
    """

    counts: np.ndarray  # float64 [num_states, L_max + 1]
    l_max: int
    num_actions: int
    saturated: bool

    def q_tilde(self, l: int) -> np.ndarray:
        """Probability that a uniformly random length-l sequence solves s."""
        return self.counts[:, l] * float(self.num_actions) ** (-l)

    def reconstruct_q(self, delta: float) -> np.ndarray:
        """Sum_l counts(s,l) ((1-delta)/|A|)^l; matches solve_q up to the
        (1-delta)^{L_max} tail."""
        w = ((1.0 - delta) / self.num_actions) ** np.arange(self.l_max + 1)
        return self.counts @ w

    def coverage(self, l: int) -> float:
        """Fraction of all length-l sequences that are solutions."""
        return float(self.q_tilde(l).sum())


def per_length_counts(mdp: TabularDsmdp,
                      l_max: int) -> PerLengthSolutionCounts:
    n, m = mdp.num_states, mdp.num_actions
    if 8 * n * (l_max + 1) > COUNT_TABLE_BUDGET:
        raise BudgetExceededError("per-length count table exceeds memory budget")
    counts = length_dp([(1, transition_matrix(mdp.successor))], mdp.goal,
                       l_max, 1.0)
    saturated = bool(np.any(counts > _SATURATION))
    return PerLengthSolutionCounts(counts=counts, l_max=l_max,
                                   num_actions=m, saturated=saturated)


def length_dp(ops, goal: int, l_max: int, scale: float) -> np.ndarray:
    """G[s, l], l = 0..l_max: G[:, 0] marks the goal and G[l] = scale *
    sum_k P_k G[l - k] over the (k, P_k) pairs of ops, [S, S] operators with
    empty goal rows, so a sequence reaches the goal only at its last step.
    Unit lengths and scale 1 count solutions exactly (0 + x and x * 1 are
    exact); expansion lengths and 1/|A| give ``expansion_length_q``."""
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    G = np.zeros((l_max + 1, ops[0][1].shape[0]))
    G[0, goal] = 1.0
    for l in range(1, l_max + 1):
        for k, P in ops:
            if k <= l:
                G[l] += P @ G[l - k]
        G[l] *= scale
    return G.T
