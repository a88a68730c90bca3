"""Small-scale stochastic generalization of shortest-solution length.

For a stochastic sparse-reward MDP, the success probabilities W of action
sequences (enumerated in non-decreasing length, lexicographic within a
length) are folded into weights w that sum to 1, clipping the first sequence
whose cumulative mass would exceed 1.  The weighted mean sequence length
generalizes d(s) and reduces to it exactly in deterministic environments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..mdp import BudgetExceededError, StateDistribution


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class StochasticTabularMdp:
    """kernel[s, a] is a distribution over next states; row deficits are
    absorbed by an implicit dead state.  Transitions from the goal are
    undefined and its kernel rows must be zero."""

    kernel: np.ndarray  # float64 [num_states, num_actions, num_states]
    goal: int
    action_labels: list[str] | None = None

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.ndim != 3 or k.shape[0] != k.shape[2]:
            raise ValueError("kernel must be [S, A, S]")
        if np.any(k < 0) or np.any(k.sum(axis=2) > 1.0 + 1e-12):
            raise ValueError("kernel rows must be subprobabilities")
        if np.any(k[self.goal] != 0.0):
            raise ValueError("goal kernel rows must be zero")
        self.kernel = k

    @property
    def num_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def num_actions(self) -> int:
        return self.kernel.shape[1]

    @classmethod
    def from_deterministic(cls, mdp) -> "StochasticTabularMdp":
        n, m = mdp.num_states, mdp.num_actions
        k = np.zeros((n, m, n))
        for s in range(n):
            if s == mdp.goal:
                continue
            for a in range(m):
                t = mdp.successor[s, a]
                if t != mdp.dead:
                    k[s, a, t] = 1.0
        return cls(kernel=k, goal=mdp.goal,
                   action_labels=list(mdp.action_labels))


def sequence_success_probability(smdp: StochasticTabularMdp, s: int,
                                 seq) -> float:
    """P(taking seq from s ends at the goal exactly at the last step).

    Mass that reaches the goal before the sequence is exhausted does not
    count: the run is over and the remaining actions are undefined.
    """
    n = smdp.num_states
    alive = np.zeros(n)
    alive[s] = 1.0
    goal_mass = 0.0
    for i, a in enumerate(seq):
        nxt = alive @ smdp.kernel[:, a, :]
        if i == len(seq) - 1:
            goal_mass = float(nxt[smdp.goal])
        nxt[smdp.goal] = 0.0
        alive = nxt
    return goal_mass


@dataclass
class WeightedDepthResult:
    depth: float
    cumulative_mass: float
    residual_mass: float
    truncated: bool  # cumulative < 1 - mass_tol at L_max
    k_max_reached: bool  # the clipping rule fired


def stochastic_weighted_depth(smdp: StochasticTabularMdp, s: int,
                              l_max: int, mass_tol: float = 1e-9,
                              budget: int = 2_000_000) -> WeightedDepthResult:
    m = smdp.num_actions
    total_seqs = sum(m**l for l in range(1, l_max + 1))
    if total_seqs > budget:
        raise BudgetExceededError(
            f"{total_seqs} sequences exceed budget {budget}")
    depth = 0.0
    cum = 0.0
    clipped = False
    for l in range(1, l_max + 1):
        for seq in product(range(m), repeat=l):
            W = sequence_success_probability(smdp, s, seq)
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
    return WeightedDepthResult(depth=depth, cumulative_mass=cum,
                               residual_mass=residual,
                               truncated=residual > mass_tol,
                               k_max_reached=clipped)


def stochastic_learning_difficulty(smdp: StochasticTabularMdp,
                                   p: StateDistribution, l_max: int,
                                   mass_tol: float = 1e-9) -> float:
    """|A| times the p-weighted mean of the stochastic weighted depth."""
    total = 0.0
    for s in p.support:
        r = stochastic_weighted_depth(smdp, int(s), l_max, mass_tol)
        total += p.probs[s] * r.depth
    return smdp.num_actions * total
