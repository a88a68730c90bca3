"""Stochastic generalization of shortest-solution length.

The success probabilities W(s, x) of action sequences x, taken in
non-decreasing length from the empty sequence (which solves the goal alone),
are folded into weights that sum to at most 1, clipping the first sequence
at which the mass taken would reach 1.  The weighted mean length generalizes
d(s) and equals it in deterministic MDPs.

Only the per-length totals M_l(s) = sum of W(s, x) over |x| = l matter.
Each sequence of length l adds l times its weight, and the weights of length
l sum to M_l(s) before the clip, to 1 - C at the clip (C the mass taken
before l), whichever sequence of the length it falls on, and to 0 after.  So
depth(s) = sum_l l min(M_l(s), 1 - C), clipped at the first l with
C + M_l(s) >= 1 (C < 1 before it).  The goal's kernel rows are zero, so
W(s, x) = e_s K_x1 ... K_xl e_goal, and its sum over all x of length l is
P^l e_goal with P = sum_a K_a: ``length_dp`` over the one operator P.  That
adds in another order than an enumeration of the sequences, so the two agree
to rounding, and a clip flag can differ at an exact tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from ..mdp import StateDistribution
from .difficulty import SupportUnsolvableError, length_dp


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class StochasticTabularMdp:
    """Row s * A + a of kernel is the distribution over next states of action
    a from s (a dense [S, A, S] kernel, reshaped to [S * A, S]); row deficits
    are absorbed by an implicit dead state.  Transitions from the goal are
    undefined and its kernel rows must be zero."""

    kernel: csr_matrix  # float64 [num_states * num_actions, num_states]
    goal: int

    def __post_init__(self):
        k = csr_matrix(self.kernel, dtype=np.float64)
        rows, n = k.shape
        if not 0 <= self.goal < n:
            raise ValueError(f"goal {self.goal} is not one of {n} states")
        if rows == 0 or rows % n:
            raise ValueError(f"{rows} kernel rows are not a positive "
                             f"multiple of {n} states")
        if not np.all(k.data >= 0.0) or np.any(k.sum(axis=1) > 1.0 + 1e-12):
            raise ValueError("kernel entries must be finite and non-negative "
                             "and its rows subprobabilities")
        m = rows // n
        if np.any(k.data[k.indptr[self.goal * m]:
                         k.indptr[(self.goal + 1) * m]] != 0.0):
            raise ValueError("goal kernel rows must be zero")
        self.kernel = k

    @property
    def num_states(self) -> int:
        return self.kernel.shape[1]

    @property
    def num_actions(self) -> int:
        return self.kernel.shape[0] // self.kernel.shape[1]

    @classmethod
    def from_deterministic(cls, mdp) -> "StochasticTabularMdp":
        """One unit entry per live successor; the goal row is all dead."""
        live = mdp.successor != mdp.dead
        indptr = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(live.ravel(), out=indptr[1:])
        kernel = csr_matrix((np.ones(indptr[-1]), mdp.successor[live], indptr),
                            shape=(live.size, mdp.num_states))
        return cls(kernel=kernel, goal=mdp.goal)


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class WeightedDepthResult:
    """Per-state arrays over all states."""

    depth: np.ndarray
    cumulative_mass: np.ndarray
    residual_mass: np.ndarray
    truncated: np.ndarray  # cumulative < 1 - mass_tol at L_max
    k_max_reached: np.ndarray  # the clipping rule fired


def stochastic_weighted_depth(smdp: StochasticTabularMdp, l_max: int,
                              mass_tol: float = 1e-9) -> WeightedDepthResult:
    """The weighted depth of every state over sequences of length 0..l_max;
    the empty sequence solves the goal alone, so the goal has depth 0 and
    mass 1."""
    k, n, m = smdp.kernel, smdp.num_states, smdp.num_actions
    summed = csr_matrix((k.data, k.indices, k.indptr[::m]), shape=(n, n))
    M = length_dp([(1, summed)], smdp.goal, l_max, 1.0)
    depth, cum = np.zeros(n), np.zeros(n)
    clipped = np.zeros(n, dtype=bool)
    for l in range(l_max + 1):
        W = M[:, l]
        hit = ~clipped & (cum + W >= 1.0)
        w = np.where(clipped, 0.0, np.where(hit, 1.0 - cum, W))
        depth += w * l
        cum += w
        clipped |= hit
    residual = np.maximum(0.0, 1.0 - cum)
    return WeightedDepthResult(depth=depth, cumulative_mass=cum,
                               residual_mass=residual,
                               truncated=residual > mass_tol,
                               k_max_reached=clipped)


def stochastic_learning_difficulty(smdp: StochasticTabularMdp,
                                   p: StateDistribution, l_max: int,
                                   mass_tol: float = 1e-9) -> float:
    """|A| times the p-weighted mean of the stochastic weighted depth;
    SupportUnsolvableError if a support state keeps more than mass_tol of
    its mass past l_max."""
    r = stochastic_weighted_depth(smdp, l_max, mass_tol)
    sup = p.support
    if np.any(r.truncated[sup]):
        bad = sup[r.truncated[sup]][0]
        raise SupportUnsolvableError(
            f"state {bad} in support keeps mass {r.residual_mass[bad]:g} "
            f"past l_max = {l_max}")
    return smdp.num_actions * float(np.dot(p.probs[sup], r.depth[sup]))
