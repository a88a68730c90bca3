"""Goal-reaching probability of the uniform random policy with geometric stop.

q(s) is the probability that a policy which terminates with probability
delta and otherwise picks a uniformly random action solves s.  It is the
minimal fixed point of

    q(s) = ((1 - delta)/|A|) * sum_a q(T(s, a)),   q(goal) = 1, q(dead) = 0,

computed by damped-free Jacobi iteration from zero, one ``transition_matrix``
product per sweep (dead successors have no entry, so they add 0).  For
delta > 0 the map is a (1-delta)-contraction; for delta = 0 the monotone
iteration converges to the hitting probability of the uniform random policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mdp import TabularDsmdp, transition_matrix


class NotConvergedError(Exception):
    def __init__(self, iterations, residual, tol):
        super().__init__(
            f"q iteration did not reach tol={tol:g} after {iterations} sweeps "
            f"(residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass
class QTable:
    q: np.ndarray  # float64 [num_states], q[goal] == 1
    delta: float
    residual: float
    iterations: int


def solve_q(mdp: TabularDsmdp, delta: float, tol: float = 1e-12,
            max_iter: int = 50_000) -> QTable:
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must be in [0, 1)")
    P = transition_matrix(mdp.successor)
    coef = (1.0 - delta) / mdp.num_actions
    q = np.zeros(mdp.num_states)
    q[mdp.goal] = 1.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        new = coef * (P @ q)
        new[mdp.goal] = 1.0
        residual = float(np.max(np.abs(new - q)))
        q = new
        if residual <= tol:
            return QTable(q=q, delta=delta, residual=residual, iterations=it)
    raise NotConvergedError(max_iter, residual, tol)
