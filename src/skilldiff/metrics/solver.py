"""Goal-reaching probability of the uniform random policy with geometric stop.

q(s) is the probability that a policy which terminates with probability
delta and otherwise picks a uniformly random action solves s.  It is the
minimal fixed point of

    q(s) = ((1 - delta)/|A|) * sum_a q(T(s, a)),   q(goal) = 1, q(dead) = 0,

that is, the solution of (I - cP) q = b with c = (1 - delta)/|A|, P the
live-successor count matrix and b the goal column of cP.  S is the set of
solvable non-goal states; q is 0 off S and the goal, and B = I - cP_SS is
nonsingular even at delta = 0.

q starts in one of three ways, then runs the Jacobi sweep loop, one product
with the operator per sweep (dead successors have no entry, so they add 0),
until the sweep residual is at most ``tol``:

* direct: MDPs of at most ``mdp.DIRECT_MAX_STATES`` states, whose operator
  ``mdp`` makes dense, solve B q_S = b_S by one ``np.linalg.solve`` over S,
  read from the MDP's cached ``solution_lengths``, and finish in one sweep.
  It wins up to about that size (random 3-action permutation MDPs,
  delta = 0.1, 2-vCPU Xeon: 1.15 vs 1.68 ms from zero at 200 states, 2.57
  vs 1.73 ms at 300).
* conjugate gradients: larger MDPs whose operator over the non-goal states
  is symmetric, as every action set closed under inversion makes it, run CG
  on (I - cP) q = b over those states (Hestenes & Stiefel 1952).  Symmetry
  rules out an edge between S and an unsolvable state, so CG solves
  B q_S = b_S and leaves the unsolvable states at 0.  The iterate is clipped
  to [0, 1] and raised to c^d(s) on S, where q* lies: c^d(s) is the chance
  of walking one shortest solution.  So no entry moves away from q*, and
  none is left at a zero that one sweep cannot lift.  Symmetry is read
  from the successor table with block-sized temporaries, so an asymmetric
  operator is never built.  On puzzle8 (181,440 states) at delta = 1/50 it
  takes 82 CG steps and one sweep, 0.36-0.57 s, against 696 sweeps and
  1.05-1.73 s from zero (2-vCPU Xeon).
* zero: every other MDP starts from q = 0 (only the goal at 1).

Above ``_ranges.FLOOR`` states, the sweep's product and residual and CG's
operator product run on state ranges on all usable cores
(``_ranges.split``), through zero-copy row-block views of the CSR operator.
A row sums its entries in the same order in a block as in the whole
operator, and the residual is a max, which is exact; CG's dot products stay
whole.  So q, the residual and the iteration count do not depend on the
ranges.

The returned ``QTable.error_bound`` is a proven bound on ||q - q*||_inf,
gain * (residual + r) + r, where r = (|A| + 2) * eps covers the rounding of
the last sweep and gain bounds ||B^-1||_inf:

* delta > 0: gain = (1 - delta)/delta, the contraction bound;
* delta = 0, direct or CG start: the start also solves B t = 1, and
  gain = ||t||_inf / (1 - ||1 - B t||_inf), with the rounding of that check
  added to its norm, because B^-1 is nonnegative and t approximates B^-1 1;
* delta = 0 from zero: gain = inf, so the bound is inf; the monotone
  iteration from zero converges to q* from below but certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, issparse

from .._ranges import BLOCK, split
from ..mdp import DIRECT_MAX_STATES, TabularDsmdp, transition_matrix

_EPS = np.finfo(np.float64).eps
# CG stops t once ||1 - B t||_inf <= this, so the gain exceeds ||t||_inf by
# about a millionth
_T_TOL = 1e-6


class NotConvergedError(Exception):
    def __init__(self, iterations, residual, tol):
        super().__init__(
            f"q iteration did not reach tol={tol:g} after {iterations} "
            f"operator products (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class QTable:
    q: np.ndarray  # float64 [num_states], q[goal] == 1
    delta: float
    residual: float
    # products with the operator: CG steps (for q and, at delta = 0, for t
    # and its check) plus sweeps; the direct start takes none
    iterations: int
    error_bound: float  # proven bound on ||q - q*||_inf


def solve_q(mdp: TabularDsmdp, delta: float, tol: float = 1e-12,
            max_iter: int = 50_000) -> QTable:
    """q at ``delta`` to a sweep residual of at most ``tol``, within
    ``max_iter`` operator products; raises ``NotConvergedError`` otherwise."""
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must be in [0, 1)")
    n, goal = mdp.num_states, mdp.goal
    coef = (1.0 - delta) / mdp.num_actions
    rounding = (mdp.num_actions + 2) * _EPS
    check = rounding if delta == 0 else None
    q = np.zeros(n)
    q[goal] = 1.0
    P = transition_matrix(mdp.successor)
    if n <= DIRECT_MAX_STATES:
        t_gain, products = _direct_start(P, mdp, coef, q, check), 0
    else:
        t_gain, products = _cg_start(mdp, coef, q, tol, max_iter, check)
    gain = (1.0 - delta) / delta if delta > 0 else t_gain
    product = _scaled_product(P, coef)
    residual = np.inf
    for it in range(products + 1, max_iter + 1):
        new = product(q)
        new[goal] = 1.0
        residual = _max_gap(new, q)
        q = new
        if residual <= tol:
            return QTable(q=q, delta=delta, residual=residual, iterations=it,
                          error_bound=gain * (residual + rounding) + rounding)
    raise NotConvergedError(max_iter, residual, tol)


def _direct_start(P: np.ndarray, mdp: TabularDsmdp, coef: float,
                  q: np.ndarray, rounding: float | None) -> float:
    """Write the direct solution over the solvable non-goal states S into q.

    With a ``rounding`` allowance, also solve B t = 1 (B = I - cP_SS) and
    return ``_inverse_norm_bound`` of t; without one, return inf.  An empty
    S gives 0."""
    S = np.flatnonzero(mdp.solution_lengths.d > 0)
    if len(S) == 0:
        return 0.0
    B = -coef * P.take(S, 0).take(S, 1)
    B.flat[::len(S) + 1] += 1.0
    b = coef * P[S, mdp.goal]
    if rounding is None:
        q[S] = np.linalg.solve(B, b)
        return math.inf
    x = np.linalg.solve(B, np.column_stack([b, np.ones(len(S))]))
    q[S] = x[:, 0]
    t = x[:, 1]
    return _inverse_norm_bound(t, 1.0 - B @ t, rounding)


def _cg_start(mdp: TabularDsmdp, coef: float, q: np.ndarray, tol: float,
              max_iter: int, rounding: float | None) -> tuple[float, int]:
    """Write the clipped CG solution into q if the operator over the
    non-goal states is symmetric, and return (gain, operator products).

    q's CG stops at half of ``tol``, so the sweep after it, which sees the
    true residual rather than CG's updated one, meets ``tol``.  With a
    ``rounding`` allowance, CG also solves B t = 1 over S for the gain;
    without one, or when the operator is not symmetric, the gain is inf."""
    M = _symmetric_nongoal_operator(mdp)
    if M is None:
        return math.inf, 0
    product = _scaled_product(M, coef)
    b = coef * np.count_nonzero(mdp.successor == mdp.goal, axis=1)
    x, steps = _cg(product, b, tol / 2, max_iter)
    np.clip(x, 0.0, 1.0, out=q)
    d = mdp.solution_lengths.d
    np.maximum(q, np.power(coef, d, where=d > 0, out=np.zeros(len(q))), out=q)
    q[mdp.goal] = 1.0
    if rounding is None:
        return math.inf, steps
    ones = (d > 0).astype(np.float64)
    t, t_steps = _cg(product, ones, _T_TOL, max_iter)
    miss = ones - (t - product(t))
    return _inverse_norm_bound(t, miss, rounding), steps + t_steps + 1


def _symmetric_nongoal_operator(mdp: TabularDsmdp):
    """P over the non-goal states (the goal column dropped) as CSR, or None
    when it is not symmetric.

    Symmetry is decided on the successor table, by blocks of states: each
    live non-goal successor t of s must reach s as often as s reaches t
    (the goal row is all dead).  Temporaries are block-sized, the first
    mismatch returns, and P is built only when every block passes."""
    succ, n, goal = mdp.successor, mdp.num_states, mdp.goal
    for lo in range(0, n, BLOCK):
        rows = succ[lo:lo + BLOCK]
        ids = np.arange(lo, lo + len(rows), dtype=np.int32)
        for t in rows.T:
            live = (t != n) & (t != goal)
            back = succ.take(np.where(live, t, 0), axis=0)
            # actions s -> t less actions t -> s, one column at a time
            excess = np.zeros(len(rows), dtype=np.int16)
            for a in range(rows.shape[1]):
                excess += rows[:, a] == t
                excess -= back[:, a] == ids
            if np.any(live & (excess != 0)):
                return None
    M = transition_matrix(np.where(succ == goal, n, succ))
    M.sum_duplicates()
    return M


def _cg(product, b: np.ndarray, tol: float,
        max_steps: int) -> tuple[np.ndarray, int]:
    """Conjugate gradients for (I - cM) x = b from x = 0, where product(x)
    is cM x, until the updated residual is at most ``tol`` in max norm;
    returns (x, steps)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    for step in range(max_steps):
        if np.max(np.abs(r)) <= tol:
            return x, step
        Ap = p - product(p)
        alpha = rr / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rr, rr_old = float(r @ r), rr
        p *= rr / rr_old
        p += r
    return x, max_steps


def _scaled_product(P, coef: float):
    """x -> coef * (P @ x).  A CSR P multiplies on state ranges, each
    through a zero-copy view of its rows, so every row sums its entries in
    the same order as ``P @ x``; a dense P multiplies whole."""
    if not issparse(P):
        return lambda x: coef * (P @ x)
    n, blocks = P.shape[0], {}

    def product(x):
        out = np.empty(n)

        def rows(lo, hi):
            block = blocks.get((lo, hi))
            if block is None:  # set, not passed: scipy's constructor
                a, b = P.indptr[lo], P.indptr[hi]  # copies a small view
                block = blocks[lo, hi] = csr_matrix((hi - lo, n))
                block.data, block.indices = P.data[a:b], P.indices[a:b]
                block.indptr = P.indptr[lo:hi + 1] - a
            np.multiply(block @ x, coef, out=out[lo:hi])
        split(rows, n)
        return out
    return product


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, by state ranges in block-sized temporaries; a max is
    exact, so the ranges cannot change it, and a NaN anywhere gives NaN."""
    parts = []

    def gap(lo, hi):
        diff = np.subtract(a[lo:hi], b[lo:hi])
        parts.append(np.abs(diff, out=diff).max())
    split(gap, len(a))
    return float(np.max(parts))


def _inverse_norm_bound(t: np.ndarray, miss: np.ndarray,
                        rounding: float) -> float:
    """||t||_inf / (1 - ||miss||_inf), a bound on ||B^-1||_inf for a
    nonnegative B^-1, any t and miss = 1 - B t as computed; the rounding of
    that product adds ``rounding * ||t||_inf`` to its norm.  inf when the
    check fails."""
    t_norm = float(np.max(np.abs(t)))
    miss_norm = float(np.max(np.abs(miss))) + rounding * t_norm
    return t_norm / (1.0 - miss_norm) if miss_norm < 1.0 else math.inf
