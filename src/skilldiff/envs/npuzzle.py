"""Sliding n^2-1 puzzle (8-puzzle for n=3) with exact scramble distribution.

Actions move the blank in the four cardinal directions.  A vacuous action
(blank at the edge) is a no-op by default; the "death" variant sends it to
the dead state instead, which makes transitions invertible.
"""

from __future__ import annotations

import numpy as np

from ..mdp import BudgetExceededError, TabularDsmdp
from .scramble import ScrambleMove, scramble_distribution

ACTIONS = ["U", "R", "D", "L"]
_DELTAS = [(-1, 0), (0, 1), (1, 0), (0, -1)]

_FACTS = {}


def _factorials(k):
    if k not in _FACTS:
        f = [1] * k
        for i in range(k - 2, -1, -1):
            f[i] = f[i + 1] * (k - 1 - i)
        _FACTS[k] = np.array(f, dtype=np.int64)
    return _FACTS[k]


def perm_rank(perms: np.ndarray) -> np.ndarray:
    """Vectorized Lehmer rank of permutation rows.

    Digit i counts the later entries smaller than entry i.  The rows are
    transposed to columns and each digit adds up, one column pair at a time,
    in int8.
    """
    B, k = perms.shape
    f = _factorials(k)
    cols = np.ascontiguousarray(perms.T)
    ranks = np.zeros(B, dtype=np.int64)
    digit = np.empty(B, dtype=np.int8)
    for i in range(k - 1):
        digit.fill(0)
        for j in range(i + 1, k):
            digit += cols[j] < cols[i]
        ranks += digit * f[i]
    return ranks


def perm_unrank(ranks: np.ndarray, k: int) -> np.ndarray:
    """Vectorized inverse of perm_rank."""
    f = _factorials(k)
    B = len(ranks)
    out = np.empty((B, k), dtype=np.int8)
    avail = np.ones((B, k), dtype=bool)
    r = ranks.astype(np.int64).copy()
    for i in range(k):
        d = r // f[i]
        r = r % f[i]
        cum = np.cumsum(avail, axis=1)
        pick = avail & (cum == (d + 1)[:, None])
        cols = np.argmax(pick, axis=1)
        out[:, i] = cols
        avail[np.arange(B), cols] = False
    return out


def build_n_puzzle(n: int = 3, vacuous: str = "noop", k_max: int = 31):
    """Returns (mdp, scramble p, info) over the reachable half of the orbit.

    States are permutations of tiles 0..n^2-1 (0 = blank); the goal has tiles
    1..n^2-1 in order with the blank last.  The scramble distribution applies
    K uniform-on-1..k_max random legal blank moves from the goal, conditioned
    on not solving.
    """
    if vacuous not in ("noop", "death"):
        raise ValueError("vacuous must be 'noop' or 'death'")
    if n > 3:
        raise BudgetExceededError("full enumeration is supported for n <= 3")
    k = n * n
    goal_perm = np.array(list(range(1, k)) + [0], dtype=np.int8)

    # blank-move tables: for blank at cell c and action a, the swapped cell
    swap_cell = np.full((k, 4), -1, dtype=np.int64)
    for c in range(k):
        r, q = divmod(c, n)
        for a, (dr, dq) in enumerate(_DELTAS):
            rr, qq = r + dr, q + dq
            if 0 <= rr < n and 0 <= qq < n:
                swap_cell[c, a] = rr * n + qq

    # an illegal move stays put in the scramble, and goes dead in "death"
    raw_moves, legal = _orbit_moves(goal_perm, swap_cell)
    N = raw_moves.shape[1]
    succ = np.where(legal | (vacuous == "noop"), raw_moves, N).T.copy()
    succ[0] = N  # the goal row
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=list(ACTIONS))

    moves = [ScrambleMove(successor=raw_moves[a], group=None, label=ACTIONS[a])
             for a in range(4)]
    res = scramble_distribution(N, 0, moves, k_max)
    info = {"orbit_size": N, "scramble": res}
    return mdp, res.distribution, info


def _orbit_moves(goal_perm: np.ndarray, swap_cell):
    """(successor ids, legal), both [4, N], by BFS over the orbit's N states
    from the goal (id 0).  An illegal move leaves a row, and so its id,
    unchanged; once a level's fresh states are numbered, in sorted-rank
    order, all its rows' successors have ids, and the levels join in id order.
    """
    k = len(goal_perm)
    ids = np.full(int(_factorials(k)[0] * k), -1, dtype=np.int32)  # k! slots
    frontier = goal_perm[None, :]
    ids[perm_rank(frontier)] = 0
    cols, legal = [], []
    count = 1
    while len(frontier):
        moved, ok = zip(*(_apply_blank_move(frontier, swap_cell, a)
                          for a in range(4)))
        cand = np.concatenate(moved, axis=0)
        cand_ranks = perm_rank(cand)
        uniq_ranks, first = np.unique(cand_ranks, return_index=True)
        fresh = ids[uniq_ranks] == -1
        num_fresh = int(fresh.sum())
        ids[uniq_ranks[fresh]] = count + np.arange(num_fresh, dtype=np.int32)
        count += num_fresh
        cols.append(ids[cand_ranks].reshape(4, -1))
        legal.append(np.stack(ok))
        frontier = cand[first[fresh]]
    return np.concatenate(cols, axis=1), np.concatenate(legal, axis=1)


def _apply_blank_move(states: np.ndarray, swap_cell, a):
    """(moved rows, legal): each row with the blank swapped with its
    neighbour in direction a; a row where the move is illegal is unchanged."""
    B, k = states.shape
    blank = np.argmax(states == 0, axis=1)
    tgt = swap_cell[blank, a]
    legal = tgt >= 0
    out = states.copy()
    rows = np.arange(B)
    t = np.where(legal, tgt, blank)
    out[rows, blank] = out[rows, t]
    out[rows, t] = 0
    return out, legal
