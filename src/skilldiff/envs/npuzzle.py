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


def build_n_puzzle(n: int = 3, vacuous: str = "noop", k_max: int = 31,
                   state_budget: int = 2_000_000):
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

    # BFS from the goal over legal moves, enumerating the reachable orbit
    states = goal_perm[None, :].copy()
    ids = np.full(int(_factorials(k)[0] * k), -1, dtype=np.int32)  # k! slots
    ids[perm_rank(states)] = 0
    frontier = states
    all_states = [goal_perm.copy()]
    count = 1
    while len(frontier):
        nxt = []
        for a in range(4):
            moved = _apply_blank_move(frontier, swap_cell, a)
            if moved is None:
                continue
            nxt.append(moved)
        if not nxt:
            break
        cand = np.concatenate(nxt, axis=0)
        ranks = perm_rank(cand)
        uniq_ranks, first = np.unique(ranks, return_index=True)
        cand = cand[first]
        fresh = ids[uniq_ranks] == -1
        cand = cand[fresh]
        uniq_ranks = uniq_ranks[fresh]
        if len(cand) == 0:
            break
        ids[uniq_ranks] = np.arange(count, count + len(cand), dtype=np.int32)
        count += len(cand)
        all_states.append(cand)
        frontier = cand
        if count > state_budget:
            raise BudgetExceededError("puzzle orbit exceeds the state budget")
    states = np.concatenate([s.reshape(-1, k) for s in all_states], axis=0)
    N = len(states)

    # successor table + raw scramble move maps
    succ = np.full((N, 4), N, dtype=np.int32)
    raw_moves = np.empty((4, N), dtype=np.int32)
    arange = np.arange(N, dtype=np.int32)
    for a in range(4):
        moved = _apply_blank_move(states, swap_cell, a, keep_all=True)
        legal = moved[1]
        cols = np.where(legal, ids[perm_rank(moved[0])],
                        arange if vacuous == "noop" else N)
        raw_moves[a] = np.where(legal, cols, arange)  # scramble: no-op stays
        succ[:, a] = cols
    goal_id = int(ids[perm_rank(goal_perm[None, :])[0]])
    succ[goal_id] = N
    mdp = TabularDsmdp(successor=succ, goal=goal_id,
                       action_labels=list(ACTIONS))

    moves = [ScrambleMove(successor=raw_moves[a], group=None, label=ACTIONS[a])
             for a in range(4)]
    res = scramble_distribution(N, goal_id, moves, k_max)
    info = {"orbit_size": N, "scramble": res}
    return mdp, res.distribution, info


def _apply_blank_move(states: np.ndarray, swap_cell, a, keep_all=False):
    """Swap the blank with the adjacent tile; rows where the move is illegal
    are dropped (or flagged when keep_all)."""
    B, k = states.shape
    blank = np.argmax(states == 0, axis=1)
    tgt = swap_cell[blank, a]
    legal = tgt >= 0
    out = states.copy()
    rows = np.arange(B)
    t = np.where(legal, tgt, blank)
    out[rows, blank] = out[rows, t]
    out[rows, t] = 0
    if keep_all:
        return out, legal
    if not legal.any():
        return None
    return out[legal]
