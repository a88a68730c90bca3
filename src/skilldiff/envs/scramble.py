"""Exact scramble distributions: random walks of random length from the goal.

The initial-state distribution of puzzle environments is "apply K random
legal moves from the solved state, K uniform on 1..K_max, re-scramble if
solved".  This is computed exactly by dynamic programming over
(state, last-move-group) and averaging the K-step marginals, then
conditioning on not being at the goal.

The DP pulls rather than scatters: every move t with a legal entry gathers
through the first move s of the set that undoes it, that is, s[t[x]] == x
on every legal x of t and s has as many legal entries as t.  Then t maps
its legal entries one to one onto s's, so s with its illegal entries set to
n is t's only preimage table: s itself if s is legal everywhere (every cube
turn), else a masked copy (puzzle8 pairs U with D and R with L).  An entry
of n gathers the zero kept at index n of every mass vector.  A move with a
legal entry that no move undoes is rejected.  A step divides each context's
mass by its legal-move count, sums the contexts, and lets every move gather
the mass that may enter it: the total, less its own group's share.

The walk starts at one state, so its early steps touch few (frontier
search: Korf, Zhang, Thayer & Hohwald 2005, JACM 52(5)).  A sorted
frontier, first just the goal, covers the support of the mass; the next
frontier is the frontier plus every image of it under every move, found by
marking one bool array through the moves' own successor arrays.  While the
next frontier holds at most ``FRONTIER_SHARE`` of the states, a step
divides, sums, subtracts and gathers on those indices alone and writes the
next frontier, which contains the old one, so no entry it read keeps a stale
value; only the stuck-mass accumulator is zeroed again.  Past that share the
steps turn dense and stay dense.  A dense step keeps the contexts' rows
apart and one spare: group g's pool is computed into its own row, its first
move gathered straight into the spare, its stuck mass and later moves added
there, and the spare takes the row's place.  A context that no move enters
and where no state is stuck (the cube's "none") is zero after a dense step
and is skipped from then on.  While every move is legal everywhere the
legal-move counts keep one column, which division broadcasts.  As e + s is
s + e and x + 0.0 is x, either way every state adds the same numbers in the
same order, states off the frontier hold exact zeros, and each step's
marginal is summed over all n states, so the result does not depend on where
the steps turn dense.  ``step_states`` records how many states each step
wrote.

Above ``_ranges.FLOOR`` states the full-length passes run on contiguous
state ranges on all usable cores (``_ranges.split``): the legality masks,
the inverse checks, and each dense step's divide, total and pools (one
pass), its gathers and adds (one pass per group, after every pool is
written) and its marginal and mixture adds, each on cache-sized blocks.
Every state's value comes from the same operations on the same inputs in
the same order wherever the ranges and blocks fall; only ``marginal.sum()``
and ``mixture.sum()`` read across states, and they stay whole, so the
result does not depend on the ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._ranges import split
from ..mdp import StateDistribution


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class ScrambleMove:
    """A deterministic map on all states (including the goal row).

    group tags moves that may not repeat consecutively (e.g. same cube face);
    None disables the adjacency constraint for this move.
    """

    successor: np.ndarray  # int32 [num_states]; dead entries are illegal
    group: int | None = None
    label: str = ""


# Largest share of the states a frontier step may write; measured on the cube
# and puzzle8 builds (CHANGES.md), where the dense pull wins beyond it.
FRONTIER_SHARE = 0.25


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class ScrambleResult:
    distribution: StateDistribution
    step_marginal_sums: np.ndarray  # should each be 1 before conditioning
    goal_mass_removed: float
    # int64 [k_max]: target states each step wrote, the frontier's size while
    # the DP runs sparse and num_states once it runs dense
    step_states: np.ndarray


def scramble_distribution(
    num_states: int,
    goal: int,
    moves: list[ScrambleMove],
    k_max: int,
) -> ScrambleResult:
    """Exact distribution of the scramble walk, conditioned on non-goal.

    A move is legal in state s when it actually changes the state (no no-ops,
    no dead transitions) and its group differs from the previous move's group.
    Each step picks uniformly among legal moves.
    """
    n = num_states
    if k_max < 1:
        raise ValueError(f"scramble k_max is {k_max}, expected at least 1")
    if not 0 <= goal < n:
        raise ValueError(f"scramble goal {goal} is outside [0, {n})")
    groups = sorted({m.group for m in moves if m.group is not None})
    gindex = {g: i for i, g in enumerate(groups)}
    C = len(groups) + 1  # context: last move's group; last slot = "none"
    ctx = [gindex[m.group] if m.group is not None else C - 1 for m in moves]

    succs = [_checked_successor(mv, n) for mv in moves]
    states = np.arange(n, dtype=np.int32)
    legals = [_legal(t, states) for t in succs]  # None: legal everywhere
    # legal-move counts per (context, state); a group's context excludes it
    counts = np.zeros((C, n if any(m is not None for m in legals) else 1),
                      dtype=np.min_scalar_type(len(moves)))
    tables = [[] for _ in range(C)]  # gather tables of the moves per group
    undone_by = {}  # j -> i for each move j undone by a move i found above
    for i, (legal, g) in enumerate(zip(legals, ctx)):
        for c in range(C):
            if c != g or g == C - 1:
                counts[c] += 1 if legal is None else legal
        if legal is not None and not legal.any():
            continue
        j = undone_by.get(i)
        if j is None:
            j = _undoing_move(i, succs, legals, states, moves[i].label)
            undone_by[j] = i  # t_i undoes t_j too
        tables[g].append(succs[j] if legals[j] is None
                         else np.where(legals[j], succs[j], n))
    stuck = [np.flatnonzero(np.broadcast_to(row == 0, (n,)))
             for row in counts]  # mass stays put
    np.maximum(counts, 1, out=counts)

    w = np.zeros((C, n + 1), dtype=np.float64)  # column n stays zero
    w[C - 1, goal] = 1.0
    # off the frontier w, total and marginal hold zeros; spare is zero
    # while the steps run sparse; entering is the dense steps' gather buffer
    total, entering, spare = np.zeros((3, n + 1), dtype=np.float64)
    marginal = entering[:n]
    mixture = np.zeros(n, dtype=np.float64)
    marg_sums = np.zeros(k_max, dtype=np.float64)
    step_states = np.full(k_max, n, dtype=np.int64)

    front = np.array([goal])
    reached = np.zeros(n + 1, dtype=bool)  # index n collects dead entries
    reached[goal] = True
    for k in range(k_max):
        if front is not None:
            for t in succs:
                reached[t[front]] = True
            nxt = np.flatnonzero(reached[:n])
            if len(nxt) > FRONTIER_SHARE * n:
                front, w, live = None, list(w), range(C)
        if front is None:
            spare = _dense_step(w, counts, stuck, tables, total, entering,
                                spare, live)
            live = [g for g in live if tables[g] or len(stuck[g])]

            def add_marginal(lo, hi):
                _sum_rows([w[g][lo:hi] for g in live], marginal[lo:hi])
                mixture[lo:hi] += marginal[lo:hi]
            split(add_marginal, n)
        else:
            _frontier_step(w, counts, stuck, tables, total, spare, front, nxt)
            marginal[nxt] = w[:, nxt].sum(axis=0)
            mixture[nxt] += marginal[nxt]
            step_states[k] = len(nxt)
            front = nxt
        marg_sums[k] = marginal.sum()
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
        step_states=step_states,
    )


def _frontier_step(w, counts, stuck, tables, total, acc, front, nxt):
    """One step on the states in front, writing the states in nxt."""
    C, n = w.shape[0], w.shape[1] - 1
    share = w[:, front] / np.broadcast_to(counts, (C, n))[:, front]
    total[front] = share.sum(axis=0)
    for g in range(C):
        acc[stuck[g]] = w[g, stuck[g]]
        part = acc[nxt]
        acc[stuck[g]] = 0.0
        if g == C - 1:
            pool = total
        else:  # a group's own share may not enter it again
            w[g, front] = total[front] - share[g]
            pool = w[g]
        for table in tables[g]:
            part += pool[table[nxt]]
        w[g, nxt] = part


def _dense_step(w, counts, stuck, tables, total, entering, spare, live):
    """One step on every state, for the rows in live; returns the spare.

    Each pass runs on state ranges; a group's pool is complete before any
    range gathers from it.  No pass writes index n, so every row, total,
    entering and spare keep their zero there."""
    C, n = len(w), len(total) - 1
    counts = np.broadcast_to(counts, (C, n))
    held = [np.empty(len(rows)) for rows in stuck]

    def pools(lo, hi):
        for g in live:
            w[g][lo:hi] /= counts[g][lo:hi]
        _sum_rows([w[g][lo:hi] for g in live], total[lo:hi])
        for g in live:
            row = w[g]
            a, b = np.searchsorted(stuck[g], (lo, hi))
            held[g][a:b] = row[stuck[g][a:b]]  # before the pool overwrites it
            if g != C - 1:  # a group's own share may not enter it again
                np.subtract(total[lo:hi], row[lo:hi], out=row[lo:hi])
    split(pools, n)
    for g in live:
        pool = total if g == C - 1 else w[g]

        def gather(lo, hi):
            a, b = np.searchsorted(stuck[g], (lo, hi))
            if not tables[g]:  # no move enters this context
                spare[lo:hi] = 0.0
                spare[stuck[g][a:b]] = held[g][a:b]
            for i, table in enumerate(tables[g]):
                into = (entering if i else spare)[lo:hi]
                # under "clip" take is unbuffered
                np.take(pool, table[lo:hi], out=into, mode="clip")
                if i:
                    spare[lo:hi] += into
                else:  # stuck mass: e1 + s has the bits of s + e1
                    spare[stuck[g][a:b]] += held[g][a:b]
        split(gather, n)
        w[g], spare = spare, w[g]
    return spare


def _sum_rows(rows, out):
    """out = the sum of rows, added in order as np.sum(axis=0) adds them."""
    np.add(rows[0], rows[1] if len(rows) > 1 else 0.0, out=out)
    for row in rows[2:]:
        out += row


def _checked_successor(mv: ScrambleMove, n: int) -> np.ndarray:
    """mv's successor array, after checking its dtype, shape and range."""
    t = np.asarray(mv.successor)
    if t.shape != (n,) or not np.issubdtype(t.dtype, np.integer):
        raise ValueError(f"scramble move {mv.label!r} has successor shape "
                         f"{t.shape} and dtype {t.dtype}, expected ({n},) "
                         "integers")
    if int(t.min()) < 0 or int(t.max()) > n:
        raise ValueError(f"scramble move {mv.label!r} has a successor "
                         f"outside [0, {n}]")
    return t


def _legal(t: np.ndarray, states: np.ndarray) -> np.ndarray | None:
    """Where t[x] is not x or n, built on state ranges; None if everywhere."""
    legal = np.empty(len(t), dtype=bool)

    def mask(lo, hi):
        np.not_equal(t[lo:hi], states[lo:hi], out=legal[lo:hi])
        legal[lo:hi] &= t[lo:hi] != len(t)
    split(mask, len(t))
    return None if legal.all() else legal


def _undoing_move(i, succs, legals, states, label) -> int:
    """The index of the first move that undoes move i (module docstring),
    probed at one legal entry before the full check on state ranges."""
    t, legal = succs[i], legals[i]
    x = 0 if legal is None else int(np.argmax(legal))
    size = [len(t) if m is None else np.count_nonzero(m) for m in legals]
    for j, s in enumerate(succs):
        if s[t[x]] != x or size[j] != size[i]:
            continue
        image, same = np.empty_like(s), []

        def check(lo, hi):
            np.take(s, t[lo:hi], out=image[lo:hi], mode="clip")
            if legal is not None:  # an illegal entry of t checks nothing
                np.copyto(image[lo:hi], states[lo:hi], where=~legal[lo:hi])
            same.append(np.array_equal(image[lo:hi], states[lo:hi]))
        split(check, len(t))
        if all(same):
            return j
    raise ValueError(f"scramble move {label!r} has legal entries but no "
                     "move of the set undoes it")
