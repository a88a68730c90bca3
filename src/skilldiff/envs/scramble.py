"""Exact scramble distributions: random walks of random length from the goal.

The initial-state distribution of puzzle environments is "apply K random
legal moves from the solved state, K uniform on 1..K_max, re-scramble if
solved".  This is computed exactly by dynamic programming over
(state, last-move-group) and averaging the K-step marginals, then
conditioning on not being at the goal.

The DP pulls rather than scatters.  Each move's legal entries are inverted
once into int32 preimage tables (one per preimage a target can have, so an
injective move has one); an entry of n means "no preimage" and gathers the
zero kept at index n of every mass vector.  A step divides each context's
mass by its legal-move count, sums the contexts, and lets every move gather
the mass that may enter it: the total, less its own group's share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mdp import StateDistribution


@dataclass
class ScrambleMove:
    """A deterministic map on all states (including the goal row).

    group tags moves that may not repeat consecutively (e.g. same cube face);
    None disables the adjacency constraint for this move.
    """

    successor: np.ndarray  # int32 [num_states]; dead entries are illegal
    group: int | None = None
    label: str = ""


@dataclass
class ScrambleResult:
    distribution: StateDistribution
    step_marginal_sums: np.ndarray  # should each be 1 before conditioning
    goal_mass_removed: float


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
    groups = sorted({m.group for m in moves if m.group is not None})
    gindex = {g: i for i, g in enumerate(groups)}
    C = len(groups) + 1  # context: last move's group; last slot = "none"
    ctx = [gindex[m.group] if m.group is not None else C - 1 for m in moves]

    # legal-move counts per (context, state); a group's context excludes it
    counts = np.zeros((C, n), dtype=np.min_scalar_type(len(moves)))
    tables = [[] for _ in range(C)]  # preimage tables of the moves per group
    for mv, g in zip(moves, ctx):
        legal = _legal_entries(mv, n)
        for c in range(C):
            if c != g or g == C - 1:
                counts[c] += legal
        if legal.any():
            tables[g].append(_preimage_tables(mv.successor, legal, n))
    stuck = [np.flatnonzero(row == 0) for row in counts]  # mass stays put
    np.maximum(counts, 1, out=counts)

    w = np.zeros((C, n + 1), dtype=np.float64)  # column n stays zero
    w[C - 1, goal] = 1.0
    w_new = np.empty_like(w)
    total, entering = np.empty((2, n + 1), dtype=np.float64)
    marginal = entering[:n]  # reused once the step's gathers are done
    mixture = np.zeros(n, dtype=np.float64)
    marg_sums = np.zeros(k_max, dtype=np.float64)

    for k in range(k_max):
        w_new.fill(0.0)
        for c in range(C):
            w_new[c, stuck[c]] = w[c, stuck[c]]
        w[:, :n] /= counts
        np.sum(w, axis=0, out=total)
        for g in range(C):
            if g == C - 1:
                pool = total
            else:  # a group's own share may not enter it again
                pool = np.subtract(total, w[g], out=w[g])
            for first, *extra in tables[g]:
                np.take(pool, first, out=entering, mode="clip")  # unbuffered
                for table in extra:
                    entering += pool[table]
                w_new[g] += entering
        w, w_new = w_new, w
        np.sum(w[:, :n], axis=0, out=marginal)
        marg_sums[k] = marginal.sum()
        mixture += marginal
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
    )


def _legal_entries(mv: ScrambleMove, n: int) -> np.ndarray:
    """Bool mask of the states where mv moves to another live state."""
    t = np.asarray(mv.successor)
    if t.shape != (n,):
        raise ValueError(f"scramble move {mv.label!r} has successor shape "
                         f"{t.shape}, expected ({n},)")
    if int(t.min()) < 0 or int(t.max()) > n:
        raise ValueError(f"scramble move {mv.label!r} has a successor "
                         f"outside [0, {n}]")
    return (t != n) & (t != np.arange(n))


def _preimage_tables(successor: np.ndarray, legal: np.ndarray,
                     n: int) -> list[np.ndarray]:
    """int32 tables whose k-th holds each target's k-th smallest legal
    preimage, or n; gathering through them in turn adds a target's sources
    in state order."""
    src = np.flatnonzero(legal).astype(np.int32)
    tgt = np.asarray(successor)[src]
    tables = []
    while len(src):
        table = np.full(n + 1, n, dtype=np.int32)
        np.minimum.at(table, tgt, src)
        tables.append(table)
        rest = table[tgt] != src
        src, tgt = src[rest], tgt[rest]
    return tables
