"""2x2x2 pocket cube with a fixed corner, dense-indexed.

Coordinates: x right, y front, z up; corners live at {0,1}^3.  The
down-back-left corner (0,0,0) is held fixed, which quotients out whole-cube
rotations and leaves 7! * 3^6 = 3,674,160 states.  Agent actions turn the
front, right, or top face 90 degrees clockwise; the scramble move set adds
180- and 270-degree turns.

Move tables are derived from the face rotations acting on corner positions
and sticker directions, not hardcoded: each 90-degree turn cycles four slots
and transports each piece's reference sticker (its up/down-axis sticker) to
a new outward axis, which determines the twist increment.
"""

from __future__ import annotations

import numpy as np

from .._ranges import split
from ..mdp import TabularDsmdp
from .npuzzle import perm_rank, perm_unrank
from .scramble import ScrambleMove, scramble_distribution

NUM_CUBE_STATES = 3_674_160  # 7! * 3^6
_POW3 = np.array([1, 3, 9, 27, 81, 243], dtype=np.int64)

SLOT_COORDS = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
               (1, 0, 1), (1, 1, 0), (1, 1, 1)]  # fixed corner (0,0,0) omitted
_SLOT_ID = {c: i for i, c in enumerate(SLOT_COORDS)}


def _outward_axes(coord):
    x, y, z = coord
    return (np.array([1 if x else -1, 0, 0]),
            np.array([0, 1 if y else -1, 0]),
            np.array([0, 0, 1 if z else -1]))


def _slot_cycle(coord):
    """Outward axes ordered (vertical, a, b) with det[v, a, b] > 0, defining
    twist orientation: 0 = reference sticker on the vertical axis."""
    ax, ay, az = _outward_axes(coord)
    v = az
    if np.linalg.det(np.stack([v, ax, ay])) > 0:
        return (v, ax, ay)
    return (v, ay, ax)


_MOVE_GEOMETRY = {
    # face: (layer predicate, position map, direction map)
    "F": (lambda c: c[1] == 1,
          lambda c: (c[2], c[1], 1 - c[0]),
          lambda v: np.array([v[2], v[1], -v[0]])),
    "R": (lambda c: c[0] == 1,
          lambda c: (c[0], 1 - c[2], c[1]),
          lambda v: np.array([v[0], -v[2], v[1]])),
    "U": (lambda c: c[2] == 1,
          lambda c: (c[1], 1 - c[0], c[2]),
          lambda v: np.array([v[1], -v[0], v[2]])),
}


def _quarter_turn_table(face: str):
    """(src, tadd): piece at slot src[q] moves to slot q gaining twist tadd[q]."""
    in_layer, posmap, dirmap = _MOVE_GEOMETRY[face]
    src = np.arange(7, dtype=np.int64)
    tadd = np.zeros(7, dtype=np.int64)
    cycles = [_slot_cycle(c) for c in SLOT_COORDS]
    for q, coord in enumerate(SLOT_COORDS):
        if not in_layer(coord):
            continue
        q2 = _SLOT_ID[posmap(coord)]
        src[q2] = q
        # transport each cycle axis and locate it in the destination cycle
        shifts = []
        for o in range(3):
            moved = dirmap(cycles[q][o])
            matches = [i for i in range(3)
                       if np.array_equal(moved, cycles[q2][i])]
            assert len(matches) == 1, "rotation must map outward axes to outward axes"
            shifts.append((matches[0] - o) % 3)
        assert shifts[0] == shifts[1] == shifts[2], "twist must be uniform"
        tadd[q2] = shifts[0]
    return src, tadd


def _compose(first, second):
    """Table for applying `first` then `second`."""
    src1, t1 = first
    src2, t2 = second
    return src1[src2], (t1[src2] + t2) % 3


def move_tables():
    """{label: (src, tadd)} for the 9 scramble moves; '<f>1' are agent moves."""
    out = {}
    for f in ("F", "R", "U"):
        m1 = _quarter_turn_table(f)
        m2 = _compose(m1, m1)
        out[f + "1"] = m1
        out[f + "2"] = m2
        out[f + "3"] = _compose(m2, m1)
    return out


def apply_move(perm: np.ndarray, ori: np.ndarray, table):
    src, tadd = table
    return perm[:, src], (ori[:, src] + tadd) % 3


def encode(perm: np.ndarray, ori: np.ndarray) -> np.ndarray:
    """Dense index: permutation rank * 729 + base-3 code of six orientations
    (the seventh is forced by the zero-total-twist invariant)."""
    return perm_rank(perm) * 729 + ori[:, :6].astype(np.int64) @ _POW3


def decode(idx: np.ndarray):
    pr, oc = np.divmod(idx.astype(np.int64), 729)
    perm = perm_unrank(pr, 7)
    ori = np.empty((len(idx), 7), dtype=np.int8)
    rem = oc
    for i in range(6):
        ori[:, i] = rem % 3
        rem = rem // 3
    ori[:, 6] = (-(ori[:, :6].astype(np.int64).sum(axis=1))) % 3
    return perm, ori


def solved_index() -> int:
    return 0  # identity permutation, zero twists


def _index_map(table) -> np.ndarray:
    """Materialize a move as a permutation of all state indices.

    The permutation and twist coordinates move independently, so the map is
    the outer sum of a 5040-entry permutation table and a 729-entry twist
    table, each built by decode -> apply_move -> encode on its coordinate.
    The sum is written by state ranges, in whole rows of 729 states.
    """
    perm_tab = encode(*apply_move(*decode(np.arange(5040) * 729), table)) // 729
    twist_tab = encode(*apply_move(*decode(np.arange(729)), table)) % 729
    perm_tab = (perm_tab * 729).astype(np.int32)[:, None]
    twist_tab = twist_tab.astype(np.int32)
    out = np.empty((5040, 729), dtype=np.int32)

    def rows(lo, hi):
        a, b = -(-lo // 729), -(-hi // 729)  # each boundary rounds up
        np.add(perm_tab[a:b], twist_tab, out=out[a:b])
    split(rows, NUM_CUBE_STATES)
    return out.ravel()


def build_pocket_cube(k_max: int = 11):
    """Returns (mdp, scramble p, info).  The scramble walk uses the 9-move
    set {F,R,U} x {90,180,270} with no two consecutive turns of the same
    face, K uniform on 1..k_max, conditioned on not being solved."""
    raw = {label: _index_map(tab) for label, tab in move_tables().items()}
    n = NUM_CUBE_STATES
    goal = solved_index()
    moves = [ScrambleMove(successor=raw[f + str(r)], group=gi, label=f + str(r))
             for gi, f in enumerate(("F", "R", "U")) for r in (1, 2, 3)]
    res = scramble_distribution(n, goal, moves, k_max)
    # stacked after the DP, so this (n, 3) copy is not alive at its peak
    succ = np.stack([raw["F1"], raw["R1"], raw["U1"]], axis=1)
    succ[goal] = n
    mdp = TabularDsmdp(successor=succ, goal=goal,
                       action_labels=["F", "R", "U"])
    return mdp, res.distribution, {"scramble": res}
