"""Cliff-walking grid world.

Classic 4x12 grid: the agent starts bottom-left and must reach bottom-right.
Touching any other bottom-row square (the cliff) teleports the agent back to
the start within the same episode; cliff cells are not states.  Moving off
the grid is a no-op.
"""

from __future__ import annotations

import numpy as np

from ..mdp import StateDistribution, enumerate_closure

ACTIONS = ["U", "R", "D", "L"]
DELTAS = {"U": (-1, 0), "R": (0, 1), "D": (1, 0), "L": (0, -1)}


def build_cliff_walking(height: int = 4, width: int = 12):
    """Returns the reachable tabular MDP and the point-mass start distribution."""
    bottom = height - 1
    start = (bottom, 0)
    goal_cell = (bottom, width - 1)
    cliff = {(bottom, c) for c in range(1, width - 1)}

    def move(cell, a):
        dr, dc = DELTAS[a]
        r, c = cell[0] + dr, cell[1] + dc
        if not (0 <= r < height and 0 <= c < width):
            return cell
        if (r, c) in cliff:
            return start
        return (r, c)

    mdp, cells = enumerate_closure([start], goal_cell, ACTIONS, move,
                                   height * width)
    p = np.zeros(mdp.num_states)
    p[0] = 1.0
    return mdp, StateDistribution(p), {"cells": cells, "start": 0}
