"""Grid world where the agent must pick up object kinds in a target order.

A configurable stand-in for ordered-pickup grid worlds: the agent moves in
the four cardinal directions (walls and edges are no-ops) and has a pickup
action.  State is (position, tuple of picked object instances); picking an
object whose kind breaks every completion of the target sequence leaves the
MDP in a reachable but unsolvable state.  Pickup on an empty cell is a
no-op.  All states whose picked kinds equal the target merge into the single
goal state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mdp import MdpError, StateDistribution, enumerate_closure
from . import cliff

ACTIONS = ["U", "R", "D", "L", "P"]


@dataclass
class PickupWorldConfig:
    width: int
    height: int
    walls: set = field(default_factory=set)  # {(r, c)}
    objects: list = field(default_factory=list)  # [(kind_char, (r, c))]
    target: list = field(default_factory=list)  # [kind_char, ...]
    agent_start: tuple | None = None  # None = uniform over free cells

    def validate(self):
        if not (1 <= self.width <= 12 and 1 <= self.height <= 12):
            raise MdpError("pickup grid must be at most 12x12")
        if not self.target:
            raise MdpError("target sequence must be nonempty")
        cells = {(r, c) for r in range(self.height) for c in range(self.width)}
        for w in self.walls:
            if w not in cells:
                raise MdpError(f"wall {w} outside the grid")
        for k, cell in self.objects:
            if cell not in cells or cell in self.walls:
                raise MdpError(f"object {k} at {cell} not on a free cell")
        kinds = [k for k, _ in self.objects]
        for k in self.target:
            if self.target.count(k) > kinds.count(k):
                raise MdpError(f"target needs more {k!r} objects than exist")
        if self.agent_start is not None and (
                self.agent_start in self.walls or self.agent_start not in cells):
            raise MdpError("agent start must be a free cell")


def parse_pickup_config(text: str) -> PickupWorldConfig:
    """ASCII format: grid rows ('#' wall, '.' free, letters = object kinds,
    '@' fixed agent start), then directive lines like 'target: ab'."""
    grid_rows: list[str] = []
    target: list[str] = []
    for line in text.splitlines():
        line = line.rstrip()
        if not line or line.lstrip().startswith(";"):
            continue
        if ":" in line:
            key, _, val = line.partition(":")
            if key.strip() == "target":
                target = list(val.strip())
            else:
                raise MdpError(f"unknown directive {key.strip()!r}")
        else:
            grid_rows.append(line)
    if not grid_rows:
        raise MdpError("config has no grid")
    width = max(len(r) for r in grid_rows)
    height = len(grid_rows)
    walls, objects = set(), []
    start = None
    for r, row in enumerate(grid_rows):
        for c in range(width):
            ch = row[c] if c < len(row) else "#"
            if ch == "#":
                walls.add((r, c))
            elif ch == ".":
                pass
            elif ch == "@":
                start = (r, c)
            elif ch.isalpha():
                objects.append((ch, (r, c)))
            else:
                raise MdpError(f"bad grid character {ch!r}")
    return PickupWorldConfig(width=width, height=height, walls=walls,
                             objects=objects, target=target, agent_start=start)


DEFAULT_PICKUP_CONFIG = """\
........
.#####..
.a...#..
.#.b.#..
.#...#b.
.#####..
.a......
........
target: ab
"""


def build_pickup_world(config: PickupWorldConfig, state_budget: int = 2_000_000):
    """Forward-closure enumeration from the initial states, which take the
    first indices; returns (mdp, p uniform over solvable initial states,
    info)."""
    config.validate()
    H, W = config.height, config.width
    free = [(r, c) for r in range(H) for c in range(W)
            if (r, c) not in config.walls]
    obj_kind = [k for k, _ in config.objects]
    obj_cell = [cell for _, cell in config.objects]
    target = tuple(config.target)

    if config.agent_start is not None:
        starts = [(config.agent_start, ())]
    else:
        starts = [(cell, ()) for cell in free]

    def move(cell, a):
        dr, dc = cliff.DELTAS[a]
        t = (cell[0] + dr, cell[1] + dc)
        if not (0 <= t[0] < H and 0 <= t[1] < W) or t in config.walls:
            return cell
        return t

    GOAL = "goal"

    def transition(state, a):
        pos, picked = state
        if a != "P":
            return (move(pos, a), picked)
        here = [i for i in range(len(config.objects))
                if obj_cell[i] == pos and i not in picked]
        if not here:
            return state  # pickup on an empty cell is a no-op
        i = here[0]
        new_picked = picked + (i,)
        if tuple(obj_kind[j] for j in new_picked) == target:
            return GOAL
        return (pos, new_picked)

    mdp, states = enumerate_closure(starts, GOAL, ACTIONS, transition,
                                    state_budget)
    start_ids = list(range(len(starts)))
    solvable = mdp.solution_lengths.solvable
    solvable_starts = [s for s in start_ids if solvable[s]]
    p = np.zeros(mdp.num_states)
    p[solvable_starts] = 1.0 / len(solvable_starts)
    info = {"states": states, "start_ids": start_ids}
    return mdp, StateDistribution(p), info
