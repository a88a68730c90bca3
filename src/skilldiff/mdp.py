"""Finite deterministic sparse-reward MDPs and the graph algorithms on them.

A tabular MDP here is a dense successor table over states 0..n-1 with a single
goal state and an implicit absorbing dead pseudo-state.  The dead state is
*not* part of the state array; internally it is addressed as index
``num_states``.  Sums over successors go through ``transition_matrix``.
``DIRECT_MAX_STATES`` splits small MDPs from large: up to it the operator
is dense, the BFS pulls through the successor table and ``solver`` starts q
from a direct solve; above it the operator is CSR and the BFS runs over the
reverse graph, the operator's transpose built by a counting sort.  Each
level of that BFS marks the predecessors of the frontier by frontier ranges
and reads the next frontier back by state ranges (``_ranges.split``); a
state is marked with the level alone and the ranges are concatenated in
order, so d and the frontiers do not depend on the ranges.
Walks that may sit in the dead state gather from ``successor_padded``.
An MDP's successor table is a read-only view of the array it was built
from, so the MDP is fixed once built, and its shortest-solution lengths d
are computed once, on first use of ``TabularDsmdp.solution_lengths``; every
metric reads them from there, and reads solution separability from
``TabularDsmdp.solution_separable`` in the same way.  A pickled or copied
MDP is rebuilt through the constructor, so it holds the same invariants.
Grid worlds given as a transition function on their own states are
numbered and tabulated by ``enumerate_closure``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np
from scipy.sparse import csr_matrix

from ._ranges import split

UNSOLVABLE = -1
DEAD_SENTINEL_U32 = 2**32 - 1

_BIN_MAGIC = b"DSMDP\x00"


class MdpError(Exception):
    pass


class BudgetExceededError(MdpError):
    pass


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class TabularDsmdp:
    """Explicit finite deterministic sparse-reward MDP.

    successor[s, a] is the state reached from s under action a, or ``dead``
    (== num_states) for transitions into the absorbing dead state.  The goal
    row is stored as all-dead but is semantically undefined: episodes end at
    the goal and no algorithm may read transitions out of it.

    Actions form a multiset: duplicate labels are allowed and num_actions
    always counts multiplicity.  base_action_count records |A0| when this MDP
    is a skill augmentation (== num_actions for base environments).
    """

    # int32 [num_states, num_actions]; a read-only view of the array passed
    # in, which stays writable
    successor: np.ndarray
    goal: int
    action_labels: list[str]
    base_action_count: int = 0

    def __post_init__(self):
        self.successor = np.ascontiguousarray(self.successor,
                                              dtype=np.int32).view()
        self.successor.flags.writeable = False
        if self.base_action_count == 0:
            self.base_action_count = self.num_actions
        self.validate()

    def __reduce__(self):  # pickle and deepcopy rebuild through __init__
        return (TabularDsmdp, (self.successor, self.goal, self.action_labels,
                               self.base_action_count))

    @property
    def num_states(self) -> int:
        return self.successor.shape[0]

    @property
    def num_actions(self) -> int:
        return self.successor.shape[1]

    @property
    def dead(self) -> int:
        """Index used for the dead pseudo-state (one past the state range)."""
        return self.num_states

    def validate(self):
        n, m = self.successor.shape
        if m < 1:
            raise MdpError("need at least one action")
        if not (0 <= self.goal < n):
            raise MdpError(f"goal index {self.goal} out of range")
        if len(self.action_labels) != m:
            raise MdpError("action_labels length must equal num_actions")
        if not (1 <= self.base_action_count <= m):
            raise MdpError("base_action_count out of range")
        lo, hi = int(self.successor.min()), int(self.successor.max())
        if lo < 0 or hi > n:
            raise MdpError("successor entries must lie in [0, num_states]")
        if not np.all(self.successor[self.goal] == self.dead):
            raise MdpError("goal row must be stored as all-dead")

    @cached_property
    def solution_lengths(self) -> "SolutionLengthTable":
        """Shortest-solution lengths d, from one BFS on first access; the
        table is read-only, like ``successor``."""
        table = shortest_solution_lengths(self)
        table.d.flags.writeable = False
        return table

    @cached_property
    def solution_separable(self) -> bool:
        """True iff no action sequence solves two distinct states.

        Call distinct non-goal states x, y a collision when one action
        takes both to a state z that is solvable or the goal.  If s != s'
        share a solution, their walks under it first meet one step after a
        collision; if x, y collide under a, then a followed by a shortest
        solution of z solves both.  So the MDP is separable exactly when no
        (action, successor) pair with a solvable successor is shared.  The
        dead index counts as unsolvable, which also drops the all-dead goal
        row.
        """
        solvable = np.append(self.solution_lengths.solvable, False)
        keep = solvable[self.successor]
        for a in range(self.num_actions):
            tgts = np.sort(self.successor[keep[:, a], a])
            if np.any(tgts[1:] == tgts[:-1]):
                return False
        return True

    def successor_padded(self) -> np.ndarray:
        """Successor table plus a dead row, so gathers never go out of range."""
        pad = np.full((1, self.num_actions), self.dead, dtype=np.int32)
        return np.concatenate([self.successor, pad], axis=0)

    # -- serialization ----------------------------------------------------

    def save_binary(self, path):
        """Header + labels blob + row-major uint32 table (dead = 2^32-1)."""
        labels = json.dumps({"action_labels": self.action_labels}).encode()
        table = self.successor.astype(np.uint32)
        table[self.successor == self.dead] = DEAD_SENTINEL_U32
        with open(path, "wb") as f:
            f.write(_BIN_MAGIC)
            f.write(struct.pack("<5I", 1, self.num_states, self.num_actions,
                                self.goal, self.base_action_count))
            f.write(struct.pack("<I", len(labels)))
            f.write(labels)
            f.write(table.tobytes())

    @classmethod
    def load_binary(cls, path) -> "TabularDsmdp":
        with open(path, "rb") as f:
            if f.read(6) != _BIN_MAGIC:
                raise MdpError("bad magic")
            version, n, m, goal, base = struct.unpack(
                "<5I", _read_exact(f, 20, "header"))
            if version != 1:
                raise MdpError(f"unsupported version {version}")
            (nlabels,) = struct.unpack("<I", _read_exact(f, 4, "header"))
            blob = _read_exact(f, nlabels, "labels")
            try:
                labels = json.loads(blob)["action_labels"]
            except (ValueError, KeyError, TypeError) as e:
                raise MdpError(f"corrupt label blob: {e!r}") from e
            raw = np.frombuffer(_read_exact(f, 4 * n * m, "successor table"),
                                dtype=np.uint32).reshape(n, m)
        succ = raw.astype(np.int64)
        succ[raw == DEAD_SENTINEL_U32] = n
        return cls(successor=succ.astype(np.int32), goal=goal,
                   action_labels=labels, base_action_count=base)


def _read_exact(f, size: int, what: str) -> bytes:
    buf = f.read(size)
    if len(buf) != size:
        raise MdpError(f"truncated file: {what} needs {size} bytes, "
                       f"{len(buf)} left")
    return buf


def shannon_entropy(mass) -> float:
    """-sum m log m in nats over the positive entries of mass."""
    m = np.asarray(mass, dtype=np.float64)
    m = m[m > 0.0]
    return float(0.0 - np.dot(m, np.log(m)))  # +0.0, not -0.0, at a point mass


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class StateDistribution:
    """Importance distribution p over solvable states, aligned to state indices."""

    probs: np.ndarray  # float64 [num_states]

    def __post_init__(self):
        self.probs = np.ascontiguousarray(self.probs, dtype=np.float64)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0.0)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs > 0.0))

    def entropy(self) -> float:
        """Shannon entropy of p in nats."""
        return shannon_entropy(self.probs)

    def validate(self, mdp: TabularDsmdp, d: np.ndarray | None = None):
        """Raise MdpError unless p is a distribution over solvable states
        other than the goal; d defaults to ``mdp.solution_lengths.d``."""
        if self.probs.shape != (mdp.num_states,):
            raise MdpError("distribution length must equal num_states")
        if np.any(self.probs < 0.0):
            raise MdpError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise MdpError(f"probabilities sum to {self.probs.sum()!r}, not 1")
        if self.probs[mdp.goal] > 0.0:
            raise MdpError("no weight allowed on the goal")
        if d is None:
            d = mdp.solution_lengths.d
        if np.any(d[self.support] == UNSOLVABLE):
            raise MdpError("support contains an unsolvable state")


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class SolutionLengthTable:
    """Shortest-solution lengths; UNSOLVABLE (-1) marks unreachable states."""

    d: np.ndarray  # int32 [num_states], d[goal] == 0

    @property
    def solvable(self) -> np.ndarray:
        return self.d != UNSOLVABLE

    def padded(self) -> np.ndarray:
        """d plus a trailing UNSOLVABLE entry for the dead pseudo-state."""
        return np.concatenate([self.d, np.array([UNSOLVABLE], dtype=np.int32)])

    def expected(self, p: StateDistribution) -> float:
        sup = p.support
        if np.any(self.d[sup] == UNSOLVABLE):
            raise MdpError("support contains an unsolvable state")
        return float(np.dot(p.probs[sup], self.d[sup]))


def enumerate_closure(starts, goal, actions: list[str], step,
                      state_budget: int) -> tuple[TabularDsmdp, list]:
    """The MDP of the states reachable from ``starts`` under
    ``step(state, action)``, and its states in index order.

    States are numbered in discovery order, starts first, and ``step`` is
    called once per (state, action) of every state but the goal, which is
    never expanded.  Raises ``BudgetExceededError`` once more than
    ``state_budget`` states are found and ``MdpError`` when no start
    reaches ``goal``.
    """
    index: dict = {}
    states: list = []

    def intern(state) -> int:
        i = index.get(state)
        if i is None:
            i = index[state] = len(states)
            states.append(state)
            if len(states) > state_budget:
                raise BudgetExceededError(
                    f"forward closure exceeds the state budget {state_budget}")
        return i

    for state in starts:
        intern(state)
    rows = [None if state == goal else [intern(step(state, a)) for a in actions]
            for state in states]
    if goal not in index:
        raise MdpError("no start reaches the goal")
    n = len(states)
    rows[index[goal]] = [n] * len(actions)
    mdp = TabularDsmdp(successor=np.array(rows, dtype=np.int32),
                       goal=index[goal], action_labels=list(actions))
    return mdp, states


# Largest MDP with a dense operator, a pull BFS and a direct q start.
DIRECT_MAX_STATES = 200


def transition_matrix(successor: np.ndarray) -> np.ndarray | csr_matrix:
    """Operator P of a successor table whose dead index is its row count.

    P[s, t] counts the actions taking s to t, so ``P @ x`` adds x over each
    state's live successors; dead entries are dropped and the all-dead goal
    row is empty.  Up to ``DIRECT_MAX_STATES`` rows P is a dense array from
    one bincount (dead entries fill an extra column that is cut off), above
    it a CSR matrix.  On 3-action permutation tables (2-vCPU Xeon) a product
    takes 8.5 us dense vs 9.0 us CSR and a build 62 vs 59 us at 200 states;
    at 300, 19.5 vs 9.4 us and 757 vs 69 us.
    """
    n = successor.shape[0]
    if n > DIRECT_MAX_STATES:
        return _csr_transition_matrix(successor)
    flat = successor + np.arange(0, n * (n + 1), n + 1)[:, None]
    counts = np.bincount(flat.ravel(), minlength=n * (n + 1))
    return counts.reshape(n, n + 1)[:, :n].astype(np.float64)


def _csr_transition_matrix(successor: np.ndarray) -> csr_matrix:
    """``transition_matrix`` as CSR at any size, entries in action order."""
    n = successor.shape[0]
    live = successor != n
    indices = successor[live]
    return csr_matrix((np.ones(len(indices)), indices, _row_pointers(live)),
                      shape=(n, n))


def _row_pointers(live: np.ndarray) -> np.ndarray:
    """int32 CSR row pointers of the True entries of a (state, action)
    mask, counted one action column at a time (a sum over the short axis
    runs several times slower)."""
    indptr = np.zeros(live.shape[0] + 1, dtype=np.int32)
    counts = indptr[1:]
    for column in live.T:
        counts += column
    np.cumsum(counts, out=counts)
    return indptr


class ReverseGraph:
    """Predecessor adjacency (state -> predecessors) in CSR form."""

    def __init__(self, indptr: np.ndarray, preds: np.ndarray):
        self.indptr = indptr
        self.preds = preds

    @property
    def num_edges(self) -> int:
        return len(self.preds)


def build_reverse_graph(mdp: TabularDsmdp) -> ReverseGraph:
    """Invert the successor table.  Dead transitions and the goal row are skipped.

    The reverse graph is the transpose of the CSR operator with 1-byte
    entries; ``tocsc`` transposes by a counting sort, which keeps each
    target's predecessors in (state, action) order.
    """
    succ, n = mdp.successor, mdp.num_states
    live = succ != mdp.dead
    targets = succ[live]
    R = csr_matrix((np.ones(len(targets), dtype=np.uint8), targets,
                    _row_pointers(live)), shape=(n, n)).tocsc()
    return ReverseGraph(R.indptr.astype(np.int64),
                        R.indices.astype(np.int32, copy=False))


def shortest_solution_lengths(
    mdp: TabularDsmdp, rev: ReverseGraph | None = None
) -> SolutionLengthTable:
    """BFS from the goal: ``pull_solution_lengths`` up to
    ``DIRECT_MAX_STATES`` states, where ``rev`` is not read.  Above, each
    level marks the unreached predecessors of the frontier in ``rev``, by
    frontier ranges; the next frontier is read back from the marks by state
    ranges, concatenated in order, so it comes out sorted."""
    if mdp.num_states <= DIRECT_MAX_STATES:
        return pull_solution_lengths(mdp.successor, mdp.goal)
    if rev is None:
        rev = build_reverse_graph(mdp)
    d = np.full(mdp.num_states, UNSOLVABLE, dtype=np.int32)
    d[mdp.goal] = 0
    frontier = np.array([mdp.goal], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1

        def mark(lo, hi):  # ranges sharing a predecessor both write level
            preds = _gather_ragged(rev, frontier[lo:hi])
            d[preds[d[preds] == UNSOLVABLE]] = level
        split(mark, len(frontier))
        parts = {}

        def read_back(lo, hi):
            parts[lo] = lo + np.flatnonzero(d[lo:hi] == level)
        split(read_back, mdp.num_states)
        frontier = np.concatenate([parts[lo] for lo in sorted(parts)])
    return SolutionLengthTable(d=d)


def pull_solution_lengths(successor: np.ndarray,
                          goal: int) -> SolutionLengthTable:
    """``shortest_solution_lengths`` of a raw successor table, by pulling:
    level l is the unreached states with a successor at level l - 1.  A
    level costs O(n |A|), so large MDPs take the reverse-graph BFS."""
    n = successor.shape[0]
    d = np.full(n, UNSOLVABLE, dtype=np.int32)
    d[goal] = 0
    frontier = np.arange(n + 1) == goal  # the dead state stays False
    for level in count(1):
        fresh = frontier[successor].any(axis=1) & (d == UNSOLVABLE)
        if not fresh.any():
            return SolutionLengthTable(d=d)
        d[fresh] = level
        frontier[:n] = fresh


def _gather_ragged(rev: ReverseGraph, targets: np.ndarray) -> np.ndarray:
    """Concatenate rev.preds CSR segments for all targets, vectorized."""
    starts = rev.indptr[targets]
    counts = rev.indptr[targets + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    # entry k of the output is entry k - (ends - counts)[i] of segment i
    ends = np.cumsum(counts)
    return rev.preds[np.repeat(starts - ends + counts, counts)
                     + np.arange(total)]
