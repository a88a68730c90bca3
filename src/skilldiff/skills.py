"""Deterministic skills, macroactions, and skill augmentation of tabular MDPs.

A skill maps states to finite base-action sequences (possibly empty).  A
macroaction is the constant skill with sequence length >= 2; a tabular skill
stores one sequence per state.  Augmenting an MDP appends one action column
per skill.  Both kinds follow one convention, from every non-goal state s:

  * an empty sequence stays at s and consumes no base action;
  * a sequence that runs into a dead transition is dead;
  * a sequence that reaches the goal on its last action lands at the goal;
  * a sequence that reaches the goal before its last action crosses it, and
    the goal-pass mode decides:
      - ``undefined_is_dead`` -- formal convention: the transition is
        undefined, represented as a dead transition;
      - ``success`` -- common HRL convention: the agent stops at the goal
        and consumes only the actions taken up to it.

Otherwise a sequence consumes all of its actions.  The goal row of the
augmented table is dead and consumes nothing: episodes end at the goal."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import MdpError, TabularDsmdp

GOAL_PASS_DEAD = "undefined_is_dead"
GOAL_PASS_SUCCESS = "success"


class SkillError(MdpError):
    pass


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class Skill:
    kind: str  # "macro" | "tabular"
    label: str
    macro: tuple[int, ...] | None = None
    # tabular storage: shared arena with per-state offsets
    offsets: np.ndarray | None = None  # int64 [num_states + 1]
    arena: np.ndarray | None = None  # int32, concatenated sequences

    @classmethod
    def from_macro(cls, seq, label: str | None = None) -> "Skill":
        seq = tuple(int(a) for a in seq)
        if len(seq) < 2:
            raise SkillError("macroactions must have length >= 2")
        return cls(kind="macro", label=label or "+".join(map(str, seq)), macro=seq)

    @classmethod
    def from_sequences(cls, seqs: list[tuple[int, ...]],
                       label: str) -> "Skill":
        offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(s) for s in seqs])
        arena = np.fromiter((a for s in seqs for a in s), dtype=np.int32,
                            count=int(offsets[-1]))
        return cls(kind="tabular", label=label, offsets=offsets, arena=arena)

    def sequence(self, s: int) -> tuple[int, ...]:
        if self.kind == "macro":
            return self.macro
        return tuple(self.arena[self.offsets[s]:self.offsets[s + 1]].tolist())


def macro_from_labels(word: str, base_labels: list[str]) -> Skill:
    """Build a macroaction from a string of single-character action labels."""
    index = {lab: i for i, lab in enumerate(base_labels)}
    try:
        seq = tuple(index[c] for c in word)
    except KeyError as e:
        raise SkillError(f"unknown action label {e} in macro {word!r}")
    return Skill.from_macro(seq, label=word)


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class AugmentedMdp:
    """A base MDP plus a skill multiset, with the augmented table materialized."""

    base: TabularDsmdp
    skills: list[Skill]
    mdp: TabularDsmdp
    goal_pass_mode: str
    skill_lengths: np.ndarray  # int32 [num_states, num_skills], base actions consumed

    @property
    def num_skills(self) -> int:
        return len(self.skills)


def augment(base: TabularDsmdp, skills: list[Skill],
            mode: str = GOAL_PASS_DEAD) -> AugmentedMdp:
    if mode not in (GOAL_PASS_DEAD, GOAL_PASS_SUCCESS):
        raise SkillError(f"unknown goal_pass_mode {mode!r}")
    n, m0 = base.num_states, base.num_actions
    cols = [base.successor]
    lengths = np.zeros((n, len(skills)), dtype=np.int32)
    labels = list(base.action_labels)
    for j, z in enumerate(skills):
        col, lengths[:, j] = _unroll(base, z, mode)
        cols.append(col[:, None])
        labels.append(z.label)
    table = np.concatenate(cols, axis=1) if skills else base.successor.copy()
    mdp = TabularDsmdp(successor=table, goal=base.goal, action_labels=labels,
                       base_action_count=m0)
    return AugmentedMdp(base=base, skills=list(skills), mdp=mdp,
                        goal_pass_mode=mode, skill_lengths=lengths)


def _unroll(base: TabularDsmdp, z: Skill, mode: str):
    """(successor column, base actions consumed) of skill z from every state.

    At position k the rows whose sequence is still running take their k-th
    action: one scalar for a macro, a gather from the arena for a tabular
    skill.  The goal row of the base is all-dead, so a row that crosses the
    goal ends dead unless the HRL convention stops it there.
    """
    n, goal = base.num_states, base.goal
    if z.kind == "macro":
        seq_len = np.full(n, len(z.macro), dtype=np.int64)
        actions = used = np.asarray(z.macro, dtype=np.int64)
    else:
        if len(z.offsets) != n + 1:
            raise SkillError(f"skill {z.label!r} has sequences for "
                             f"{len(z.offsets) - 1} states, the base has {n}")
        seq_len = np.diff(z.offsets)
        actions = z.arena
        used = np.delete(actions, slice(z.offsets[goal], z.offsets[goal + 1]))
    bad = used[(used < 0) | (used >= base.num_actions)]
    if bad.size:
        raise SkillError(f"skill {z.label!r} references base action "
                         f"{bad[0]} out of range")
    seq_len[goal] = 0
    succ = base.successor_padded()
    cur = np.arange(n, dtype=np.int32)
    for k in range(int(seq_len.max(initial=0))):
        rows = np.flatnonzero(seq_len > k)
        a = actions[k] if z.kind == "macro" else actions[z.offsets[rows] + k]
        nxt = succ[cur[rows], a]
        cur[rows] = nxt
        if mode == GOAL_PASS_SUCCESS:
            seq_len[rows[nxt == goal]] = k + 1
    cur[goal] = base.dead
    return cur, seq_len


def behavior_variety(skill: Skill, mdp: TabularDsmdp) -> int:
    """Number of distinct action sequences the skill produces over non-goal states."""
    if skill.kind == "macro":
        return 1
    return len({skill.sequence(s) for s in range(mdp.num_states)
                if s != mdp.goal})


# -- minimum-length rewriting --------------------------------------------

def rewrite_min_length(solution, macros: list[tuple[int, ...]],
                       num_base_actions: int) -> list[int]:
    """Rewrite a base-action solution with macroactions, minimizing tokens.

    Returns augmented action indices (base action a stays a; macro j becomes
    num_base_actions + j).  Among minimum-length rewritings, ties prefer the
    longest token at the earliest position, then the lowest action index, so
    the output is a deterministic canonical form.
    """
    sol = tuple(int(a) for a in solution)
    n = len(sol)
    # backward pass: cost[i] tokens rewrite sol[i:], starting with choice[i]
    cost = [0] * (n + 1)
    choice = [None] * n
    for i in range(n - 1, -1, -1):
        best = (1 + cost[i + 1], -1, sol[i])  # (tokens, -length, token)
        for j, mac in enumerate(macros):
            L = len(mac)
            if L and sol[i:i + L] == mac:
                best = min(best, (1 + cost[i + L], -L, num_base_actions + j))
        cost[i], choice[i] = best[0], (-best[1], best[2])
    out = []
    i = 0
    while i < n:
        length, token = choice[i]
        out.append(token)
        i += length
    return out


def expand_rewriting(tokens, macros: list[tuple[int, ...]],
                     num_base_actions: int) -> list[int]:
    out = []
    for t in tokens:
        if t < num_base_actions:
            out.append(int(t))
        else:
            out.extend(macros[t - num_base_actions])
    return out


# -- random macroaction generators ----------------------------------------

# Per-environment random macroaction laws: geometric length parameter and the
# per-symbol sampling process (either a flat distribution or a two-level
# bucket scheme choosing a direction pair/triple first).
MACRO_LAWS = {
    "cliff_walking": {
        "length_p": 1.0 / 3.0,
        "buckets": [
            (0.4, [("U", 0.3), ("R", 0.7)]),
            (0.3, [("R", 0.7), ("D", 0.3)]),
            (0.1, [("D", 0.7), ("L", 0.3)]),
            (0.2, [("L", 0.3), ("U", 0.7)]),
        ],
    },
    "pickup_world": {
        "length_p": 1.0 / 3.0,
        "buckets": [
            (0.25, [("L", 0.4), ("U", 0.4), ("P", 0.2)]),
            (0.25, [("U", 0.4), ("R", 0.4), ("P", 0.2)]),
            (0.25, [("R", 0.4), ("D", 0.4), ("P", 0.2)]),
            (0.25, [("D", 0.4), ("L", 0.4), ("P", 0.2)]),
        ],
    },
    "n_puzzle": {
        "length_p": 0.5,
        "buckets": [(1.0, [("U", 0.2), ("R", 0.3), ("D", 0.3), ("L", 0.2)])],
    },
    "pocket_cube": {
        "length_p": 0.5,
        "buckets": [(1.0, [("F", 1 / 3), ("R", 1 / 3), ("U", 1 / 3)])],
    },
}

# Curated macroaction sets (named presets).  "lemma"/"top" entries are the
# abstraction-algorithm outputs; v1..v5 are the hand-derived variations.
MACRO_PRESETS = {
    "cliff/lemma": ["URRRRRRRRRRRD"],
    "cliff/v1": ["RR"],
    "cliff/v2": ["RR", "RRRR", "RRRRRRRR"],
    "cliff/v3": ["RRRRRRRRRRR"],
    "cliff/v4": ["UUURRRR", "RRR", "DRDRD"],
    "cliff/v5": ["URRRRRRRRRRR", "RRRRRRRRRRRD"],
    "pickup/lemma": ["PUURRRP", "LL", "UU", "DD"],
    "pickup/v1": ["LL", "UU", "DD"],
    "pickup/v2": ["LL", "UU", "RRR", "DD"],
    "pickup/v3": ["PUU", "RRRP"],
    "pickup/v4": ["PUURRRP"],
    "pickup/v5": ["PUURRRP", "LL", "UU", "RRR", "DD"],
    "puzzle/lemma": ["RD", "LDR"],
    "puzzle/v1": ["RD"],
    "puzzle/v2": ["LDR"],
    "puzzle/v3": ["RD", "DR"],
    "puzzle/v4": ["LDR", "URD"],
    "puzzle/v5": ["RD", "DR", "LDR", "URD"],
    "cube/top": ["FF", "RR", "UU"],
    "cube/v1": ["FF"],
    "cube/v2": ["FF", "FFF"],
    "cube/v3": ["FF", "RR"],
    "cube/v4": ["FF", "FFF", "RR", "RRR"],
    "cube/v5": ["FF", "FFF", "RR", "RRR", "UUU"],
}


@dataclass
class MacroGenSpec:
    env_kind: str
    seed: int
    ks: tuple[int, ...] = (1, 2, 3, 4, 5)
    sets_per_k: int = 5
    max_rejections: int = 10_000


def _sample_macro_word(rng: np.random.Generator, law) -> str:
    length = 1 + int(rng.geometric(law["length_p"]))  # always >= 2
    bucket_probs = [b[0] for b in law["buckets"]]
    out = []
    for _ in range(length):
        b = law["buckets"][rng.choice(len(law["buckets"]), p=bucket_probs)]
        syms = [s for s, _ in b[1]]
        probs = [q for _, q in b[1]]
        out.append(syms[rng.choice(len(syms), p=probs)])
    return "".join(out)


def generate_macro_sets(spec: MacroGenSpec) -> dict[int, list[list[str]]]:
    """Random distinct macroaction sets per the environment's sampling law.

    Returns {k: [set_0, ..., set_{sets_per_k-1}]} with each set a list of k
    distinct macro words.  Deterministic under the spec seed.
    """
    law = MACRO_LAWS[spec.env_kind]
    rng = np.random.default_rng(spec.seed)
    out: dict[int, list[list[str]]] = {}
    for k in spec.ks:
        sets = []
        for _ in range(spec.sets_per_k):
            words: list[str] = []
            rejections = 0
            while len(words) < k:
                w = _sample_macro_word(rng, law)
                if w in words:
                    rejections += 1
                    if rejections > spec.max_rejections:
                        raise SkillError("macro distinctness rejection budget "
                                         "exceeded")
                    continue
                words.append(w)
            sets.append(words)
        out[k] = sets
    return out
