"""Constructive skill augmentation that drives the exploration bound tight.

Given delta > max_s p(s), build K tabular skills so that, per support state
s, floor(K * f(s)) of them send s straight to the goal and the rest map s
back to itself, with f(s) = delta * p(s) / (delta - (1 - delta) * p(s)).
As K grows, the goal-hitting mass rho of the uniform policy converges to p,
making the exploration difficulty approach H[p] - log((1-delta)/delta).

"Send s back to itself" must be realized by base actions: a 2-action round
trip avoiding the goal is used when one exists; otherwise the state is
flagged and the skill keeps it in place by emitting no actions.

No skill passes the goal before its last action (a goal sequence is a
shortest solution, a round trip avoids the goal), so both goal-pass modes
give one table; it is built in the formal ``undefined_is_dead`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mdp import MdpError, StateDistribution, TabularDsmdp
from ..skills import GOAL_PASS_DEAD, AugmentedMdp, Skill, augment
from .incompress import enumerate_shortest_solutions


class DeltaTooSmallError(MdpError):
    pass


@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class TightnessInfo:
    goal_skill_counts: np.ndarray  # floor(K f(s)) per state
    fallback_states: list[int]  # self-loop realized by the empty sequence
    f: np.ndarray


def canonical_shortest_solution(mdp: TabularDsmdp, s: int) -> tuple[int, ...]:
    """Lexicographically first shortest solution; () for the goal."""
    sols = enumerate_shortest_solutions(mdp, [s], cap=1)[0][int(s)]
    if not sols:
        raise MdpError(f"state {s} has no shortest solution")
    return sols[0]


def find_round_trip(mdp: TabularDsmdp, s: int) -> tuple[int, int] | None:
    """Lowest (a, b) with T(T(s,a), b) == s avoiding the goal and dead."""
    for a in range(mdp.num_actions):
        t = int(mdp.successor[s, a])
        if t == mdp.dead or t == mdp.goal:
            continue
        for b in range(mdp.num_actions):
            if int(mdp.successor[t, b]) == s:
                return (a, b)
    return None


def tightness_augmentation(mdp0: TabularDsmdp, p: StateDistribution,
                           delta: float, K: int
                           ) -> tuple[AugmentedMdp, TightnessInfo]:
    p.validate(mdp0)
    pmax = float(p.probs.max())
    if delta <= pmax:
        raise DeltaTooSmallError(
            f"need delta > max_s p(s) = {pmax:g}, got {delta:g}")
    n = mdp0.num_states
    f = np.zeros(n)
    sup = p.support
    f[sup] = delta * p.probs[sup] / (delta - (1.0 - delta) * p.probs[sup])
    counts = np.floor(K * f).astype(np.int64)

    sols, _ = enumerate_shortest_solutions(mdp0, sup, cap=1)
    goal_seq = {s: found[0] for s, found in sols.items()}
    self_seq: dict[int, tuple[int, ...] | None] = {}
    fallback = []
    for s in range(n):
        if s == mdp0.goal:
            continue
        rt = find_round_trip(mdp0, s)
        self_seq[s] = rt
        if rt is None:
            fallback.append(s)

    skills = []
    for j in range(K):
        # the goal and the fallback states get (), a length-0 self-loop
        seqs = [goal_seq[s] if j < counts[s] else self_seq.get(s) or ()
                for s in range(n)]
        skills.append(Skill.from_sequences(seqs, label=f"tight{j}"))
    aug = augment(mdp0, skills, mode=GOAL_PASS_DEAD)
    return aug, TightnessInfo(goal_skill_counts=counts,
                              fallback_states=fallback, f=f)
