"""Executable checks of the difficulty/incompressibility bounds.

Each claim is evaluated numerically on a concrete augmentation and p, over
the augmentation's own base: the two sides of the inequality are computed,
and the verdict is recorded with a small slack, SLACK.  Every precondition
is decided from the base, never taken from the caller.  Solution
separability is the base's ``solution_separable``, which is exact: no two
states share an (action, solvable successor) pair.  Claim 2's note names
that test ``invertible_transitions``.  One solution length per state is
an edge test, also exact: every solvable state has a single solution length
iff no action leads from a solvable state to a solvable state that is not
one step nearer the goal.  Claims whose preconditions cannot be established
are reported as skipped rather than assumed.

A report lists its claims in this order, each checked only under its
precondition ("separable macro": a separable base and macro skills only;
"strict": at least one skill):

1. ``learn_ratio_merged_ic``: |A0| > 1.  A greedy H[P+] only bounds
   the rhs from below, so a hold needs the rhs at H[p] as well.
2. ``learn_ratio_unmerged_ic``: |A0| > 1, separable macro.
3. ``macros_hurt_learning_when_incompressible``: as 2, strict, and
   1 - IC <= ``incompressibility_threshold(|A0|)``.
4. ``explore_density_lower_bound``: delta > 0.
5. ``density_at_most_one_separable``: separable macro; absent at delta = 0.
6. ``macros_hurt_exploration_near_uniform``: delta > 0, strict separable
   macro, no length-1-solvable state with longer solutions, and
   KL(p || rho) <= delta^2 / (8 (|A0| + 1)^2).
7. ``explore_gap_full_coverage``: strict separable macro, one solution length
   per state, fully covered length classes, p proportional to |Sol| in each.
8. ``learn_ratio_expressivity_bound``: |A0| > 1, strict.
9. ``learn_ratio_min_entropy_bound``: |A0| > 1, strict macro.
10. ``explore_gap_kl_corrected``: strict separable macro, at most
    LENGTH_DP_STATE_CAP states, expansion lengths up to LENGTH_DP_L_MAX
    covering q+ on the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..mdp import BudgetExceededError, StateDistribution, transition_matrix
from ..skills import GOAL_PASS_DEAD, AugmentedMdp, behavior_variety
from .difficulty import (length_dp, p_exploration_difficulty,
                         p_learning_difficulty, per_length_counts,
                         solution_density)
from .incompress import ic_expressive, ic_merged, ic_unmerged
from .solver import solve_q

SLACK = 1e-9
# Expansion-length horizon of the KL-corrected gap check, and the largest
# base MDP it runs on.
LENGTH_DP_L_MAX = 64
LENGTH_DP_STATE_CAP = 10_000


@dataclass
class BoundClaim:
    name: str
    lhs: float | None
    rhs: float | None
    holds: bool | None  # None = inconclusive (bound could not be certified)
    preconditions_met: bool
    notes: str = ""


@dataclass
class BoundsReport:
    claims: list[BoundClaim] = field(default_factory=list)

    def claim(self, name: str) -> BoundClaim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {"claims": [vars(c) for c in self.claims]}


def incompressibility_threshold(num_actions: int) -> float:
    """(1 / (|A0| + 1)) (1 - 1 / log |A0|): macroactions provably raise the
    learning difficulty of a base whose 1 - IC is at most this."""
    return (1.0 / (num_actions + 1)) * (1.0 - 1.0 / math.log(num_actions))


def expansion_length_q(augmented: AugmentedMdp, l_max: int) -> np.ndarray:
    """G[s, l]: probability that a uniformly random augmented token sequence
    solves s with total base-action expansion exactly l, weighting a t-token
    sequence by |A+|^-t.  Macro augmentations only (expansions >= 1)."""
    if not all(z.kind == "macro" for z in augmented.skills):
        raise ValueError("expansion-length DP requires a macro augmentation")
    w = np.array([1] * augmented.base.num_actions
                 + [len(z.macro) for z in augmented.skills])
    ops = [(int(k), transition_matrix(augmented.mdp.successor[:, w == k]))
           for k in np.unique(w)]
    return length_dp(ops, augmented.mdp.goal, l_max,
                     1.0 / augmented.mdp.num_actions)


class _Case:
    """What the claims on one triple share: eager attributes, and cached
    properties for the solves only some claims need."""

    def __init__(self, augmented, p, delta):
        self.mdp0 = mdp0 = augmented.base
        self.aug, self.p, self.delta, self.notes = augmented, p, delta, ""
        if augmented.goal_pass_mode != GOAL_PASS_DEAD:
            self.notes = "warning: augmentation not in undefined_is_dead mode; "
        self.d0 = mdp0.solution_lengths
        p.validate(mdp0)
        self.a0, self.aplus = mdp0.num_actions, augmented.mdp.num_actions
        self.is_macro = all(z.kind == "macro" for z in augmented.skills)
        self.strict = augmented.num_skills >= 1
        self.sep_macro = mdp0.solution_separable and self.is_macro
        self.ratio = (p_learning_difficulty(augmented.mdp, p)
                      / p_learning_difficulty(mdp0, p))

    def skip(self, name: str, why: str) -> BoundClaim:
        return BoundClaim(name, None, None, None, False, self.notes + why)

    def check(self, name, lhs, rhs, holds, notes="") -> BoundClaim:
        return BoundClaim(name, lhs, rhs, holds, True, self.notes + notes)

    def ratio_check(self, name, ic, notes) -> BoundClaim:
        """ratio >= penalty * IC; a failure against a greedy upper bound on
        the minimum entropy is inconclusive, not a violation."""
        rhs = ((self.aplus * math.log(self.a0))
               / (self.a0 * math.log(self.aplus))) * ic.value
        holds = self.ratio >= rhs - SLACK
        if not holds and ic.method == "greedy_upper_bound":
            holds = None
        return self.check(name, self.ratio, rhs, holds, notes)

    @cached_property
    def icu(self):
        return ic_unmerged(self.mdp0, self.p, mode="sup")

    @cached_property
    def q_delta(self):
        return solve_q(self.mdp0, self.delta), solve_q(self.aug.mdp, self.delta)

    @cached_property
    def q_zero(self):
        return solve_q(self.mdp0, 0.0), solve_q(self.aug.mdp, 0.0)

    @cached_property
    def density(self) -> float:
        return solution_density(self.aug.mdp, self.delta, self.q_delta[1])

    @cached_property
    def j_explore(self):
        """(J0, J+) at delta."""
        q0, qp = self.q_delta
        return (p_exploration_difficulty(self.mdp0, self.p, q0),
                p_exploration_difficulty(self.aug.mdp, self.p, qp))

    @cached_property
    def gap_zero(self) -> float:
        """J+ - J0 at delta = 0."""
        q0, qp = self.q_zero
        return (p_exploration_difficulty(self.aug.mdp, self.p, qp)
                - p_exploration_difficulty(self.mdp0, self.p, q0))

    @cached_property
    def longer(self) -> np.ndarray:
        """Per state: an action into a solvable state that is not one step
        nearer the goal, that is, a solution longer than d.  Every solvable
        state has a single solution length iff no state is marked."""
        dt = self.d0.padded()[self.mdp0.successor]
        return ((dt >= 0) & (dt != self.d0.d[:, None] - 1)).any(axis=1)

    @cached_property
    def counts(self):
        """The one per-length count table of both gap checks."""
        l_kl = (LENGTH_DP_L_MAX
                if self.mdp0.num_states <= LENGTH_DP_STATE_CAP else 0)
        return per_length_counts(self.mdp0, max(int(self.d0.d.max()), l_kl))


def _kl(w: np.ndarray, ref: np.ndarray) -> float:
    """sum w log(w / ref), infinite where ref vanishes."""
    if np.any(ref <= 0.0):
        return math.inf
    return float(np.dot(w, np.log(w / ref)))


def _learn_ratio_merged_ic(case):
    name = "learn_ratio_merged_ic"
    if case.a0 <= 1:
        return case.skip(name, "needs |A0| > 1")
    icm = ic_merged(case.aug, case.p, mode="sup")
    claim = case.ratio_check(name, icm, f"H[P+] method={icm.method}")
    # a greedy H[P+] is a lower end, so its rhs is too; merging only coarsens
    # p, so H[p] is an upper end, and IC at H[p] is the unmerged IC
    if claim.holds and icm.method == "greedy_lower_bound":
        claim.holds = case.ratio_check(name, case.icu, "").holds or None
    return claim


def _learn_ratio_unmerged_ic(case):
    name = "learn_ratio_unmerged_ic"
    if not (case.a0 > 1 and case.sep_macro):
        return case.skip(
            name, "needs separable base + macro augmentation + |A0|>1")
    return case.ratio_check(name, case.icu,
                            "separability: invertible_transitions")


def _macros_hurt_learning(case):
    name = "macros_hurt_learning_when_incompressible"
    if not (case.a0 > 1 and case.sep_macro):
        return case.skip(
            name, "needs separable base + macro augmentation + |A0|>1")
    slack_ic = 1.0 - case.icu.value
    threshold = incompressibility_threshold(case.a0)
    if not (case.strict and slack_ic <= threshold):
        return case.skip(name, "incompressibility condition not met")
    return case.check(name, case.ratio, 1.0, case.ratio > 1.0,
                      f"1-IC={slack_ic:.3e} <= {threshold:.3e}")


def _explore_density_lower_bound(case):
    name = "explore_density_lower_bound"
    if case.delta <= 0:
        return case.skip(name, "needs delta > 0")
    jep = case.j_explore[1]
    rhs = case.p.entropy() - math.log(
        (1.0 - case.delta) / case.delta * case.density)
    return case.check(name, jep, rhs, jep >= rhs - SLACK,
                      f"D={case.density:.6g}")


def _density_at_most_one(case):
    name = "density_at_most_one_separable"
    if case.delta <= 0:
        return None
    if not case.sep_macro:
        return replace(case.skip(name, "not a separable macro augmentation"),
                       lhs=case.density)
    return case.check(name, case.density, 1.0, case.density <= 1.0 + SLACK)


def _macros_hurt_exploration(case):
    name = "macros_hurt_exploration_near_uniform"
    if not (case.delta > 0 and case.sep_macro and case.strict):
        return case.skip(name, "needs delta>0, separable base, strict macro aug")
    mdp0, p, delta = case.mdp0, case.p, case.delta
    if np.any(case.longer[case.d0.d == 1]):
        return case.skip(name, "a length-1-solvable state has longer solutions")
    rho = delta / (1.0 - delta) * case.q_delta[0].q
    rho[mdp0.goal] = 0.0
    kl = _kl(p.probs[p.support], rho[p.support])
    threshold = delta**2 / (8.0 * (mdp0.num_actions + 1) ** 2)
    if kl > threshold:
        return case.skip(name, f"KL(p||rho)={kl:.3e} > {threshold:.3e}")
    je0, jep = case.j_explore
    return case.check(name, jep, je0, jep > je0,
                      f"KL(p||rho)={kl:.3e} <= {threshold:.3e}")


def _explore_gap_full_coverage(case):
    name = "explore_gap_full_coverage"
    if not (case.sep_macro and case.strict):
        return case.skip(
            name, "needs separable base and a strict macro augmentation")
    if np.any(case.longer):
        return case.skip(name, "states with solutions of several lengths")
    try:
        counts = case.counts
    except BudgetExceededError:
        return case.skip(name, "per-length counts unavailable within budget")
    d = case.d0.d
    # every action sequence solves some state (checked per length up to the
    # shortest length not fully covered); d > 0 on solvable non-goal states
    lengths_present = np.unique(d[d > 0]).tolist()
    if not all(abs(counts.coverage(l) - 1.0) <= 1e-9 for l in lengths_present):
        return case.skip(name,
                         "length classes are not fully covered by solutions")
    # p proportional to solution counts within a length class
    for l in lengths_present:
        cls = np.flatnonzero(d == l)
        ratios = case.p.probs[cls] / counts.counts[cls, l]
        if ratios.size and (ratios.max() - ratios.min()) > 1e-9 * max(
                ratios.max(), 1e-300):
            return case.skip(
                name, f"p not proportional to |Sol| in length class {l}")
    x = case.a0 / case.aplus
    rhs = x * (1.0 - x)
    return case.check(name, case.gap_zero, rhs, case.gap_zero >= rhs - SLACK)


def _learn_ratio_expressivity_bound(case):
    name = "learn_ratio_expressivity_bound"
    if not (case.a0 > 1 and case.strict):
        return case.skip(name, "needs skills and |A0|>1")
    E = max(behavior_variety(z, case.mdp0) for z in case.aug.skills)
    ice = ic_expressive(case.mdp0, case.p, float(E), mode="sup")
    return case.ratio_check(name, ice, f"E={E} method={ice.method}")


def _learn_ratio_min_entropy_bound(case):
    name = "learn_ratio_min_entropy_bound"
    if not (case.a0 > 1 and case.is_macro and case.strict):
        return case.skip(name, "needs strict macro aug")
    ice1 = ic_expressive(case.mdp0, case.p, 1.0, mode="sup")
    return case.ratio_check(name, ice1, f"method={ice1.method}")


def _explore_gap_kl_corrected(case):
    name = "explore_gap_kl_corrected"
    if not (case.sep_macro and case.strict):
        return case.skip(
            name, "needs separable base and a strict macro augmentation")
    if case.mdp0.num_states > LENGTH_DP_STATE_CAP:
        return case.skip(name, f"gated to at most {LENGTH_DP_STATE_CAP} states")
    l_max = LENGTH_DP_L_MAX
    G = expansion_length_q(case.aug, l_max)
    qp = case.q_zero[1]
    sup = case.p.support
    coverage = G[sup].sum(axis=1) / qp.q[sup]
    if np.any(np.abs(coverage - 1.0) > 1e-9):
        return case.skip(name, f"expansion tail not covered by l_max={l_max}")
    # p-tilde(s, l) = p(s) G(s, l) / q+(s); lambda(l) its length marginal
    pt = case.p.probs[sup, None] * G[sup] / qp.q[sup, None]
    lam = pt.sum(axis=0)
    q0t = case.counts.counts[sup, :l_max + 1] * (
        float(case.a0) ** -np.arange(l_max + 1))
    mask = pt > 0.0
    kl = _kl(pt[mask], np.broadcast_to(lam, pt.shape)[mask] * q0t[mask])
    x = case.a0 / case.aplus
    rhs = x * (1.0 - x) - kl
    return case.check(name, case.gap_zero, rhs, case.gap_zero >= rhs - SLACK,
                      f"KL={kl:.3e}")


_CLAIMS = (_learn_ratio_merged_ic, _learn_ratio_unmerged_ic,
           _macros_hurt_learning, _explore_density_lower_bound,
           _density_at_most_one, _macros_hurt_exploration,
           _explore_gap_full_coverage, _learn_ratio_expressivity_bound,
           _learn_ratio_min_entropy_bound, _explore_gap_kl_corrected)


def bounds_report(augmented: AugmentedMdp, p: StateDistribution,
                  delta: float) -> BoundsReport:
    """Evaluate every applicable theorem bound on ``augmented``, its base
    and p; the base's preconditions are decided from the base itself.

    The augmented MDP should be materialized with the formal
    ``undefined_is_dead`` convention; the report notes a mismatch otherwise.
    """
    case = _Case(augmented, p, delta)
    return BoundsReport([c for claim in _CLAIMS
                         if (c := claim(case)) is not None])
