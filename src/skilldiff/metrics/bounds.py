"""Executable checks of the difficulty/incompressibility bounds.

Each claim is evaluated numerically on a concrete (base, augmentation, p)
triple: preconditions are verified from the MDP itself where possible, the
two sides of the inequality are computed, and the verdict is recorded with a
small slack, SLACK.  Claims whose preconditions cannot be established are
reported as skipped rather than assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..mdp import (BudgetExceededError, StateDistribution, TabularDsmdp,
                   check_invertible_transitions,
                   check_solution_separable_bruteforce,
                   shortest_solution_lengths)
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
# Longest action sequence, and most sequences, the brute-force separability
# search enumerates.
SEPARABILITY_MAX_LEN = 8
SEPARABILITY_BUDGET = 60_000


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

    @property
    def violations(self) -> list[BoundClaim]:
        return [c for c in self.claims if c.holds is False]

    def claim(self, name: str) -> BoundClaim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {"claims": [vars(c) for c in self.claims]}


def determine_separability(mdp: TabularDsmdp):
    """(verdict, how): True when provable (invertible transitions), False on a
    brute-force counterexample, None when neither within budget."""
    if check_invertible_transitions(mdp):
        return True, "invertible_transitions"
    depth = SEPARABILITY_MAX_LEN
    while depth > 0 and mdp.num_actions**depth > SEPARABILITY_BUDGET:
        depth -= 1
    if depth >= 1:
        verdict = check_solution_separable_bruteforce(
            mdp, depth, budget=SEPARABILITY_BUDGET + 1)
        if not verdict.separable:
            return False, f"violation_at_len_{verdict.checked_len}"
        return None, f"separable_up_to_{depth}"
    return None, "unverified"


def _penalty(a0: int, aplus: int) -> float:
    return (aplus * math.log(a0)) / (a0 * math.log(aplus))


def bounds_report(mdp0: TabularDsmdp, augmented: AugmentedMdp,
                  p: StateDistribution, delta: float, *,
                  separable: bool | None = None,
                  uniform_length_solutions: bool | None = None
                  ) -> BoundsReport:
    """Evaluate every applicable theorem bound on one augmentation triple.

    The augmented MDP should be materialized with the formal
    ``undefined_is_dead`` convention; the report notes a mismatch otherwise.
    """
    rep = BoundsReport()
    notes_common = ""
    if augmented.goal_pass_mode != GOAL_PASS_DEAD:
        notes_common = "warning: augmentation not in undefined_is_dead mode; "

    d0 = shortest_solution_lengths(mdp0)
    dplus = shortest_solution_lengths(augmented.mdp)
    p.validate(mdp0, d0.d)
    a0, aplus = mdp0.num_actions, augmented.mdp.num_actions
    is_macro = all(z.kind == "macro" for z in augmented.skills)
    strict = augmented.num_skills >= 1

    if separable is None:
        separable, sep_how = determine_separability(mdp0)
    else:
        sep_how = "caller"

    jl0 = p_learning_difficulty(mdp0, p, d0)
    jlp = p_learning_difficulty(augmented.mdp, p, dplus)
    ratio = jlp / jl0

    # ---- learning-difficulty ratio vs merged incompressibility
    if a0 > 1:
        icm = ic_merged(mdp0, augmented, p, mode="sup", d0=d0, d_aug=dplus)
        rhs = _penalty(a0, aplus) * icm.value
        rep.claims.append(BoundClaim(
            "learn_ratio_merged_ic", ratio, rhs,
            ratio >= rhs - SLACK, True,
            notes_common + f"H[P+] method={icm.method}"))
    else:
        rep.claims.append(BoundClaim(
            "learn_ratio_merged_ic", None, None, None, False,
            notes_common + "needs |A0| > 1"))

    # ---- same ratio vs unmerged incompressibility (separable base, macros)
    if a0 > 1 and is_macro and separable:
        icu = ic_unmerged(mdp0, p, mode="sup", d=d0)
        rhs = _penalty(a0, aplus) * icu.value
        rep.claims.append(BoundClaim(
            "learn_ratio_unmerged_ic", ratio, rhs,
            ratio >= rhs - SLACK, True,
            notes_common + f"separability: {sep_how}"))
        # ---- highly incompressible bases always get worse under macros
        cond_rhs = (1.0 / (a0 + 1)) * (1.0 - 1.0 / math.log(a0))
        if strict and 1.0 - icu.value <= cond_rhs:
            rep.claims.append(BoundClaim(
                "macros_hurt_learning_when_incompressible", ratio, 1.0,
                ratio > 1.0, True,
                notes_common + f"1-IC={1.0 - icu.value:.3e} <= {cond_rhs:.3e}"))
        else:
            rep.claims.append(BoundClaim(
                "macros_hurt_learning_when_incompressible", None, None, None, False,
                notes_common + "incompressibility condition not met"))
    else:
        why = "needs separable base + macro augmentation + |A0|>1"
        rep.claims.append(BoundClaim("learn_ratio_unmerged_ic",
                                     None, None, None, False,
                                     notes_common + why))
        rep.claims.append(BoundClaim("macros_hurt_learning_when_incompressible",
                                     None, None, None, False,
                                     notes_common + why))

    # ---- Exploration lower bound via solution density (needs delta > 0)
    q0 = je0 = jep = None
    if delta > 0:
        q0 = solve_q(mdp0, delta)
        qp = solve_q(augmented.mdp, delta)
        je0 = p_exploration_difficulty(mdp0, p, q0)
        jep = p_exploration_difficulty(augmented.mdp, p, qp)
        density = solution_density(augmented.mdp, delta, qp)
        rhs = p.entropy() - math.log((1.0 - delta) / delta * density)
        rep.claims.append(BoundClaim(
            "explore_density_lower_bound", jep, rhs,
            jep >= rhs - SLACK, True, notes_common + f"D={density:.6g}"))
        if separable and is_macro:
            rep.claims.append(BoundClaim(
                "density_at_most_one_separable", density, 1.0,
                density <= 1.0 + SLACK, True, notes_common))
        else:
            rep.claims.append(BoundClaim(
                "density_at_most_one_separable", density, None, None, False,
                notes_common + "not a separable macro augmentation"))
    else:
        rep.claims.append(BoundClaim("explore_density_lower_bound",
                                     None, None, None, False,
                                     notes_common + "needs delta > 0"))

    # ---- Macroactions always hurt exploration when p is close to rho
    _check_near_uniform_exploration(rep, mdp0, augmented, p, delta, d0,
                                    separable, is_macro, strict,
                                    notes_common, q0, je0, jep)

    # (q0, q+) at delta = 0 for the two gap checks, solved on first use
    q_at_zero = functools.cache(lambda: (solve_q(mdp0, 0.0),
                                         solve_q(augmented.mdp, 0.0)))

    # one per-length count table for both gap checks, built on first use: the
    # full-coverage check reads lengths up to d_max + 2, the KL check (only up
    # to LENGTH_DP_STATE_CAP states) up to LENGTH_DP_L_MAX
    l_full = int(d0.d.max()) + 2
    l_kl = LENGTH_DP_L_MAX if mdp0.num_states <= LENGTH_DP_STATE_CAP else 0
    count_table = functools.cache(
        lambda: per_length_counts(mdp0, max(l_full, l_kl)))

    # ---- Exploration gap bound in fully-covered uniform-solution MDPs
    _check_full_coverage_gap(rep, mdp0, augmented, p, d0, count_table, l_full,
                             separable, is_macro, strict,
                             uniform_length_solutions, notes_common,
                             q_at_zero)

    # ---- Expressivity-aware learning bound
    if a0 > 1 and augmented.num_skills >= 1:
        E = max(behavior_variety(z, mdp0) for z in augmented.skills)
        ice = ic_expressive(mdp0, p, float(E), mode="sup",
                            separable=bool(separable), d=d0)
        rhs = _penalty(a0, aplus) * ice.value
        exact = ice.method in ("separable_exact", "exhaustive_exact")
        holds = ratio >= rhs - SLACK
        if not exact and not holds:
            holds = None  # overestimated minimum entropy: inconclusive
        rep.claims.append(BoundClaim(
            "learn_ratio_expressivity_bound", ratio, rhs, holds, True,
            notes_common + f"E={E} method={ice.method}"))
    else:
        rep.claims.append(BoundClaim("learn_ratio_expressivity_bound",
                                     None, None, None, False,
                                     notes_common + "needs skills and |A0|>1"))

    # ---- ratio bound without solution separability (min-entropy numerator)
    if a0 > 1 and is_macro and strict:
        ice1 = ic_expressive(mdp0, p, 1.0, mode="sup",
                             separable=bool(separable), d=d0)
        rhs = _penalty(a0, aplus) * ice1.value
        exact = ice1.method in ("separable_exact", "exhaustive_exact")
        holds = ratio >= rhs - SLACK
        if not exact and not holds:
            holds = None
        rep.claims.append(BoundClaim(
            "learn_ratio_min_entropy_bound", ratio, rhs, holds, True,
            notes_common + f"method={ice1.method}"))
    else:
        rep.claims.append(BoundClaim("learn_ratio_min_entropy_bound",
                                     None, None, None, False,
                                     notes_common + "needs strict macro aug"))

    # ---- Length-resolved exploration gap with the KL correction
    _check_kl_corrected_gap(rep, mdp0, augmented, p, count_table, separable,
                            is_macro, strict, notes_common, q_at_zero)
    return rep


def _check_near_uniform_exploration(rep, mdp0, augmented, p, delta, d0,
                                    separable, is_macro, strict, notes, q0,
                                    je0, jep):
    name = "macros_hurt_exploration_near_uniform"
    if not (delta > 0 and separable and is_macro and strict):
        rep.claims.append(BoundClaim(
            name, None, None, None, False,
            notes + "needs delta>0, separable base, strict macro aug"))
        return
    # states with a length-1 solution may have no other solutions
    solvable_pad = np.concatenate([d0.solvable, [False]])
    has_len1 = (mdp0.successor == mdp0.goal).any(axis=1)
    has_len1[mdp0.goal] = False
    longer = (solvable_pad[mdp0.successor]
              & (mdp0.successor != mdp0.goal)).any(axis=1)
    if np.any(has_len1 & longer):
        rep.claims.append(BoundClaim(
            name, None, None, None, False,
            notes + "a length-1-solvable state has longer solutions"))
        return
    rho = delta / (1.0 - delta) * q0.q
    rho[mdp0.goal] = 0.0
    sup = p.support
    if np.any(rho[sup] <= 0.0):
        kl = math.inf
    else:
        kl = float(np.dot(p.probs[sup],
                          np.log(p.probs[sup] / rho[sup])))
    threshold = delta**2 / (8.0 * (mdp0.num_actions + 1) ** 2)
    if kl > threshold:
        rep.claims.append(BoundClaim(
            name, None, None, None, False,
            notes + f"KL(p||rho)={kl:.3e} > {threshold:.3e}"))
        return
    rep.claims.append(BoundClaim(
        name, jep, je0, jep > je0, True,
        notes + f"KL(p||rho)={kl:.3e} <= {threshold:.3e}"))


def _check_full_coverage_gap(rep, mdp0, augmented, p, d0, count_table, l_max,
                             separable, is_macro, strict, uniform_lengths,
                             notes, q_at_zero):
    name = "explore_gap_full_coverage"
    pre_fail = None
    if not (separable and is_macro and strict):
        pre_fail = "needs separable base and a strict macro augmentation"
    else:
        try:
            counts = count_table()
        except BudgetExceededError:
            pre_fail = "per-length counts unavailable within budget"
    if pre_fail is None:
        solvable = d0.solvable.copy()
        solvable[mdp0.goal] = False
        cmat = counts.counts[:, 1:l_max + 1]
        if uniform_lengths is None:
            nz = (cmat > 0).sum(axis=1)
            uniform_lengths = bool(np.all(nz[solvable] == 1))
        if not uniform_lengths:
            pre_fail = "states with solutions of several lengths (up to L)"
    if pre_fail is None:
        # every action sequence solves some state (checked per length up to
        # the shortest length not fully covered)
        lengths_present = sorted({int(d0.d[s]) for s in np.flatnonzero(solvable)})
        covered = all(
            abs(counts.coverage(l) - 1.0) <= 1e-9 for l in lengths_present)
        if not covered:
            pre_fail = "length classes are not fully covered by solutions"
    if pre_fail is None:
        # p proportional to solution counts within a length class
        for l in lengths_present:
            cls = np.flatnonzero(solvable & (d0.d == l))
            ratios = p.probs[cls] / counts.counts[cls, l]
            if ratios.size and (ratios.max() - ratios.min()) > 1e-9 * max(
                    ratios.max(), 1e-300):
                pre_fail = f"p not proportional to |Sol| in length class {l}"
                break
    if pre_fail is not None:
        rep.claims.append(BoundClaim(name, None, None, None, False,
                                     notes + pre_fail))
        return
    q0, qp = q_at_zero()
    lhs = (p_exploration_difficulty(augmented.mdp, p, qp)
           - p_exploration_difficulty(mdp0, p, q0))
    x = mdp0.num_actions / augmented.mdp.num_actions
    rhs = x * (1.0 - x)
    rep.claims.append(BoundClaim(name, lhs, rhs, lhs >= rhs - SLACK, True,
                                 notes))


def expansion_length_q(augmented: AugmentedMdp, l_max: int) -> np.ndarray:
    """G[s, l]: probability that a uniformly random augmented token sequence
    solves s with total base-action expansion exactly l, weighting a t-token
    sequence by |A+|^-t.  Macro augmentations only (expansions >= 1)."""
    if not all(z.kind == "macro" for z in augmented.skills):
        raise ValueError("expansion-length DP requires a macro augmentation")
    w = np.array([1] * augmented.base.num_actions
                 + [len(z.macro) for z in augmented.skills])
    return length_dp(augmented.mdp, w, l_max, 1.0 / augmented.mdp.num_actions)


def _check_kl_corrected_gap(rep, mdp0, augmented, p, count_table, separable,
                            is_macro, strict, notes, q_at_zero):
    name = "explore_gap_kl_corrected"
    if not (separable and is_macro and strict):
        rep.claims.append(BoundClaim(
            name, None, None, None, False,
            notes + "needs separable base and a strict macro augmentation"))
        return
    if mdp0.num_states > LENGTH_DP_STATE_CAP:
        rep.claims.append(BoundClaim(
            name, None, None, None, False,
            notes + f"gated to at most {LENGTH_DP_STATE_CAP} states"))
        return
    l_max = LENGTH_DP_L_MAX
    G = expansion_length_q(augmented, l_max)
    q0, qp = q_at_zero()
    sup = p.support
    coverage = G[sup].sum(axis=1) / qp.q[sup]
    if np.any(np.abs(coverage - 1.0) > 1e-9):
        rep.claims.append(BoundClaim(
            name, None, None, None, False,
            notes + f"expansion tail not covered by l_max={l_max}"))
        return
    # p-tilde(s, l) = p(s) G(s, l) / q+(s); lambda(l) its length marginal
    pt = p.probs[sup, None] * G[sup] / qp.q[sup, None]
    lam = pt.sum(axis=0)
    q0t = count_table().counts[sup, :l_max + 1] * (
        float(mdp0.num_actions) ** -np.arange(l_max + 1))
    mask = pt > 0.0
    if np.any(q0t[mask] <= 0.0):
        kl = math.inf
    else:
        ratio = pt[mask] / (np.broadcast_to(lam, pt.shape)[mask] * q0t[mask])
        kl = float(np.dot(pt[mask], np.log(ratio)))
    lhs = (p_exploration_difficulty(augmented.mdp, p, qp)
           - p_exploration_difficulty(mdp0, p, q0))
    x = mdp0.num_actions / augmented.mdp.num_actions
    rhs = x * (1.0 - x) - kl
    rep.claims.append(BoundClaim(name, lhs, rhs, lhs >= rhs - SLACK, True,
                                 notes + f"KL={kl:.3e}"))
