"""Incompressibility measures: coding-efficiency ratios bounding how much
skills can shrink solution descriptions.

All variants share one epsilon treatment: a termination symbol with rate
epsilon adds -log((1-eps)/eps) to the numerator and -log(1-eps) per symbol
to the denominator.  Two modes are supported:

  * fixed_epsilon -- evaluate at one epsilon in (0, 1), negatives to 0;
  * sup           -- maximize over epsilon: the eps->1 boundary limit
                     1/E_p[d], or the single interior stationary point,
                     found by one bracketed root solve.

Merged and expressive IC take their entropy from canonical shortest
solutions: one per support state, assigned to maximize (merged) or minimize
(expressive) the entropy of the merged mass.  On a solution-separable MDP
no two states share a solution, so both are exactly H[p].  Otherwise each
support state's shortest solutions (at most SOL_CAP, in lexicographic
order) are enumerated.  The maximum is H[p] when a Kuhn augmenting-path
search gives every state a solution of its own; otherwise, as for the
minimum, an exact search over all assignments runs up to EXHAUSTIVE_SUPPORT
support states and EXHAUSTIVE_BUDGET assignments, and beyond that a greedy
bound is reported, tagged by AssignmentResult.method.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ..mdp import (MdpError, SolutionLengthTable, StateDistribution,
                   TabularDsmdp, shannon_entropy)
from ..skills import AugmentedMdp

SOL_CAP = 64
EXHAUSTIVE_SUPPORT = 12
EXHAUSTIVE_BUDGET = 200_000


class DegenerateDenominatorError(MdpError):
    pass


@dataclass
class ICValue:
    value: float
    mode: str
    epsilon: float | None = None  # None for the sup mode's eps -> 1 limit
    clamped: bool = False
    method: str | None = None  # assignment method for merged/expressive
    entropy_term: float | None = None  # the H used in the numerator
    cap_hit: bool = False


def _ic_fixed(H: float, Ed: float, a_eff: float, eps: float):
    num = H - np.log((1.0 - eps) / eps)
    v = num / (Ed * np.log(a_eff / (1.0 - eps)))
    return (0.0, True) if v < 0.0 else (float(v), False)


def _ic_sup(H: float, Ed: float, a_eff: float):
    """(sup over eps of the ratio, its eps, or None for the eps -> 1 limit).

    In u = logit(eps), with D = E_p[d], the ratio is f(u) = (H + u) / den,
    den = D (log a + softplus u), and f' = -D g / den^2, where g(u) =
    (H + u) sigmoid(u) - log a - softplus(u) has g' = (H + u) sigmoid (1 -
    sigmoid).  So g < -log a < 0 on u <= -H and g rises on (-H, inf) toward
    H - log a.  If H <= log a, f only rises and the sup is its limit 1/D.
    Otherwise f peaks at the one root u* of g, found on (-H, 40), where
    f(u*) = 1 / (D sigmoid(u*)); a root beyond 40 would leave that within
    e^-40 (below rounding) of the boundary 1/D, which also stays the floor.
    """
    log_a = math.log(a_eff)

    def sigmoid_softplus(u):
        tail = math.log1p(math.exp(-abs(u)))
        return math.exp(-max(-u, 0.0) - tail), max(u, 0.0) + tail

    def g(u):
        sigmoid, softplus = sigmoid_softplus(u)
        return (H + u) * sigmoid - log_a - softplus

    if H > log_a and g(40.0) > 0.0:
        u = brentq(g, -H, 40.0, xtol=1e-14)
        eps, softplus = sigmoid_softplus(u)
        v = (H + u) / (Ed * (log_a + softplus))
        if v > 1.0 / Ed:
            return v, eps
    return 1.0 / Ed, None


def _ic_with_mode(H, Ed, a_eff, mode, epsilon,
                  asg: AssignmentResult | None = None) -> ICValue:
    """A new ICValue for entropy H; ``asg`` supplies method and cap_hit."""
    if a_eff <= 1.0:
        raise DegenerateDenominatorError("need |A| > 1 (effective)")
    if Ed <= 0.0:
        raise DegenerateDenominatorError("E_p[d] must be positive")
    clamped = False
    if mode == "fixed_epsilon":
        if epsilon is None:
            raise ValueError("fixed_epsilon mode needs an epsilon")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
        value, clamped = _ic_fixed(H, Ed, a_eff, epsilon)
    elif mode == "sup":
        value, epsilon = _ic_sup(H, Ed, a_eff)
    else:
        raise ValueError(f"unknown IC mode {mode!r}")
    return ICValue(value, mode, epsilon, clamped,
                   method=asg.method if asg else None, entropy_term=H,
                   cap_hit=asg.cap_hit if asg else False)


def ic_unmerged(mdp: TabularDsmdp, p: StateDistribution, mode: str = "sup",
                epsilon: float | None = None,
                d: SolutionLengthTable | None = None) -> ICValue:
    """Unmerged IC; d defaults to the MDP's own."""
    if mdp.num_actions <= 1:
        raise DegenerateDenominatorError("unmerged IC needs |A| > 1")
    if d is None:
        d = mdp.solution_lengths
    return _ic_with_mode(p.entropy(), d.expected(p), float(mdp.num_actions),
                         mode, epsilon)


# -- canonical-solution entropy machinery ---------------------------------

def enumerate_shortest_solutions(mdp: TabularDsmdp, states,
                                 cap: int = SOL_CAP):
    """All shortest solutions per state as action tuples in lexicographic
    order, by DFS over d-decreasing edges, truncated at `cap` per state.  The
    goal's one solution is (); an unsolvable state has none."""
    dpad = mdp.solution_lengths.padded().tolist()
    succ = mdp.successor.tolist()
    out: dict[int, list[tuple[int, ...]]] = {}
    cap_hit = False
    for s0 in states:
        sols: list[tuple[int, ...]] = []
        stack = [(int(s0), ())]
        while stack and len(sols) < cap:
            s, prefix = stack.pop()
            if dpad[s] == 0:
                sols.append(prefix)
                continue
            step = dpad[s] - 1
            for a in range(mdp.num_actions - 1, -1, -1):
                t = succ[s][a]
                if dpad[t] == step:
                    stack.append((t, prefix + (a,)))
        # each entry still stacked leads to at least one dropped solution
        if stack:
            cap_hit = True
        out[int(s0)] = sols
    return out, cap_hit


@dataclass
class AssignmentResult:
    entropy: float
    method: str  # matching_exact | exhaustive_exact | greedy_lower_bound |
    #              separable_exact | greedy_upper_bound
    cap_hit: bool = False


def max_entropy_assignment(probs: np.ndarray,
                           candidates: list[list]) -> AssignmentResult:
    """Max-entropy choice of canonical solutions: one candidate per state,
    states sharing the chosen solution merge their mass."""
    if _every_state_matched(candidates):
        # all states keep distinct solutions: H is exactly H[p]
        return AssignmentResult(shannon_entropy(probs), "matching_exact")
    best = _exhaustive_entropy(probs, candidates, max)
    if best is not None:
        return AssignmentResult(best, "exhaustive_exact")
    # greedy: heaviest states first, prefer the least-loaded solution
    order = np.argsort(-probs, kind="stable")
    mass = dict.fromkeys(sorted({k for cand in candidates for k in cand}), 0.0)
    for i in order:
        k = min(candidates[i], key=lambda kk: (mass[kk], kk))
        mass[k] += probs[i]
    h = shannon_entropy(list(mass.values()))
    return AssignmentResult(h, "greedy_lower_bound")


def _every_state_matched(candidates: list[list]) -> bool:
    """Kuhn's augmenting paths, kept on a stack because one can pass every
    state; a state with no path now has none later, so it ends the test."""
    owner: dict = {}  # candidate -> the state holding it
    for root, cands in enumerate(candidates):
        seen, path = set(), [(root, None, iter(cands))]  # state, key, untried
        while path:
            k = next((k for k in path[-1][2] if k not in seen), None)
            if k is None:
                path.pop()
            elif k in owner:
                seen.add(k)
                path.append((owner[k], k, iter(candidates[owner[k]])))
            else:  # a free key: each state on the path takes the next key
                for state, via, _ in reversed(path):
                    owner[k], k = state, via
                break
        else:
            return False
    return True


def min_entropy_assignment(probs: np.ndarray,
                           candidates: list[list]) -> AssignmentResult:
    """Merge-maximizing choice: minimizes the canonical-solution entropy."""
    best = _exhaustive_entropy(probs, candidates, min)
    if best is not None:
        return AssignmentResult(best, "exhaustive_exact")
    # greedy set-cover flavor: repeatedly take the solution shared by the
    # largest unassigned mass
    remaining = set(range(len(candidates)))
    mass_groups = []
    while remaining:
        coverage: dict = {}
        for i in remaining:
            for k in candidates[i]:
                coverage.setdefault(k, []).append(i)
        k_best = max(sorted(coverage), key=lambda k: sum(probs[i] for i in coverage[k]))
        grabbed = coverage[k_best]
        mass_groups.append(sum(probs[i] for i in grabbed))
        remaining -= set(grabbed)
    h = shannon_entropy(mass_groups)
    return AssignmentResult(h, "greedy_upper_bound")


def _exhaustive_entropy(probs, candidates, pick) -> float | None:
    """pick (max or min) of the merged entropy over every choice of one
    candidate per state; None beyond EXHAUSTIVE_SUPPORT states or
    EXHAUSTIVE_BUDGET choices."""
    if (len(candidates) > EXHAUSTIVE_SUPPORT
            or math.prod(len(c) for c in candidates) > EXHAUSTIVE_BUDGET):
        return None
    keys = sorted({k for cand in candidates for k in cand})
    kidx = {k: i for i, k in enumerate(keys)}
    choices = itertools.product(*[range(len(c)) for c in candidates])
    return float(pick(_merged_entropy(probs, candidates, c, kidx, len(keys))
                      for c in choices))


def _merged_entropy(probs, candidates, choice, kidx, nkeys):
    mass = np.zeros(nkeys)
    for i, c in enumerate(choice):
        mass[kidx[candidates[i][c]]] += probs[i]
    return shannon_entropy(mass)


def _canonical_entropy(mdp: TabularDsmdp, p: StateDistribution,
                       assign) -> AssignmentResult:
    """`assign` (max or min entropy) over the support's shortest solutions in
    `mdp`; cap_hit marks a support state with more than SOL_CAP of them.  On
    a solution-separable MDP every assignment gives H[p], tagged
    ``separable_exact``, and nothing is enumerated."""
    if mdp.solution_separable:
        return AssignmentResult(p.entropy(), "separable_exact")
    sup = p.support
    cands, cap_hit = enumerate_shortest_solutions(mdp, sup)
    asg = assign(p.probs[sup], [cands[int(s)] for s in sup])
    asg.cap_hit = cap_hit
    return asg


def merged_solution_entropy(augmented: AugmentedMdp,
                            p: StateDistribution) -> AssignmentResult:
    """H[P+]: max-entropy canonical shortest solutions in the augmented MDP."""
    if np.any(~augmented.mdp.solution_lengths.solvable[p.support]):
        raise MdpError("support unsolvable in the augmented MDP")
    return _canonical_entropy(augmented.mdp, p, max_entropy_assignment)


def ic_merged(augmented: AugmentedMdp, p: StateDistribution,
              mode: str = "sup", epsilon: float | None = None) -> ICValue:
    """Merged p-incompressibility of the augmentation's base with respect to
    the augmented action set: H[P+] over the base's E_p[d] and |A0|."""
    mdp0 = augmented.base
    if mdp0.num_actions <= 1:
        raise DegenerateDenominatorError("merged IC needs |A0| > 1")
    asg = merged_solution_entropy(augmented, p)
    return _ic_with_mode(asg.entropy, mdp0.solution_lengths.expected(p),
                         float(mdp0.num_actions), mode, epsilon, asg)


def ic_expressive(mdp: TabularDsmdp, p: StateDistribution, expressivity: float,
                  mode: str = "sup", epsilon: float | None = None) -> ICValue:
    """E-expressive p-incompressibility: min-entropy canonical solutions in
    the numerator, |A| * E in the denominator."""
    if expressivity < 1.0:
        raise ValueError("expressivity must be >= 1")
    if mdp.num_actions <= 1:
        raise DegenerateDenominatorError("expressive IC needs |A| > 1")
    asg = _canonical_entropy(mdp, p, min_entropy_assignment)
    return _ic_with_mode(asg.entropy, mdp.solution_lengths.expected(p),
                         float(mdp.num_actions) * float(expressivity),
                         mode, epsilon, asg)
