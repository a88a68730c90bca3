"""Description-length skill-learning objectives over trajectory corpora.

A corpus of base-action solutions is rewritten with a macroaction set
(minimum-token rewriting); the objectives score the abstracted corpus.
L5 is the description length under a code optimized for the empirical
action distribution; L7 is the same with a uniform code; L4 adds a
length-distribution term; L1/L2/L3 use the entropy of the empirical
distribution of whole rewritten solutions; J6 is the unmerged
incompressibility of the abstracted statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .mdp import shannon_entropy
from .metrics.incompress import _ic_sup
from .skills import rewrite_min_length


class MissingParamError(ValueError):
    pass


@dataclass
class Corpus:
    solutions: list[tuple[int, ...]]  # base-action index sequences
    weights: list[float] | None = None

    def __post_init__(self):
        if not self.solutions or any(len(s) == 0 for s in self.solutions):
            raise ValueError("corpus must contain nonempty solutions")
        self.solutions = [tuple(int(a) for a in s) for s in self.solutions]
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if len(w) != len(self.solutions) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError("bad corpus weights")
            self.weights = list(w / w.sum())

    def weight_of(self, i: int) -> float:
        if self.weights is None:
            return 1.0 / len(self.solutions)
        return self.weights[i]

    @classmethod
    def from_label_lines(cls, text: str, action_labels: list[str]) -> "Corpus":
        """One solution per line, whitespace-separated action labels.
        Raises ValueError naming the first token that is not a label."""
        index = {lab: i for i, lab in enumerate(action_labels)}
        sols = []
        for lineno, line in enumerate(text.splitlines(), 1):
            toks = line.split()
            for t in toks:
                if t not in index:
                    raise ValueError(f"line {lineno}: token {t!r} is not one "
                                     f"of the {len(index)} action labels")
            if toks:
                sols.append(tuple(index[t] for t in toks))
        return cls(solutions=sols)


@dataclass
class AbstractedCorpus:
    rewritten: list[tuple[int, ...]]
    weights: list[float]
    num_base_actions: int
    num_actions: int  # |A+| = base + macros
    macros: list[tuple[int, ...]]
    action_frequency: dict[int, float] = field(init=False)
    length_distribution: dict[int, float] = field(init=False)
    mean_length: float = field(init=False)

    def __post_init__(self):
        af: Counter = Counter()
        lf: Counter = Counter()
        mean_l = 0.0
        for seq, w in zip(self.rewritten, self.weights):
            lf[len(seq)] += w
            mean_l += w * len(seq)
            for a in seq:
                af[a] += w
        total_a = sum(af.values())  # == mean_l: the weighted token count
        self.action_frequency = {a: v / total_a for a, v in sorted(af.items())}
        self.length_distribution = dict(sorted(lf.items()))
        self.mean_length = mean_l

    def sequence_entropy(self) -> float:
        """Entropy of the empirical distribution of whole rewritten solutions."""
        mass: Counter = Counter()
        for seq, w in zip(self.rewritten, self.weights):
            mass[seq] += w
        return shannon_entropy(list(mass.values()))


def abstract_corpus(corpus: Corpus, macros: list[tuple[int, ...]],
                    num_base_actions: int) -> AbstractedCorpus:
    """Rewrite every solution with the macro set and collect statistics."""
    rewritten = [tuple(rewrite_min_length(sol, macros, num_base_actions))
                 for sol in corpus.solutions]
    weights = [corpus.weight_of(i) for i in range(len(rewritten))]
    return AbstractedCorpus(rewritten=rewritten, weights=weights,
                            num_base_actions=num_base_actions,
                            num_actions=num_base_actions + len(macros),
                            macros=list(macros))


OBJECTIVES = ("L1", "L2", "L3", "L4", "L5", "J6", "L7")
MIN_SUPPORT = 2
CANDIDATE_CAP = 2000


def objective(abstracted: AbstractedCorpus, which: str,
              num_base_actions: int | None = None,
              entropy_p: float | None = None,
              mean_d: float | None = None) -> float:
    """Evaluate one description-length objective on an abstracted corpus.

    L1 needs the base action count; J6 needs entropy_p (H of the state
    importance distribution) and uses mean rewritten length as the mean-d
    proxy unless mean_d is given.  All values are in nats.
    """
    if which not in OBJECTIVES:
        raise ValueError(f"unknown objective {which!r}")
    aplus = abstracted.num_actions
    lbar = abstracted.mean_length
    if which == "L3":
        return abstracted.sequence_entropy()
    if which == "L2":
        return aplus / np.log(aplus) * abstracted.sequence_entropy()
    if which == "L1":
        a0 = num_base_actions or abstracted.num_base_actions
        if a0 <= 1:
            raise MissingParamError("L1 needs a base action count > 1")
        h = abstracted.sequence_entropy()
        sup_val, _ = _ic_sup(h, 1.0, float(a0))
        return aplus / np.log(aplus) * sup_val
    if which in ("L4", "L5"):
        h_action = shannon_entropy(list(abstracted.action_frequency.values()))
        if which == "L5":
            return lbar * h_action
        lengths = list(abstracted.length_distribution.values())
        return shannon_entropy(lengths) + lbar * h_action
    if which == "L7":
        return lbar * float(np.log(aplus))
    if which == "J6":
        if entropy_p is None:
            raise MissingParamError("J6 needs entropy_p")
        ed = mean_d if mean_d is not None else lbar
        sup_val, _ = _ic_sup(entropy_p, ed, float(aplus))
        return sup_val
    raise AssertionError


@dataclass
class DiscoveryResult:
    macros: list[tuple[int, ...]]
    trace: list[float]  # objective after each accepted macro (index 0 = none)


def discover_macroactions(corpus: Corpus, objective_id: str,
                          num_base_actions: int, max_skills: int = 5,
                          max_len: int = 8, seed: int = 0,
                          entropy_p: float | None = None) -> DiscoveryResult:
    """Greedy substring mining: each round scores the n-grams seen at least
    MIN_SUPPORT times (a random CANDIDATE_CAP of them when there are more)
    and keeps the best strictly-improving one.  Returning zero macros is a
    valid outcome (skills need not help).

    J6 is a maximization objective; all others are minimized.
    """
    maximize = objective_id == "J6"
    rng = np.random.default_rng(seed)
    macros: list[tuple[int, ...]] = []

    def score(ms):
        ab = abstract_corpus(corpus, ms, num_base_actions)
        return objective(ab, objective_id, num_base_actions=num_base_actions,
                         entropy_p=entropy_p)

    grams = Counter(sol[i:i + L] for sol in corpus.solutions
                    for L in range(2, min(max_len, len(sol)) + 1)
                    for i in range(len(sol) - L + 1))
    frequent = sorted(g for g, c in grams.items() if c >= MIN_SUPPORT)
    trace = [score(macros)]
    while len(macros) < max_skills:
        cands = [g for g in frequent if g not in macros]
        if len(cands) > CANDIDATE_CAP:
            keep = rng.choice(len(cands), size=CANDIDATE_CAP, replace=False)
            cands = [cands[i] for i in sorted(keep)]
        best_val, best_g = trace[-1], None
        for g in cands:
            v = score(macros + [g])
            better = v > best_val if maximize else v < best_val
            if better:
                best_val, best_g = v, g
        if best_g is None:
            break
        macros.append(best_g)
        trace.append(best_val)
    return DiscoveryResult(macros=macros, trace=trace)
