"""One-stop difficulty report for a base or augmented MDP, p and delta."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from ..mdp import StateDistribution, TabularDsmdp
from ..skills import AugmentedMdp
from .difficulty import (p_exploration_difficulty, p_exploration_difficulty_am,
                         p_learning_difficulty, solution_density)
from .incompress import ICValue, ic_merged, ic_unmerged
from .solver import solve_q

LOG_BASE = "nats"


@dataclass
class DifficultyReport:
    j_learn: float
    j_explore: float
    j_explore_am: float
    density: float
    mean_d: float
    entropy_p: float
    delta: float
    epsilon: float
    num_actions: int
    base_action_count: int
    goal_pass_mode: str | None
    ic_unmerged_fixed: dict
    ic_unmerged_sup: dict
    ic_merged: dict | None = None
    log_base: str = LOG_BASE
    q_residual: float = 0.0
    q_iterations: int = 0
    q_error_bound: float = math.inf  # proven bound on ||q - q*||_inf

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=float)


def _ic_dict(ic: ICValue) -> dict:
    return {"value": ic.value, "mode": ic.mode, "epsilon": ic.epsilon,
            "clamped": ic.clamped, "method": ic.method, "cap_hit": ic.cap_hit}


def compute_difficulty_report(env: TabularDsmdp | AugmentedMdp,
                              p: StateDistribution,
                              delta: float) -> DifficultyReport:
    """Compute the standard metric battery of a base or augmented MDP.

    The fixed-epsilon incompressibility takes epsilon = delta, or 0.02 at
    delta = 0.  For an augmentation, the merged incompressibility of its
    base with respect to the augmented action set is included, with the
    augmentation's goal-pass mode.
    """
    aug = env if isinstance(env, AugmentedMdp) else None
    mdp = aug.mdp if aug else env
    epsilon = delta if delta > 0 else 0.02
    p.validate(mdp)
    q = solve_q(mdp, delta)
    jl = p_learning_difficulty(mdp, p)
    je = p_exploration_difficulty(mdp, p, q)
    jam = p_exploration_difficulty_am(mdp, p, q)
    dens = solution_density(mdp, delta, q) if delta > 0 else float("nan")
    mean_d = mdp.solution_lengths.expected(p)
    if mdp.num_actions > 1:
        icf = _ic_dict(ic_unmerged(mdp, p, mode="fixed_epsilon",
                                   epsilon=epsilon))
        ics = _ic_dict(ic_unmerged(mdp, p, mode="sup"))
    else:  # incompressibility is undefined for single-action spaces
        icf = _ic_dict(ICValue(None, "fixed_epsilon", epsilon))
        ics = _ic_dict(ICValue(None, "sup", None))
    icm = None
    if aug and aug.base.num_actions > 1:
        icm = _ic_dict(ic_merged(aug, p, mode="sup"))
    return DifficultyReport(
        j_learn=jl, j_explore=je, j_explore_am=jam, density=dens,
        mean_d=mean_d, entropy_p=p.entropy(), delta=delta, epsilon=epsilon,
        num_actions=mdp.num_actions, base_action_count=mdp.base_action_count,
        goal_pass_mode=aug.goal_pass_mode if aug else None,
        ic_unmerged_fixed=icf, ic_unmerged_sup=ics,
        ic_merged=icm, q_residual=q.residual, q_iterations=q.iterations,
        q_error_bound=q.error_bound)
