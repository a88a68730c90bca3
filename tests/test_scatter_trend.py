"""Cross-environment improvement scatter: less compressible environments
benefit less from macroactions (positive trend of best ratio vs IC)."""

import pytest
from scipy.stats import spearmanr

from skilldiff.envs import ENV_PRESETS, build_env
from skilldiff.experiments import (improvement_scatter, materialize_variant,
                                   variant_grid)
from skilldiff.mdp import shortest_solution_lengths
from skilldiff.metrics import (ic_unmerged, p_exploration_difficulty,
                               p_learning_difficulty, solve_q)
from skilldiff.skills import GOAL_PASS_DEAD

DELTA = 1.0 / 50.0


def _env_row(preset, variant_limit=None):
    mdp, p, _ = build_env(ENV_PRESETS[preset])
    d = shortest_solution_lengths(mdp)
    q = solve_q(mdp, DELTA)
    base = {"j_learn": p_learning_difficulty(mdp, p, d),
            "j_explore": p_exploration_difficulty(mdp, p, q)}
    ic = ic_unmerged(mdp, p, mode="sup", d=d).value
    variants = {}
    vs = [v for v in variant_grid(preset, seed=7) if not v.is_base]
    if variant_limit:
        vs = vs[:variant_limit]
    for v in vs:
        aug = materialize_variant(mdp, v, GOAL_PASS_DEAD)
        da = shortest_solution_lengths(aug.mdp)
        qa = solve_q(aug.mdp, DELTA)
        variants[v.name] = {
            "j_learn": p_learning_difficulty(aug.mdp, p, da),
            "j_explore": p_exploration_difficulty(aug.mdp, p, qa)}
    return {"ic": ic, "base": base, "variants": variants}


def test_improvement_trend_across_environments():
    rows = {
        "cliff": _env_row("cliff"),
        "pickup": _env_row("pickup"),
        "puzzle8": _env_row("puzzle8", variant_limit=8),
    }
    scatter = improvement_scatter(rows)
    assert len(scatter) == 6  # 3 envs x 2 measures
    for measure in ("j_learn", "j_explore"):
        pts = [(r["ic"], r["best_ratio"]) for r in scatter
               if r["measure"] == measure]
        rho = spearmanr([x for x, _ in pts], [y for _, y in pts]).statistic
        assert rho > 0, (measure, pts)
    # degenerate single-variant grid: the best ratio is that variant's ratio
    one = {"solo": {"ic": 0.5, "base": {"j_learn": 10.0},
                    "variants": {"v": {"j_learn": 7.0}}}}
    assert improvement_scatter(one)[0]["best_ratio"] == pytest.approx(0.7)
