"""Cross-environment improvement scatter: less compressible environments
benefit less from macroactions (positive trend of best ratio vs IC)."""

import pytest
from scipy.stats import spearmanr

from skilldiff.experiments import (improvement_scatter, metrics_table,
                                   variant_grid)


def test_improvement_trend_across_environments():
    # puzzle8 keeps its base and its first 8 variants
    rows = {env: metrics_table(env, variant_grid(env, 7)[:k])
            for env, k in (("cliff", None), ("pickup", None),
                           ("puzzle8", 9))}
    scatter = improvement_scatter(rows)
    assert len(scatter) == 6  # 3 envs x 2 measures
    for measure in ("j_learn", "j_explore"):
        pts = [(r["ic"], r["best_ratio"]) for r in scatter
               if r["measure"] == measure]
        rho = spearmanr([x for x, _ in pts], [y for _, y in pts]).statistic
        assert rho > 0, (measure, pts)
    # degenerate single-variant grid: the best ratio is that variant's ratio
    one = {"solo": [{"variant": "base", "ic_sup": 0.5, "j_learn": 10.0},
                    {"variant": "v", "j_learn": 7.0}]}
    assert improvement_scatter(one)[0]["best_ratio"] == pytest.approx(0.7)
