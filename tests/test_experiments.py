import csv
import math

import numpy as np
import pytest

from skilldiff.experiments import (InsufficientDataError, _log_j, cell_seed,
                                   improvement_scatter, lambda_correlation,
                                   mean_log_n,
                                   metrics_table, run_rl_campaign,
                                   sample_complexities, variant_grid,
                                   write_csv)
from skilldiff.skills import GOAL_PASS_DEAD


def test_variant_grid_is_32_for_each_family():
    for env in ("cliff", "pickup", "puzzle8", "cube"):
        vs = variant_grid(env, seed=0)
        assert len(vs) == 32
        assert vs[0].is_base
        names = [v.name for v in vs]
        assert len(set(names)) == 32
        assert sum(1 for n in names if n.startswith("gen/")) == 25


def test_variant_grid_seed_changes_generated_only():
    a = variant_grid("cliff", seed=0)
    b = variant_grid("cliff", seed=1)
    assert [v.macros for v in a[:7]] == [v.macros for v in b[:7]]
    assert [v.macros for v in a[7:]] != [v.macros for v in b[7:]]


def test_cell_seed_stable():
    assert cell_seed(1, 2, 3) == cell_seed(1, 2, 3)
    assert cell_seed(1, 2, 3) != cell_seed(1, 2, 4)


def test_log_j_endpoints_and_logsumexp_agreement():
    ln_jl = np.log(np.array([10.0, 100.0]))
    je = np.array([2.0, 4.0])
    assert np.allclose(_log_j(1.0, ln_jl, je), ln_jl)
    assert np.allclose(_log_j(0.0, ln_jl, je), je)
    for lam in (0.2, 0.5, 0.9):
        naive = np.log(lam * np.exp(ln_jl) + (1 - lam) * np.exp(je))
        assert np.allclose(_log_j(lam, ln_jl, je), naive, atol=1e-12)


def test_log_j_no_overflow():
    ln_jl = np.array([5.0])
    je = np.array([2000.0])  # exp would overflow
    v = _log_j(0.5, ln_jl, je)
    assert np.isfinite(v).all()
    assert v[0] == pytest.approx(2000.0 + math.log(0.5), abs=1e-9)


def test_lambda_correlation_perfect_fit():
    names = [f"v{i}" for i in range(5)]
    jl = np.array([10.0, 20, 40, 80, 160])
    je = np.log(jl) + 0.1  # exp(je) proportional to jl
    log_n = list(np.log(jl) + 3.0)
    res = lambda_correlation(names, log_n, jl, je)
    assert res.pearson_r == pytest.approx(1.0, abs=1e-9)
    assert res.excluded == []


def test_lambda_correlation_excludes_not_reached():
    names = ["a", "b", "c", "d"]
    jl = np.array([10.0, 20, 40, 80])
    je = np.log(jl)
    log_n = [1.0, 2.0, None, 3.0]
    res = lambda_correlation(names, log_n, jl, je)
    assert res.excluded == ["c"]
    assert len(res.pairs) == 3


def test_lambda_correlation_insufficient():
    with pytest.raises(InsufficientDataError):
        lambda_correlation(["a", "b"], [1.0, None], np.array([1.0, 2.0]),
                           np.array([0.0, 1.0]))


def test_mean_log_n_requires_all_seeds():
    per_variant = {"a": [100.0, 200.0], "b": [100.0, None]}
    out = mean_log_n(per_variant, ["a", "b", "c"])
    assert out[0] == pytest.approx(np.mean(np.log([100.0, 200.0])))
    assert out[1] is None and out[2] is None


def test_metrics_table_consistency(cliff_bundle):
    mdp, p, _ = cliff_bundle
    vs = variant_grid("cliff", seed=7)[:3]
    rows = metrics_table("cliff", vs)
    base = rows[0]
    assert base["variant"] == "base"
    assert base["j_learn"] == pytest.approx(52.0)
    # trivial-variant consistency: direct recomputation matches the table
    from skilldiff.metrics import compute_difficulty_report

    rep = compute_difficulty_report(mdp, p, 1.0 / 50.0)
    assert base["j_explore"] == pytest.approx(rep.j_explore, abs=1e-12)
    # lemma macro collapses the start distance to 1
    lemma = rows[1]
    assert lemma["variant"] == "cliff/lemma"
    assert lemma["mean_d"] == pytest.approx(1.0)
    assert lemma["j_learn"] == pytest.approx(5.0)  # 5 actions x distance 1


def test_metrics_csv_has_no_column_empty_on_every_row(tmp_path):
    rows = metrics_table("cliff", variant_grid("cliff", seed=7)[:3])
    path = tmp_path / "metrics.csv"
    write_csv(rows, str(path))
    with open(path, newline="") as f:
        header, *body = list(csv.reader(f))
    assert "ic_merged" not in header
    empty = [k for i, k in enumerate(header) if all(r[i] == "" for r in body)]
    assert empty == []
    # augmented variants are materialized with the goal as a dead end
    assert [r["goal_pass_mode"] for r in rows] == [None] + [GOAL_PASS_DEAD] * 2
    entropy = header.index("entropy_p")
    assert [r[entropy] for r in body] == ["0"] * 3  # a point mass, not "-0"


def test_small_rl_campaign_and_complexities():
    vs = variant_grid("cliff", seed=7)[:2]  # base + lemma macro
    overrides = {"max_env_steps": 800_000, "eval_every_env_steps": 2000}
    results = run_rl_campaign("cliff", vs, ["q_learning"], seeds=2,
                              root_seed=1, overrides=overrides)
    assert len(results) == 4
    per = sample_complexities(results, "reward", 0.95)
    assert set(per) == {"base", "cliff/lemma"}
    # the full-solution macro makes learning much faster
    assert all(n is not None for n in per["cliff/lemma"])
    base_ns = [n for n in per["base"] if n is not None]
    assert base_ns, "base run never converged within the desk budget"
    lemma_ns = per["cliff/lemma"]
    assert np.mean(lemma_ns) < np.mean(base_ns)


def test_campaign_deterministic_across_calls():
    vs = variant_grid("cliff", seed=7)[:1]
    overrides = {"max_env_steps": 30_000, "eval_every_env_steps": 1000}
    a = run_rl_campaign("cliff", vs, ["q_learning"], seeds=1, root_seed=5,
                        overrides=overrides)
    b = run_rl_campaign("cliff", vs, ["q_learning"], seeds=1, root_seed=5,
                        overrides=overrides)
    assert a[0]["record"].samples == b[0]["record"].samples


def test_improvement_scatter_rows():
    env_rows = {
        "cliff": [{"variant": "base", "ic_sup": 0.077, "j_learn": 52.0},
                  {"variant": "v1", "j_learn": 26.0},
                  {"variant": "v2", "j_learn": 130.0}],
    }
    rows = improvement_scatter(env_rows)
    assert rows == [{"env": "cliff", "measure": "j_learn", "ic": 0.077,
                     "best_ratio": 0.5}]


def test_improvement_scatter_skips_a_base_that_never_converged():
    # the scatter command sets the base's sample complexity to None when a
    # base seed never crossed the threshold; converged variants are skipped
    env_rows = {
        "cliff": [{"variant": "base", "ic_sup": 0.077, "j_learn": 52.0,
                   "sample_complexity": None},
                  {"variant": "v1", "j_learn": 26.0,
                   "sample_complexity": 1000.0},
                  {"variant": "v2", "j_learn": 130.0,
                   "sample_complexity": None}],
    }
    rows = improvement_scatter(env_rows)
    assert rows == [{"env": "cliff", "measure": "j_learn", "ic": 0.077,
                     "best_ratio": 0.5}]


def test_write_csv_pins_float_format(tmp_path):
    rows = [{"a": 1.23456789012345e-7, "b": "x"}]
    path = tmp_path / "t.csv"
    write_csv(rows, str(path))
    text = path.read_text()
    assert "1.23456789012e-07" in text
