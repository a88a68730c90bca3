"""Cross-module invariants that do not belong to a single unit."""

import json

import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain
from skilldiff.experiments import (random_distribution, random_invertible_mdp,
                                   random_tabular_skills, metrics_table,
                                   variant_grid)
from skilldiff.mdp import shortest_solution_lengths
from skilldiff.metrics import (p_learning_difficulty, solve_q,
                               compute_difficulty_report)
from skilldiff.metrics.solver import DIRECT_MAX_STATES
from skilldiff.rl import RlConfig, adaptive_epsilon_step
from skilldiff.skills import GOAL_PASS_DEAD, GOAL_PASS_SUCCESS, augment

from conftest import random_dsmdp


def test_q_residual_bounds_true_error():
    # for delta > 0 the fixed-point map contracts by (1 - delta), so the
    # final sup-norm update bounds the true error by residual / delta; above
    # the direct-solve cut-off a loose tol leaves a loose sweep iterate
    rng = np.random.default_rng(70)
    for _ in range(15):
        mdp = random_dsmdp(rng, int(rng.integers(DIRECT_MAX_STATES + 1,
                                                 DIRECT_MAX_STATES + 60)), 2)
        delta = float(rng.uniform(0.05, 0.5))
        loose = solve_q(mdp, delta, tol=1e-4)
        tight = solve_q(mdp, delta, tol=1e-14)
        assert np.max(np.abs(loose.q - tight.q)) <= loose.residual / delta


def test_learning_difficulty_decomposition():
    # adding skills never increases E_p[d] under the success convention, yet
    # J_learn can rise through the action-count factor; the decomposition
    # J_learn = |A| * E_p[d] holds exactly on both sides
    rng = np.random.default_rng(71)
    for _ in range(15):
        mdp = random_invertible_mdp(rng, int(rng.integers(5, 20)), 2)
        p = random_distribution(rng, mdp)
        skills = random_tabular_skills(rng, mdp)
        for mode in (GOAL_PASS_SUCCESS, GOAL_PASS_DEAD):
            aug = augment(mdp, skills, mode=mode)
            d0 = shortest_solution_lengths(mdp)
            dp = shortest_solution_lengths(aug.mdp)
            assert dp.expected(p) <= d0.expected(p) + 1e-12
            jl = p_learning_difficulty(aug.mdp, p, dp)
            assert jl == aug.mdp.num_actions * dp.expected(p)


def test_adaptive_epsilon_never_rises_and_floors():
    cfg = RlConfig()
    eps, best = cfg.eps_start, 0.0
    rng = np.random.default_rng(72)
    trace = [eps]
    reward = 0.0
    for _ in range(300):
        reward = min(1.0, max(reward, reward + rng.uniform(-0.05, 0.08)))
        eps, best = adaptive_epsilon_step(eps, best, reward, cfg)
        trace.append(eps)
    assert all(a >= b for a, b in zip(trace, trace[1:]))
    assert all(e >= cfg.eps_floor for e in trace)
    eps, best = adaptive_epsilon_step(1.0, 0.0, 1.0, cfg)
    assert eps == cfg.eps_floor  # a jump to perfect reward hits the floor


def test_metrics_table_byte_identical(tmp_path):
    from skilldiff.experiments import write_csv

    variants = variant_grid("cliff", seed=3)[:4]
    a = metrics_table("cliff", variants)
    b = metrics_table("cliff", variants)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, str(pa))
    write_csv(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_report_to_json():
    mdp, p = build_chain(5)
    payload = json.loads(compute_difficulty_report(mdp, p, 0.1).to_json())
    assert payload["log_base"] == "nats"
    assert payload["j_learn"] == pytest.approx(5.0)
    # one action: both IC values are undefined
    assert payload["ic_unmerged_fixed"] == {
        "value": None, "mode": "fixed_epsilon", "epsilon": 0.1,
        "clamped": False, "method": None, "cap_hit": False}
    assert payload["ic_unmerged_sup"] == {
        "value": None, "mode": "sup", "epsilon": None,
        "clamped": False, "method": None, "cap_hit": False}


def test_campaign_pool_path_matches_serial():
    from skilldiff.experiments import run_rl_campaign, variant_grid

    vs = variant_grid("cliff", seed=7)[:2]
    overrides = {"max_env_steps": 20_000, "eval_every_env_steps": 2000}
    serial = run_rl_campaign("cliff", vs, ["q_learning"], seeds=1,
                             root_seed=3, overrides=overrides, jobs=1)
    pooled = run_rl_campaign("cliff", vs, ["q_learning"], seeds=1,
                             root_seed=3, overrides=overrides, jobs=2)
    for a, b in zip(serial, pooled):
        assert a["variant"] == b["variant"]
        assert a["record"].samples == b["record"].samples


def test_pickup_fixed_start_marker():
    from skilldiff.envs.pickup import build_pickup_world, parse_pickup_config

    cfg = parse_pickup_config("@a\n.b\ntarget: ab\n")
    assert cfg.agent_start == (0, 0)
    mdp, p, info = build_pickup_world(cfg)
    assert p.support_size == 1


def test_env_spec_rejects_unknown_kind():
    from skilldiff.envs import EnvSpec, build_env
    from skilldiff.mdp import MdpError

    with pytest.raises(MdpError):
        build_env(EnvSpec("tower_of_hanoi"))
