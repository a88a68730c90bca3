from dataclasses import replace

import numpy as np
import pytest

from skilldiff.envs.synthetic import build_chain
from skilldiff.mdp import StateDistribution, shortest_solution_lengths
from skilldiff.rl import (NOT_REACHED, RlConfig, RunRecord, _Draws,
                          measure_sample_complexity, planner_value_iteration,
                          run)
from skilldiff.skills import GOAL_PASS_SUCCESS, Skill, augment


def _record(samples):
    return RunRecord(samples=samples, converged=True, terminal_env_steps=0,
                     algorithm="q_learning", seed=0)


def test_sample_complexity_single_crossing():
    rec = _record([(500, 0.1, 1.0), (1000, 0.96, 0.5), (2000, 0.99, 0.1)])
    assert measure_sample_complexity(rec, "reward", 0.95) == 1000.0


def test_sample_complexity_dip_averages_crossings():
    rec = _record([(1000, 0.96, 1.0), (2000, 0.5, 1.0), (3000, 0.97, 1.0)])
    assert measure_sample_complexity(rec, "reward", 0.95) == 2000.0


def test_sample_complexity_never_crossed():
    rec = _record([(1000, 0.1, 1.0), (2000, 0.2, 1.0)])
    assert measure_sample_complexity(rec, "reward", 0.95) is NOT_REACHED


def test_sample_complexity_value_error_direction():
    rec = _record([(1000, 0.0, 0.5), (2000, 0.0, 0.009), (3000, 0.0, 0.2),
                   (4000, 0.0, 0.004)])
    assert measure_sample_complexity(rec, "value_error", 0.01) == 3000.0


def test_run_determinism_chain():
    mdp, p = build_chain(5)
    cfg = RlConfig(algorithm="q_learning", max_env_steps=30_000,
                   eval_every_env_steps=500, seed=11)
    a = run(mdp, p, cfg)
    b = run(mdp, p, cfg)
    assert a.samples == b.samples
    assert a.terminal_env_steps == b.terminal_env_steps


def test_run_chain_converges_all_algorithms():
    mdp, p = build_chain(5)
    for algo in ("q_learning", "rl_value_iteration", "reinforce"):
        cfg = RlConfig(algorithm=algo, max_env_steps=300_000,
                       eval_every_env_steps=1000, seed=1)
        rec = run(mdp, p, cfg)
        assert rec.converged, algo


def test_q_learning_reaches_ground_truth_on_chain():
    mdp, p = build_chain(4)
    cfg = RlConfig(algorithm="q_learning", alpha=0.2, max_env_steps=400_000,
                   eval_every_env_steps=2000, stop_reward=None,
                   stop_value_error=1e-6, seed=2)
    rec = run(mdp, p, cfg)
    assert rec.converged
    assert rec.samples[-1][2] <= 1e-6


def test_value_error_ground_truth_definition():
    mdp, p = build_chain(6)
    d = shortest_solution_lengths(mdp)
    gamma = 0.9
    from skilldiff.rl import _ground_truth

    v_star, q_star = _ground_truth(mdp, gamma)
    for s in range(1, 7):
        assert v_star[s] == pytest.approx(gamma ** (d.d[s] - 1))
        assert q_star[s, 0] == pytest.approx(gamma ** d.d[mdp.successor[s, 0]]
                                             if s > 1 else 1.0)


def test_skills_consume_base_budget():
    # a single macro of length 60: two skill applications exhaust the
    # 100-base-action budget, so episodes are at most 2 agent steps long
    mdp, p = build_chain(200)
    z = Skill.from_macro((0,) * 60, label="dash")
    aug = augment(mdp, [z], mode=GOAL_PASS_SUCCESS)
    cfg = RlConfig(algorithm="q_learning", max_env_steps=3000,
                   eval_every_env_steps=10**9, eps_start=1.0, seed=3)
    rec = run(aug, p, cfg)
    # with budget 100 every episode uses at most 100 + 60 base actions
    assert rec.terminal_env_steps <= cfg.max_env_steps + 160


@pytest.mark.parametrize("algo,field,value", [
    ("q_learning", "horizon", 0),
    ("reinforce", "base_action_budget", 0),
    ("rl_value_iteration", "update_every", 0),
    ("q_learning", "replay_size", 0),
    ("q_learning", "batch_size", 0),
    ("q_learning", "eval_episodes", 0),
    ("rl_value_iteration", "batch_size", 1001),
])
def test_run_rejects_configs_it_cannot_run(algo, field, value):
    # no env step per episode (a run that never ends), no update window, no
    # evaluation episode over two starts, or an empty batch or one larger
    # than the replay buffer (a run that never learns)
    mdp, _ = build_chain(5)
    p = StateDistribution(np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.0]))
    cfg = replace(RlConfig(algorithm=algo, max_env_steps=1000,
                           eval_every_env_steps=100),
                  **{field: value})
    with pytest.raises(ValueError, match=field):
        run(mdp, p, cfg)


# -- the draw helper against numpy's Generator ---------------------------------

# ranges of one (no draw), the small action counts of the envs, replay fills,
# and ranges near 2**31 and 2**32 where Lemire's rejection loop runs often
_SMALL_N = list(range(1, 13)) + [37, 100, 999, 1000]
_LARGE_N = [2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 2,
            2**32 - 1]


def _one_draw(g, kind, rng):
    """One call of `kind` on g, a `_Draws` or a `Generator`, with arguments
    drawn from rng; results as plain Python values."""
    if kind == "random":
        return g.random()
    if kind in ("integers", "batch"):
        n = int(rng.choice(_SMALL_N) if rng.random() < 0.8
                else rng.choice(_LARGE_N))
        if kind == "integers":
            return int(g.integers(n))
        k = int(rng.integers(1, 40))
        if isinstance(g, _Draws):
            return g.batch(n, k)
        return g.integers(0, n, size=k).tolist()
    m = int(rng.integers(1, 9))
    probs = rng.random(m) ** 3
    probs[rng.random(m) < 0.2] = 0.0
    probs = probs / probs.sum() if probs.sum() > 0 else np.full(m, 1 / m)
    if isinstance(g, _Draws):
        return g.choice(probs)
    return int(g.choice(m, p=probs))


def test_draws_replay_generator_streams():
    """`_Draws` and `np.random.default_rng(seed)` give the same values on
    random interleavings of the four calls `run` makes."""
    kinds = ["random", "integers", "batch", "choice"]
    for seed in range(120):
        script = np.random.default_rng(10_000 + seed)
        # runs of one kind as well as mixtures, so the buffered 32-bit half
        # is carried across random() calls and across batches
        weights = script.dirichlet(np.full(4, 0.5))
        calls = script.choice(4, size=300, p=weights)
        args_a = np.random.default_rng(20_000 + seed)
        args_b = np.random.default_rng(20_000 + seed)
        ours, ref = _Draws(seed), np.random.default_rng(seed)
        for c in calls.tolist():
            got = _one_draw(ours, kinds[c], args_a)
            want = _one_draw(ref, kinds[c], args_b)
            assert got == want, (seed, kinds[c])
            assert type(got) is type(want)


def test_draws_cross_raw_blocks():
    """Long runs of each call kind read several raw blocks in turn."""
    ours, ref = _Draws(11), np.random.default_rng(11)
    assert ours.batch(1000, 9001) == ref.integers(0, 1000, size=9001).tolist()
    assert [ours.random() for _ in range(9000)] == ref.random(9000).tolist()
    assert ours.batch(7, 3) == ref.integers(0, 7, size=3).tolist()


def test_draws_ranges_of_one_draw_nothing():
    ours, ref = _Draws(5), np.random.default_rng(5)
    assert [ours.integers(1), ours.batch(1, 3)] == [0, [0, 0, 0]]
    assert ours.integers(6) == ref.integers(6)
    assert ours.random() == ref.random()


@pytest.mark.parametrize("n", [0, 2**32, 2**40])
def test_draws_reject_ranges_outside_32_bits(n):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _Draws(0).integers(n)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _Draws(0).batch(n, 2)


def test_epsilon_schedule_floor():
    # the adaptive schedule bottoms out at 0.1 after sustained perfection
    mdp, p = build_chain(2)
    cfg = RlConfig(algorithm="q_learning", max_env_steps=50_000,
                   eval_every_env_steps=200, stop_reward=None, seed=4)
    rec = run(mdp, p, cfg)
    rewards = [s[1] for s in rec.samples]
    assert max(rewards) == 1.0  # solved at some point


# -- planners ----------------------------------------------------------------

def test_planner_alpha_one_exact_sweeps():
    mdp, p = build_chain(20)
    res = planner_value_iteration(mdp, "state", alpha=1.0,
                                  track_first_exact=True, max_sweeps=50)
    assert res.first_value_one.tolist() == list(range(21))


def test_planner_alpha_lt_one_sweep_band():
    # sweeps to epsilon-accuracy scale like (d + ln(1/eps)) / alpha
    mdp, p = build_chain(20)
    eps = 0.05
    res = planner_value_iteration(
        mdp, "state", alpha=0.1, p=p, stop_value_error=eps,
        max_sweeps=5000)
    sweeps = res.sweeps_to["value_error"]
    predicted = (20 + np.log(1 / eps)) / 0.1
    assert predicted / 4 <= sweeps <= predicted * 4


def test_planner_q_variant_terminal_bootstrap():
    mdp, p = build_chain(3)
    res = planner_value_iteration(mdp, "q", alpha=1.0, max_sweeps=5,
                                  track_first_exact=True)
    assert res.first_value_one.tolist() == [0, 1, 2, 3]


def test_planner_trivial_augmentation_same_sweeps():
    mdp, p = build_chain(12)
    aug = augment(mdp, [], mode=GOAL_PASS_SUCCESS)
    a = planner_value_iteration(mdp, "state", alpha=0.1, p=p,
                                stop_value_error=0.01, max_sweeps=5000)
    b = planner_value_iteration(aug.mdp, "state", alpha=0.1, p=p,
                                stop_value_error=0.01, max_sweeps=5000)
    assert a.sweeps_to == b.sweeps_to
