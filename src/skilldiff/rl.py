"""Tabular RL algorithms with the episodic sparse-reward protocol.

Episodes start from p, end at the goal, after `horizon` agent actions, or
once `base_action_budget` base actions have been consumed (skills consume
their unrolled length).  The dead state is a real absorbing state: an agent
that walks into it keeps burning steps until the episode ends.

Sample complexity is measured from periodic evaluations: the env-step counts
at which a monitored series crosses its threshold are averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .mdp import StateDistribution, TabularDsmdp, shortest_solution_lengths
from .skills import AugmentedMdp

NOT_REACHED = None

Q_LEARNING = "q_learning"
RL_VALUE_ITERATION = "rl_value_iteration"
REINFORCE = "reinforce"


@dataclass
class RlConfig:
    algorithm: str = Q_LEARNING
    alpha: float = 0.1
    gamma: float = 1.0
    horizon: int = 50
    base_action_budget: int = 100
    replay_size: int = 1000
    update_every: int = 4  # episodes
    batch_size: int = 32
    eps_start: float = 1.0
    eps_step: float = 0.002
    eps_reward_trigger: float = 0.002
    eps_floor: float = 0.1
    eval_episodes: int = 200
    eval_every_env_steps: int = 2000
    max_env_steps: int = 5_000_000
    stop_reward: float | None = 0.95
    stop_value_error: float | None = None
    seed: int = 0

    def with_seed(self, seed: int) -> "RlConfig":
        return replace(self, seed=seed)


def protocol_preset(algorithm: str, *, seed: int = 0,
                    max_env_steps: int = 5_000_000) -> RlConfig:
    """Standard experiment-protocol defaults; max_env_steps is the desk-scale knob."""
    return RlConfig(algorithm=algorithm, seed=seed,
                    max_env_steps=max_env_steps)


@dataclass
class RunRecord:
    samples: list[tuple[int, float, float]]  # (env_steps, reward, value_err)
    converged: bool
    terminal_env_steps: int
    algorithm: str
    seed: int

    def series(self, which: str) -> list[tuple[int, float]]:
        i = {"reward": 1, "value_error": 2}[which]
        return [(s[0], s[i]) for s in self.samples]

    def to_json_dict(self) -> dict:
        return {"samples": self.samples, "converged": self.converged,
                "terminal_env_steps": self.terminal_env_steps,
                "algorithm": self.algorithm, "seed": self.seed}


def measure_sample_complexity(record: RunRecord, criterion: str,
                              threshold: float):
    """Mean env-step count over all crossings of the threshold in the
    qualifying direction (above for reward, below for value error)."""
    series = record.series(criterion)
    crossings = []
    if criterion == "reward":
        prev = -math.inf
        for steps, v in series:
            if prev < threshold <= v:
                crossings.append(steps)
            prev = v
    elif criterion == "value_error":
        prev = math.inf
        for steps, v in series:
            if math.isnan(v):
                continue
            if prev > threshold >= v:
                crossings.append(steps)
            prev = v
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    if not crossings:
        return NOT_REACHED
    return float(np.mean(crossings))


def adaptive_epsilon_step(eps: float, best_reward: float, reward: float,
                          cfg: RlConfig) -> tuple[float, float]:
    """One evaluation's worth of the adaptive schedule: every time the best
    test reward improves by the trigger, epsilon drops by one step, never
    below the floor and never upward."""
    while reward >= best_reward + cfg.eps_reward_trigger:
        best_reward += cfg.eps_reward_trigger
        eps = max(cfg.eps_floor, eps - cfg.eps_step)
    return eps, best_reward


class _Env:
    """Uniform view over a base or augmented MDP for the RL loop."""

    def __init__(self, env):
        if isinstance(env, AugmentedMdp):
            self.mdp = env.mdp
            self.base_actions = env.base.num_actions
            self._skill_lengths = env.skill_lengths
        else:
            self.mdp = env
            self.base_actions = env.num_actions
            self._skill_lengths = None
        self.n = self.mdp.num_states
        self.m = self.mdp.num_actions
        self.goal = self.mdp.goal
        self.dead = self.mdp.dead
        self.succ = self.mdp.successor_padded()

    def action_cost(self, s: int, a: int) -> int:
        if s == self.dead or a < self.base_actions or self._skill_lengths is None:
            return 1
        return max(1, int(self._skill_lengths[s, a - self.base_actions]))

    def step(self, s: int, a: int) -> int:
        if s == self.dead:
            return self.dead  # absorbing
        return int(self.succ[s, a])


def _ground_truth(mdp: TabularDsmdp, gamma: float):
    """(v*, q*) of the run and the planner: gamma^(d-1) per state and gamma^d
    per successor where solvable, else 0; v*(goal) = 1, q*(goal, .) = 0."""
    d = shortest_solution_lengths(mdp)
    v_star = np.zeros(mdp.num_states)
    solv = d.solvable
    v_star[solv] = gamma ** (d.d[solv] - 1.0)
    v_star[mdp.goal] = 1.0
    dt = d.padded()[mdp.successor]
    q_star = np.zeros(dt.shape)
    reach = dt >= 0
    q_star[reach] = gamma ** (dt[reach].astype(float))
    q_star[mdp.goal] = 0.0
    return v_star, q_star


def run(env, p: StateDistribution, cfg: RlConfig) -> RunRecord:
    """One seeded RL run producing the evaluation time series."""
    e = _Env(env)
    children = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(children[0])
    eval_rng_seed = children[1]
    v_star, q_star = _ground_truth(e.mdp, cfg.gamma)
    sup = p.support
    psup = p.probs[sup]
    cumsup = np.cumsum(psup)

    def sample_start(r: float) -> int:
        i = min(int(np.searchsorted(cumsup, r, side="right")), len(sup) - 1)
        return int(sup[i])

    algo = cfg.algorithm
    if algo in (Q_LEARNING, RL_VALUE_ITERATION):
        q = np.zeros((e.n + 1, e.m))  # dead row stays zero
        theta = None
    elif algo == REINFORCE:
        q = None
        theta = np.zeros((e.n + 1, e.m))
    else:
        raise ValueError(f"unknown algorithm {algo!r}")

    replay_s = np.zeros(cfg.replay_size, dtype=np.int64)
    replay_a = np.zeros(cfg.replay_size, dtype=np.int64)
    replay_fill = 0
    replay_ptr = 0

    eps = cfg.eps_start
    best_reward = 0.0
    env_steps = 0
    last_eval = 0
    episodes = 0
    samples: list[tuple[int, float, float]] = []
    converged = False

    def greedy_action(s: int) -> int:
        if algo == Q_LEARNING:
            return int(np.argmax(q[s]))
        if algo == RL_VALUE_ITERATION:
            t = e.succ[s]
            targets = np.where(t == e.goal, 1.0,
                               cfg.gamma * q[t, 0] * (t != e.dead))
            return int(np.argmax(targets))
        raise AssertionError

    def policy_action(s: int) -> int:
        if algo == REINFORCE:
            logits = theta[s] - theta[s].max()
            probs = np.exp(logits)
            probs /= probs.sum()
            return int(rng.choice(e.m, p=probs))
        if rng.random() < eps:
            return int(rng.integers(e.m))
        return greedy_action(s)

    def evaluate():
        ev = np.random.default_rng(eval_rng_seed)
        n_ep = 1 if p.support_size == 1 else cfg.eval_episodes
        total = 0.0
        for _ in range(n_ep):
            s = sample_start(ev.random()) if p.support_size > 1 else int(sup[0])
            steps = 0
            base_used = 0
            while steps < cfg.horizon and base_used < cfg.base_action_budget:
                if algo == REINFORCE:
                    logits = theta[s] - theta[s].max()
                    probs = np.exp(logits)
                    probs /= probs.sum()
                    a = int(ev.choice(e.m, p=probs))
                else:
                    a = greedy_action(s)
                base_used += e.action_cost(s, a)
                s2 = e.step(s, a)
                steps += 1
                if s2 == e.goal:
                    total += cfg.gamma ** (steps - 1)
                    break
                s = s2
        reward = total / n_ep
        if algo == Q_LEARNING:
            err = float(np.dot(psup,
                               np.abs(q[sup] - q_star[sup]).mean(axis=1)))
        elif algo == RL_VALUE_ITERATION:
            err = float(np.dot(psup, np.abs(q[sup, 0] - v_star[sup])))
        else:
            err = float("nan")
        return reward, err

    def update_from_replay():
        if replay_fill < cfg.batch_size:
            return
        idx = rng.integers(0, replay_fill, size=cfg.batch_size)
        for i in idx:
            s, a = int(replay_s[i]), int(replay_a[i])
            if algo == Q_LEARNING:
                t = e.succ[s, a] if s != e.dead else e.dead
                if t == e.goal:
                    target = 1.0
                elif t == e.dead:
                    target = 0.0
                else:
                    target = cfg.gamma * float(q[t].max())
                q[s, a] += cfg.alpha * (target - q[s, a])
            else:  # rl_value_iteration: state-value update from all successors
                t = e.succ[s]
                targets = np.where(t == e.goal, 1.0,
                                   cfg.gamma * q[t, 0] * (t != e.dead))
                q[s, 0] += cfg.alpha * (float(targets.max()) - q[s, 0])

    while env_steps < cfg.max_env_steps and not converged:
        s = sample_start(rng.random()) if p.support_size > 1 else int(sup[0])
        trajectory = []
        steps = 0
        base_used = 0
        success_len = None
        while steps < cfg.horizon and base_used < cfg.base_action_budget:
            a = policy_action(s)
            cost = e.action_cost(s, a)
            t = e.step(s, a)
            steps += 1
            base_used += cost
            mult = e.m if algo == RL_VALUE_ITERATION else 1
            env_steps += cost * mult
            trajectory.append((s, a))
            if s != e.dead and algo in (Q_LEARNING, RL_VALUE_ITERATION):
                replay_s[replay_ptr] = s
                replay_a[replay_ptr] = a
                replay_ptr = (replay_ptr + 1) % cfg.replay_size
                replay_fill = min(replay_fill + 1, cfg.replay_size)
            if t == e.goal:
                success_len = steps
                break
            s = t
        episodes += 1

        if algo == REINFORCE:
            if success_len is not None:
                g = cfg.gamma ** (success_len - 1)
                for (s_t, a_t) in trajectory:
                    if s_t == e.dead:
                        continue
                    logits = theta[s_t] - theta[s_t].max()
                    probs = np.exp(logits)
                    probs /= probs.sum()
                    grad = -probs
                    grad[a_t] += 1.0
                    theta[s_t] += cfg.alpha * g * grad
        elif episodes % cfg.update_every == 0:
            update_from_replay()

        if env_steps - last_eval >= cfg.eval_every_env_steps:
            last_eval = env_steps
            reward, err = evaluate()
            samples.append((env_steps, reward, err))
            eps, best_reward = adaptive_epsilon_step(eps, best_reward,
                                                     reward, cfg)
            if cfg.stop_reward is not None and reward >= cfg.stop_reward:
                converged = True
            if (cfg.stop_value_error is not None and not math.isnan(err)
                    and err <= cfg.stop_value_error):
                converged = True

    return RunRecord(samples=samples, converged=converged,
                     terminal_env_steps=env_steps, algorithm=algo,
                     seed=cfg.seed)


# -- synchronous planners ---------------------------------------------------

@dataclass
class PlannerResult:
    sweeps_to: dict
    first_value_one: np.ndarray | None  # per-state sweep of first exact V == 1
    table: np.ndarray
    sweeps_run: int


def planner_value_iteration(mdp: TabularDsmdp, variant: str = "state",
                            alpha: float = 0.1, *,
                            p: StateDistribution | None = None,
                            stop_reward: float | None = None,
                            stop_value_error: float | None = None,
                            gamma: float = 1.0, horizon: int = 50,
                            max_sweeps: int = 100_000,
                            track_first_exact: bool = False) -> PlannerResult:
    """Synchronous interpolated value iteration over the full table.

    variant="state": V(s) <- (1-a) V(s) + a max_a V(T(s,a)), V(goal) pinned 1.
    variant="q":     Q(s,a) <- (1-a) Q(s,a) + a (1 if T(s,a)=goal else
                      gamma max_a' Q(T(s,a),a')).
    Returns the sweep counts at which each stopping criterion was first met.
    """
    n, m = mdp.num_states, mdp.num_actions
    succ = mdp.successor
    if variant not in ("state", "q"):
        raise ValueError("variant must be 'state' or 'q'")
    v_star, _ = _ground_truth(mdp, gamma)
    sup = p.support if p is not None else None

    v = np.zeros(n + 1)
    v[mdp.goal] = 1.0
    qtab = np.zeros((n + 1, m))
    first_one = np.full(n, -1, dtype=np.int64) if track_first_exact else None
    if track_first_exact:
        first_one[mdp.goal] = 0
    sweeps_to: dict = {}
    want_reward = stop_reward is not None
    want_err = stop_value_error is not None

    for sweep in range(1, max_sweeps + 1):
        if variant == "state":
            targets = np.where(succ == mdp.goal, 1.0, gamma * v[succ])
            vnew = (1.0 - alpha) * v[:n] + alpha * targets.max(axis=1)
            vnew[mdp.goal] = 1.0
            v[:n] = vnew
            cur_v = v[:n]
        else:
            mx = np.concatenate([qtab[:n].max(axis=1), [0.0]])
            mx[mdp.goal] = 1.0
            targets = np.where(succ == mdp.goal, 1.0, gamma * mx[succ])
            qnew = (1.0 - alpha) * qtab[:n] + alpha * targets
            qnew[mdp.goal] = 0.0
            qtab[:n] = qnew
            cur_v = qtab[:n].max(axis=1)
        if track_first_exact:
            hit = (first_one == -1) & (cur_v == 1.0)
            first_one[hit] = sweep
        if want_err and "value_error" not in sweeps_to and sup is not None:
            err = float(np.dot(p.probs[sup], np.abs(cur_v[sup] - v_star[sup])))
            if err <= stop_value_error:
                sweeps_to["value_error"] = sweep
        if want_reward and "reward" not in sweeps_to and sup is not None:
            r = _greedy_reward(mdp, succ, cur_v, p, gamma, horizon)
            if r >= stop_reward:
                sweeps_to["reward"] = sweep
        done_err = (not want_err) or ("value_error" in sweeps_to)
        done_rew = (not want_reward) or ("reward" in sweeps_to)
        if done_err and done_rew and not track_first_exact:
            break
        if track_first_exact and (first_one != -1).all() and done_err and done_rew:
            break
    table = v[:n] if variant == "state" else qtab[:n]
    return PlannerResult(sweeps_to=sweeps_to, first_value_one=first_one,
                         table=table, sweeps_run=sweep)


def _greedy_reward(mdp, succ, values, p, gamma, horizon):
    vpad = np.concatenate([values, [0.0]])
    vpad[mdp.goal] = 1.0
    total = 0.0
    for s0 in p.support:
        s = int(s0)
        r = 0.0
        for step in range(1, horizon + 1):
            t = succ[s]
            targets = np.where(t == mdp.goal, 1.0,
                               gamma * vpad[t] * (t != mdp.dead))
            a = int(np.argmax(targets))
            s2 = int(t[a])
            if s2 == mdp.goal:
                r = gamma ** (step - 1)
                break
            if s2 == mdp.dead:
                break
            s = s2
        total += p.probs[s0] * r
    return total
