"""Tabular RL algorithms with the episodic sparse-reward protocol.

Episodes start from p, end at the goal, after `horizon` agent actions, or
once `base_action_budget` base actions have been consumed.  Cost rule: a
base action consumes one base action and a skill consumes its unrolled
length, at least one (an empty sequence still takes a step).  The dead state
is a real absorbing state: an agent that walks into it keeps burning one base
action per step until the episode ends.  A run's env steps are the base
actions its training episodes consume, times |A| for RL value iteration,
whose updates read every successor of a state.

Sample complexity is measured from periodic evaluations: the env-step counts
at which a monitored series crosses its threshold are averaged.

`run` relies on one invariant: between two replay updates the behaviour
policy does not change.  Q-learning's table and RL value iteration's V change
only in a replay update, and epsilon only at an evaluation.  So `run` keeps
each Q row's max and first argmax in lists and refreshes them only for the
rows an update touches.  Every draw from the training and
evaluation streams happens in a fixed order, so a run's record depends only
on (env, p, cfg).

Every draw comes from `_Draws`, which replays the training and evaluation
streams from blocks of raw PCG64 words exactly as `np.random.Generator`
would make them: the same `random`, `integers` and `choice` values from the
same seed, without a numpy call per step.  Two tests guard that equality:
`_run_oracle` in tests/test_oracles.py, which makes the same calls on a
real `Generator`, and the stream-pinning test in tests/test_rl.py.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import chain, repeat

import numpy as np

from .mdp import StateDistribution, TabularDsmdp
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
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunRecord":
        """Inverse of ``to_json_dict``; other keys are ignored."""
        return cls(samples=[tuple(s) for s in d["samples"]],
                   converged=d["converged"],
                   terminal_env_steps=d["terminal_env_steps"],
                   algorithm=d["algorithm"], seed=d["seed"])


def measure_sample_complexity(record: RunRecord, criterion: str,
                              threshold: float):
    """Mean env-step count over all crossings of the threshold in the
    qualifying direction (above for reward, below for value error); NaN
    samples are skipped."""
    sign = {"reward": 1.0, "value_error": -1.0}.get(criterion)
    if sign is None:
        raise ValueError(f"unknown criterion {criterion!r}")
    crossings = []
    prev = -math.inf
    for steps, v in record.series(criterion):
        if math.isnan(v):
            continue
        if prev < sign * threshold <= sign * v:
            crossings.append(steps)
        prev = sign * v
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


def _tables(env):
    """(mdp, successor table with a dead row, cost [n+1, m]) of a base or
    augmented MDP; cost[s, a] is the base actions that a takes in s under
    the module's cost rule."""
    mdp = env.mdp if isinstance(env, AugmentedMdp) else env
    cost = np.ones((mdp.num_states + 1, mdp.num_actions), dtype=np.int64)
    if isinstance(env, AugmentedMdp):
        cost[:-1, env.base.num_actions:] = np.maximum(1, env.skill_lengths)
    return mdp, mdp.successor_padded(), cost


def _softmax(row: np.ndarray) -> np.ndarray:
    probs = np.exp(row - row.max())
    probs /= probs.sum()
    return probs


def _successor_values(t, v, goal: int, gamma: float) -> np.ndarray:
    """Bootstrap target of each successor in t: 1 at the goal and gamma * v
    elsewhere; v holds the dead state's 0 at its last index."""
    return np.where(t == goal, 1.0, gamma * v[t])


def _ground_truth(mdp: TabularDsmdp, gamma: float):
    """(v*, q*) of the run and the planner: gamma^(d-1) per state and gamma^d
    per successor where solvable, else 0; v*(goal) = 1, q*(goal, .) = 0."""
    d = mdp.solution_lengths
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


def _check_config(cfg: RlConfig, p: StateDistribution) -> None:
    """Reject a config that `run` cannot run: one whose episodes use no env
    step, whose evaluation averages over no episode, or whose replay
    updates can never start."""
    fields = ["horizon", "base_action_budget"]
    replay = cfg.algorithm in (Q_LEARNING, RL_VALUE_ITERATION)
    if replay:
        fields += ["update_every", "batch_size"]
    if p.support_size > 1:
        fields.append("eval_episodes")
    for name in fields:
        if getattr(cfg, name) < 1:
            raise ValueError(f"RlConfig.{name} must be at least 1, "
                             f"got {getattr(cfg, name)}")
    if replay and cfg.batch_size > cfg.replay_size:
        raise ValueError(f"RlConfig.batch_size {cfg.batch_size} exceeds "
                         f"replay_size {cfg.replay_size}, so no update "
                         f"would ever run")


# raw words per refill, the first small: each evaluation starts a fresh _Draws
_FIRST_BLOCK, _BLOCK = 256, 4096
_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32


class _Draws:
    """The `np.random.Generator` calls `run` makes, on a PCG64 seeded from
    `seed`, replayed from blocks of raw 64-bit words.

    `random()` is the top 53 bits of one word scaled by 2**-53.
    `integers(n)` is numpy's 32-bit Lemire draw for n < 2**32: a 32-bit
    value is the low half of a fresh word, and the high half is kept for the
    next 32-bit value, across calls as in the bit generator.  A range of one
    draws nothing.  `integers(0, n, size=k)` is k such draws in a row.
    `choice(m, p=probs)` is one `random()` searched in the normalised
    cumulative sum of probs."""

    __slots__ = ("word", "_half")

    def __init__(self, seed):
        raw = np.random.PCG64(seed).random_raw
        sizes = chain([_FIRST_BLOCK], repeat(_BLOCK))
        blocks = (raw(k).tolist() for k in sizes)
        self.word = chain.from_iterable(blocks).__next__
        self._half = None

    def random(self) -> float:
        return (self.word() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            w = self.word()
            self._half = w >> 32
            return w & _MASK32
        self._half = None
        return half

    def integers(self, n: int) -> int:
        if not 1 < n < _TWO32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) replays 1 <= n < 2**32, got {n}")
        half = self._half  # `_uint32`, inlined on the hot path
        if half is None:
            w = self.word()
            self._half = w >> 32
            x = (w & _MASK32) * n
        else:
            self._half = None
            x = half * n
        if x & _MASK32 < n:  # numpy's cheap pre-test before the modulo
            threshold = (_TWO32 - n) % n
            while x & _MASK32 < threshold:
                x = self._uint32() * n
        return x >> 32

    def batch(self, n: int, k: int) -> list[int]:
        """`integers(0, n, size=k)` as a list: k draws of `integers(n)`."""
        return [self.integers(n) for _ in range(k)]

    def choice(self, probs: np.ndarray) -> int:
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self.random(), "right"))


def run(env, p: StateDistribution, cfg: RlConfig) -> RunRecord:
    """One seeded RL run producing the evaluation time series."""
    algo = cfg.algorithm
    if algo not in (Q_LEARNING, RL_VALUE_ITERATION, REINFORCE):
        raise ValueError(f"unknown algorithm {algo!r}")
    _check_config(cfg, p)
    mdp, succ, cost = _tables(env)
    succ, cost = succ.tolist(), cost.tolist()
    goal, dead, m, gamma = mdp.goal, mdp.dead, mdp.num_actions, cfg.gamma
    alpha, horizon, budget = cfg.alpha, cfg.horizon, cfg.base_action_budget
    rows = mdp.num_states + 1
    train_seed, eval_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    draws = _Draws(train_seed)
    v_star, q_star = _ground_truth(mdp, gamma)
    sup = p.support
    sup_list = sup.tolist()
    psup = p.probs[sup]
    cumsup = np.cumsum(psup).tolist()

    def start(g: _Draws) -> int:
        if len(sup_list) == 1:
            return sup_list[0]
        i = bisect_right(cumsup, g.random())
        return sup_list[min(i, len(sup_list) - 1)]

    # Q rows for q-learning, V for RL value iteration, theta for REINFORCE.
    # No dead step is ever updated, so the dead row stays zero.
    if algo == Q_LEARNING:
        q = [[0.0] * m for _ in range(rows)]
        rowmax = [0.0] * rows
        greedy_action = [0] * rows  # first argmax of each Q row
        greedy = greedy_action.__getitem__

        def learn(s: int, a: int) -> None:
            t = succ[s][a]
            row = q[s]
            target = 1.0 if t == goal else gamma * rowmax[t]
            row[a] += alpha * (target - row[a])
            rowmax[s] = best = max(row)
            greedy_action[s] = row.index(best)

        def value_error() -> float:
            err = np.abs(np.array([q[s] for s in sup_list]) - q_star[sup])
            return float(np.dot(psup, err.mean(axis=1)))
    elif algo == RL_VALUE_ITERATION:
        v = [0.0] * rows

        def successor_values(s: int) -> list[float]:
            # `_successor_values` for one state
            return [1.0 if t == goal else gamma * v[t] for t in succ[s]]

        def greedy(s: int) -> int:
            vals = successor_values(s)
            return vals.index(max(vals))

        def learn(s: int, a: int) -> None:
            v[s] += alpha * (max(successor_values(s)) - v[s])

        def value_error() -> float:
            err = np.abs(np.array([v[s] for s in sup_list]) - v_star[sup])
            return float(np.dot(psup, err))
    else:
        theta = np.zeros((rows, m))

    def softmax_policy(g: _Draws):
        return lambda s: g.choice(_softmax(theta[s]))

    word, randint = draws.word, draws.integers

    def epsilon_greedy(s: int) -> int:
        # random() < eps, exactly, on the 53-bit integer behind random()
        if word() >> 11 < eps_cut:
            return randint(m)
        return greedy(s)

    def episode(s: int, choose):
        """Roll one episode from s: its (state, action) steps, whether it
        reached the goal, and the base actions it used."""
        steps = []
        base_used = 0
        while len(steps) < horizon and base_used < budget:
            a = choose(s)
            steps.append((s, a))
            base_used += cost[s][a]
            s = succ[s][a]
            if s == goal:
                return steps, True, base_used
        return steps, False, base_used

    n_eval = 1 if len(sup) == 1 else cfg.eval_episodes

    def evaluate():
        ev = _Draws(eval_seed)
        choose = softmax_policy(ev) if algo == REINFORCE else greedy
        total = 0.0
        for _ in range(n_eval):
            steps, reached, _ = episode(start(ev), choose)
            if reached:
                total += gamma ** (len(steps) - 1)
        err = float("nan") if algo == REINFORCE else value_error()
        return total / n_eval, err

    replay_size = cfg.replay_size
    replay: list = [None] * replay_size  # (state, action) ring buffer
    replay_ptr = 0
    replay_full = False

    mult = m if algo == RL_VALUE_ITERATION else 1
    policy = softmax_policy(draws) if algo == REINFORCE else epsilon_greedy
    eps = cfg.eps_start
    eps_cut = eps * 2.0 ** 53
    best_reward = 0.0
    env_steps = 0
    last_eval = 0
    episodes = 0
    samples: list[tuple[int, float, float]] = []
    converged = False

    while env_steps < cfg.max_env_steps and not converged:
        steps, reached, base_used = episode(start(draws), policy)
        env_steps += base_used * mult
        episodes += 1
        if algo == REINFORCE:
            if reached:  # dead is absorbing, so no step of the episode is dead
                g = gamma ** (len(steps) - 1)
                for s, a in steps:
                    grad = -_softmax(theta[s])
                    grad[a] += 1.0
                    theta[s] += alpha * g * grad
        else:
            for step in steps:
                if step[0] != dead:
                    replay[replay_ptr] = step
                    replay_ptr += 1
                    if replay_ptr == replay_size:
                        replay_ptr = 0
                        replay_full = True
            replay_fill = replay_size if replay_full else replay_ptr
            if (episodes % cfg.update_every == 0
                    and replay_fill >= cfg.batch_size):
                # the only place the behaviour policy changes
                for i in draws.batch(replay_fill, cfg.batch_size):
                    learn(*replay[i])

        if env_steps - last_eval >= cfg.eval_every_env_steps:
            last_eval = env_steps
            reward, err = evaluate()
            samples.append((env_steps, reward, err))
            eps, best_reward = adaptive_epsilon_step(eps, best_reward,
                                                     reward, cfg)
            eps_cut = eps * 2.0 ** 53
            if cfg.stop_reward is not None and reward >= cfg.stop_reward:
                converged = True
            if (cfg.stop_value_error is not None and not math.isnan(err)
                    and err <= cfg.stop_value_error):
                converged = True

    return RunRecord(samples=samples, converged=converged,
                     terminal_env_steps=env_steps, algorithm=algo,
                     seed=cfg.seed)


# -- synchronous planners ---------------------------------------------------

@dataclass(eq=False)  # == is identity; a generated == fails on arrays
class PlannerResult:
    sweeps_to: dict
    first_value_one: np.ndarray | None  # per-state sweep of first exact V == 1
    table: np.ndarray
    sweeps_run: int


def planner_value_iteration(mdp: TabularDsmdp, variant: str = "state",
                            alpha: float = 0.1, *,
                            p: StateDistribution | None = None,
                            stop_value_error: float | None = None,
                            gamma: float = 1.0,
                            max_sweeps: int = 100_000,
                            track_first_exact: bool = False) -> PlannerResult:
    """Synchronous interpolated value iteration over the full table.

    variant="state": V(s) <- (1-a) V(s) + a max_a V(T(s,a)), V(goal) pinned 1.
    variant="q":     Q(s,a) <- (1-a) Q(s,a) + a (1 if T(s,a)=goal else
                      gamma max_a' Q(T(s,a),a')).
    ``sweeps_to["value_error"]`` is the first sweep whose p-weighted value
    error is at most ``stop_value_error``.
    """
    n, m = mdp.num_states, mdp.num_actions
    succ = mdp.successor
    if variant not in ("state", "q"):
        raise ValueError("variant must be 'state' or 'q'")
    v_star, _ = _ground_truth(mdp, gamma)
    sup = p.support if p is not None else None

    v = np.zeros(n + 1)  # v[n] is the dead state's, always 0
    qtab = np.zeros((n, m))
    first_one = np.full(n, -1, dtype=np.int64) if track_first_exact else None
    if track_first_exact:
        first_one[mdp.goal] = 0
    sweeps_to: dict = {}
    want_err = stop_value_error is not None

    for sweep in range(1, max_sweeps + 1):
        targets = _successor_values(succ, v, mdp.goal, gamma)
        if variant == "state":
            v[:n] = (1.0 - alpha) * v[:n] + alpha * targets.max(axis=1)
            v[mdp.goal] = 1.0
        else:
            qtab = (1.0 - alpha) * qtab + alpha * targets
            v[:n] = qtab.max(axis=1)
        cur_v = v[:n]
        if track_first_exact:
            hit = (first_one == -1) & (cur_v == 1.0)
            first_one[hit] = sweep
        if want_err and "value_error" not in sweeps_to and sup is not None:
            err = float(np.dot(p.probs[sup], np.abs(cur_v[sup] - v_star[sup])))
            if err <= stop_value_error:
                sweeps_to["value_error"] = sweep
        done_err = (not want_err) or ("value_error" in sweeps_to)
        if done_err and (first_one is None or (first_one != -1).all()):
            break
    table = v[:n] if variant == "state" else qtab
    return PlannerResult(sweeps_to=sweeps_to, first_value_one=first_one,
                         table=table, sweeps_run=sweep)
