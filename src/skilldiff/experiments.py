"""Experiment drivers: variant grids, metric tables, RL campaigns,
lambda-optimized correlations, improvement scatters, and the randomized
theorem campaign."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import _ranges
from .envs import ENV_PRESETS, build_env
from .mdp import StateDistribution, TabularDsmdp
from .metrics import (bounds_report, compute_difficulty_report,
                      incompressibility_threshold, tightness_augmentation)
from .rl import protocol_preset, measure_sample_complexity, run
from .skills import (GOAL_PASS_DEAD, GOAL_PASS_SUCCESS, MACRO_PRESETS,
                     AugmentedMdp, MacroGenSpec, Skill, augment,
                     generate_macro_sets, macro_from_labels)

FLOAT_FMT = "%.12g"
TRADEOFF_DELTA = 0.2  # tradeoff_demonstration's delta and resolution K
TRADEOFF_K = 600

# env preset -> (macro-law kind, curated preset prefix)
_ENV_MACRO_FAMILY = {
    "cliff": ("cliff_walking", "cliff"),
    "pickup": ("pickup_world", "pickup"),
    "puzzle8": ("n_puzzle", "puzzle"),
    "cube": ("pocket_cube", "cube"),
}


class UnknownEnvError(ValueError):
    pass


@dataclass
class VariantSpec:
    name: str
    macros: list[str]  # macro words over the env's action labels

    @property
    def is_base(self) -> bool:
        return not self.macros


def variant_grid(env_preset: str, seed: int = 0) -> list[VariantSpec]:
    """The 32-variant grid: base + curated sets + 25 random sets
    (5 set sizes x 5 sets, per the environment's sampling law)."""
    if env_preset not in _ENV_MACRO_FAMILY:
        raise UnknownEnvError(f"no variant grid for env {env_preset!r}; "
                              f"use one of {', '.join(_ENV_MACRO_FAMILY)}")
    kind, prefix = _ENV_MACRO_FAMILY[env_preset]
    out = [VariantSpec("base", [])]
    for key in sorted(MACRO_PRESETS):
        if key.startswith(prefix + "/"):
            out.append(VariantSpec(key, list(MACRO_PRESETS[key])))
    gen = generate_macro_sets(MacroGenSpec(env_kind=kind, seed=seed))
    for k in sorted(gen):
        for j, words in enumerate(gen[k]):
            out.append(VariantSpec(f"gen/k{k}/s{j}", words))
    return out


def materialize_variant(mdp: TabularDsmdp, variant: VariantSpec,
                        mode: str) -> AugmentedMdp:
    skills = [macro_from_labels(w, mdp.action_labels) for w in variant.macros]
    return augment(mdp, skills, mode=mode)


def cell_seed(*parts: int) -> int:
    """Stable scalar seed derived from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# -- metric tables ---------------------------------------------------------

def metrics_table(env_preset: str, variants: list[VariantSpec],
                  delta: float = 1.0 / 50.0) -> list[dict]:
    mdp, p, _ = build_env(ENV_PRESETS[env_preset])
    return [_metrics_row(mdp, p, v, delta) for v in variants]


def _metrics_row(mdp: TabularDsmdp, p: StateDistribution,
                 v: VariantSpec, delta: float) -> dict:
    """One row of ``metrics_table``; the variant's augmented MDP is freed on
    return, before the next variant is built."""
    aug = None if v.is_base else materialize_variant(mdp, v, GOAL_PASS_DEAD)
    rep = compute_difficulty_report(aug.mdp if aug else mdp, p, delta)
    row = {"variant": v.name, "macros": "|".join(v.macros)}
    # the table keeps its columns; the q error bound is in the report and
    # the table computes no merged IC
    row.update({k: val for k, val in asdict(rep).items()
                if not isinstance(val, dict)
                and k not in ("q_error_bound", "ic_merged")})
    row["goal_pass_mode"] = aug.goal_pass_mode if aug else None
    row["ic_fixed"] = rep.ic_unmerged_fixed["value"]
    row["ic_sup"] = rep.ic_unmerged_sup["value"]
    return row


def write_csv(rows: list[dict], path: str):
    import csv
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(keys)
        for r in rows:
            w.writerow([_fmt(r.get(k)) for k in keys])


def _fmt(v):
    if isinstance(v, float):
        return FLOAT_FMT % v
    return v


# -- RL campaign -------------------------------------------------------------

_ENV_CACHE: dict = {}


def _cached_env(env_preset: str):
    if env_preset not in _ENV_CACHE:
        mdp, p, _ = build_env(ENV_PRESETS[env_preset])
        _ENV_CACHE[env_preset] = (mdp, p)
    return _ENV_CACHE[env_preset]


_ALGO_IDS = {"q_learning": 0, "rl_value_iteration": 1, "reinforce": 2}


def _run_cell(args) -> dict:
    (env_preset, variant, v_idx, algo, seed_idx, root_seed, overrides) = args
    mdp, p = _cached_env(env_preset)
    cfg = replace(protocol_preset(algo), **overrides)
    cfg = replace(cfg, seed=cell_seed(root_seed, v_idx, _ALGO_IDS[algo],
                                      seed_idx))
    if variant.is_base:
        env = mdp
    else:
        env = materialize_variant(mdp, variant, GOAL_PASS_SUCCESS)
    rec = run(env, p, cfg)
    return {
        "variant": variant.name, "algorithm": algo, "seed_index": seed_idx,
        "record": rec,
    }


def _ordered_map(fn, items, workers: int, consume, chunksize: int = 1):
    """consume(fn(item)) for each item of the iterable, in order.

    fn runs on a fork pool of ``workers`` processes, which take ``chunksize``
    items at a time as the pool draws them from ``items``, or inline with
    one worker.  The pool is closed and joined before this returns, and
    terminated and joined when drawing, fn or consume raises, so no worker
    outlives the call."""
    if workers <= 1:
        for item in items:
            consume(fn(item))
        return
    import multiprocessing as mp
    pool = mp.get_context("fork").Pool(workers)
    try:
        for res in pool.imap(fn, items, chunksize):
            consume(res)
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    pool.close()
    pool.join()


def run_rl_campaign(env_preset: str, variants: list[VariantSpec],
                    algorithms: list[str], seeds: int, root_seed: int = 0,
                    overrides: dict | None = None, jobs: int = 1,
                    progress=None) -> list[dict]:
    cells = [(env_preset, v, vi, algo, si, root_seed, overrides or {})
             for vi, v in enumerate(variants) for algo in algorithms
             for si in range(seeds)]
    results = []

    def consume(res):
        results.append(res)
        if progress:
            progress(res)
    _ordered_map(_run_cell, cells, jobs, consume)
    return results


def sample_complexities(results: list[dict], criterion: str,
                        threshold: float) -> dict[str, list[float | None]]:
    """variant -> per-seed N (None = never crossed)."""
    out: dict[str, list] = {}
    for res in results:
        n = measure_sample_complexity(res["record"], criterion, threshold)
        out.setdefault(res["variant"], []).append(n)
    return out


# -- lambda-optimized correlation -------------------------------------------

@dataclass
class CorrelationResult:
    pearson_r: float
    lambda_star: float
    excluded: list[str]
    pairs: list[tuple[str, float, float]]  # (variant, log N, log J at best)


class InsufficientDataError(ValueError):
    pass


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def _log_j(lam: float, ln_jl: np.ndarray, je: np.ndarray) -> np.ndarray:
    """log(lam * J_learn + (1 - lam) * exp(J_explore)) without overflow."""
    if lam <= 0.0:
        return je
    if lam >= 1.0:
        return ln_jl
    return np.logaddexp(math.log(lam) + ln_jl, math.log1p(-lam) + je)


def lambda_correlation(names: list[str], log_n, j_learn, j_explore,
                       grid: int = 1001) -> CorrelationResult:
    """Maximize Pearson r between log N and log(lam Jl + (1-lam) e^{Je})."""
    keep = [i for i, n in enumerate(log_n) if n is not None]
    excluded = [names[i] for i in range(len(names)) if i not in keep]
    if len(keep) < 3:
        raise InsufficientDataError(
            f"need at least 3 converged variants, have {len(keep)}")
    ln_n = np.array([log_n[i] for i in keep], dtype=float)
    ln_jl = np.log(np.array([j_learn[i] for i in keep], dtype=float))
    je = np.array([j_explore[i] for i in keep], dtype=float)

    def r_at(lam: float) -> float:
        r = _pearson(ln_n, _log_j(lam, ln_jl, je))
        return -1.0 if math.isnan(r) else r

    lams = np.linspace(0.0, 1.0, grid)
    vals = [r_at(l) for l in lams]
    i = int(np.argmax(vals))
    lo = lams[max(i - 1, 0)]
    hi = lams[min(i + 1, grid - 1)]
    res = minimize_scalar(lambda l: -r_at(l), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-6})
    best_lam, best_r = (float(res.x), float(-res.fun))
    if vals[i] >= best_r:
        best_lam, best_r = float(lams[i]), float(vals[i])
    logj = _log_j(best_lam, ln_jl, je)
    pairs = [(names[k], float(ln_n[j]), float(logj[j]))
             for j, k in enumerate(keep)]
    return CorrelationResult(pearson_r=best_r, lambda_star=best_lam,
                             excluded=excluded, pairs=pairs)


def mean_log_n(per_variant: dict[str, list], names: list[str]) -> list:
    """Mean log N per variant; None when any seed never crossed."""
    out = []
    for n in names:
        vals = per_variant.get(n, [])
        if not vals or any(v is None for v in vals):
            out.append(None)
        else:
            out.append(float(np.mean(np.log(vals))))
    return out


# -- improvement scatter ------------------------------------------------------

GNUPLOT_TEMPLATE = """\
set datafile separator ','
set xlabel 'unmerged incompressibility (base)'
set ylabel 'best improvement ratio min C+/C0'
set logscale y
plot '{csv}' using 2:3:1 with labels point pt 7 offset char 1,0.5 notitle
"""


def improvement_scatter(env_rows: dict[str, list[dict]]) -> list[dict]:
    """env_rows: env -> its ``metrics_table`` rows, each optionally with a
    ``sample_complexity``.  Emits one row per (env, measure) that the base
    row has: the base's ``ic_sup`` and the best ratio C+/C0, the least over
    the other rows that have the measure."""
    out = []
    for env, rows in sorted(env_rows.items()):
        base = next(r for r in rows if r["variant"] == "base")
        for measure in ("j_explore", "j_learn", "sample_complexity"):
            c0 = base.get(measure)
            if c0 is None:
                continue
            ratios = [r[measure] / c0 for r in rows
                      if r is not base and r.get(measure) is not None]
            if ratios:
                out.append({"env": env, "measure": measure,
                            "ic": base["ic_sup"], "best_ratio": min(ratios)})
    return out


# -- randomized theorem campaign ---------------------------------------------

def random_invertible_mdp(rng: np.random.Generator, num_states: int,
                          num_actions: int, max_tries: int = 200
                          ) -> TabularDsmdp:
    """Random DSMDP whose actions are permutations restricted to non-goal
    states, with every state solvable.  No two states share an (action,
    successor) pair, so the MDP is ``solution_separable``."""
    for _ in range(max_tries):
        succ = np.empty((num_states, num_actions), dtype=np.int32)
        for a in range(num_actions):
            succ[:, a] = rng.permutation(num_states)
        succ[0] = num_states  # goal row
        mdp = TabularDsmdp(successor=succ, goal=0,
                           action_labels=[f"a{i}" for i in range(num_actions)])
        if mdp.solution_lengths.solvable.all():
            return mdp
    raise RuntimeError("failed to sample a fully solvable invertible MDP")


def random_distribution(rng: np.random.Generator, mdp: TabularDsmdp
                        ) -> StateDistribution:
    probs = np.zeros(mdp.num_states)
    non_goal = [s for s in range(mdp.num_states) if s != mdp.goal]
    w = rng.dirichlet(np.ones(len(non_goal)))
    probs[non_goal] = w
    return StateDistribution(probs)


def random_macro_skills(rng: np.random.Generator, mdp: TabularDsmdp,
                        max_k: int = 4, max_len: int = 4) -> list[Skill]:
    k = int(rng.integers(1, max_k + 1))
    seen = set()
    skills = []
    tries = 0
    while len(skills) < k and tries < 200:
        tries += 1
        L = int(rng.integers(2, max_len + 1))
        seq = tuple(int(x) for x in rng.integers(0, mdp.num_actions, size=L))
        if seq in seen:
            continue
        seen.add(seq)
        skills.append(Skill.from_macro(seq, label="m" + "".join(map(str, seq))))
    return skills


def random_tabular_skills(rng: np.random.Generator, mdp: TabularDsmdp,
                          max_k: int = 3) -> list[Skill]:
    k = int(rng.integers(1, max_k + 1))
    skills = []
    for j in range(k):
        seqs = []
        for s in range(mdp.num_states):
            if s == mdp.goal or rng.random() < 0.3:
                seqs.append(())
            else:
                L = int(rng.integers(1, 4))
                seqs.append(tuple(int(x) for x in
                                  rng.integers(0, mdp.num_actions, size=L)))
        skills.append(Skill.from_sequences(seqs, label=f"z{j}"))
    return skills


def build_star_base(num_actions: int = 6) -> tuple[TabularDsmdp,
                                                    StateDistribution]:
    """Maximally incompressible base: state i is solved only by action i.
    All support sits at distance 1 with full length-1 coverage, so the
    unmerged incompressibility attains 1 (the boundary limit)."""
    n = num_actions + 1
    succ = np.full((n, num_actions), n, dtype=np.int32)
    for i in range(num_actions):
        succ[1 + i, i] = 0
    mdp = TabularDsmdp(successor=succ, goal=0,
                       action_labels=[f"a{i}" for i in range(num_actions)])
    p = np.zeros(n)
    p[1:] = 1.0 / num_actions
    return mdp, StateDistribution(p)


@dataclass
class CampaignSummary:
    cases: int = 0
    holds: int = 0
    inconclusive: int = 0
    skipped: int = 0
    violations: list[str] = field(default_factory=list)
    held_by_claim: Counter = field(default_factory=Counter)
    checked_by_claim: Counter = field(default_factory=Counter)

    def absorb(self, tag: str, report):
        self.cases += 1
        for c in report.claims:
            self.checked_by_claim[c.name] += c.preconditions_met
            if not c.preconditions_met:
                self.skipped += 1
            elif c.holds is True:
                self.holds += 1
                self.held_by_claim[c.name] += 1
            elif c.holds is None:
                self.inconclusive += 1
            else:
                self.violations.append(
                    f"{tag}: {c.name} lhs={c.lhs!r} rhs={c.rhs!r} ({c.notes})")


# cases per task sent to a campaign worker: a case takes about a
# millisecond, so a task outweighs its pipe round trip (8, 16 and 32
# measured alike on a 2-vCPU Xeon)
_CASE_CHUNK = 16


def _theorem_case(case) -> tuple:
    tag, mdp, skills, p, delta = case
    return tag, bounds_report(augment(mdp, skills, mode=GOAL_PASS_DEAD),
                              p, delta)


def theorem_campaign(seed: int = 0, n_macro_cases: int = 200,
                     n_skill_cases: int = 200, n_seqcons_sets: int = 50,
                     delta: float = 0.1, max_states: int = 40,
                     progress=None) -> CampaignSummary:
    """Randomized verification campaign over the inequality claims.

    Every case is drawn in this process, in order, from one seeded
    generator, while ``_ranges.CPUS`` workers evaluate the cases drawn
    before it (augmentation and bounds report, which draw nothing).  The
    reports are absorbed in case order, so the summary does not depend on
    the worker count."""
    from .envs.synthetic import build_sequence_consume

    def cases():
        rng = np.random.default_rng(seed)
        for kind, n_cases, make_skills in (
                ("macro", n_macro_cases, random_macro_skills),
                ("skill", n_skill_cases, random_tabular_skills)):
            for i in range(n_cases):
                n = int(rng.integers(5, max_states + 1))
                m = int(rng.integers(2, 4))
                mdp = random_invertible_mdp(rng, n, m)
                p = random_distribution(rng, mdp)
                yield (kind, i), mdp, make_skills(rng, mdp), p, delta
        seq_mdp, seq_p = build_sequence_consume(2, 3)
        for i in range(n_seqcons_sets):
            yield (("seqcons", i), seq_mdp,
                   random_macro_skills(rng, seq_mdp), seq_p, 0.0)

    summary = CampaignSummary()

    def consume(res):
        (kind, i), rep = res
        summary.absorb(f"{kind}[{i}]", rep)
        if progress:
            progress(i, kind)
    total = n_macro_cases + n_skill_cases + n_seqcons_sets
    _ordered_map(_theorem_case, cases(), min(_ranges.CPUS, total),
                 consume, _CASE_CHUNK)
    return summary


def tradeoff_demonstration() -> dict:
    """On a base meeting the incompressibility condition, a suitable skill
    augmentation raises learning difficulty while lowering exploration
    difficulty."""
    mdp, p = build_star_base(6)
    aug, info = tightness_augmentation(mdp, p, TRADEOFF_DELTA, TRADEOFF_K)
    base = compute_difficulty_report(mdp, p, TRADEOFF_DELTA)
    plus = compute_difficulty_report(aug.mdp, p, TRADEOFF_DELTA)
    ic = base.ic_unmerged_sup["value"]
    return {
        "condition_met": bool(
            1.0 - ic <= incompressibility_threshold(mdp.num_actions)),
        "ic": ic,
        "j_learn_ratio": plus.j_learn / base.j_learn,
        "j_explore_ratio": plus.j_explore / base.j_explore,
        "fallback_self_states": len(info.fallback_states),
    }
