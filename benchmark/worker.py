"""One workload pass in a fresh interpreter.

Started by ``run.py`` once per pass, so that peak RSS, the library's
module-level caches and warm imports never leak from one pass into the next.
The last line of standard output is one JSON object describing the pass.

    python3 benchmark/worker.py --workload NAME --seed N --pass-index K
        [--spawned-at T] [--trace] [--setup-only] [--full]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from skilldiff import envs, experiments, mdp, metrics  # noqa: E402
from skilldiff.experiments import cell_seed  # noqa: E402

DELTA = 1.0 / 50.0
Q_TOL = 1e-12
# timed cliff-rl runs: no early stop, so every run does the same work
RL_OVERRIDES = {"max_env_steps": 90_000, "eval_every_env_steps": 2000,
                "stop_reward": None}
# --full: the c07 protocol, under which its gates were calibrated
C07_OVERRIDES = {"max_env_steps": 1_200_000, "eval_every_env_steps": 2000,
                 "stop_reward": 0.95}
C07_GRID_SEED = 7
THEOREM_SIZES = (200, 200, 50)  # macro, tabular-skill, seqcons cases
# c03 held-count floors; each equals the number of cases whose
# preconditions hold by construction, so they apply on every seed
THEOREM_FLOORS = {"learn_ratio_merged_ic": 400, "learn_ratio_unmerged_ic": 200,
                  "explore_density_lower_bound": 400,
                  "explore_gap_full_coverage": 50,
                  "density_at_most_one_separable": 200}
PRESETS = ("cliff", "puzzle8", "cube")
STAGES = ("build", "reverse_graph", "bfs", "solve_q", "j", "ic")


def pass_seed(seed: int, pass_index: int) -> int:
    """Inputs of pass k: the workload seed itself for k = 0, then seeds
    derived from (seed, k), so a longer run covers more inputs."""
    return seed if pass_index == 0 else cell_seed(seed, pass_index)


class Pass:
    """Operations, failures and timings of one workload pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.errors: list[str] = []
        self.op_s: list[float] = []
        self.work = 0
        self.stats: dict = {}

    def tag(self, name: str):
        if self.tracer is not None:
            self.tracer.tag = name

    def op(self, name: str, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self.errors.append(f"{name}: {why}")

    def check(self, name: str, cond: bool, why: str):
        """A correctness check that fails its operation without counting
        a second attempt."""
        if not cond:
            self.errors.append(f"{name}: {why}")


# -- exact-pipeline -----------------------------------------------------------

def _load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def _certified_log_slack(qt, q_min: float) -> float:
    """Bound on |log q - log q*| over the support, from the certified
    ||q - q*||_inf <= residual * (1 - delta) / delta."""
    eps = qt.residual * (1.0 - qt.delta) / qt.delta
    return eps / (q_min - eps) if q_min > eps else math.inf


def exact_pipeline(pa: Pass, full: bool):
    """build -> reverse graph -> BFS -> q -> J's -> IC(sup) per preset.

    The presets are fixed and exact, so the seed does not change the inputs
    and the recorded reference values apply on every seed.  The cube's
    q solve (about 80 s) runs only with ``full``."""
    ref = _load_reference()["exact-pipeline"]
    ic = {}
    for name in PRESETS:
        pa.tag(name)
        r = ref[name]
        out = {}
        t_preset = time.perf_counter()
        failed = None
        for stage in STAGES:
            if stage == "solve_q" and name == "cube" and not full:
                continue
            op = f"{name}.{stage}"
            if failed is not None:
                pa.op(op, False, f"skipped after {failed} failed")
                continue
            before = len(pa.errors)
            t0 = time.perf_counter()
            try:
                _exact_stage(pa, name, stage, out, r)
            except Exception as e:  # a raising stage is a failed operation
                pa.op(op, False, f"{type(e).__name__}: {e}")
            else:
                pa.op(op, True)
            pa.op_s.append(time.perf_counter() - t0)
            if len(pa.errors) > before:
                failed = stage
        pa.stats[f"pipeline_s.{name}"] = time.perf_counter() - t_preset
        pa.work += out["mdp"].num_states if "mdp" in out else 0
        if "ic" in out:
            ic[name] = out["ic"]
        out.clear()  # release the cube before the next preset
    pa.check("cube.ic", len(ic) == 3 and ic["cliff"] < ic["puzzle8"] < ic["cube"],
             f"IC ordering cliff < puzzle8 < cube violated: {ic}")


def _exact_stage(pa: Pass, name: str, stage: str, out: dict, r: dict):
    op = f"{name}.{stage}"
    if stage == "build":
        m, p, info = envs.build_env(envs.ENV_PRESETS[name])
        out.update(mdp=m, p=p)
        pa.stats[f"build_rss_mb.{name}"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if "scramble" in info:
            err = float(np.abs(info["scramble"].step_marginal_sums - 1.0).max())
            pa.stats[f"scramble_mass_error.{name}"] = err
            pa.check(op, err <= 1e-12, f"scramble step mass off by {err:.3e}")
        pa.check(op, m.num_states == r["states"],
                 f"{m.num_states} states, expected {r['states']}")
    elif stage == "reverse_graph":
        m = out["mdp"]
        out["rev"] = mdp.build_reverse_graph(m)
        live = int((m.successor != m.dead).sum())
        pa.check(op, out["rev"].num_edges == live == r["edges"],
                 f"{out['rev'].num_edges} edges, {live} live entries, "
                 f"expected {r['edges']}")
    elif stage == "bfs":
        d = mdp.shortest_solution_lengths(out["mdp"], out["rev"])
        out["d"] = d
        del out["rev"]
        out["p"].validate(out["mdp"], d.d)
        hist = np.bincount(d.d[d.d >= 0]).tolist()
        pa.check(op, hist == r["d_histogram"], "d histogram differs from "
                 "the reference")
    elif stage == "solve_q":
        qt = metrics.solve_q(out["mdp"], DELTA, tol=Q_TOL)
        out["q"] = qt
        pa.check(op, qt.residual <= Q_TOL, f"residual {qt.residual:.3e}")
        pa.check(op, bool(np.all((qt.q >= 0.0) & (qt.q <= 1.0))),
                 "q outside [0, 1]")
    elif stage == "j":
        m, p, d = out["mdp"], out["p"], out["d"]
        jl = metrics.p_learning_difficulty(m, p, d)
        expect = m.num_actions * d.expected(p)
        pa.check(op, math.isclose(jl, expect, rel_tol=1e-12),
                 f"J_learn {jl!r} != |A| E_p[d] = {expect!r}")
        pa.check(op, math.isclose(jl, r["j_learn"], rel_tol=1e-12),
                 f"J_learn {jl!r} != reference {r['j_learn']!r}")
        qt = out.get("q")
        if qt is not None:
            je = metrics.p_exploration_difficulty(m, p, qt)
            jam = metrics.p_exploration_difficulty_am(m, p, qt)
            q_min = float(qt.q[p.support].min())
            slack = (_certified_log_slack(qt, q_min) + r["j_explore_slack"]
                     + 1e-12 * abs(r["j_explore"]))
            pa.check(op, abs(je - r["j_explore"]) <= slack,
                     f"J_explore {je!r} vs reference {r['j_explore']!r} "
                     f"beyond the certified slack {slack:.3e}")
            pa.check(op, abs(jam - r["j_explore_am"]) <= slack
                     + 1e-12 * abs(r["j_explore_am"]),
                     f"J_explore_am {jam!r} vs reference "
                     f"{r['j_explore_am']!r} beyond {slack:.3e}")
    elif stage == "ic":
        # IC(sup) depends on d and p only, so it must match to rounding
        v = metrics.ic_unmerged(out["mdp"], out["p"], mode="sup",
                                d=out["d"]).value
        out["ic"] = v
        pa.check(op, 0.0 <= v <= 1.0, f"IC {v!r} outside [0, 1]")
        pa.check(op, math.isclose(v, r["ic_sup"], rel_tol=1e-9),
                 f"IC {v!r} != reference {r['ic_sup']!r}")


# -- cliff-rl -------------------------------------------------------------------

def cliff_rl_inputs(seed: int, full: bool) -> dict:
    """The c07 grid (macro sets from seed 7) with RL streams from the
    workload seed.

    Under the c07 protocol the seed decides which runs stop early and which
    exhaust the 1.2 M-step budget, and an env step of a run that never
    converges costs more.  Env-steps/s then moved with the seed by more than
    the timing noise, so the timed runs give every run the same 90 k-step
    budget instead."""
    variants = experiments.variant_grid("cliff", C07_GRID_SEED)
    return {"variants": variants, "root_seed": seed,
            "seeds": 5 if full else 1,
            "overrides": C07_OVERRIDES if full else RL_OVERRIDES}


def cliff_rl(pa: Pass, inputs: dict, full: bool):
    """The c07 grid x q_learning x seeds in one process."""
    budget = inputs["overrides"]["max_env_steps"]
    # an episode stops once its base-action budget is used up, so its last
    # action overshoots the budget by at most the longest macro
    slack = experiments.protocol_preset("q_learning").base_action_budget + max(
        (len(w) for v in inputs["variants"] for w in v.macros), default=1)
    last = [time.perf_counter()]
    steps = [0]

    def progress(res):
        now = time.perf_counter()
        pa.op_s.append(now - last[0])
        last[0] = now
        rec = res["record"]
        op = f"{res['variant']}/seed{res['seed_index']}"
        xs = [s[0] for s in rec.samples]
        why = []
        if any(b <= a for a, b in zip(xs, xs[1:])):
            why.append("sample env-steps not increasing")
        if any(not 0.0 <= s[1] <= 1.0 for s in rec.samples):
            why.append("reward outside [0, 1]")
        if rec.terminal_env_steps > budget + slack:
            why.append(f"{rec.terminal_env_steps} env steps > budget "
                       f"{budget} + {slack}")
        pa.op(op, not why, "; ".join(why))
        steps[0] += rec.terminal_env_steps

    pa.tag("cliff-rl")
    expected = len(inputs["variants"]) * inputs["seeds"]
    try:
        results = experiments.run_rl_campaign(
            "cliff", inputs["variants"], ["q_learning"], inputs["seeds"],
            root_seed=inputs["root_seed"], overrides=inputs["overrides"],
            jobs=1,
            progress=progress)
    except Exception as e:
        results = None
        for _ in range(expected - pa.attempted):
            pa.op("rl-run", False, f"campaign raised {type(e).__name__}: {e}")
    pa.work = steps[0]
    pa.stats["env_steps"] = steps[0]
    if results is not None and full:
        _c07_gates(pa, inputs["variants"], results)


def _c07_gates(pa: Pass, variants, results):
    pa.tag("c07-gates")
    names = [v.name for v in variants]
    per_variant = experiments.sample_complexities(results, "reward", 0.95)
    log_n = experiments.mean_log_n(per_variant, names)
    rows = experiments.metrics_table("cliff", variants)
    geo = experiments.lambda_correlation(
        names, log_n, [r["j_learn"] for r in rows],
        [r["j_explore"] for r in rows])
    converged = sum(x is not None for x in log_n)
    pa.stats.update(pearson_r=geo.pearson_r, converged_variants=converged)
    pa.check("c07", geo.pearson_r >= 0.80, f"r = {geo.pearson_r:.4f} < 0.80")
    pa.check("c07", converged >= 10, f"{converged} of 32 variants converged")
    pa.check("c07", all(n is not None for n in per_variant["base"]),
             "base did not converge on every seed")


# -- theorem-campaign -----------------------------------------------------------

def theorem(pa: Pass, seed: int):
    """The c03 campaign; one operation per case."""
    last = [time.perf_counter()]

    def progress(i, kind):
        now = time.perf_counter()
        pa.op_s.append(now - last[0])
        last[0] = now

    pa.tag("theorem-campaign")
    n_cases = sum(THEOREM_SIZES)
    try:
        summary = experiments.theorem_campaign(seed, *THEOREM_SIZES,
                                               progress=progress)
    except Exception as e:
        done = len(pa.op_s)
        pa.attempted, pa.work = n_cases, done
        pa.errors += [f"case {i}: campaign raised {type(e).__name__}: {e}"
                      for i in range(done, n_cases)]
        return
    bad = {v.split(":")[0] for v in summary.violations}
    pa.attempted = summary.cases
    pa.errors += summary.violations
    pa.work = summary.cases
    pa.stats.update(cases=summary.cases, violating_cases=len(bad),
                    held=summary.holds)
    pa.check("campaign", summary.cases == n_cases,
             f"{summary.cases} cases, expected {n_cases}")
    for claim, floor in THEOREM_FLOORS.items():
        got = summary.held_by_claim.get(claim, 0)
        pa.check("campaign", got >= floor, f"{claim} held {got} < {floor}")


# -- one pass ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("exact-pipeline", "cliff-rl", "theorem-campaign"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() of the parent when it started "
                         "this process; set-up time is measured from it")
    ap.add_argument("--trace", action="store_true",
                    help="record spans, summarize them per layer and write "
                         "them to .bench_out/")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args(argv)

    seed = pass_seed(args.seed, args.pass_index)
    t_inputs = time.monotonic()
    inputs = cliff_rl_inputs(seed, args.full) \
        if args.workload == "cliff-rl" else None
    t_first = time.monotonic()
    result = {"setup_s": t_first - args.spawned_at
              if args.spawned_at is not None else None,
              "inputs_s": t_first - t_inputs}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pass{args.pass_index}")
        tracer.install()
    pa = Pass(tracer)
    t0 = time.perf_counter()
    if args.workload == "exact-pipeline":
        exact_pipeline(pa, args.full)
    elif args.workload == "cliff-rl":
        cliff_rl(pa, inputs, args.full)
    else:
        theorem(pa, seed)
    wall = time.perf_counter() - t0
    result.update(
        wall_s=wall, attempted=pa.attempted, failed=len(
            {e.split(":")[0] for e in pa.errors}),
        errors=pa.errors[:20], work=pa.work, op_s=pa.op_s, stats=pa.stats,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        from spans import summarize
        result["layers"] = summarize(tracer.spans, wall)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, tracer.run_id + ".spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
