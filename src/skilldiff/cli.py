"""Command-line driver: build environments, generate macro sets, compute
metric tables, run RL campaigns, correlate, emit scatter data, run the
theorem campaign, and mine macroactions from corpora."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .envs import ENV_PRESETS, build_env
from .experiments import (InsufficientDataError, UnknownEnvError,
                          improvement_scatter, lambda_correlation, mean_log_n,
                          metrics_table, run_rl_campaign, sample_complexities,
                          theorem_campaign, tradeoff_demonstration,
                          variant_grid, write_csv, GNUPLOT_TEMPLATE)
from .mdl import OBJECTIVES, Corpus, discover_macroactions
from .metrics import NotConvergedError
from .rl import RunRecord
from .skills import (MACRO_LAWS, MACRO_PRESETS, MacroGenSpec,
                     generate_macro_sets)


def _read_spec(path: str | None, preset: str | None = None) -> dict:
    """The run spec: these defaults, then the JSON file at path, then the
    environment preset."""
    spec = {
        "env": "cliff",
        "variant_seed": 7,
        "algorithms": ["q_learning"],
        "seeds": 5,
        "delta": 1.0 / 50.0,
        "root_seed": 0,
        "rl_overrides": {},
        "criterion": {"which": "reward", "threshold": 0.95},
    }
    if path:
        with open(path) as f:
            spec.update(json.load(f))
    if preset:
        spec["env"] = preset
    return spec


def _sample_complexities(run_dir: str) -> dict[str, list]:
    """variant -> per-seed sample complexity of the runs that run-rl wrote
    to run_dir, under the criterion of its spec."""
    crit = _read_spec(os.path.join(run_dir, "spec.json"))["criterion"]
    with open(os.path.join(run_dir, "manifest.json")) as f:
        manifest = json.load(f)
    results = []
    with open(os.path.join(run_dir, "runs.jsonl")) as f:
        for line in f:
            d = json.loads(line)
            results.append({"variant": manifest[d["run_id"]]["variant"],
                            "record": RunRecord.from_json_dict(d)})
    return sample_complexities(results, crit["which"], crit["threshold"])


def cmd_build_env(args) -> int:
    mdp, p, _info = build_env(ENV_PRESETS[args.preset])
    os.makedirs(args.out, exist_ok=True)
    mdp.save_binary(os.path.join(args.out, "mdp.bin"))
    np.save(os.path.join(args.out, "p.npy"), p.probs)
    meta = {"preset": args.preset, "num_states": mdp.num_states,
            "num_actions": mdp.num_actions, "goal": mdp.goal,
            "support_size": p.support_size}
    with open(os.path.join(args.out, "env.json"), "w") as f:
        json.dump(meta, f, indent=2)
    print(f"{args.preset}: {mdp.num_states} states, "
          f"{p.support_size} support -> {args.out}")
    return 0


def cmd_gen_macros(args) -> int:
    spec = MacroGenSpec(env_kind=args.env_kind, seed=args.seed)
    sets = generate_macro_sets(spec)
    payload = {"env_kind": args.env_kind, "seed": args.seed,
               "sets": {str(k): v for k, v in sets.items()},
               "presets": dict(MACRO_PRESETS)}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=2)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 0


def cmd_metrics(args) -> int:
    spec = _read_spec(args.spec, args.preset)
    variants = variant_grid(spec["env"], seed=spec["variant_seed"])
    rows = metrics_table(spec["env"], variants, delta=spec["delta"])
    os.makedirs(args.out, exist_ok=True)
    write_csv(rows, os.path.join(args.out, "metrics.csv"))
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(rows, f, indent=2, default=float)
    with open(os.path.join(args.out, "spec.json"), "w") as f:
        json.dump(spec, f, indent=2)
    print(f"{len(rows)} variant rows -> {args.out}/metrics.csv")
    return 0


def cmd_run_rl(args) -> int:
    spec = _read_spec(args.spec, args.preset)
    variants = variant_grid(spec["env"], seed=spec["variant_seed"])
    os.makedirs(args.out, exist_ok=True)

    def progress(res):
        rec = res["record"]
        print(f"  {res['variant']} {res['algorithm']} seed{res['seed_index']}"
              f" converged={rec.converged} steps={rec.terminal_env_steps}")

    results = run_rl_campaign(spec["env"], variants, spec["algorithms"],
                              spec["seeds"], root_seed=spec["root_seed"],
                              overrides=spec["rl_overrides"],
                              jobs=args.jobs, progress=progress)
    manifest = []
    with open(os.path.join(args.out, "runs.jsonl"), "w") as f:
        for i, res in enumerate(results):
            rec: RunRecord = res["record"]
            f.write(json.dumps({"run_id": i, **rec.to_json_dict()}) + "\n")
            manifest.append({"run_id": i, "variant": res["variant"],
                             "algorithm": res["algorithm"],
                             "seed_index": res["seed_index"]})
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    with open(os.path.join(args.out, "spec.json"), "w") as f:
        json.dump(spec, f, indent=2)
    print(f"{len(results)} runs -> {args.out}/runs.jsonl")
    return 0


def cmd_correlate(args) -> int:
    with open(os.path.join(args.out, "metrics.json")) as f:
        rows = json.load(f)
    names = [r["variant"] for r in rows]
    jl = [r["j_learn"] for r in rows]
    je = [r["j_explore"] for r in rows]
    je_am = [r["j_explore_am"] for r in rows]
    log_n = mean_log_n(_sample_complexities(args.out), names)
    out = {}
    for tag, expl in (("geometric", je), ("arithmetic", je_am)):
        c = lambda_correlation(names, log_n, jl, expl)
        out[tag] = {"pearson_r": c.pearson_r, "lambda_star": c.lambda_star,
                    "excluded": c.excluded, "pairs": c.pairs}
        print(f"{tag}: r = {c.pearson_r:.4f} at lambda = {c.lambda_star:.4f} "
              f"({len(c.excluded)} excluded)")
    with open(os.path.join(args.out, "correlation.json"), "w") as f:
        json.dump(out, f, indent=2)
    return 0


def cmd_scatter(args) -> int:
    env_rows = {}
    for sub in args.dirs:
        with open(os.path.join(sub, "metrics.json")) as f:
            rows = json.load(f)
        if os.path.exists(os.path.join(sub, "runs.jsonl")):
            # the mean over seeds, or None if any seed never crossed
            per_variant = _sample_complexities(sub)
            for r in rows:
                ns = per_variant.get(r["variant"])
                if ns:
                    r["sample_complexity"] = (None if None in ns
                                              else float(np.mean(ns)))
        env_rows[os.path.basename(sub.rstrip("/"))] = rows
    rows = improvement_scatter(env_rows)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "scatter.csv")
    write_csv(rows, csv_path)
    with open(os.path.join(args.out, "scatter.gp"), "w") as f:
        f.write(GNUPLOT_TEMPLATE.format(csv=csv_path))
    print(f"{len(rows)} scatter rows -> {csv_path}")
    return 0


def cmd_bounds(args) -> int:
    summary = theorem_campaign(seed=args.seed,
                               n_macro_cases=args.cases,
                               n_skill_cases=args.cases,
                               n_seqcons_sets=max(10, args.cases // 4))
    demo = tradeoff_demonstration()
    if not (demo["condition_met"] and demo["j_learn_ratio"] > 1.0
            and demo["j_explore_ratio"] < 1.0):
        summary.violations.append(f"tradeoff demonstration failed: {demo}")
    payload = {"cases": summary.cases, "holds": summary.holds,
               "skipped": summary.skipped,
               "inconclusive": summary.inconclusive,
               "held_by_claim": summary.held_by_claim,
               "checked_by_claim": summary.checked_by_claim,
               "tradeoff_demo": demo,
               "violations": summary.violations}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "bounds.json"), "w") as f:
            json.dump(payload, f, indent=2)
    print(f"bounds campaign: {summary.cases} cases, {summary.holds} holds, "
          f"{summary.skipped} skipped, {len(summary.violations)} violations")
    for v in summary.violations:
        print("VIOLATION:", v)
    return 1 if summary.violations else 0


def cmd_discover(args) -> int:
    with open(args.corpus) as f:
        text = f.read()
    labels = args.labels.split(",") if args.labels else None
    vocabulary = labels or [str(a) for a in range(args.base_actions)]
    try:
        corpus = Corpus.from_label_lines(text, vocabulary)
    except ValueError as e:
        print(f"skilldiff discover: {e}", file=sys.stderr)
        return 2
    base_n = len(vocabulary)
    res = discover_macroactions(corpus, args.objective, base_n,
                                max_skills=args.max_skills, seed=args.seed)
    words = []
    for mac in res.macros:
        words.append("".join(labels[a] for a in mac) if labels
                     else " ".join(map(str, mac)))
    print(json.dumps({"macros": words, "trace": res.trace}, indent=2))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="skilldiff",
                                 description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-env", help="materialize an environment preset")
    b.add_argument("--preset", required=True, choices=sorted(ENV_PRESETS))
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build_env)

    g = sub.add_parser("gen-macros", help="sample random macroaction sets")
    g.add_argument("--env-kind", required=True, choices=sorted(MACRO_LAWS))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen_macros)

    m = sub.add_parser("metrics", help="metric table over a variant grid")
    m.add_argument("--spec")
    m.add_argument("--preset")
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_metrics)

    r = sub.add_parser("run-rl", help="RL campaign over a variant grid")
    r.add_argument("--spec")
    r.add_argument("--preset")
    r.add_argument("--out", required=True)
    r.add_argument("--jobs", type=int, default=1)
    r.set_defaults(func=cmd_run_rl)

    c = sub.add_parser("correlate", help="lambda-optimized correlation")
    c.add_argument("--out", required=True,
                   help="directory holding metrics.json + runs.jsonl")
    c.set_defaults(func=cmd_correlate)

    s = sub.add_parser("scatter", help="incompressibility scatter data")
    s.add_argument("dirs", nargs="+", help="metric output directories")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_scatter)

    bd = sub.add_parser("bounds", help="randomized theorem campaign")
    bd.add_argument("--seed", type=int, default=0)
    bd.add_argument("--cases", type=int, default=200)
    bd.add_argument("--out")
    bd.set_defaults(func=cmd_bounds)

    d = sub.add_parser("discover", help="mine macroactions from a corpus")
    d.add_argument("--corpus", required=True)
    # J6 needs the entropy of a state distribution, which a corpus lacks
    d.add_argument("--objective", default="L7",
                   choices=[o for o in OBJECTIVES if o != "J6"])
    d.add_argument("--labels", help="comma-separated action labels")
    d.add_argument("--base-actions", type=int, default=4)
    d.add_argument("--max-skills", type=int, default=5)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(func=cmd_discover)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except NotConvergedError as e:
        print(f"solver failed to converge: {e}", file=sys.stderr)
        return 2
    except (InsufficientDataError, UnknownEnvError) as e:
        print(f"skilldiff {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
