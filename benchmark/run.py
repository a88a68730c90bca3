"""skilldiff benchmark: three closed-loop workloads, timed end to end from
outside the library, and a separate traced run for per-layer figures.

    python3 benchmark/run.py --workload exact-pipeline --seed 1 --seconds 30 \\
        --trace 0

Each workload pass runs in a fresh interpreter (``worker.py``), one after the
other, until the next pass would end after ``--seconds``; at least one pass
always runs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  ``--trace 1`` alternates an untraced and a traced
pass on the same inputs and reports the per-layer metrics and the tracing
overhead.  ``--full`` runs the acceptance-suite scale (the cube q solve, the
32 x 5 RL grid with the c07 gates), which does not fit the timed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact-pipeline", "cliff-rl", "theorem-campaign")
RUN_LIMIT_S = 170.0  # a timed run must end within 180 s
FULL_LIMIT_S = 1800.0  # --full passes take minutes each
SETUP_SAMPLES = 5


class PassFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(env.get(var, nproc))
        except ValueError:
            cur = nproc
        env[var] = str(max(1, min(cur, nproc)))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, pass_index: int, deadline: float, *, trace=False,
          setup_only=False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(pass_index)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.full:
        cmd.append("--full")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass {pass_index} exceeded the run's time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {pass_index} exited with {proc.returncode}")
    return json.loads(lines[-1])


def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """(percentile, value): the highest of the listed percentiles with at
    least ten samples beyond it, or None when there are too few samples."""
    n = len(xs)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            s = sorted(xs)
            return pct, s[min(n - 1, int(round(pct / 100.0 * (n - 1))))]
    return None


def run_passes(args, t_start: float):
    """Untraced passes until the next one would end after --seconds; with
    --trace 1, (untraced, traced) pairs on the same inputs instead."""
    deadline = t_start + (FULL_LIMIT_S if args.full else RUN_LIMIT_S)
    untraced, traced = [], []
    k = 0
    while True:
        t0 = time.monotonic()
        untraced.append(spawn(args, k, deadline))
        if args.trace:
            traced.append(spawn(args, k, deadline, trace=True))
        k += 1
        step = time.monotonic() - t0
        if time.monotonic() - t_start + step > args.seconds:
            break
    setups = [p["setup_s"] for p in untraced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, 0, deadline, setup_only=True)["setup_s"])
    return untraced, traced, setups


def end_to_end(workload: str, passes: list[dict], setups: list[float]):
    walls = [p["wall_s"] for p in passes]
    total_wall = sum(walls)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(min(p["failed"], p["attempted"]) for p in passes)
    ops = [x for p in passes for x in p["op_s"]]
    m = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio"),
        "work_per_s": (sum(p["work"] for p in passes) / total_wall, "1/s"),
    }
    if workload == "exact-pipeline":
        for name in ("cube", "puzzle8"):
            m[f"pipeline_s.{name}"] = (median(
                [p["stats"][f"pipeline_s.{name}"] for p in passes]), "s")
    if workload == "cliff-rl":
        m["rl_env_steps_per_s"] = (sum(p["stats"]["env_steps"]
                                       for p in passes) / total_wall, "1/s")
    if workload == "theorem-campaign":
        clean = sum(p["stats"].get("cases", 0) - p["stats"].get(
            "violating_cases", 0) for p in passes)
        m["cases_per_s"] = (clean / total_wall, "1/s")
    return m, attempted, failed, walls, ops


def layer_figures(p: dict, setup_s: float) -> dict:
    """Per-layer figures of one traced pass, in seconds and counts."""
    L = p["layers"]
    wall = L["wall_s"]
    fn, fself, cnt = L["fn_s"], L["fn_self_s"], L["counts"]
    tag_fself = L["by_tag_fn_self_s"]
    tag_cnt = L["by_tag_counts"]
    f = {f"{lay}.self_s": L["layer_self_s"][lay] for lay in LAYERS}
    f["harness.remainder_s"] = wall - sum(L["layer_self_s"].values())
    f["envs.cube.tables_s"] = fself.get("envs.build_pocket_cube", 0.0)
    f["envs.npuzzle.tables_s"] = fself.get("envs.build_n_puzzle", 0.0)
    for preset in ("cube", "puzzle8"):
        f[f"envs.scramble_s.{preset}"] = tag_fself.get(preset, {}).get(
            "envs.scramble_distribution", 0.0)
        tc = tag_cnt.get(preset, {})
        f[f"mdp.bfs_levels.{preset}"] = tc.get(
            "mdp.shortest_solution_lengths.levels", 0)
        f[f"mdp.edges.{preset}"] = tc.get("mdp.build_reverse_graph.edges", 0)
    f["envs.build_rss_mb.cube"] = p["stats"].get("build_rss_mb.cube", 0.0)
    f["envs.scramble.mass_error"] = max(
        [v for k, v in p["stats"].items()
         if k.startswith("scramble_mass_error.")], default=0.0)
    f["mdp.reverse_graph_s"] = fself.get("mdp.build_reverse_graph", 0.0)
    f["mdp.bfs_s"] = fself.get("mdp.shortest_solution_lengths", 0.0)
    solve_s = fn.get("solver.solve_q", 0.0)
    iters = cnt.get("solver.solve_q.iterations", 0)
    f["solver.solve_q_s"] = solve_s
    f["solver.calls"] = L["calls"].get("solver.solve_q", 0)
    f["solver.iterations"] = iters
    f["solver.residual_max"] = L["solver_residual_max"]
    f["solver.s_per_sweep"] = solve_s / iters if iters else 0.0
    f["solver.bytes_per_sweep_computed"] = (
        cnt.get("solver.solve_q.bytes_computed", 0) / iters if iters else 0.0)
    f["solver.state_sweeps_per_s"] = (
        cnt.get("solver.solve_q.state_sweeps", 0) / solve_s if solve_s else 0.0)
    f["solver.bytes_per_s_computed"] = (
        cnt.get("solver.solve_q.bytes_computed", 0) / solve_s
        if solve_s else 0.0)
    f["difficulty.j_s"] = sum(fn.get(f"difficulty.{n}", 0.0) for n in (
        "p_learning_difficulty", "p_exploration_difficulty",
        "p_exploration_difficulty_am", "solution_density"))
    f["difficulty.per_length_counts_s"] = fn.get(
        "difficulty.per_length_counts", 0.0)
    f["incompress.ic_unmerged_s"] = fn.get("incompress.ic_unmerged", 0.0)
    f["incompress.ic_merged_s"] = fn.get("incompress.ic_merged", 0.0)
    for method in ("matching_exact", "exhaustive_exact", "greedy_lower_bound"):
        f[f"incompress.method_count.{method}"] = cnt.get(
            f"incompress.max_entropy_assignment.method.{method}", 0)
    f["bounds.report_self_s"] = fself.get("bounds.bounds_report", 0.0)
    f["bounds.expansion_length_q_s"] = fn.get("bounds.expansion_length_q", 0.0)
    for k in ("checked", "held", "skipped", "inconclusive"):
        f[f"bounds.claims_{k}"] = cnt.get(f"bounds.bounds_report.claims_{k}", 0)
    f["bounds.held_ratio"] = (f["bounds.claims_held"] / f["bounds.claims_checked"]
                              if f["bounds.claims_checked"] else 0.0)
    f["skills.augment_s"] = fn.get("skills.augment", 0.0)
    f["skills.augment_calls"] = L["calls"].get("skills.augment", 0)
    f["skills.columns"] = cnt.get("skills.augment.columns", 0)
    steps = cnt.get("rl.run.env_steps", 0)
    f["rl.run_s"] = fn.get("rl.run", 0.0)
    f["rl.runs"] = L["calls"].get("rl.run", 0)
    f["rl.converged_runs"] = cnt.get("rl.run.converged", 0)
    f["rl.env_steps"] = steps
    f["rl.evaluations"] = cnt.get("rl.run.evaluations", 0)
    f["rl.us_per_env_step"] = f["rl.run_s"] / steps * 1e6 if steps else 0.0
    f["rl.env_steps_per_s"] = steps / f["rl.run_s"] if steps else 0.0
    f["experiments.setup_inputs_s"] = p["inputs_s"]
    f["experiments.campaign_self_s"] = L["layer_self_s"]["experiments"]
    f["trace.wall_s"] = wall
    f["trace.spans"] = L["spans"]
    f["setup_s"] = setup_s
    return f


# figures reported as shares of the traced pass wall time, so that a layer a
# workload never calls reads 0 % rather than a constant 0 s
SHARE_FIGURES = (
    [f"{lay}.self_s" for lay in LAYERS]
    + ["harness.remainder_s", "envs.cube.tables_s", "envs.npuzzle.tables_s",
       "envs.scramble_s.cube", "envs.scramble_s.puzzle8",
       "mdp.reverse_graph_s", "mdp.bfs_s", "difficulty.j_s",
       "difficulty.per_length_counts_s", "incompress.ic_unmerged_s",
       "incompress.ic_merged_s", "bounds.report_self_s",
       "bounds.expansion_length_q_s", "skills.augment_s", "rl.run_s"])
DIRECT_FIGURES = {
    "envs.build_rss_mb.cube": "MB", "envs.scramble.mass_error": "1",
    "mdp.bfs_levels.cube": "count", "mdp.bfs_levels.puzzle8": "count",
    "mdp.edges.cube": "count", "mdp.edges.puzzle8": "count",
    "solver.calls": "count", "solver.iterations": "count",
    "solver.residual_max": "1", "solver.bytes_per_sweep_computed": "B",
    "solver.state_sweeps_per_s": "1/s", "solver.bytes_per_s_computed": "B/s",
    "incompress.method_count.matching_exact": "count",
    "incompress.method_count.exhaustive_exact": "count",
    "incompress.method_count.greedy_lower_bound": "count",
    "bounds.claims_checked": "count", "bounds.claims_held": "count",
    "bounds.claims_skipped": "count", "bounds.claims_inconclusive": "count",
    "bounds.held_ratio": "ratio", "skills.augment_calls": "count",
    "skills.columns": "count", "rl.runs": "count",
    "rl.converged_runs": "count", "rl.env_steps": "count",
    "rl.evaluations": "count", "rl.env_steps_per_s": "1/s",
    "trace.wall_s": "s", "trace.spans": "count",
}


def per_layer_metrics(figs: dict, overhead_s: float) -> dict:
    wall = figs["trace.wall_s"]
    out = {}
    for name in SHARE_FIGURES:
        out[name[:-2] + "_pct" if name.endswith("_s")
            else name.replace("_s.", "_pct.")] = (
            100.0 * figs[name] / wall, "%")
    out["experiments.setup_inputs_pct"] = (
        100.0 * figs["experiments.setup_inputs_s"] / figs["setup_s"], "%")
    for name, unit in DIRECT_FIGURES.items():
        out[name] = (figs[name], unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def metadata_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname)) as f:
                    src_lines += sum(1 for _ in f)

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "ram_gb": round(ram / 2**30, 1),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": git_commit(),
            "src_lines": src_lines}


def git_commit() -> str:
    """HEAD read from the checkout's own .git, without walking up."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for ln in f:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def report(args, meta, e2e, passes, walls, ops, traced, figs, overhead_s):
    print(f"# skilldiff benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={int(args.trace)}"
          f"{' full' if args.full else ''}")
    print("# meta " + json.dumps(meta))
    print(f"# passes={len(walls)} operations={len(ops)}")
    for p in passes:
        print("# pass stats " + json.dumps(p["stats"]))
    names = ["setup_s", "wall_s", "peak_rss_mb", "error_rate",
             "pipeline_s.cube", "pipeline_s.puzzle8", "rl_env_steps_per_s",
             "cases_per_s"]
    units = {"pipeline_s.cube": "s", "pipeline_s.puzzle8": "s",
             "rl_env_steps_per_s": "1/s", "cases_per_s": "1/s"}
    for name in names:
        v, unit = e2e.get(name, (None, units.get(name, "")))
        print(f"  {name:<22} {fmt(v):>14} {unit}")
    print(f"  {'work_per_s':<22} {fmt(e2e['work_per_s'][0]):>14} 1/s")
    for label, xs in (("pass wall", walls), ("operation", ops)):
        t = tail(xs)
        print(f"  {label} latency: median {fmt(median(xs))} s"
              + (f", p{t[0]:g} {fmt(t[1])} s" if t else
                 ", no percentile with ten samples beyond it")
              + f" (n={len(xs)})")
    if not traced:
        return
    print(f"# traced passes={len(traced)}; tracing overhead "
          f"{fmt(overhead_s)} s (median traced wall_s - median untraced "
          f"wall_s, same inputs)")
    for k, v in figs.items():
        print(f"  {k:<44} {fmt(v)}")
    if args.workload == "exact-pipeline":
        for preset in ("cliff", "puzzle8", "cube"):
            by = [p["layers"]["by_tag_self_s"].get(preset, {}) for p in traced]
            pipe = median([p["stats"][f"pipeline_s.{preset}"] for p in traced])
            parts = {lay: median([b.get(lay, 0.0) for b in by])
                     for lay in LAYERS}
            shown = {k: v for k, v in parts.items() if v > 0.0}
            rest = pipe - sum(shown.values())
            print(f"  traced pipeline_s.{preset} = {fmt(pipe)} s = "
                  + " + ".join(f"{k} {fmt(v)}" for k, v in shown.items())
                  + f" + remainder {fmt(rest)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true",
                    help="acceptance-suite scale: the cube q solve, and the "
                         "32 x 5 c07 grid with its gates")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative (it seeds numpy SeedSequences)")
    if not os.path.isfile(os.path.join(ROOT, "src", "skilldiff", "__init__.py")):
        print(f"run.py: no skilldiff sources under {ROOT}/src", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    try:
        untraced, traced, setups = run_passes(args, t_start)
    except PassFailed as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    e2e, attempted, failed, walls, ops = end_to_end(args.workload, untraced,
                                                    setups)
    figs = overhead_s = None
    if traced:
        per_pass = [layer_figures(p, e2e["setup_s"][0]) for p in traced]
        figs = {k: median([f[k] for f in per_pass]) for k in per_pass[0]}
        overhead_s = (median([p["wall_s"] for p in traced])
                      - median([p["wall_s"] for p in untraced]))
        attempted += sum(p["attempted"] for p in traced)
        failed += sum(min(p["failed"], p["attempted"]) for p in traced)
    report(args, metadata_record(), e2e, untraced, walls, ops, traced, figs,
           overhead_s)
    errors = [e for p in untraced + traced for e in p["errors"]]
    for e in errors[:20]:
        print(f"# FAILED {e}")
    if traced:
        metrics = per_layer_metrics(figs, overhead_s)
    else:
        metrics = {k: e2e[k] for k in ("setup_s", "peak_rss_mb", "work_per_s")}
    print(json.dumps({
        "correct": not errors and failed == 0, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
