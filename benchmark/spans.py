"""Span tracer installed from outside the library.

The library is never edited: each traced function is replaced, at every
``skilldiff`` module attribute that refers to it, by a wrapper that records a
span (name, layer, tag, start, end, parent span, run id).  Callers look the
function up through their own module's globals at call time, so wrapping the
attribute is enough to see every call.  Spans stay in memory and are written
out once, when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _solve_q_counts(res, mdp, *a, **k):
    n, m = mdp.num_states, mdp.num_actions
    # one Jacobi sweep, computed from array sizes: read the int32 successor
    # table and gather a float64 q per entry, then write the new vector and
    # read both vectors for the residual
    sweep_bytes = (n + 1) * m * (4 + 8) + 3 * 8 * (n + 1)
    return {"iterations": res.iterations, "residual": res.residual,
            "state_sweeps": res.iterations * (n + 1),
            "bytes_computed": res.iterations * sweep_bytes}


def _claims_counts(rep, *a, **k):
    out = {"claims_checked": 0, "claims_held": 0, "claims_skipped": 0,
           "claims_inconclusive": 0}
    for c in rep.claims:
        if not c.preconditions_met:
            out["claims_skipped"] += 1
            continue
        out["claims_checked"] += 1
        if c.holds is True:
            out["claims_held"] += 1
        elif c.holds is None:
            out["claims_inconclusive"] += 1
    return out


def _rl_counts(rec, *a, **k):
    # converged: an evaluation reached the c07 reward threshold, whether or
    # not the run stopped there
    return {"env_steps": rec.terminal_env_steps,
            "converged": int(any(s[1] >= 0.95 for s in rec.samples)),
            "evaluations": len(rec.samples)}


COUNTERS = {
    "solve_q": _solve_q_counts,
    "shortest_solution_lengths":
        lambda d, mdp, *a, **k: {"levels": int(d.d.max())},
    "build_reverse_graph": lambda rev, *a, **k: {"edges": rev.num_edges},
    "scramble_distribution": lambda res, *a, **k: {
        "mass_error": float(abs(res.step_marginal_sums - 1.0).max())},
    "max_entropy_assignment":
        lambda res, *a, **k: {"method." + res.method: 1},
    "bounds_report": _claims_counts,
    "augment": lambda aug, *a, **k: {"columns": aug.num_skills},
    "run": _rl_counts,
}

# (module that defines the function, function name, layer)
TARGETS = [
    ("skilldiff.envs", "build_env", "envs"),
    ("skilldiff.envs.cliff", "build_cliff_walking", "envs"),
    ("skilldiff.envs.npuzzle", "build_n_puzzle", "envs"),
    ("skilldiff.envs.cube", "build_pocket_cube", "envs"),
    ("skilldiff.envs.scramble", "scramble_distribution", "envs"),
    ("skilldiff.envs.synthetic", "build_sequence_consume", "envs"),
    ("skilldiff.mdp", "build_reverse_graph", "mdp"),
    ("skilldiff.mdp", "shortest_solution_lengths", "mdp"),
    ("skilldiff.metrics.solver", "solve_q", "solver"),
    ("skilldiff.metrics.difficulty", "p_learning_difficulty", "difficulty"),
    ("skilldiff.metrics.difficulty", "p_exploration_difficulty", "difficulty"),
    ("skilldiff.metrics.difficulty", "p_exploration_difficulty_am",
     "difficulty"),
    ("skilldiff.metrics.difficulty", "solution_density", "difficulty"),
    ("skilldiff.metrics.difficulty", "per_length_counts", "difficulty"),
    ("skilldiff.metrics.incompress", "ic_unmerged", "incompress"),
    ("skilldiff.metrics.incompress", "ic_merged", "incompress"),
    ("skilldiff.metrics.incompress", "ic_expressive", "incompress"),
    ("skilldiff.metrics.incompress", "max_entropy_assignment", "incompress"),
    ("skilldiff.metrics.incompress", "min_entropy_assignment", "incompress"),
    ("skilldiff.metrics.bounds", "bounds_report", "bounds"),
    ("skilldiff.metrics.bounds", "expansion_length_q", "bounds"),
    ("skilldiff.skills", "augment", "skills"),
    ("skilldiff.rl", "run", "rl"),
    ("skilldiff.experiments", "variant_grid", "experiments"),
    ("skilldiff.experiments", "run_rl_campaign", "experiments"),
    ("skilldiff.experiments", "metrics_table", "experiments"),
    ("skilldiff.experiments", "theorem_campaign", "experiments"),
]

LAYERS = ("envs", "mdp", "solver", "difficulty", "incompress", "bounds",
          "skills", "rl", "experiments")


class Span:
    __slots__ = ("sid", "name", "layer", "tag", "parent", "start", "end",
                 "child_s", "counts")

    def __init__(self, sid, name, layer, tag, parent, start):
        self.sid, self.name, self.layer, self.tag = sid, name, layer, tag
        self.parent, self.start = parent, start
        self.end = start
        self.child_s = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct child spans (calls are
        strictly nested in one thread, so the children never overlap)."""
        return self.duration - self.child_s


class Tracer:
    """Records one span per wrapped call; ``tag`` labels spans with the
    preset or workload phase the benchmark is in when they start."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.tag = ""

    def install(self):
        for modname, fname, layer in TARGETS:
            orig = getattr(importlib.import_module(modname), fname)
            wrapped = self._wrap(orig, f"{layer}.{fname}", layer,
                                 COUNTERS.get(fname))
            for mod in [m for k, m in sys.modules.items()
                        if k.split(".")[0] == "skilldiff" and m is not None]:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, layer, self.tag,
                        parent.sid if parent else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if counter is not None:
                span.counts = counter(result, *args, **kwargs)
            return result
        return wrapper

    def write(self, path: str):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "span": s.sid, "parent": s.parent,
                    "name": s.name, "layer": s.layer, "tag": s.tag,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "counts": s.counts}) + "\n")


def summarize(spans: list[Span], wall_s: float) -> dict:
    """Per-pass layer figures: self time per layer and per (tag, layer),
    inclusive time per traced function, and summed counters."""
    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_tag: dict[str, dict[str, float]] = {}
    fn_s: dict[str, float] = {}
    fn_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    tag_counts: dict[str, dict[str, float]] = {}
    tag_fn_self: dict[str, dict[str, float]] = {}
    residual_max = 0.0
    for s in spans:
        layer_self[s.layer] += s.self_s
        t = by_tag.setdefault(s.tag, dict.fromkeys(LAYERS, 0.0))
        t[s.layer] += s.self_s
        fn_s[s.name] = fn_s.get(s.name, 0.0) + s.duration
        fn_self[s.name] = fn_self.get(s.name, 0.0) + s.self_s
        tf = tag_fn_self.setdefault(s.tag, {})
        tf[s.name] = tf.get(s.name, 0.0) + s.self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        for k, v in (s.counts or {}).items():
            if k == "residual":
                residual_max = max(residual_max, v)
                continue
            key = f"{s.name}.{k}"
            counts[key] = counts.get(key, 0) + v
            tc = tag_counts.setdefault(s.tag, {})
            tc[key] = tc.get(key, 0) + v
    return {"wall_s": wall_s, "spans": len(spans), "layer_self_s": layer_self,
            "by_tag_self_s": by_tag, "by_tag_fn_self_s": tag_fn_self,
            "fn_s": fn_s, "fn_self_s": fn_self,
            "calls": calls, "counts": counts, "by_tag_counts": tag_counts,
            "solver_residual_max": residual_max}
