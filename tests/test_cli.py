import csv
import json
import os

import numpy as np
import pytest

from skilldiff.cli import main
from skilldiff.mdl import OBJECTIVES
from skilldiff.mdp import TabularDsmdp


def test_build_env_writes_artifacts(tmp_path):
    out = tmp_path / "env"
    assert main(["build-env", "--preset", "cliff", "--out", str(out)]) == 0
    mdp = TabularDsmdp.load_binary(out / "mdp.bin")
    assert mdp.num_states == 38
    p = np.load(out / "p.npy")
    assert p.sum() == pytest.approx(1.0)
    meta = json.loads((out / "env.json").read_text())
    assert meta["support_size"] == 1


def test_gen_macros_to_file(tmp_path):
    out = tmp_path / "macros.json"
    assert main(["gen-macros", "--env-kind", "pocket_cube", "--seed", "4",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["sets"]) == {"1", "2", "3", "4", "5"}
    assert payload["presets"]["cube/top"] == ["FF", "RR", "UU"]


def test_metrics_run_correlate_pipeline(tmp_path):
    out = tmp_path / "exp"
    spec = {
        "env": "cliff",
        "variant_seed": 7,
        "algorithms": ["q_learning"],
        "seeds": 1,
        "rl_overrides": {"max_env_steps": 700_000,
                         "eval_every_env_steps": 2000},
        "criterion": {"which": "reward", "threshold": 0.95},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["metrics", "--spec", str(spec_path), "--out", str(out)]) == 0
    rows = json.loads((out / "metrics.json").read_text())
    assert len(rows) == 32
    assert main(["run-rl", "--spec", str(spec_path), "--out", str(out),
                 "--jobs", "1"]) == 0
    assert (out / "runs.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 32  # 32 variants x 1 algorithm x 1 seed
    rc = main(["correlate", "--out", str(out)])
    assert rc == 0
    corr = json.loads((out / "correlation.json").read_text())
    assert "geometric" in corr and "arithmetic" in corr
    assert -1.0 <= corr["geometric"]["pearson_r"] <= 1.0


def _run_line(run_id, crossing):
    """A runs.jsonl line whose reward crosses 0.95 at env step `crossing`,
    or never when it is None."""
    final = (5000, 0.5, 1.0) if crossing is None else (crossing, 1.0, 0.0)
    return json.dumps({"run_id": run_id, "samples": [(0, 0.0, 1.0), final],
                       "converged": crossing is not None,
                       "terminal_env_steps": 5000,
                       "algorithm": "q_learning", "seed": run_id})


def test_scatter_command(tmp_path):
    metdir = tmp_path / "cliffmetrics"
    os.makedirs(metdir)
    rows = [
        {"variant": "base", "j_learn": 52.0, "j_explore": 5.8,
         "ic_sup": 0.0769},
        {"variant": "v1", "j_learn": 26.0, "j_explore": 5.0,
         "ic_sup": 0.1},
        {"variant": "v2", "j_learn": 60.0, "j_explore": 6.0,
         "ic_sup": 0.2},
    ]
    (metdir / "metrics.json").write_text(json.dumps(rows))
    out = tmp_path / "scatter"
    assert main(["scatter", str(metdir), "--out", str(out)]) == 0
    text = (out / "scatter.csv").read_text()
    assert "cliffmetrics" in text
    assert "sample_complexity" not in text
    assert (out / "scatter.gp").exists()

    # base and v1 average their seeds (2000 and 1000); v2 has a seed that
    # never crossed, and "gone" has no metrics row, so neither counts
    runs = [("base", 1000), ("base", 3000), ("v1", 500), ("v1", 1500),
            ("v2", 100), ("v2", None), ("gone", 10)]
    (metdir / "runs.jsonl").write_text(
        "".join(_run_line(i, n) + "\n" for i, (_, n) in enumerate(runs)))
    (metdir / "manifest.json").write_text(json.dumps(
        [{"run_id": i, "variant": v, "algorithm": "q_learning",
          "seed_index": i % 2} for i, (v, _) in enumerate(runs)]))
    (metdir / "spec.json").write_text(json.dumps(
        {"criterion": {"which": "reward", "threshold": 0.95}}))
    assert main(["scatter", str(metdir), "--out", str(out)]) == 0
    with open(out / "scatter.csv", newline="") as f:
        ratios = {r["measure"]: float(r["best_ratio"])
                  for r in csv.DictReader(f)}
    assert ratios == pytest.approx({"j_explore": 5.0 / 5.8, "j_learn": 0.5,
                                    "sample_complexity": 0.5})


def test_bounds_command_exit_code(tmp_path):
    out = tmp_path / "bounds"
    rc = main(["bounds", "--cases", "3", "--seed", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["violations"] == []
    # every claim is listed, and no claim holds more often than it is checked
    checked = payload["checked_by_claim"]
    assert len(checked) == 10
    assert all(held <= checked[claim]
               for claim, held in payload["held_by_claim"].items())
    assert sum(checked.values()) == payload["holds"] + \
        payload["inconclusive"] + len(payload["violations"])


def test_discover_command(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("R R R R R R R R\n" * 30)
    rc = main(["discover", "--corpus", str(corpus), "--objective", "L7",
               "--labels", "U,R,D,L"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["macros"]
    assert all(set(m) <= {"R"} for m in payload["macros"])


def test_discover_every_offered_objective_exits_zero(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("R R U R R U\nR R U D\n" * 4)
    for objective in OBJECTIVES:
        argv = ["discover", "--corpus", str(corpus), "--objective", objective,
                "--labels", "U,R,D,L", "--max-skills", "2"]
        if objective == "J6":  # needs entropy_p, which a corpus lacks
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            continue
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["trace"]) == len(payload["macros"]) + 1


@pytest.mark.parametrize("text,extra,bad", [
    ("R R U\nR X U\n", ["--labels", "U,R,D,L"], "line 2: token 'X'"),
    ("1 1 0\n0 4 1\n", ["--base-actions", "4"], "line 2: token '4'"),
])
def test_discover_rejects_unknown_tokens(tmp_path, capsys, text, extra, bad):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text)
    assert main(["discover", "--corpus", str(corpus), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("skilldiff discover: " + bad)
    assert err.count("\n") == 1


def test_correlate_with_too_few_converged_variants_exits_2(tmp_path, capsys):
    out = tmp_path / "exp"
    os.makedirs(out)
    names = ["base", "v1", "v2"]
    rows = [{"variant": v, "j_learn": 10.0 * (i + 1), "j_explore": 1.0 + i,
             "j_explore_am": 2.0 + i} for i, v in enumerate(names)]
    (out / "metrics.json").write_text(json.dumps(rows))
    (out / "spec.json").write_text(json.dumps({"env": "cliff"}))
    (out / "manifest.json").write_text(json.dumps(
        [{"run_id": i, "variant": v, "algorithm": "q_learning",
          "seed_index": 0} for i, v in enumerate(names)]))
    # only the base run's reward ever crosses the 0.95 threshold
    runs = [{"run_id": i, "samples": [[2000, 0.5, 0.1],
                                      [4000, 1.0 if i == 0 else 0.5, 0.1]],
             "converged": i == 0, "terminal_env_steps": 4000,
             "algorithm": "q_learning", "seed": i}
            for i in range(len(names))]
    (out / "runs.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in runs))
    assert main(["correlate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("skilldiff correlate: need at least 3 converged "
                   "variants, have 1\n")


@pytest.mark.parametrize("command,env,from_spec", [
    ("metrics", "chain20", False),
    ("run-rl", "chain20", False),
    ("run-rl", "seqcons", True),
    ("metrics", "clif", False),
])
def test_env_without_a_variant_grid_exits_2(tmp_path, capsys, command, env,
                                            from_spec):
    out = tmp_path / "out"
    if from_spec:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"env": env}))
        argv = [command, "--spec", str(spec), "--out", str(out)]
    else:
        argv = [command, "--preset", env, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"skilldiff {command}: no variant grid for env {env!r}; "
        "use one of cliff, pickup, puzzle8, cube\n")
    assert not out.exists()
