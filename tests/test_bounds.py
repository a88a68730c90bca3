import math
import multiprocessing

import numpy as np
import pytest

from skilldiff import _ranges, experiments
from skilldiff.envs import ENV_PRESETS, build_env
from skilldiff.envs.synthetic import build_sequence_consume
from skilldiff.experiments import (CampaignSummary, build_star_base,
                                   tradeoff_demonstration,
                                   random_distribution, random_invertible_mdp,
                                   random_macro_skills, random_tabular_skills,
                                   theorem_campaign)
from skilldiff.mdp import (StateDistribution, TabularDsmdp,
                           shortest_solution_lengths)
from skilldiff.metrics import (bounds, bounds_report, expansion_length_q,
                               ic_unmerged, solve_q,
                               tightness_augmentation, DeltaTooSmallError)
from skilldiff.metrics.incompress import ICValue
from skilldiff.skills import (GOAL_PASS_DEAD, MACRO_PRESETS, augment,
                              macro_from_labels)

from test_oracles import _shared_solution


def test_trivial_augmentation_ratio_is_one():
    rng = np.random.default_rng(20)
    mdp = random_invertible_mdp(rng, 10, 2)
    p = random_distribution(rng, mdp)
    aug = augment(mdp, [], mode=GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.1)
    c = rep.claim("learn_ratio_merged_ic")
    assert c.lhs == pytest.approx(1.0)
    assert c.holds


def test_greedy_merged_ic_holds_only_above_the_unmerged_rhs(monkeypatch):
    # a greedy H[P+] is a lower end of H[P+], so its rhs is a lower end of
    # claim 1's rhs; H[p], whose IC is the unmerged IC, is an upper end.  The
    # claim holds above the upper rhs, is violated below the lower one and
    # is inconclusive in between; lhs, rhs and notes are the greedy ones
    rng = np.random.default_rng(20)
    mdp = random_invertible_mdp(rng, 10, 2)
    p = random_distribution(rng, mdp)
    aug = augment(mdp, random_macro_skills(rng, mdp), mode=GOAL_PASS_DEAD)
    ratio = bounds_report(aug, p, 0.1).claim("learn_ratio_merged_ic").lhs
    a0, aplus = mdp.num_actions, aug.mdp.num_actions
    penalty = aplus * math.log(a0) / (a0 * math.log(aplus))

    def ic(share, method=None):  # the IC whose rhs is share * ratio
        return lambda *args, **kw: ICValue(share * ratio / penalty, "sup",
                                           method=method)
    for lower, upper, holds in ((0.5, 0.9, True), (0.5, 2.0, None),
                                (1.5, 2.0, False)):
        monkeypatch.setattr(bounds, "ic_merged",
                            ic(lower, "greedy_lower_bound"))
        monkeypatch.setattr(bounds, "ic_unmerged", ic(upper))
        claim = bounds_report(aug, p, 0.1).claim("learn_ratio_merged_ic")
        assert claim.holds is holds
        assert claim.lhs == ratio
        assert claim.rhs == pytest.approx(lower * ratio, rel=1e-12)
        assert claim.notes == "H[P+] method=greedy_lower_bound"


def test_bounds_report_runs_one_bfs_per_mdp(monkeypatch):
    # every claim, the separability check and the q solves read d from the
    # base's and the augmented MDP's own caches
    rng = np.random.default_rng(23)
    drawn = random_invertible_mdp(rng, 12, 2)
    mdp = TabularDsmdp(successor=drawn.successor, goal=drawn.goal,
                       action_labels=drawn.action_labels)  # empty cache
    p = random_distribution(rng, mdp)
    aug = augment(mdp, random_macro_skills(rng, mdp), mode=GOAL_PASS_DEAD)
    seen = []
    monkeypatch.setattr(
        "skilldiff.mdp.shortest_solution_lengths",
        lambda m, *a: seen.append(m) or shortest_solution_lengths(m, *a))
    rep = bounds_report(aug, p, 0.1)
    assert len(seen) == 2
    assert seen[0] is mdp and seen[1] is aug.mdp
    for name in ("learn_ratio_merged_ic", "learn_ratio_unmerged_ic",
                 "learn_ratio_min_entropy_bound"):
        assert rep.claim(name).preconditions_met


# the claims checked only on a solution-separable base
_NEEDS_SEPARABLE = {
    "learn_ratio_unmerged_ic", "macros_hurt_learning_when_incompressible",
    "density_at_most_one_separable", "macros_hurt_exploration_near_uniform",
    "explore_gap_full_coverage", "explore_gap_kl_corrected",
}


@pytest.mark.parametrize("env, macros, how", [
    ("cliff", "cliff/v1", "violation_at_len_2"),
    ("pickup", "pickup/v1", "violation_at_len_1"),
])
def test_non_separable_bases_skip_every_separable_claim(env, macros, how):
    mdp, p, _ = build_env(ENV_PRESETS[env])
    assert not mdp.solution_separable
    # the shortest sequence that solves two states, by enumeration
    seq, _, _ = _shared_solution(mdp, 2)
    assert how == f"violation_at_len_{len(seq)}"
    skills = [macro_from_labels(w, mdp.action_labels)
              for w in MACRO_PRESETS[macros]]
    rep = bounds_report(augment(mdp, skills, GOAL_PASS_DEAD), p, 1.0 / 50.0)
    assert len(rep.claims) == 10
    for c in rep.claims:
        assert c.preconditions_met == (c.name not in _NEEDS_SEPARABLE), c.name
        assert c.holds is not False


def test_full_coverage_gap_decides_one_solution_length_per_state():
    # state 2 is solved by "b" and, through state 1, by "aa": an invertible
    # base with two solution lengths at one state
    succ = np.array([[3, 3], [0, 3], [1, 0]], dtype=np.int32)
    mdp = TabularDsmdp(successor=succ, goal=0, action_labels=["a", "b"])
    p = StateDistribution(np.array([0.0, 0.5, 0.5]))
    aug = augment(mdp, [macro_from_labels("ab", mdp.action_labels)],
                  GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.0)
    assert rep.claim("learn_ratio_unmerged_ic").notes == \
        "separability: invertible_transitions"
    c = rep.claim("explore_gap_full_coverage")
    assert not c.preconditions_met
    assert c.notes == "states with solutions of several lengths"


def test_small_campaign_has_no_violations():
    s = theorem_campaign(seed=2, n_macro_cases=15, n_skill_cases=10,
                         n_seqcons_sets=5, max_states=20)
    assert s.violations == []
    assert (s.holds, s.skipped, s.inconclusive) == (150, 145, 0)
    assert s.held_by_claim == {
        "density_at_most_one_separable": 15,
        "explore_density_lower_bound": 25,
        "explore_gap_full_coverage": 5,
        "explore_gap_kl_corrected": 5,
        "learn_ratio_expressivity_bound": 30,
        "learn_ratio_merged_ic": 30,
        "learn_ratio_min_entropy_bound": 20,
        "learn_ratio_unmerged_ic": 20,
    }


def test_campaign_counts_checked_claims_at_seed_7():
    s = theorem_campaign(seed=7)
    assert s.cases == 450 and len(s.checked_by_claim) == 10
    for claim, held in s.held_by_claim.items():
        assert held <= s.checked_by_claim[claim]
    assert sum(s.checked_by_claim.values()) == \
        s.holds + s.inconclusive + len(s.violations)
    # no random case meets the preconditions of the two "macros hurt" claims
    assert s.checked_by_claim["macros_hurt_learning_when_incompressible"] == 0
    assert s.checked_by_claim["macros_hurt_exploration_near_uniform"] == 0


def _serial_campaign(seed=0, n_macro_cases=200, n_skill_cases=200,
                     n_seqcons_sets=50, delta=0.1, max_states=40):
    """Oracle: the campaign as one loop that draws and evaluates each case
    in turn, in one process."""
    rng = np.random.default_rng(seed)
    summary = CampaignSummary()
    for kind, cases, make_skills in (
            ("macro", n_macro_cases, random_macro_skills),
            ("skill", n_skill_cases, random_tabular_skills)):
        for i in range(cases):
            n = int(rng.integers(5, max_states + 1))
            m = int(rng.integers(2, 4))
            mdp = random_invertible_mdp(rng, n, m)
            p = random_distribution(rng, mdp)
            aug = augment(mdp, make_skills(rng, mdp), mode=GOAL_PASS_DEAD)
            summary.absorb(f"{kind}[{i}]", bounds_report(aug, p, delta))
    seq_mdp, seq_p = build_sequence_consume(2, 3)
    for i in range(n_seqcons_sets):
        aug = augment(seq_mdp, random_macro_skills(rng, seq_mdp),
                      mode=GOAL_PASS_DEAD)
        summary.absorb(f"seqcons[{i}]", bounds_report(aug, seq_p, 0.0))
    return summary


def _summary_fields(s):
    return (s.cases, s.holds, s.inconclusive, s.skipped, s.violations,
            s.held_by_claim, s.checked_by_claim)


@pytest.mark.parametrize("seed, sizes", [
    (2, dict(n_macro_cases=15, n_skill_cases=10, n_seqcons_sets=5,
             max_states=20)),
    (7, {})])
def test_theorem_campaign_does_not_depend_on_the_worker_count(
        seed, sizes, monkeypatch):
    oracle = _summary_fields(_serial_campaign(seed, **sizes))
    for workers in (1, 2, 3):
        monkeypatch.setattr(_ranges, "CPUS", workers)
        assert _summary_fields(theorem_campaign(seed, **sizes)) == oracle


def test_theorem_campaign_pool_reports_progress_in_order_and_reraises(
        monkeypatch):
    monkeypatch.setattr(_ranges, "CPUS", 2)
    sizes = dict(n_macro_cases=12, n_skill_cases=9, n_seqcons_sets=4,
                 max_states=12)
    order = ([("macro", i) for i in range(12)]
             + [("skill", i) for i in range(9)]
             + [("seqcons", i) for i in range(4)])
    seen = []
    theorem_campaign(3, **sizes, progress=lambda i, kind: seen.append(
        (kind, i)))
    assert seen == order
    assert multiprocessing.active_children() == []

    # the seqcons cases raise inside a worker; no case from the first of
    # them on is reported
    report = experiments.bounds_report

    def failing(aug, p, delta):
        if delta == 0.0:
            raise ZeroDivisionError("seqcons case failed")
        return report(aug, p, delta)

    monkeypatch.setattr(experiments, "bounds_report", failing)
    seen.clear()
    with pytest.raises(ZeroDivisionError, match="seqcons case failed"):
        theorem_campaign(3, **sizes, progress=lambda i, kind: seen.append(
            (kind, i)))
    assert seen == order[:len(seen)] and len(seen) < 21
    assert multiprocessing.active_children() == []

    # a progress that raises in the caller, while workers still run, also
    # leaves no worker behind
    monkeypatch.setattr(experiments, "bounds_report", report)

    def stop(i, kind):
        if (kind, i) == ("macro", 2):
            raise KeyError("stop")

    with pytest.raises(KeyError, match="stop"):
        theorem_campaign(3, **sizes, progress=stop)
    assert multiprocessing.active_children() == []


def test_density_exploration_bound_on_tabular_skills():
    rng = np.random.default_rng(22)
    for _ in range(10):
        mdp = random_invertible_mdp(rng, int(rng.integers(5, 20)), 2)
        p = random_distribution(rng, mdp)
        aug = augment(mdp, random_tabular_skills(rng, mdp), GOAL_PASS_DEAD)
        rep = bounds_report(aug, p, 0.1)
        assert rep.claim("explore_density_lower_bound").holds


def test_check_near_uniform_exploration_instance_with_geometric_weights():
    delta, L = 0.5, 10
    weights = [delta * (1 - delta) ** (l - 1) for l in range(1, L + 1)]
    mdp, p = build_sequence_consume(2, L, length_weights=weights)
    rng = np.random.default_rng(23)
    for _ in range(5):
        aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
        rep = bounds_report(aug, p, delta)
        c = rep.claim("macros_hurt_exploration_near_uniform")
        assert c.preconditions_met
        assert c.holds  # strictly increases exploration difficulty


def test_check_near_uniform_exploration_skipped_when_kl_large():
    # uniform p over all states is far from rho: precondition fails
    mdp, p = build_sequence_consume(2, 6)
    rng = np.random.default_rng(24)
    aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.5)
    c = rep.claim("macros_hurt_exploration_near_uniform")
    assert not c.preconditions_met


def test_check_full_coverage_gap_and_check_kl_corrected_gap_on_sequence_consume():
    mdp, p = build_sequence_consume(2, 3)
    rng = np.random.default_rng(25)
    for _ in range(10):
        aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
        rep = bounds_report(aug, p, 0.0)
        t5 = rep.claim("explore_gap_full_coverage")
        t7 = rep.claim("explore_gap_kl_corrected")
        assert t5.preconditions_met and t5.holds
        assert t7.preconditions_met and t7.holds
        x = mdp.num_actions / aug.mdp.num_actions
        assert t5.rhs == pytest.approx(x * (1 - x))


def test_check_kl_corrected_gap_kl_is_zero_for_proportional_p():
    # with p proportional to q-tilde within length classes, the construction
    # in the stronger bound gives KL = 0 exactly
    mdp, p = build_sequence_consume(2, 3)
    rng = np.random.default_rng(26)
    aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.0)
    t7 = rep.claim("explore_gap_kl_corrected")
    assert "KL=" in t7.notes
    kl = float(t7.notes.split("KL=")[1])
    assert abs(kl) < 1e-12


def test_expansion_length_dp_matches_q():
    # sum over expansion lengths of G(s, l) equals q at delta = 0 once the
    # expansion horizon covers the surviving walk mass
    rng = np.random.default_rng(27)
    for _ in range(5):
        mdp = random_invertible_mdp(rng, 10, 2)
        aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
        G = expansion_length_q(aug, 400)
        q = solve_q(aug.mdp, 0.0)
        assert np.allclose(G.sum(axis=1), q.q, atol=1e-9)


def test_expressivity_bound_with_tabular_skills():
    rng = np.random.default_rng(28)
    held = 0
    for _ in range(10):
        mdp = random_invertible_mdp(rng, int(rng.integers(5, 15)), 2)
        p = random_distribution(rng, mdp)
        aug = augment(mdp, random_tabular_skills(rng, mdp), GOAL_PASS_DEAD)
        rep = bounds_report(aug, p, 0.1)
        c = rep.claim("learn_ratio_expressivity_bound")
        assert c.preconditions_met
        assert c.holds is not False
        held += bool(c.holds)
    assert held == 10


def test_star_base_meets_incompressibility_condition():
    mdp, p = build_star_base(6)
    ic = ic_unmerged(mdp, p, mode="sup")
    assert ic.value == pytest.approx(1.0)
    rng = np.random.default_rng(29)
    aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.1)
    c = rep.claim("macros_hurt_learning_when_incompressible")
    assert c.preconditions_met
    assert c.holds  # macroactions provably worsen learning difficulty here


def test_tradeoff_demonstration():
    demo = tradeoff_demonstration()
    assert demo["condition_met"]
    assert demo["j_learn_ratio"] > 1.0
    assert demo["j_explore_ratio"] < 1.0
    assert demo["fallback_self_states"] == 6  # star base has no round trips


def test_tightness_requires_large_delta():
    mdp, p = build_star_base(4)
    with pytest.raises(DeltaTooSmallError):
        tightness_augmentation(mdp, p, 0.2, 10)  # max p = 0.25 >= delta


def test_tightness_round_trip_self_loops():
    # a cycle base has 2-action round trips, so no fallback states
    rng = np.random.default_rng(30)
    for _ in range(10):
        mdp = random_invertible_mdp(rng, 8, 3)
        p = random_distribution(rng, mdp)
        delta = float(p.probs.max()) + 0.2
        if delta >= 0.95:
            continue
        aug, info = tightness_augmentation(mdp, p, delta, 20)
        for s in range(mdp.num_states):
            if s == mdp.goal:
                continue
            for j, z in enumerate(aug.skills):
                if j >= info.goal_skill_counts[s] and s not in \
                        info.fallback_states:
                    assert aug.mdp.successor[s, mdp.num_actions + j] == s


_CLAIM_ORDER = [
    "learn_ratio_merged_ic", "learn_ratio_unmerged_ic",
    "macros_hurt_learning_when_incompressible", "explore_density_lower_bound",
    "density_at_most_one_separable", "macros_hurt_exploration_near_uniform",
    "explore_gap_full_coverage", "learn_ratio_expressivity_bound",
    "learn_ratio_min_entropy_bound", "explore_gap_kl_corrected",
]


def _layout(rep):
    return [(c.name, c.preconditions_met) for c in rep.claims]


def test_report_layout_macro_case():
    rng = np.random.default_rng(40)
    mdp = random_invertible_mdp(rng, 8, 2)
    p = random_distribution(rng, mdp)
    aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.1)
    met = [True, True, False, True, True, False, False, True, True, False]
    assert _layout(rep) == list(zip(_CLAIM_ORDER, met))


def test_report_layout_tabular_skill_case():
    rng = np.random.default_rng(41)
    mdp = random_invertible_mdp(rng, 8, 2)
    p = random_distribution(rng, mdp)
    aug = augment(mdp, random_tabular_skills(rng, mdp), GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.1)
    met = [True, False, False, True, False, False, False, True, False, False]
    assert _layout(rep) == list(zip(_CLAIM_ORDER, met))
    # the density claim is skipped but still reports the density
    assert rep.claim("density_at_most_one_separable").lhs > 0.0


def test_report_layout_seqcons_case_at_delta_zero():
    # no density claim at delta = 0: nine claims
    mdp, p = build_sequence_consume(2, 3)
    rng = np.random.default_rng(42)
    aug = augment(mdp, random_macro_skills(rng, mdp), GOAL_PASS_DEAD)
    rep = bounds_report(aug, p, 0.0)
    order = [n for n in _CLAIM_ORDER if n != "density_at_most_one_separable"]
    met = [True, True, False, False, False, True, True, True, True]
    assert _layout(rep) == list(zip(order, met))
