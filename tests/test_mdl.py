import numpy as np
import pytest

from skilldiff.mdl import (Corpus, MissingParamError, abstract_corpus,
                           discover_macroactions, objective)
from skilldiff.skills import expand_rewriting


def random_corpus(rng, n_sols=8, max_len=12, alphabet=3):
    sols = [tuple(int(x) for x in
                  rng.integers(0, alphabet, size=rng.integers(1, max_len)))
            for _ in range(n_sols)]
    return Corpus(solutions=sols)


def test_corpus_validation():
    with pytest.raises(ValueError):
        Corpus(solutions=[])
    with pytest.raises(ValueError):
        Corpus(solutions=[()])


def test_abstract_corpus_statistics():
    c = Corpus(solutions=[(1, 1, 1, 1)])
    ab = abstract_corpus(c, [(1, 1)], 4)
    assert ab.mean_length == 2.0
    assert ab.action_frequency == {4: 1.0}
    assert ab.length_distribution == {2: 1.0}


def test_abstract_corpus_identity_without_macros():
    c = Corpus(solutions=[(0, 1), (2, 2, 2)])
    ab = abstract_corpus(c, [], 3)
    assert ab.rewritten == [(0, 1), (2, 2, 2)]
    assert ab.mean_length == pytest.approx(2.5)


def test_round_trip_on_random_corpora():
    rng = np.random.default_rng(40)
    for _ in range(50):
        c = random_corpus(rng)
        macros = [tuple(int(x) for x in rng.integers(0, 3, size=L))
                  for L in rng.integers(2, 5, size=rng.integers(0, 3))]
        ab = abstract_corpus(c, macros, 3)
        assert len(ab.rewritten) == len(c.solutions)
        for toks, sol in zip(ab.rewritten, c.solutions):
            assert tuple(expand_rewriting(toks, macros, 3)) == sol


def test_objective_identities():
    rng = np.random.default_rng(41)
    for _ in range(100):
        c = random_corpus(rng)
        macros = [tuple(int(x) for x in rng.integers(0, 3, size=L))
                  for L in rng.integers(2, 5, size=rng.integers(0, 3))]
        ab = abstract_corpus(c, macros, 3)
        l5 = objective(ab, "L5")
        l7 = objective(ab, "L7")
        l4 = objective(ab, "L4")
        pa = np.array(list(ab.action_frequency.values()))
        assert l5 == pytest.approx(ab.mean_length * float(-(pa * np.log(pa)).sum()))
        assert l7 == pytest.approx(ab.mean_length * np.log(ab.num_actions))
        assert l5 <= l7 + 1e-12
        assert l4 >= l5 - 1e-12


def test_l3_distinct_solutions():
    c = Corpus(solutions=[(0, 1), (1, 0), (2, 2), (0, 0)])
    ab = abstract_corpus(c, [], 3)
    assert objective(ab, "L3") == pytest.approx(np.log(4))


def test_l7_without_macros_is_base_code_length():
    c = Corpus(solutions=[(0, 1, 2), (1, 1, 1)])
    ab = abstract_corpus(c, [], 3)
    assert objective(ab, "L7") == pytest.approx(3.0 * np.log(3))


def test_j6_requires_entropy_param():
    c = Corpus(solutions=[(0, 1)])
    ab = abstract_corpus(c, [], 2)
    with pytest.raises(MissingParamError):
        objective(ab, "J6")
    v = objective(ab, "J6", entropy_p=2.0)
    assert v > 0


def test_l1_sup_factor():
    c = Corpus(solutions=[(0, 1), (1, 0)])
    ab = abstract_corpus(c, [], 2)
    v = objective(ab, "L1", num_base_actions=2)
    assert np.isfinite(v) and v > 0


def test_weighted_corpus():
    c = Corpus(solutions=[(0,), (1, 1)], weights=[3.0, 1.0])
    ab = abstract_corpus(c, [], 2)
    assert ab.mean_length == pytest.approx(0.75 * 1 + 0.25 * 2)


def test_discovery_on_repetitive_corpus():
    c = Corpus(solutions=[(1,) * 8] * 50)
    res = discover_macroactions(c, "L7", num_base_actions=4, max_skills=3,
                                max_len=4)
    assert res.macros  # finds run-length macros
    assert all(a > b for a, b in zip(res.trace, res.trace[1:]))


def test_discovery_empty_on_random_corpus():
    rng = np.random.default_rng(42)
    empties = 0
    for _ in range(20):
        sols = [tuple(int(x) for x in rng.integers(0, 3, size=18))
                for _ in range(12)]
        res = discover_macroactions(Corpus(solutions=sols), "L7",
                                    num_base_actions=3)
        empties += not res.macros
    assert empties >= 19


def test_discovery_deterministic():
    rng = np.random.default_rng(43)
    sols = [tuple(int(x) for x in rng.integers(0, 2, size=10))
            for _ in range(10)]
    a = discover_macroactions(Corpus(solutions=sols), "L5", 2, seed=7)
    b = discover_macroactions(Corpus(solutions=sols), "L5", 2, seed=7)
    assert a.macros == b.macros and a.trace == b.trace


def test_corpus_label_round_trip(tmp_path):
    text = "U R R D\nR R\n"
    c = Corpus.from_label_lines(text, ["U", "R", "D", "L"])
    assert c.solutions == [(0, 1, 1, 2), (1, 1)]
