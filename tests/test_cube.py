import numpy as np
import pytest

from skilldiff.envs.cube import (NUM_CUBE_STATES, _index_map, apply_move,
                                 decode, encode, move_tables, solved_index)


@pytest.fixture(scope="module")
def tables():
    return move_tables()


def _random_states(rng, n):
    perm = np.stack([rng.permutation(7) for _ in range(n)]).astype(np.int8)
    ori = rng.integers(0, 3, size=(n, 7)).astype(np.int8)
    ori[:, 6] = (-ori[:, :6].sum(axis=1)) % 3
    return perm, ori


def test_quarter_turns_have_order_four(tables):
    rng = np.random.default_rng(0)
    perm, ori = _random_states(rng, 64)
    for f in "FRU":
        p, o = perm, ori
        for _ in range(4):
            p, o = apply_move(p, o, tables[f + "1"])
        assert np.array_equal(p, perm) and np.array_equal(o, ori)


def test_half_turns_compose(tables):
    rng = np.random.default_rng(1)
    perm, ori = _random_states(rng, 32)
    for f in "FRU":
        p1, o1 = apply_move(*apply_move(perm, ori, tables[f + "1"]),
                            tables[f + "1"])
        p2, o2 = apply_move(perm, ori, tables[f + "2"])
        assert np.array_equal(p1, p2) and np.array_equal(o1, o2)
        p3a, o3a = apply_move(p2, o2, tables[f + "1"])
        p3b, o3b = apply_move(perm, ori, tables[f + "3"])
        assert np.array_equal(p3a, p3b) and np.array_equal(o3a, o3b)


def test_twist_sum_invariant(tables):
    rng = np.random.default_rng(2)
    perm, ori = _random_states(rng, 128)
    for name, tab in tables.items():
        _, o = apply_move(perm, ori, tab)
        assert np.all(o.sum(axis=1) % 3 == ori.sum(axis=1) % 3)


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(3)
    idx = rng.integers(0, NUM_CUBE_STATES, size=20_000)
    perm, ori = decode(idx)
    assert np.array_equal(encode(perm, ori), idx)
    assert np.all(ori.sum(axis=1) % 3 == 0)


def test_index_maps_match_decode_apply_encode(tables):
    # the coordinate-table index maps agree with moving decoded states
    rng = np.random.default_rng(5)
    idx = rng.integers(0, NUM_CUBE_STATES, size=20_000)
    for name, tab in tables.items():
        full = _index_map(tab)
        assert full.dtype == np.int32 and len(full) == NUM_CUBE_STATES
        assert np.array_equal(full[idx],
                              encode(*apply_move(*decode(idx), tab))), name


def test_solved_state_is_index_zero():
    perm, ori = decode(np.array([solved_index()]))
    assert np.array_equal(perm[0], np.arange(7))
    assert np.all(ori[0] == 0)


def test_free_group_growth_matches_cube_relations(tables):
    # BFS levels with the three clockwise generators: 3^k until the first
    # relations (FFFF = RRRR = UUUU = identity) cut depth 4 to 81 - 3 = 78
    solved = (np.arange(7, dtype=np.int8)[None], np.zeros((1, 7), np.int8))
    seen = {(tuple(solved[0][0]), tuple(solved[1][0]))}
    frontier = [solved]
    sizes = []
    for _ in range(4):
        nxt = []
        for (p, o) in frontier:
            for f in "FRU":
                p2, o2 = apply_move(p, o, tables[f + "1"])
                key = (tuple(p2[0]), tuple(o2[0]))
                if key not in seen:
                    seen.add(key)
                    nxt.append((p2, o2))
        sizes.append(len(nxt))
        frontier = nxt
    assert sizes == [3, 9, 27, 78]


def test_full_cube_properties(cube_bundle):
    mdp, p, info = cube_bundle
    assert mdp.num_states == NUM_CUBE_STATES == 3_674_160
    assert p.support_size == NUM_CUBE_STATES - 1
    assert p.probs[mdp.goal] == 0.0
    for f in "FRU":
        col = _index_map(move_tables()[f + "1"])
        # each generator is a bijection on the orbit
        assert len(np.unique(col)) == len(col)
    # scramble marginals are exact distributions before conditioning
    assert np.allclose(info["scramble"].step_marginal_sums, 1.0, atol=1e-12)


def test_cube_agent_table_matches_raw_moves(cube_bundle):
    mdp, _, _ = cube_bundle
    rng = np.random.default_rng(4)
    idx = rng.integers(1, mdp.num_states, size=1000)  # skip the goal row
    for a, f in enumerate("FRU"):
        col = _index_map(move_tables()[f + "1"])
        assert np.array_equal(mdp.successor[idx, a], col[idx])
