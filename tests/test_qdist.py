from __future__ import annotations

import pytest

from qbiblock.exactring import ONE, Q, ZERO, q_integer
from qbiblock.graph import BlockSpec, build, distances, path_tree, random_biblock
from qbiblock.matrix import DimensionError, RingMatrix, det_bareiss
from qbiblock.oracle import default_corpus
from qbiblock.qdist import (
    bfs_parents,
    cofactor_matrix,
    cofactor_rows,
    parent_differenced,
    q_distance_matrix,
    q_distance_rows,
    q_matrix_from_distances,
)


def test_single_edge():
    g = build([BlockSpec(1, 1)])
    assert q_distance_matrix(g) == RingMatrix([[ZERO, ONE], [ONE, ZERO]])


def test_one_block_path_matrix():
    # K_{1,2} is the path on 3 vertices; builder order X = (0,), Y = (1, 2)
    g = build([BlockSpec(1, 2)])
    m = q_distance_matrix(g)
    assert m == RingMatrix(
        [[ZERO, ONE, ONE], [ONE, ZERO, Q + 1], [ONE, Q + 1, ZERO]]
    )


def test_path_endpoint_entry():
    g = build(path_tree(4))
    m = q_distance_matrix(g)
    assert m[0, 3] == 1 + Q + Q**2


def test_matrix_at_one_is_distance_table():
    for seed in (0, 5, 9):
        g = build(random_biblock(seed, 4, 3))
        d = distances(g)
        m = q_distance_matrix(g)
        for i in range(g.n):
            for j in range(g.n):
                assert m[i, j].eval_at(1) == d[i][j]


def test_cofactor_matrix_single_edge():
    g = build([BlockSpec(1, 1)])
    cm = cofactor_matrix(q_distance_matrix(g), distances(g))
    assert cm == RingMatrix([[-(Q + 1)]])


def test_cofactor_matrix_two_one_block():
    # K_{2,1}: the top-left entry is 0 - [2 + 2] = -(1+q)(1+q^2)
    g = build([BlockSpec(2, 1)])
    cm = cofactor_matrix(q_distance_matrix(g), distances(g))
    assert cm[0, 0] == -((Q + 1) * (Q**2 + 1))
    assert cm[0, 0] == -q_integer(4)


def test_construction_routes_agree():
    for seed in range(12):
        g = build(random_biblock(seed, 4, 3))
        m = q_distance_matrix(g)
        d = distances(g)
        assert cofactor_matrix(m, d, route="direct") == cofactor_matrix(m, d, route="rowcol")


def test_cofactor_determinant_is_pivot_independent():
    for seed in (1, 4, 8):
        g = build(random_biblock(seed, 3, 3))
        m = q_distance_matrix(g)
        d = distances(g)
        base = det_bareiss(cofactor_matrix(m, d, pivot=0))
        for pivot in range(1, g.n):
            assert det_bareiss(cofactor_matrix(m, d, pivot=pivot)) == base


def test_non_biblock_distance_tables_are_accepted():
    # the lift itself works for any metric table, e.g. a 5-cycle
    cycle = [[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)]
    m = q_matrix_from_distances(cycle)
    assert m[0, 2] == Q + 1
    assert m[0, 1] == ONE


def test_errors():
    g = build([BlockSpec(1, 1)])
    m = q_distance_matrix(g)
    d = distances(g)
    with pytest.raises(DimensionError):
        cofactor_matrix(m, [[0]])
    with pytest.raises(DimensionError):
        cofactor_matrix(m, d, pivot=9)
    with pytest.raises(ValueError):
        cofactor_matrix(m, d, route="sideways")


def one_norm(e: list[int]) -> int:
    return sum(map(abs, e))


def int_rows(m: RingMatrix) -> list[list[list[int]]]:
    return [[list(e.coeffs) for e in row] for row in m.rows]


def test_integer_rows_equal_the_ring_matrices_on_the_corpus():
    # the oracles' integer lists against the Polynomial constructions, both
    # cofactor routes
    corpus = default_corpus(7)
    assert len(corpus) == 172
    for name, specs in corpus:
        g = build(specs)
        dist = distances(g)
        qmat = q_distance_matrix(g)
        assert q_distance_rows(dist) == int_rows(qmat), name
        cof = cofactor_rows(dist)
        assert cof == int_rows(cofactor_matrix(qmat, dist, route="direct")), name
        assert cof == int_rows(cofactor_matrix(qmat, dist, route="rowcol")), name


def test_bfs_parents_are_neighbours_one_step_closer_to_vertex_0():
    for specs in (path_tree(6), [BlockSpec(3, 2)], random_biblock(11, 6, 3)):
        dist = distances(build(specs))
        parents = bfs_parents(dist)
        assert parents[0] == -1
        for i, p in enumerate(parents[1:], start=1):
            assert dist[i][p] == 1 and dist[0][p] == dist[0][i] - 1


def test_parent_differenced_subtracts_each_parent_row_and_leaves_small_entries():
    # expected rows come from Polynomial subtraction on the ring matrices
    for seed in range(8):
        g = build(random_biblock(seed, 6, 3))
        dist = distances(g)
        parents = bfs_parents(dist)
        qmat = q_distance_matrix(g)
        diffed = parent_differenced(q_distance_rows(dist), dist)
        assert diffed[0] == int_rows(qmat)[0]
        for i in range(1, g.n):
            expected = [a - b for a, b in zip(qmat.rows[i], qmat.rows[parents[i]])]
            assert diffed[i] == [list(e.coeffs) for e in expected]
            # 0 or +-q^m
            assert all(one_norm(e) <= 1 for e in diffed[i])
        # the cofactor matrix drops vertex 0, so rows whose parent is 0 stay
        cof = cofactor_matrix(qmat, dist)
        cof_diffed = parent_differenced(cofactor_rows(dist), dist)
        for i in range(1, g.n):
            p = parents[i]
            row = cof.rows[i - 1]
            expected = row if p == 0 else [a - b for a, b in zip(row, cof.rows[p - 1])]
            assert cof_diffed[i - 1] == [list(e.coeffs) for e in expected]
            assert all(one_norm(e) <= 2 for e in cof_diffed[i - 1])


def test_parent_differenced_rejects_mismatched_sizes():
    dist = distances(build(path_tree(4)))
    with pytest.raises(DimensionError):
        parent_differenced(q_distance_rows(dist), distances(build(path_tree(6))))
