from __future__ import annotations

import pytest
from helpers import (
    int_rows,
    oracle_large_graphs,
    psub_bordered_rows,
    rowcol_cofactor_matrix,
    whole_det_int_poly_matrix,
)

from qbiblock import _moddet
from qbiblock.exactring import ONE, Q, ZERO, q_integer
from qbiblock.graph import BlockSpec, build, distances, path_tree, random_biblock, star_tree
from qbiblock.matrix import DimensionError, RingMatrix, det_bareiss
from qbiblock.oracle import default_corpus
from qbiblock.qdist import (
    bfs_parents,
    bordered_rows,
    cofactor_matrix,
    q_distance_matrix,
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
        for pivot in (0, g.n // 2, g.n - 1):
            assert cofactor_matrix(m, d, pivot) == rowcol_cofactor_matrix(m, d, pivot)


def test_cofactor_determinant_is_pivot_independent():
    for seed in (1, 4, 8):
        g = build(random_biblock(seed, 3, 3))
        m = q_distance_matrix(g)
        d = distances(g)
        base = det_bareiss(cofactor_matrix(m, d, pivot=0))
        for pivot in range(1, g.n):
            assert det_bareiss(cofactor_matrix(m, d, pivot=pivot)) == base


def test_errors():
    g = build([BlockSpec(1, 1)])
    m = q_distance_matrix(g)
    d = distances(g)
    with pytest.raises(DimensionError):
        cofactor_matrix(m, [[0]])
    with pytest.raises(DimensionError):
        cofactor_matrix(m, d, pivot=9)


def test_bfs_parents_are_neighbours_one_step_closer_to_vertex_0():
    for specs in (path_tree(6), [BlockSpec(3, 2)], random_biblock(11, 6, 3)):
        dist = distances(build(specs))
        parents = bfs_parents(dist)
        assert parents[0] == -1
        for i, p in enumerate(parents[1:], start=1):
            assert dist[i][p] == 1 and dist[0][p] == dist[0][i] - 1


def ring_bordered(g, corner=ZERO) -> list[list]:
    """The bordered matrix from the ring constructions: the row-and-column
    route's cofactor matrix at pivot 0 with the column [d(u, 0)]_q, then the
    row [d(0, v)]_q and the corner."""
    qmat = q_distance_matrix(g)
    cof = rowcol_cofactor_matrix(qmat, distances(g))
    rows = [list(row) + [qmat[u, 0]] for u, row in enumerate(cof.rows, start=1)]
    return rows + [[qmat[0, v] for v in range(1, g.n)] + [corner]]


def test_bordered_rows_of_the_single_edge():
    # the 2 x 2 bordered matrix [[-(1+q), 1], [1, q^2]]: det = -1 - q^2 - q^3
    rows, m = bordered_rows(distances(build([BlockSpec(1, 1)])))
    assert m == 2
    assert rows == [[[-1, -1], [1]], [[1], [0, 0, 1]]]


def test_bordered_rows_equal_the_psub_construction():
    graphs = [build(specs) for _, specs in default_corpus(7)] + oracle_large_graphs()
    assert len(graphs) == 175
    for g in graphs:
        dist = distances(g)
        assert bordered_rows(dist) == psub_bordered_rows(dist), g.n


def test_bordered_determinant_equals_the_whole_elimination_on_the_oracle_graphs():
    graphs = [build(specs) for _, specs in default_corpus(7)] + oracle_large_graphs()
    graphs.append(build(path_tree(24)))
    assert len(graphs) == 176
    for g in graphs:
        rows, _ = bordered_rows(distances(g))
        assert _moddet.det_int_poly_matrix(rows) == whole_det_int_poly_matrix(rows), g.n


def test_bordered_rows_are_the_parent_differenced_ring_construction():
    graphs = [[BlockSpec(1, 1)], [BlockSpec(1, 4)], [BlockSpec(3, 3)], star_tree(6), path_tree(9)]
    graphs += [random_biblock(seed, 6, 3) for seed in range(8)]
    for specs in graphs:
        g = build(specs)
        dist = distances(g)
        rows, m = bordered_rows(dist)
        ring = ring_bordered(g)
        parents = bfs_parents(dist)
        expected = [
            row if parents[u] == 0 else [a - b for a, b in zip(row, ring[parents[u] - 1])]
            for u, row in enumerate(ring[:-1], start=1)
        ] + [ring[-1]]
        # the a-priori degree bound: one more than the sum of the rows' degrees
        assert m == 1 + sum(max(e.degree for e in row) for row in expected), specs
        expected[-1][-1] = Q**m
        assert rows == int_rows(RingMatrix(expected)), specs
        for u in range(1, g.n):
            if parents[u]:
                # the differenced entries have 1-norm at most 2, q^d(p, 0) last
                assert all(sum(map(abs, e)) <= 2 for e in rows[u - 1]), specs
                assert rows[u - 1][-1] == [0] * dist[parents[u]][0] + [1], specs


def test_bordered_determinant_is_linear_in_the_corner():
    # det B(z) = det D + z * det C, on the undifferenced ring matrices
    for specs in ([BlockSpec(1, 1)], [BlockSpec(2, 3)], path_tree(5), random_biblock(3, 3, 3)):
        g = build(specs)
        qmat = q_distance_matrix(g)
        det_d = det_bareiss(qmat)
        cofactor = det_bareiss(cofactor_matrix(qmat, distances(g)))
        assert det_bareiss(RingMatrix(ring_bordered(g))) == det_d, specs
        for z in (ONE, Q**3 - 2):
            assert det_bareiss(RingMatrix(ring_bordered(g, z))) == det_d + z * cofactor, specs
