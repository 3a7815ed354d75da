from __future__ import annotations

import random

import pytest
from helpers import (
    corner_split,
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
    row_references,
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


def test_bordered_determinant_equals_the_first_differenced_psub_construction():
    # the second-differenced rows keep det B(z): the same det D and cofactor
    # as the rows less their references' alone, each read past its own q^M
    graphs = [build(specs) for _, specs in default_corpus(7)] + oracle_large_graphs()
    graphs += [build(path_tree(n)) for n in range(24, 49, 8)]
    graphs += [build([BlockSpec(s, s)]) for s in range(1, 13)]
    assert len(graphs) == 191
    for g in graphs:
        dist = distances(g)
        first = corner_split(*psub_bordered_rows(dist, row_references(dist, bfs_parents(dist))))
        assert corner_split(*bordered_rows(dist)) == first, g.n


def test_bordered_determinant_equals_the_whole_elimination_on_the_oracle_graphs():
    graphs = [build(specs) for _, specs in default_corpus(7)] + oracle_large_graphs()
    graphs.append(build(path_tree(24)))
    assert len(graphs) == 176
    for g in graphs:
        rows, _ = bordered_rows(distances(g))
        assert _moddet.det_int_poly_matrix(rows) == whole_det_int_poly_matrix(rows), g.n


def second_differenced_ring(g) -> list[list]:
    """ring_bordered with each row u != 0 less the rows of earlier vertices:
    a twin's row less its reference's, a child of vertex 0 as it is, and any
    other row less (1 + q) times its parent p's plus q times p's parent g's,
    vertex 0's cofactor row being zero."""
    dist = distances(g)
    ring = ring_bordered(g)
    parents = bfs_parents(dist)
    refs = row_references(dist, parents)
    original = [[ZERO] * g.n] + ring[:-1]
    rows = []
    for u, r in enumerate(refs[1:], start=1):
        row = original[u]
        if dist[u][r] == 2:
            row = [a - b for a, b in zip(row, original[r])]
        elif r:
            grand = original[parents[r]]
            row = [a - (1 + Q) * b + Q * c for a, b, c in zip(row, original[r], grand)]
        rows.append(row)
    return rows + [ring[-1]]


def test_bordered_rows_are_the_parent_differenced_ring_construction():
    # each row less its previous twin's, else less (1 + q) times its
    # parent's plus q times its grandparent's, from Polynomial arithmetic on
    # the row-and-column cofactor matrix
    graphs = [[BlockSpec(1, 1)], [BlockSpec(1, 4)], [BlockSpec(3, 3)], star_tree(6), path_tree(9)]
    graphs += [random_biblock(seed, 6, 3) for seed in range(8)]
    graphs = [build(specs) for specs in graphs] + [build(s) for _, s in default_corpus(7)]
    graphs += oracle_large_graphs()
    for g in graphs:
        rows, m = bordered_rows(distances(g))
        expected = second_differenced_ring(g)
        # the a-priori degree bound: one more than the sum of the rows' degrees
        assert m == 1 + sum(max(e.degree for e in row) for row in expected), g.n
        expected[-1][-1] = Q**m
        assert rows == int_rows(RingMatrix(expected)), g.n


def second_difference_rows(dist: list[list[int]]) -> list[int]:
    """The vertices whose bordered row is a second difference: no twin
    reference and a parent other than vertex 0."""
    refs = row_references(dist, bfs_parents(dist))
    return [u for u in range(1, len(dist)) if refs[u] and dist[u][refs[u]] == 1]


def check_second_difference_rows(dist: list[list[int]]) -> int:
    """Assert that every second-difference row has a zero last column and
    entries of at most two terms and 1-norm at most 2; the row count."""
    rows, _ = bordered_rows(dist)
    second = second_difference_rows(dist)
    for u in second:
        row = rows[u - 1]
        assert row[-1] == [], u
        assert all(sum(map(abs, e)) <= 2 and len(e) - e.count(0) <= 2 for e in row), (u, row)
    return len(second)


def test_second_difference_rows_are_sparse_with_a_zero_last_column():
    # a path and the oracle_large graphs, then random graphs by hypothesis
    # where it is installed, else by a fixed seeded sweep, each as built and
    # renumbered in levels from a random root
    for g in [build(path_tree(30)), *oracle_large_graphs()]:
        assert check_second_difference_rows(distances(g)) > 0, g.n

    def tables(seed: int, blocks: int, part_max: int, relabel: int):
        dist = distances(build(random_biblock(seed, blocks, part_max)))
        order = random.Random(relabel).sample(range(len(dist)), len(dist))
        order.sort(key=dist[order[0]].__getitem__)
        return dist, [[dist[u][v] for v in order] for u in order]

    try:
        import hypothesis
    except ImportError:
        rng = random.Random(3232)
        for _ in range(80):
            case = rng.randrange(10**6), rng.randint(1, 14), rng.randint(1, 4), rng.randrange(99)
            for dist in tables(*case):
                check_second_difference_rows(dist)
        return
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 10**6),
        blocks=st.integers(1, 14),
        part_max=st.integers(1, 4),
        relabel=st.integers(0, 98),
    )
    def prop(seed, blocks, part_max, relabel):
        for dist in tables(seed, blocks, part_max, relabel):
            check_second_difference_rows(dist)

    prop()


def bfs_table(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """The distance table of a connected graph on vertices 0 .. n-1."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    table = []
    for source in range(n):
        row, frontier = [-1] * n, [source]
        row[source] = 0
        while frontier:
            reached = []
            for x in frontier:
                for y in adjacent[x]:
                    if row[y] < 0:
                        row[y] = row[x] + 1
                        reached.append(y)
            frontier = reached
        table.append(row)
    return table


def test_bordered_rows_of_graphs_with_odd_cycles_give_det_and_cofactor():
    # adjacent vertices at equal distance from a column vertex, which no
    # bipartite graph has: the rows still give det D and the cofactor of
    # the ring route
    cycle = lambda n: [(i, (i + 1) % n) for i in range(n)]
    petersen = cycle(5) + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    tables = [bfs_table(3, cycle(3)), bfs_table(5, cycle(5)), bfs_table(7, cycle(7))]
    tables += [bfs_table(4, [(a, b) for a in range(4) for b in range(a)]), bfs_table(10, petersen)]
    tables.append(bfs_table(7, cycle(3) + [(2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]))
    level_ties = 0
    for dist in tables:
        qmat = RingMatrix([[q_integer(d) for d in row] for row in dist])
        want = det_bareiss(qmat), det_bareiss(cofactor_matrix(qmat, dist))
        assert corner_split(*bordered_rows(dist)) == tuple(list(p.coeffs) for p in want), dist
        check_second_difference_rows(dist)
        parents = bfs_parents(dist)
        level_ties += sum(
            dist[u][v] == dist[parents[u]][v] for u in second_difference_rows(dist) for v in range(len(dist))
        )
    assert level_ties > 0


def twin_tables():
    """Distance tables with twins: single blocks, stars, the corpus and the
    oracle_large graphs, each as built and under a seeded renumbering in
    levels from vertex 0, the order the oracle takes."""
    specs = [[BlockSpec(s, t)] for s in range(1, 7) for t in range(1, 7)] + [star_tree(7)]
    graphs = [build(s) for s in specs] + [build(s) for _, s in default_corpus(7)]
    graphs += oracle_large_graphs()
    for g in graphs:
        dist = distances(g)
        yield dist
        order = random.Random(g.n).sample(range(g.n), g.n)
        order.sort(key=dist[order[0]].__getitem__)
        yield [[dist[u][v] for v in order] for u in order]


def neighbours(row: list[int]) -> list[int]:
    return [v for v, d in enumerate(row) if d == 1]


def test_each_reference_precedes_its_row_and_vertex_0_is_no_twin_reference():
    # in the order of distance from vertex 0, then vertex number, so in
    # vertex order when the vertices come in levels
    for dist in twin_tables():
        refs = row_references(dist, bfs_parents(dist))
        assert refs[0] == -1
        level = dist[0]
        assert all((level[r], r) < (level[u], u) for u, r in enumerate(refs[1:], start=1))
        if level == sorted(level):
            assert all(r < u for u, r in enumerate(refs[1:], start=1)), dist
        # vertex 0 is a reference only as a parent, whose cofactor row is zero
        assert all(dist[u][0] == 1 for u, r in enumerate(refs) if r == 0), dist


def test_each_reference_is_the_previous_twin_or_else_the_parent():
    for dist in twin_tables():
        parents = bfs_parents(dist)
        for u, r in enumerate(row_references(dist, parents)[1:], start=1):
            twins = [w for w in range(1, u) if neighbours(dist[w]) == neighbours(dist[u])]
            assert r == (twins[-1] if twins else parents[u]), (dist, u)


def test_twin_rows_of_a_block_have_two_entries_and_a_zero_last_column():
    # K_{s,t} in builder order, X = 0 .. s-1 and Y = s .. s+t-1: each vertex
    # of a side but its first refers to the one before it, except vertex 1,
    # since the root 0 is never a twin reference
    for s, t in [(2, 2), (3, 5), (5, 3), (6, 6), (1, 7), (7, 1)]:
        dist = distances(build([BlockSpec(s, t)]))
        rows, _ = bordered_rows(dist)
        refs = row_references(dist, bfs_parents(dist))
        twins = [*range(2, s), *range(s + 1, s + t)]
        assert [u for u in range(1, s + t) if dist[u][refs[u]] == 2] == twins, (s, t)
        assert all(refs[u] == u - 1 for u in twins), (s, t)
        for u in twins:
            nonzero = {v: e for v, e in enumerate(rows[u - 1]) if e}
            assert nonzero == {u - 1: [-1, -1], u - 2: [1, 1]}, (s, t, u)
            assert rows[u - 1][-1] == [], (s, t, u)


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
