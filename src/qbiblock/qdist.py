"""The q-distance matrix and the reduced-cofactor construction.

The q-distance matrix replaces each graph distance alpha >= 1 with the
polynomial 1 + q + ... + q^(alpha-1).  The reduced cofactor of such a matrix
is the determinant of an (n-1) x (n-1) matrix obtained from a pivot vertex,
each entry read off the distance table (cofactor_matrix).

The oracles read one integer-list matrix off the distance table,
bordered_rows, pivoted at the table's vertex 0; the oracle renumbers the
table first, so that its vertex 0 is a centre of the graph, and the
cofactor is the same at every pivot (oracle module docstring).
Subtracting the pivot row from every other row and then
q^d(0, v) times the pivot column from every other column v turns D into
[[0, alpha^T], [beta, C]], with alpha_v = [d(0, v)]_q, beta_u = [d(u, 0)]_q
and C the cofactor matrix at pivot 0.  Moving the pivot last shifts the rows
and the columns cyclically, with signs that cancel, so the bordered matrix
B(z) = [[C, beta], [alpha^T, z]] has det B(z) = det D + z * det C, linear in
its corner z.  With z = q^M, for an a-priori bound M on the degree of det D,
one determinant carries both values in disjoint coefficient ranges.

Before the determinant, each row u != 0 of B has original rows of earlier
vertices subtracted (bordered_rows), never vertex 0's bordered row.  In the
cofactor construction, vertex 0's own row would be
[d(0, v)]_q - [0 + d(0, v)]_q = 0 with border [0]_q = 0, so a subtracted
"row of 0" is zero.  u's reference (row_references) is u's previous twin,
the last earlier vertex other than 0 with u's neighbours, as far from 0 as
u; else u's BFS parent p, one step closer to 0.  So in the order of
distance from 0, then vertex number, every reference, and p's own BFS
parent g, precede row u: the operations are unit lower triangular there,
with polynomial multipliers, and never touch vertex 0's row, and
det B(z) is kept.

Twins u and w have d(u, v) = 1 + min_x d(x, v) = d(w, v) over their
common neighbours x, for every v other than u and w, 0 included, and
d(u, w) = 2.  So their cofactor rows differ only in columns u and w: row u
less row w is -[2]_q at u, [2]_q at w and 0 elsewhere, the last column
included.  The non-cut vertices of one side of a block are twins, and a
twin row, two entries of 1-norm 2, keeps the elimination sparse.

Any other row u whose parent p is not 0 becomes
row_u - (1 + q) row_p + q row_g, a second difference along the geodesic
g, p, u.  The q-integers satisfy [E + 2]_q - (1 + q) [E + 1]_q + q [E]_q = 0,
since [E + 2]_q = [E + 1]_q + q^(E+1) and q [E]_q = [E + 1]_q - 1; the
q-analogue of Bapat-Lal-Pati's three-term rule (LAA 2006).  With
E = d(u, 0) + d(0, v) - 2, the pivot corrections -[d(., 0) + d(0, v)]_q of
the three rows are -[E + 2]_q, -[E + 1]_q and -[E]_q, and cancel, and so do
the border entries [d(., 0)]_q, with E = d(u, 0) - 2: the last column is 0.
What is left of entry v is ([d]_q - [c]_q) - q ([c]_q - [b]_q), with
d = d(u, v), c = d(p, v) and b = d(g, v), read off the table.  Adjacent
vertices are within one step of v, so [d]_q - [c]_q is q^c, 0 or -q^(c-1)
and q ([c]_q - [b]_q) is q^c, 0 or -q^(c+1): the entry has at most two
terms and 1-norm at most 2; in a bipartite graph, a bi-block graph
included, adjacent vertices are never equally far from v, so a nonzero
entry has two.  It is 0 where d = c + 1 = b + 2, that is
where a shortest path from u to v runs through p and g: on a path, every
column beyond g.  A child of 0 keeps its row, whose entry is
[d]_q - [1 + d(0, v)]_q and whose last column is 1.
"""

from __future__ import annotations

from .exactring import q_integer
from .graph import BiBlockGraph, distances
from .matrix import DimensionError, RingMatrix


def q_distance_matrix(g: BiBlockGraph) -> RingMatrix:
    """The q-distance matrix of a bi-block graph in builder vertex order."""
    return RingMatrix([[q_integer(d) for d in row] for row in distances(g)])


def bfs_parents(dist: list[list[int]]) -> list[int]:
    """For each vertex i != 0, a neighbour one step closer to vertex 0 (the
    first in vertex order); entry 0 is -1, for no parent."""
    return [-1] + [
        next(p for p, d in enumerate(row) if d == 1 and dist[0][p] == dist[0][i] - 1)
        for i, row in enumerate(dist[1:], start=1)
    ]


def row_references(dist: list[list[int]], parents: list[int]) -> list[int]:
    """For each vertex u != 0, the earlier vertex whose row bordered_rows
    differences u's against: the last vertex w, 0 < w < u, with the same
    distance-1 columns as u (a twin, d(u, w) = 2), else u's BFS parent,
    parents[u] (bfs_parents); entry 0 is -1, for no reference."""
    refs = parents.copy()
    last: dict[tuple[int, ...], int] = {}
    for u, row in enumerate(dist[1:], start=1):
        key = tuple(v for v, d in enumerate(row) if d == 1)
        refs[u] = last.get(key, refs[u])
        last[key] = u
    return refs


def q_distance_rows(dist: list[list[int]]) -> list[list[list[int]]]:
    """The q-distance matrix of a distance table as ascending integer
    coefficient lists: entry (u, v) is [1] * d(u, v)."""
    return [[[1] * d for d in row] for row in dist]


def bordered_rows(dist: list[list[int]]) -> tuple[list[list[list[int]]], int]:
    """(rows, M): the bordered q-distance matrix above, as integer coefficient
    lists with corner q^M.

    Row u != 0 is cofactor_matrix's row of u followed by [d(u, 0)]_q, less
    the same rows of earlier vertices (module docstring): a twin row less
    its twin's, a child of 0 as it is, and any other row less (1 + q) times
    its BFS parent p's plus q times p's BFS parent g's, which is zero for
    g = 0.  Unit lower triangular in the order of distance from 0, so the
    determinant is kept.  Vertex 0's row comes last.
    M = 1 + sum_i max_j deg B_ij, corner excluded, bounds deg det D.

    Each entry is read off the distance table.  A twin row is -[2]_q at u
    and [2]_q at its twin.  With d = d(u, v), c = d(p, v) and b = d(g, v),
    the second-difference entry is ([d]_q - [c]_q) - q ([c]_q - [b]_q)
    (_second_difference), of at most two terms and 1-norm at most 2, and
    its last column is 0.  A child of 0 has the entry
    [d]_q - [1 + a]_q = ([d]_q - [a]_q) - q ([a]_q - [a - 1]_q),
    a = d(0, v) >= 1, and the last column [1]_q.
    """
    alpha = dist[0][1:]
    parents = bfs_parents(dist)
    rows = []
    for u, (row, r) in enumerate(zip(dist[1:], row_references(dist, parents)[1:]), start=1):
        if row[r] == 2:  # a twin; a parent is at distance 1
            entries = [[]] * len(row)
            entries[u - 1], entries[r - 1] = [-1, -1], [1, 1]
        elif r:
            triples = zip(row[1:], dist[r][1:], dist[parents[r]][1:])
            entries = [_second_difference(d, c, b) for d, c, b in triples] + [[]]
        else:
            entries = [_second_difference(d, a, a - 1) for d, a in zip(row[1:], alpha)] + [[1]]
        rows.append(entries)
    rows.append([[1] * a for a in alpha] + [[]])
    m = 1 + sum(max(map(len, row)) - 1 for row in rows)
    rows[-1][-1] = [0] * m + [1]
    return rows, m


# ([d]_q - [c]_q) - q ([c]_q - [b]_q) by (d - c, c - b): q^(c + s) times the
# tail for (s, tail); absent keys are 0.  [d]_q - [c]_q is q^c, 0 or -q^(c-1)
# and q ([c]_q - [b]_q) is q^c, 0 or -q^(c+1), by the signs of the steps.
_SECOND_DIFFERENCES = {
    (1, 0): (0, [1]),
    (1, -1): (0, [1, 1]),
    (0, 1): (0, [-1]),
    (0, -1): (1, [1]),
    (-1, 1): (-1, [-1, -1]),
    (-1, 0): (-1, [-1]),
    (-1, -1): (-1, [-1, 0, 1]),
}


def _second_difference(d: int, c: int, b: int) -> list[int]:
    """([d]_q - [c]_q) - q ([c]_q - [b]_q) for |d - c| <= 1 and |c - b| <= 1."""
    step = _SECOND_DIFFERENCES.get((d - c, c - b))
    return [0] * (c + step[0]) + step[1] if step else []


def cofactor_matrix(qmat: RingMatrix, dist: list[list[int]], pivot: int = 0) -> RingMatrix:
    """The (n-1) x (n-1) matrix whose determinant is the reduced cofactor.

    Entry (i, j) is D1[i][j] - [beta_i + alpha_j], where D1 drops the pivot
    row and column, alpha_j is the distance from the pivot to column vertex j
    and beta_i the distance from row vertex i to the pivot: the matrix that
    subtracting the pivot row from every other row, and then q**alpha_j times
    the pivot column from every other column, leaves.
    """
    n = qmat.nrows
    if not qmat.is_square or len(dist) != n or any(len(row) != n for row in dist):
        raise DimensionError("q-distance matrix and distance table sizes disagree")
    if not 0 <= pivot < n:
        raise DimensionError(f"pivot vertex {pivot} out of range")
    others = [v for v in range(n) if v != pivot]
    return RingMatrix(
        [
            [qmat[u, v] - q_integer(dist[u][pivot] + dist[pivot][v]) for v in others]
            for u in others
        ]
    )
