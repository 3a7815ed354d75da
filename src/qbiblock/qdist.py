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

Before the determinant, the original row of u's reference
(row_references) is subtracted from each row u != 0 of B.  The reference
is u's previous twin, the last earlier vertex other than 0 with u's
neighbours, as far from 0 as u; else u's BFS parent, one step closer to 0.
So in the order of distance from 0, then vertex number, every reference
precedes its row: the operations are unit lower triangular there and never
touch vertex 0's row, and det B(z) is kept.  Twins u and w have
d(u, v) = 1 + min_x d(x, v) = d(w, v) over their common neighbours x, for
every v other than u and w, 0 included, and d(u, w) = 2.  So their cofactor
rows differ only in columns u and w: row u less row w is -[2]_q at u,
[2]_q at w and 0 elsewhere, the last column included.  The non-cut
vertices of one side of a block are twins, and a twin row, two entries of
1-norm 2, keeps the elimination sparse where the row less its parent's is
dense.
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


def row_references(dist: list[list[int]]) -> list[int]:
    """For each vertex u != 0, the earlier vertex whose row bordered_rows
    subtracts from u's: the last vertex w, 0 < w < u, with the same
    distance-1 columns as u (a twin, d(u, w) = 2), else u's BFS parent;
    entry 0 is -1, for no reference."""
    refs = bfs_parents(dist)
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
    the same row of u's reference (row_references), which is zero for the
    parent 0: unit lower triangular in the order of distance from 0, so
    the determinant is kept.  Vertex 0's row comes last.
    M = 1 + sum_i max_j deg B_ij, corner excluded, bounds deg det D.

    Each entry is read off the distance table.  A twin row is -[2]_q at u
    and [2]_q at its twin (module docstring).  Less a parent p, with
    d = d(u, v), c = d(p, v) and a = d(0, v), p is one step closer to 0 and
    within one step of v, so [d]_q - [c]_q is q^c, 0 or -q^d; less q^e for
    [d(u, 0) + a]_q - [d(p, 0) + a]_q, e = d(p, 0) + a, the entry is one of
    q^c - q^e, -q^e and -q^d - q^e, of 1-norm at most 2, and the last
    column's is q^d(p, 0).  For p = 0, c = e = a, and the entry is 0, -q^a
    or -q^(a-1) - q^a.
    """
    alpha = dist[0][1:]
    rows = []
    for u, (row, p) in enumerate(zip(dist[1:], row_references(dist)[1:]), start=1):
        if row[p] == 2:  # a twin; a parent is at distance 1
            entries = [[]] * len(row)
            entries[u - 1], entries[p - 1] = [-1, -1], [1, 1]
        else:
            shift = dist[p][0]
            entries = [_less_parent(d, c, shift + a) for d, c, a in zip(row[1:], dist[p][1:], alpha)]
            entries.append([0] * shift + [1])
        rows.append(entries)
    rows.append([[1] * a for a in alpha] + [[]])
    m = 1 + sum(max(map(len, row)) - 1 for row in rows)
    rows[-1][-1] = [0] * m + [1]
    return rows, m


def _less_parent(d: int, c: int, e: int) -> list[int]:
    """([d]_q - [c]_q) - q^e for |d - c| <= 1 and c <= e."""
    if d > c and c == e:
        return []
    entry = [0] * e + [-1]
    if d != c:
        entry[min(d, c)] = 1 if d > c else -1
    return entry


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
