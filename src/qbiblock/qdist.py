"""The q-distance matrix and the reduced-cofactor construction.

The q-distance matrix replaces each graph distance alpha >= 1 with the
polynomial 1 + q + ... + q^(alpha-1).  The reduced cofactor of such a matrix
is the determinant of an (n-1) x (n-1) matrix obtained from a pivot vertex;
two equivalent constructions are provided and must agree entrywise.  The
oracles read both as integer coefficient lists (q_distance_rows,
cofactor_rows), which a determinant-preserving row transform
(parent_differenced) turns into matrices of small entries.
"""

from __future__ import annotations

from ._fastpoly import psub
from .exactring import Q, q_integer
from .graph import BiBlockGraph, distances
from .matrix import DimensionError, RingMatrix


def q_matrix_from_distances(dist: list[list[int]]) -> RingMatrix:
    """Entrywise q-integer lift of any distance table (no bi-block validation)."""
    return RingMatrix([[q_integer(d) for d in row] for row in dist])


def q_distance_matrix(g: BiBlockGraph) -> RingMatrix:
    """The q-distance matrix of a bi-block graph in builder vertex order."""
    return q_matrix_from_distances(distances(g))


def bfs_parents(dist: list[list[int]]) -> list[int]:
    """For each vertex i != 0, a neighbour one step closer to vertex 0 (the
    first in vertex order); entry 0 is -1, for no parent."""
    return [-1] + [
        next(p for p, d in enumerate(row) if d == 1 and dist[0][p] == dist[0][i] - 1)
        for i, row in enumerate(dist[1:], start=1)
    ]


def q_distance_rows(dist: list[list[int]]) -> list[list[list[int]]]:
    """The q-distance matrix of a distance table as ascending integer
    coefficient lists: entry (u, v) is [1] * d(u, v)."""
    return [[[1] * d for d in row] for row in dist]


def cofactor_rows(dist: list[list[int]]) -> list[list[list[int]]]:
    """cofactor_matrix at pivot 0 as ascending integer coefficient lists:
    entry (u, v), for u, v != 0, is [d(u, v)]_q - [d(u, 0) + d(0, v)]_q."""
    return [
        [psub([1] * d, [1] * (row[0] + dist[0][v])) for v, d in enumerate(row) if v]
        for row in dist[1:]
    ]


def parent_differenced(
    rows: list[list[list[int]]], dist: list[list[int]]
) -> list[list[list[int]]]:
    """A square matrix of integer coefficient lists with the row of each
    vertex minus the row of its BFS parent, wherever that parent has a row.

    The rows belong to the last len(rows) vertices: all of them for the
    q-distance matrix, all but vertex 0 for the cofactor matrix at pivot 0.
    Each new row is an original row minus an earlier one in BFS order, so the
    transform is unit lower triangular and the determinant is unchanged.
    Neighbours differ in distance to any vertex by at most 1, and
    [a]_q - [a-1]_q = q^(a-1): a differenced row of the q-distance matrix has
    entries 0 or +-q^a, one of the cofactor matrix entries of 1-norm at most 2.
    """
    n = len(dist)
    skip = n - len(rows)
    widths = {len(row) for row in rows} | {len(row) - skip for row in dist}
    if skip not in (0, 1) or widths != {n - skip}:
        raise DimensionError("matrix and distance table sizes disagree")
    return [
        row if p < skip else [psub(a, b) for a, b in zip(row, rows[p - skip])]
        for row, p in zip(rows, bfs_parents(dist)[skip:])
    ]


def cofactor_matrix(
    qmat: RingMatrix, dist: list[list[int]], pivot: int = 0, route: str = "direct"
) -> RingMatrix:
    """The (n-1) x (n-1) matrix whose determinant is the reduced cofactor.

    route="direct" forms entry (i, j) as D1[i][j] - [beta_i + alpha_j], where
    D1 drops the pivot row and column, alpha_j is the distance from the pivot
    to column vertex j and beta_i the distance from row vertex i to the pivot.
    route="rowcol" instead subtracts the pivot row from every other row and
    then q**alpha_j times the pivot column from every other column.  The two
    routes produce the same matrix entrywise.
    """
    n = qmat.nrows
    if not qmat.is_square or len(dist) != n or any(len(row) != n for row in dist):
        raise DimensionError("q-distance matrix and distance table sizes disagree")
    if not 0 <= pivot < n:
        raise DimensionError(f"pivot vertex {pivot} out of range")
    others = [v for v in range(n) if v != pivot]
    if route == "direct":
        rows = []
        for u in others:
            row = []
            beta = dist[u][pivot]
            for v in others:
                row.append(qmat[u, v] - q_integer(beta + dist[pivot][v]))
            rows.append(row)
        return RingMatrix(rows)
    if route == "rowcol":
        order = [pivot] + others
        work = [[qmat[u, v] for v in order] for u in order]
        for i in range(1, n):
            work[i] = [a - b for a, b in zip(work[i], work[0])]
        for j in range(1, n):
            shift = Q ** dist[pivot][order[j]]
            for i in range(n):
                work[i][j] = work[i][j] - shift * work[i][0]
        return RingMatrix([row[1:] for row in work[1:]])
    raise ValueError(f"unknown construction route {route!r}")
