"""Reference routes and matrix constructors that only the tests use.

ReferenceClearedForms builds the closed forms the slow way: the balance
vector, the balance constant and the local matrix as sums of gcd-reduced
RationalFunction terms, which are then cleared over delta with
_fastpoly.cleared.  closedform.ClearedForms must give the same integer lists.
det_cofactor is the naive cofactor expansion that the Bareiss determinant is
checked against, inverse_gauss is Gauss-Jordan elimination over the
rational-function field, the route that _moddet.adjugate and
oracle.oracle_inverse are checked against, rowcol_cofactor_matrix is the
row-and-column construction that qdist.cofactor_matrix is checked against,
rf_matrix lifts a polynomial matrix into the rational-function field for
those routes, identity builds the identity matrices the tests multiply by,
int_rows gives a polynomial matrix as the coefficient lists of _moddet and
_fastpoly, and formulas_large_graphs and oracle_large_graphs build the
reference graphs of those benchmark workloads.

separate_det_and_cofactor is the second route to oracle_det_and_cofactor:
two packed determinants, of the q-distance matrix and of the cofactor matrix
at pivot 0 (cofactor_rows), each with its rows differenced against their BFS
parents' rows (parent_differenced).  vertex0_det_and_cofactor is the
oracle's bordered determinant without its renumbering, rooted at vertex 0
with rows in vertex order: the route that the centre-rooted oracle is
checked against.

reference_graph_det and reference_graph_cofactor compose the block
determinants and cofactors block by block, by the product rule, with no
shared factor: the route that ClearedForms.det and .cofactor are checked
against.

subresultant_gcd is the subresultant polynomial remainder sequence, the
independent route that _fastpoly.gcd_cofactors is checked against; its
pseudo-division (pseudo_divmod) also gives exact_quotient, the long division
that the gcd's cofactors and RationalFunction's canonical form, and so
Polynomial.exact_div and _fastpoly.cleared, are checked against.

dense_eliminate is the fraction-free elimination that updates every row at
every step, dividing each update by the previous pivot: the route that
_moddet._eliminate, which skips rows with a zero multiplier, is checked
against, and in Gauss-Jordan mode the route that the back-substituted
adjugate is checked against; whole_det_int_poly_matrix is the determinant by that
elimination of the whole packed matrix, last row included: the route that
_moddet.det_int_poly_matrix, which never updates the last row, is checked
against.  psub_bordered_rows builds qdist.bordered_rows with psub from
[1] * d lists, the route the table-read entries are checked against.

reference_check_conditions is closedform.check_conditions in Fraction
arithmetic, q0^2 (m-1)(n-1) = 1 and (q0+1)^2 (m-1)(n-1) = m n as written.

first_of_class_trees is the exhaustive route to oracle.all_trees: it sweeps
every parent sequence in lexicographic order and keeps the first of each
isomorphism class, told apart by center_tree_code, the bracket encoding
rooted at the tree's center(s).
"""

from __future__ import annotations

import functools
import itertools

from qbiblock import _fastpoly, _moddet
from qbiblock.closedform import (
    ConditionCheck,
    ConditionViolation,
    _shapes,
    block_cofactor,
    block_det,
    cofactor_core,
    det_core,
)
from qbiblock.exactring import ONE, Polynomial, Q, RF_ONE, RF_ZERO, RationalFunction
from qbiblock.graph import Attachment, BlockSpec, build, distances, random_biblock, random_tree
from qbiblock.matrix import DimensionError, RingMatrix
from qbiblock.qdist import bfs_parents, bordered_rows, q_distance_rows

QP1 = Q + 1


def reference_graph_det(g):
    """The product rule block by block: total <- total cof_b + det_b cof."""
    total, cof = Polynomial(), ONE
    for b in g.blocks:
        cof_b = block_cofactor(b.m, b.n)
        total = total * cof_b + block_det(b.m, b.n) * cof
        cof = cof * cof_b
    return total


def reference_graph_cofactor(g):
    result = ONE
    for b in g.blocks:
        result = result * block_cofactor(b.m, b.n)
    return result


def pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of the pseudo-division of a by b over the
    integers: lc(b)^e a = quotient * b + remainder, e = deg a - deg b + 1."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    rem, quot = list(a), [0] * max(da - db + 1, 0)
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        rem = [r * lead for r in rem]
        quot = [t * lead for t in quot]
        quot[k] = c
        if c:
            for i, bc in enumerate(b):
                rem[k + i] -= c * bc
        del rem[k + db :]
    return _fastpoly.pstrip(quot), _fastpoly.pstrip(rem)


def pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, over the integers."""
    return pseudo_divmod(a, b)[1]


def exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b, when b divides a with an integer quotient: the pseudo-quotient
    over lc(b)^e; raises ArithmeticError otherwise."""
    quot, rem = pseudo_divmod(a, b)
    scale = b[-1] ** max(len(a) - len(b) + 1, 0)
    if rem or any(t % scale for t in quot):
        raise ArithmeticError("inexact polynomial division")
    return [t // scale for t in quot]


def subresultant_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive positive-lead gcd of two nonzero integer coefficient lists
    (subresultant polynomial remainder sequence)."""
    primitive = _fastpoly.primitive
    if len(a) < len(b):
        a, b = b, a
    a, b = primitive(a), primitive(b)
    g, h = 1, 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        rem = pseudo_rem(a, b)
        if not rem:
            return primitive(b)
        if len(rem) == 1:
            return [1]
        divisor = g * h**delta
        quotient = []
        for c in rem:
            q, r = divmod(c, divisor)
            if r:
                raise ArithmeticError("subresultant sequence division was not exact")
            quotient.append(q)
        a, b = b, quotient
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta > 0 else h


def reference_check_conditions(g, q0) -> ConditionCheck:
    violations = []
    for b in g.blocks:
        mm = (b.m - 1) * (b.n - 1)
        if q0 == -1:
            violations.append(ConditionViolation(b.index, "C1", "q = -1"))
            violations.append(ConditionViolation(b.index, "C2", "q = -1"))
            continue
        c1_val = q0 * q0 * mm
        if c1_val == 1:
            violations.append(
                ConditionViolation(b.index, "C1", f"q^2 (m-1)(n-1) = {c1_val} = 1 for K_{{{b.m},{b.n}}}")
            )
        c2_val = (q0 + 1) * (q0 + 1) * mm
        if c2_val == b.m * b.n:
            violations.append(
                ConditionViolation(
                    b.index, "C2", f"(q+1)^2 (m-1)(n-1) = {c2_val} = m n for K_{{{b.m},{b.n}}}"
                )
            )
    return ConditionCheck(q0, tuple(violations))


def membership_sums(g, term) -> list[RationalFunction]:
    """Entry at v: 1 - (block degree of v) plus term(own, opposite) per block
    containing v, one shared object per signature."""
    sizes = [{"X": (b.m, b.n), "Y": (b.n, b.m)} for b in g.blocks]
    term = functools.cache(term)
    entry = functools.cache(
        lambda sig: sum((term(*pair) for pair in sig), RationalFunction(1 - len(sig)))
    )
    return [
        entry(tuple(sorted(sizes[index][side] for index, side in members)))
        for members in g.membership
    ]


def balance_vector(g) -> list[RationalFunction]:
    return membership_sums(
        g, lambda own, opp: RationalFunction(Q * (opp - 1) - 1, QP1 * cofactor_core(own, opp))
    )


def diagonal_weight_vector(g) -> list[RationalFunction]:
    return membership_sums(
        g, lambda own, opp: RationalFunction(Polynomial((opp - 1,)), cofactor_core(own, opp))
    )


def balance_constant(g) -> RationalFunction:
    acc = RF_ZERO
    for (m, n), count in _shapes(g).items():
        acc = acc + RationalFunction(det_core(m, n) * count, QP1 * cofactor_core(m, n))
    return acc


def local_entries(g) -> dict[tuple[int, int], RationalFunction]:
    """Nonzero entries of the local matrix: q/(q+1) times the edge weight
    across a block, -q^2/(q+1) times the side's non-edge weight within one
    side, 1/(q+1) - q^2/(q+1) y_v on the diagonal."""
    qq = RationalFunction(Q, QP1)
    qq2 = RationalFunction(Q**2, QP1)
    entries: dict[tuple[int, int], RationalFunction] = {}
    for b in g.blocks:
        core = cofactor_core(b.m, b.n)
        w = RationalFunction(ONE, core) * qq
        x_entry = -(RationalFunction(Polynomial((b.n - 1,)), core) * qq2)
        y_entry = -(RationalFunction(Polynomial((b.m - 1,)), core) * qq2)
        for u in b.x:
            for v in b.y:
                entries[u, v] = entries[v, u] = w
        for vertices, w in ((b.x, x_entry), (b.y, y_entry)):
            if w.is_zero:
                continue
            for u in vertices:
                for v in vertices:
                    if u != v:
                        entries[u, v] = w
    inv_qp1 = RationalFunction(ONE, QP1)
    for v, y in enumerate(diagonal_weight_vector(g)):
        entries[v, v] = inv_qp1 - y * qq2
    return entries


def clearing_poly(g) -> Polynomial:
    cores = {(m - 1) * (n - 1): cofactor_core(m, n) for m, n in _shapes(g)}
    cores.pop(0, None)
    delta = QP1
    for core in cores.values():
        delta = delta * core
    return delta


class ReferenceClearedForms:
    """delta, lam, x, local and inverse as closedform.ClearedForms defines
    them, each value built as a RationalFunction and cleared over delta;
    inverse, built on first use, is the plain n x n matrix of numerators
    over inverse_den."""

    def __init__(self, g):
        self.delta = delta = list(clearing_poly(g).coeffs)
        clear = functools.cache(lambda value: _fastpoly.cleared(value, delta))
        self.lam = clear(balance_constant(g))
        self.inverse_den = _fastpoly.pmul(delta, self.lam)
        self.x = [clear(e) for e in balance_vector(g)]
        local = local_entries(g)
        n = g.n
        self.local = [[clear(local[i, j]) if (i, j) in local else [] for j in range(n)] for i in range(n)]

    @functools.cached_property
    def inverse(self) -> list[list[list[int]]]:
        """The inverse numerators X_i X_j - L_ij Lambda, entry by entry."""
        return [
            [
                _fastpoly.psub(_fastpoly.pmul(xi, xj), _fastpoly.pmul(loc, self.lam))
                for xj, loc in zip(self.x, row)
            ]
            for xi, row in zip(self.x, self.local)
        ]


def det_cofactor(m: RingMatrix):
    """Determinant by naive cofactor expansion along the first row."""
    if not m.is_square:
        raise DimensionError("determinant requires a square matrix")
    n = m.nrows
    if n == 1:
        return m.rows[0][0]
    acc = None
    for j in range(n):
        e = m.rows[0][j]
        if e.is_zero:
            continue
        minor = RingMatrix([[row[c] for c in range(n) if c != j] for row in m.rows[1:]])
        term = e * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return m.rows[0][0] * 0
    return acc


def inverse_gauss(m: RingMatrix) -> RingMatrix:
    """Exact inverse of a square matrix over the rational-function field, by
    plain Gauss-Jordan with field division; raises _moddet.SingularError
    with the elimination step at which no pivot exists."""
    if not m.is_square:
        raise DimensionError("inverse requires a square matrix")
    n = m.nrows
    aug = []
    for i, row in enumerate(m.rows):
        lifted = [e if isinstance(e, RationalFunction) else RationalFunction(e) for e in row]
        aug.append(lifted + [RF_ONE if j == i else RF_ZERO for j in range(n)])
    for k in range(n):
        piv = next((i for i in range(k, n) if not aug[i][k].is_zero), None)
        if piv is None:
            raise _moddet.SingularError(f"matrix is singular (no pivot at elimination step {k})")
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = aug[k][k].inv()
        row_k = aug[k] = [e * inv for e in aug[k]]
        for i in range(n):
            f = aug[i][k]
            if i != k and not f.is_zero:
                aug[i] = [a - f * b for a, b in zip(aug[i], row_k)]
    return RingMatrix([row[n:] for row in aug])


def rowcol_cofactor_matrix(qmat: RingMatrix, dist: list[list[int]], pivot: int = 0) -> RingMatrix:
    """qdist.cofactor_matrix by row and column operations: the pivot row
    subtracted from every other row, then q**alpha_j times the pivot column
    from every other column j, alpha_j the distance from the pivot to j."""
    n = qmat.nrows
    order = [pivot] + [v for v in range(n) if v != pivot]
    work = [[qmat[u, v] for v in order] for u in order]
    for i in range(1, n):
        work[i] = [a - b for a, b in zip(work[i], work[0])]
    for j in range(1, n):
        shift = Q ** dist[pivot][order[j]]
        for i in range(n):
            work[i][j] = work[i][j] - shift * work[i][0]
    return RingMatrix([row[1:] for row in work[1:]])


def rf_matrix(m: RingMatrix) -> RingMatrix:
    """Lift a matrix of polynomials into the rational-function field."""
    return m.map(RationalFunction)


def identity(n: int, zero, one) -> RingMatrix:
    return RingMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def int_rows(m: RingMatrix) -> list[list[list[int]]]:
    """A polynomial matrix as the integer coefficient lists the packed engines take."""
    return [[list(e.coeffs) for e in row] for row in m.rows]


def formulas_large_graphs():
    """The reference graphs of the formulas_large benchmark workload (n = 299,
    303, 87 and 180)."""
    return [
        build(random_biblock(23, 100, 3)),
        build(random_biblock(86, 100, 3)),
        build(random_biblock(116, 30, 3)),
        build(random_tree(0, 180)),
    ]


def oracle_large_graphs():
    """The reference graphs of the oracle_large benchmark workload (n = 33,
    34 and 33)."""
    return [
        build(random_tree(1, 33)),
        build(random_biblock(20, 14, 3)),
        build(random_biblock(81, 14, 3)),
    ]


def cofactor_rows(dist: list[list[int]]) -> list[list[list[int]]]:
    """cofactor_matrix at pivot 0 as ascending integer coefficient lists:
    entry (u, v), for u, v != 0, is [d(u, v)]_q - [d(u, 0) + d(0, v)]_q."""
    return [
        [_fastpoly.psub([1] * d, [1] * (row[0] + dist[0][v])) for v, d in enumerate(row) if v]
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
        row if p < skip else [_fastpoly.psub(a, b) for a, b in zip(row, rows[p - skip])]
        for row, p in zip(rows, bfs_parents(dist)[skip:])
    ]


def vertex0_det_and_cofactor(dist: list[list[int]]) -> tuple[list[int], list[int]]:
    """oracle._det_and_cofactor rooted at vertex 0, rows in vertex order."""
    rows, m = bordered_rows(dist)
    coeffs = _moddet.det_int_poly_matrix(rows)
    return _fastpoly.pstrip(coeffs[:m]), coeffs[m:]


def separate_det_and_cofactor(g) -> tuple[Polynomial, Polynomial]:
    """det D and the reduced cofactor at pivot 0 as two packed determinants."""
    dist = distances(g)
    det, cof = (
        _moddet.det_int_poly_matrix(parent_differenced(rows, dist))
        for rows in (q_distance_rows(dist), cofactor_rows(dist))
    )
    return Polynomial(det), Polynomial(cof)


def center_tree_code(parents: tuple[int, ...]) -> str:
    """Bracket encoding of the tree whose vertex v > 0 hangs from
    parents[v - 1], rooted at its 1 or 2 centers (found by peeling leaves),
    the least of the two."""
    n = len(parents) + 1
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for child, parent in enumerate(parents, start=1):
        neighbors[child].append(parent)
        neighbors[parent].append(child)
    degree = [len(nb) for nb in neighbors]
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in neighbors[v]:
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt

    def encode(v: int, parent: int) -> str:
        return "(" + "".join(sorted(encode(u, v) for u in neighbors[v] if u != parent)) + ")"

    return min(encode(c, -1) for c in layer)


def first_of_class_trees(max_n: int) -> tuple[tuple[BlockSpec, ...], ...]:
    """The lexicographically first parent sequence of each class of trees on
    2..max_n vertices, from a sweep of all (n - 1)! sequences per n, as build
    sequences."""
    out = []
    for n in range(2, max_n + 1):
        seen: set[str] = set()
        for parents in itertools.product(*(range(v) for v in range(1, n))):
            code = center_tree_code(parents)
            if code not in seen:
                seen.add(code)
                leaves = (BlockSpec(1, 1, Attachment(p, "X")) for p in parents[1:])
                out.append((BlockSpec(1, 1), *leaves))
    return tuple(out)


def dense_eliminate(mat: list[list[int]], jordan: bool = False) -> tuple[int, int]:
    """_moddet._eliminate with every row updated at every step: each update
    (pivot * entry - multiplier * pivot_row_entry) is exactly divisible by
    the previous pivot.  With jordan, the rows above each pivot are updated
    too (Gauss-Jordan), so [A | I] ends at [p I | s adj(A)], p = det(P A)
    and s the sign of the row swaps P.  Returns the sign of the row swaps
    and the last pivot; raises _moddet.SingularError."""
    n = len(mat)
    sign = prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            raise _moddet.SingularError(f"matrix is singular (no pivot at elimination step {k})")
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        row_k = mat[k]
        pivot = row_k[k]
        tail = row_k[k + 1:]
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                row_i = mat[i]
                f = row_i[k]
                row_i[k + 1:] = [
                    (a * pivot - f * b) // prev for a, b in zip(row_i[k + 1:], tail)
                ]
        prev = pivot
    return sign, prev


def whole_det_int_poly_matrix(entries: list[list[list[int]]]) -> list[int]:
    """Exact determinant (ascending int coefficient list) of a square matrix of
    integer polynomial lists."""
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ValueError("determinant requires a nonempty square matrix")
    bound = _moddet.hadamard_bound(entries)
    k = _moddet._digit_bits(bound)
    try:
        sign, pivot = _moddet._eliminate([[_moddet.pack(e, k) for e in row] for row in entries])
    except _moddet.SingularError:
        return []
    return _moddet.unpack(sign * pivot, k, bound)


def psub_bordered_rows(dist: list[list[int]]) -> tuple[list[list[list[int]]], int]:
    """qdist.bordered_rows from [1] * d lists and psub: each cofactor entry
    [d(u, v)]_q - [d(u, 0) + d(0, v)]_q, then each row less its BFS parent's
    row when that parent is not vertex 0."""
    psub = _fastpoly.psub
    alpha = dist[0][1:]
    rows = [
        [psub([1] * d, [1] * (row[0] + a)) for d, a in zip(row[1:], alpha)] + [[1] * row[0]]
        for row in dist[1:]
    ]
    rows = [
        row if p == 0 else [psub(a, b) for a, b in zip(row, rows[p - 1])]
        for row, p in zip(rows, bfs_parents(dist)[1:])
    ]
    rows.append([[1] * a for a in alpha] + [[]])
    m = 1 + sum(max(map(len, row)) - 1 for row in rows)
    rows[-1][-1] = [0] * m + [1]
    return rows, m
