"""Closed forms for bi-block graphs: determinants, cofactors, inverses, and the
vectors and matrices they are assembled from.

Per complete bipartite block K_{s,t} two core polynomials recur:

    cofactor core     q^2 (s-1)(t-1) - 1
    determinant core  (q+1)^2 (s-1)(t-1) - s t

The block determinant and cofactor are (q+1)-powers times these cores; both
compose over the blocks of a graph (the cofactor multiplicatively, the
determinant by a product-rule sum), and the composed pair shares all but
one factor, so det = balance_constant * cofactor.  The inverse of the
q-distance matrix is the negated local matrix plus a rank-one balance
correction:

    inverse = -local_matrix + outer(x, x) / balance_constant

where x is the balance vector (the matrix maps it to a constant column).
Each of x, the balance constant and the local matrix sums per-block terms
over cofactor cores.  ClearedForms builds them, and the inverse numerators,
as integer lists over the structural denominator delta = clearing_poly(g),
and the determinant and cofactor from the same pieces.  Every vector and
matrix among them is one (values, index) form, each distinct value once;
the public functions wrap each value in one RationalFunction and lay it
out by the index, and the verification harness checks the forms as they are.

Sign convention: the reduced cofactor of K_{s,t} carries the global sign
(-1)^(s+t).  Direct evaluation of the 1x1 case K_{1,1} (whose cofactor matrix
is [-(1+q)]) fixes this sign, and the elimination oracle confirms it on the
whole verification corpus; see README for the documented sign variant.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import _fastpoly, _moddet
from .exactring import (
    ONE,
    PoleError,
    Polynomial,
    Q,
    Rational,
    RationalFunction,
    RF_ZERO,
    _demote,
    _horner,
)
from .graph import BiBlockGraph
from .matrix import RingMatrix

_QP1 = Q + 1


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def cofactor_core(m: int, n: int) -> Polynomial:
    """q^2 (m-1)(n-1) - 1; the block cofactor vanishes exactly at its roots."""
    return Q**2 * ((m - 1) * (n - 1)) - 1


def det_core(m: int, n: int) -> Polynomial:
    """(q+1)^2 (m-1)(n-1) - m n; the block determinant vanishes exactly at its roots."""
    return _QP1**2 * ((m - 1) * (n - 1)) - m * n


def _require_parts(s: int, t: int):
    if s < 1 or t < 1:
        raise ValueError(f"block parts must be at least 1, got {s}x{t}")


def block_det(s: int, t: int) -> Polynomial:
    """Determinant of the q-distance matrix of K_{s,t}, expanded to canonical form."""
    _require_parts(s, t)
    return _sign(s + t) * _QP1 ** (s + t - 2) * det_core(s, t)


def block_cofactor(s: int, t: int) -> Polynomial:
    """Reduced cofactor of the q-distance matrix of K_{s,t} (oracle-resolved sign)."""
    _require_parts(s, t)
    return _sign(s + t) * _QP1 ** (s + t - 1) * cofactor_core(s, t)


def block_inverse(s: int, t: int) -> RingMatrix:
    """Inverse of the q-distance matrix of K_{s,t} over the rational-function field.

    Four all-ones blocks scaled by 1 / ((q+1) * det_core), minus 1/(q+1) times
    the identity; valid symbolically for every s, t >= 1.
    """
    _require_parts(s, t)
    scale = RationalFunction(ONE, _QP1 * det_core(s, t))
    tl = RationalFunction(_QP1**2 * (t - 1) - t) * scale
    br = RationalFunction(_QP1**2 * (s - 1) - s) * scale
    off = RationalFunction(-_QP1) * scale
    diag = RationalFunction(ONE, _QP1)
    tl_diag, br_diag = tl - diag, br - diag
    top = [[tl_diag if i == j else tl for j in range(s)] + [off] * t for i in range(s)]
    bottom = [[off] * s + [br_diag if i == j else br for j in range(t)] for i in range(t)]
    return RingMatrix(top + bottom)


def _shapes(g: BiBlockGraph) -> Counter:
    """Count of blocks per shape (m, n), a mirrored K_{n,m} counted as K_{m,n}:
    every per-block form below is symmetric in the two parts."""
    return Counter(
        (m, n) if m <= n else (n, m) for m, n in ((len(b.x), len(b.y)) for b in g.blocks)
    )


def graph_cofactor(g: BiBlockGraph) -> Polynomial:
    """Reduced cofactor of a bi-block graph: the product of its block cofactors."""
    return Polynomial(ClearedForms(g).cofactor)


def graph_det(g: BiBlockGraph) -> Polynomial:
    """Determinant of the q-distance matrix of a bi-block graph: the sum over
    blocks of the block determinant times the cofactors of all other blocks."""
    return Polynomial(ClearedForms(g).det)


# -- vectors and matrices ----------------------------------------------------


def _core_quotients(shapes: Counter) -> tuple[list[int], dict[int, list[int]]]:
    """(P, R): P the product of the distinct cores a q^2 - 1 with
    a = (m-1)(n-1) != 0 among the shapes, R[a] = P / core_a the product of
    the others, and R[0] = -P (the core of a = 0 is -1)."""
    distinct = {(m - 1) * (n - 1) for m, n in shapes} - {0}
    quotients = {
        a: functools.reduce(_fastpoly.pmul, ([-1, 0, b] for b in distinct - {a}), [1])
        for a in distinct | {0}
    }
    product = quotients[0]  # no distinct core has a = 0, so this is all of them
    quotients[0] = _fastpoly.pscale(product, -1)
    return product, quotients


def _cleared_lambda(shapes: Counter, quotients: dict[int, list[int]]) -> list[int]:
    """Lambda = delta * balance_constant: the sum over shapes T with c_T
    blocks of c_T det_core_T R_{a_T}, det_core = a (q+1)^2 - m n."""
    total: list[int] = []
    for (m, n), count in shapes.items():
        a = (m - 1) * (n - 1)
        core = [count * (a - m * n), count * 2 * a, count * a]
        total = _fastpoly.padd(total, _fastpoly.pmul(core, quotients[a]))
    return total


def _cleared_sums(signatures, base: list[int], quotients, factor) -> tuple[list, list[int]]:
    """(values, index), entry v values[index[v]]: (1 - block degree of v) *
    base plus factor(opp) * R_a for each block containing v, own and opp the
    part sizes on v's side and on the other side and a = (own-1)(opp-1).  It
    depends only on v's signature, the sorted tuple of those pairs
    (ClearedForms._signatures), so it is built once per signature and
    numbered by value: signatures with equal entries (all (own, 1) terms are
    equal) share one number.  Each term is built once per (own, opp), padded
    to base's length, which no term exceeds (deg R_a <= deg P), and the sums
    are added in that length and stripped once."""
    numbers: dict[tuple[int, ...], int] = {}

    @functools.cache
    def term(pair: tuple[int, int]) -> list[int]:
        own, opp = pair
        coeffs = _fastpoly.pmul(factor(opp), quotients[(own - 1) * (opp - 1)])
        return coeffs + [0] * (len(base) - len(coeffs))

    @functools.cache
    def entry(sig):
        total = [c * (1 - len(sig)) for c in base]
        for pair in sig:
            total = list(map(add, total, term(pair)))
        return numbers.setdefault(tuple(_fastpoly.pstrip(total)), len(numbers))

    index = list(map(entry, signatures))
    return list(numbers), index


def balance_vector(g: BiBlockGraph) -> list[RationalFunction]:
    """The vector x with q_distance_matrix(g) @ x = balance_constant(g) * ones.

    Entry at v sums, over the blocks containing v, the side-dependent weight
    (q * (opposite - 1) - 1) / ((q+1) * cofactor_core), then subtracts
    (block degree - 1).  Equal entries, as at vertices with the same block
    signature, are one object.
    """
    forms = ClearedForms(g)
    values, index = forms.x
    return list(map(_shared_rfs(values, forms.delta).__getitem__, index))


def diagonal_weight_vector(g: BiBlockGraph) -> list[RationalFunction]:
    """The vector y used on the diagonal of the local matrix.

    Entry at v sums (opposite - 1) / cofactor_core over the blocks containing
    v, then subtracts (block degree - 1).  Equal entries, as at vertices
    with the same block signature, are one object.
    """
    forms = ClearedForms(g)
    values, index = forms.y
    return list(map(_shared_rfs(values, forms.product).__getitem__, index))


def _block_weights(m: int, n: int) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """Edge, X-side non-edge and Y-side non-edge weight of a K_{m,n} block:
    1, n-1 and m-1 over its cofactor core."""
    core = cofactor_core(m, n)
    return (
        RationalFunction(ONE, core),
        RationalFunction(Polynomial((n - 1,)), core),
        RationalFunction(Polynomial((m - 1,)), core),
    )


def edge_weight_matrix(g: BiBlockGraph) -> RingMatrix:
    """Weighted adjacency matrix: weight 1 / cofactor_core on every edge of its block."""
    rows = [[RF_ZERO] * g.n for _ in range(g.n)]
    for b in g.blocks:
        w = _block_weights(b.m, b.n)[0]
        for u in b.x:
            for v in b.y:
                rows[u][v] = w
                rows[v][u] = w
    return RingMatrix(rows)


def nonedge_weight_matrix(g: BiBlockGraph) -> RingMatrix:
    """Weights on same-side pairs of a common block (the non-edges inside blocks).

    X-side pairs weigh (n-1) / cofactor_core, Y-side pairs (m-1) / cofactor_core;
    the diagonal is zero.
    """
    rows = [[RF_ZERO] * g.n for _ in range(g.n)]
    for b in g.blocks:
        _, x_weight, y_weight = _block_weights(b.m, b.n)
        for vertices, w in ((b.x, x_weight), (b.y, y_weight)):
            for u in vertices:
                for v in vertices:
                    if u != v:
                        rows[u][v] = w
    return RingMatrix(rows)


def balance_constant(g: BiBlockGraph) -> RationalFunction:
    """The constant value of q_distance_matrix(g) @ balance_vector(g); additive over
    blocks as det_core / ((q+1) * cofactor_core), so one term c_T det_core_T /
    ((q+1) core_T) per block shape T with c_T blocks."""
    forms = ClearedForms(g)
    return _shared_rfs([forms.lam], forms.delta)[0]


def _cleared_local(g: BiBlockGraph, product: list[int], quotients, y) -> tuple[list, list]:
    """(values, index): entry (i, j) of delta * local_matrix(g) is
    values[index[i][j]], a coefficient tuple, () first: q R_a across a
    K_{m,n} block, -(n-1) q^2 R_a and -(m-1) q^2 R_a within its X and Y sides
    (two vertices share at most one block), and P - q^2 Y_v on the diagonal,
    Y_v = P y_v.  Equal entries get one number; an edge entry is built per
    block, a within-side one per block side, a diagonal one per value of y."""
    numbers = {(): 0}
    index = [[0] * g.n for _ in range(g.n)]
    for b in g.blocks:
        m, n = len(b.x), len(b.y)
        r = quotients[(m - 1) * (n - 1)]
        k = numbers.setdefault((0, *r), len(numbers))
        for u in b.x:
            for v in b.y:
                index[u][v] = index[v][u] = k
        for vertices, opp in ((b.x, n), (b.y, m)):
            if opp == 1 or len(vertices) == 1:
                continue  # a zero entry, or none off the diagonal, which is set below
            k = numbers.setdefault(tuple(_fastpoly.pscale([0, 0, *r], 1 - opp)), len(numbers))
            for u in vertices:
                for v in vertices:
                    index[u][v] = k
    y_values, y_index = y
    diagonal = [tuple(_fastpoly.psub(product, [0, 0, *e])) for e in y_values]
    for v, k in enumerate(y_index):
        index[v][v] = numbers.setdefault(diagonal[k], len(numbers))
    return list(numbers), index


def local_matrix(g: BiBlockGraph) -> RingMatrix:
    """The block-local matrix: q/(q+1) * edge weights - q^2/(q+1) * non-edge
    weights - q^2/(q+1) * diag(y) + 1/(q+1) * identity."""
    forms = ClearedForms(g)
    values, index = forms.local
    return RingMatrix(_rows(_shared_rfs(values, forms.delta), index))


def clearing_poly(g: BiBlockGraph) -> Polynomial:
    """(q+1) times the product of the distinct nonconstant cofactor cores: a
    common clearing denominator for the balance vector, the balance constant,
    the local matrix, and the inverse.  Blocks with equal (m-1)(n-1) share one
    core, so the degree is 1 + 2 * (number of distinct nonzero (m-1)(n-1))."""
    return Polynomial(ClearedForms(g).delta)


def _counts(values) -> dict[int, int]:
    """How many times each value occurs."""
    counts: dict[int, int] = {}
    for a in values:
        counts[a] = counts.get(a, 0) + 1
    return counts


def _side(vertices, ids) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """(_counts of the vertices' x values, (start, stop) of each run of
    consecutive numbers among the vertices) of a block side."""
    if len(vertices) == 1:  # as in a tree's blocks
        (v,) = vertices
        return {ids[v]: 1}, [(v, v + 1)]
    runs: list[tuple[int, int]] = []
    for v in sorted(vertices):
        if runs and runs[-1][1] == v:
            runs[-1] = (runs[-1][0], v + 1)
        else:
            runs.append((v, v + 1))
    return _counts(map(ids.__getitem__, vertices)), runs


def _inverse_rows(forms: ClearedForms, entry) -> tuple[list, list[list[int]]]:
    """(values, index): entry (i, j) of -local_matrix + outer(x, x) /
    balance_constant is values[index[i][j]].

    Entry (i, j) depends only on x_i, x_j and the local entry L_ij, so
    entry(a, b, l) is called once per distinct key (a, b, l): a <= b the
    numbers of x_i and x_j in x's index, l the number of L_ij in local's
    index, 0 where i and j share no block.  Two vertices share at most one
    block, so the local cells off the diagonal are those of the units of
    each block: its rows on one side against the columns of the other,
    every cell with one l, and against the columns of their own side, with
    one l that is 0 when the other side has one vertex.  A pair of x values
    has a vertex pair that is not local when fewer than |a| |b| of its
    ordered pairs are local, counted per unit by x value.  Each row is
    filled by x value; then each unit keys its cells once per x value of its
    rows and writes them into a row one run of consecutive columns at a
    time, and the diagonal cells are set last.
    """
    (x, ids), local_index = forms.x, forms.local[1]
    units = []  # (rows, their x values, the columns' x values, column runs, l)
    for b in forms._g.blocks:
        edge = local_index[b.x[0]][b.y[0]]
        (x_values, x_runs), (y_values, y_runs) = _side(b.x, ids), _side(b.y, ids)
        units += [(b.x, x_values, y_values, y_runs, edge), (b.y, y_values, x_values, x_runs, edge)]
        for own, own_values, runs in ((b.x, x_values, x_runs), (b.y, y_values, y_runs)):
            if len(own) > 1 and local_index[own[0]][own[1]]:
                units.append((own, own_values, own_values, runs, local_index[own[0]][own[1]]))
    sizes = _counts(ids)
    local_pairs = {(a, a): count for a, count in sizes.items()}
    for _, row_values, col_values, _, _ in units:
        for a, count in row_values.items():
            for c, col_count in col_values.items():
                if row_values is col_values and c == a:
                    col_count -= 1  # a row's own cell, the diagonal
                local_pairs[a, c] = local_pairs.get((a, c), 0) + count * col_count
    values: list = []
    plain: list[list] = [[None] * len(x) for _ in x]
    for a in range(len(x)):
        for b in range(a, len(x)):
            if local_pairs.get((a, b), 0) < sizes[a] * sizes[b]:
                plain[a][b] = plain[b][a] = len(values)
                values.append(entry(a, b, 0))
    keys: dict[tuple[int, int, int], int] = {}

    def number(a: int, c: int, l: int) -> int:
        key = (a, c, l) if a <= c else (c, a, l)
        if key not in keys:
            keys[key] = len(values)
            values.append(entry(*key))
        return keys[key]

    by_value = [list(map(row.__getitem__, ids)) for row in plain]
    index = [by_value[a].copy() for a in ids]
    for rows, row_values, col_values, runs, l in units:
        if len(rows) == 1 and len(col_values) == 1:  # one key, as in a tree's blocks
            (u,), (c,) = rows, col_values
            k = number(ids[u], c, l)
            for start, stop in runs:
                index[u][start:stop] = [k] * (stop - start)
            continue
        cells = {}
        for a, count in row_values.items():
            # a row's own cell is left to the diagonal, and so is its key
            # when no other row has the row's x value
            numbers = {
                c: number(a, c, l)
                for c in col_values
                if c != a or count > 1 or row_values is not col_values
            }
            cells[a] = [(start, stop, list(map(numbers.get, ids[start:stop]))) for start, stop in runs]
        for u in rows:
            for start, stop, keyed in cells[ids[u]]:
                index[u][start:stop] = keyed
    for v, a in enumerate(ids):
        index[v][v] = number(a, a, local_index[v][v])
    return values, index


class ClearedForms:
    """The closed forms of one graph as integer coefficient lists over
    delta = (q+1) * product, product P being the product of the distinct
    nonconstant cofactor cores.

    lam is Lambda = delta * balance_constant(g).  x, y, local and inverse
    are (values, index) forms, each distinct entry once in values, entry i
    values[index[i]] (entry (i, j) values[index[i][j]]): the balance vector
    times delta, the diagonal weight vector times P, local_matrix(g) times
    delta, and the numerators N = X_a X_b - L_ab Lambda of graph_inverse(g)
    over inverse_den = delta * Lambda.  det and cofactor are graph_det(g) =
    F (q+1)^(n-2) Lambda and graph_cofactor(g) = F (q+1)^(n-1) P, F their
    shared factor (_factors), which det_at and cofactor_at evaluate at q0
    factor by factor.  All are built in integer-list arithmetic from the
    per-shape products R_a of the other cores (P / core_a); x, y, local,
    inverse, det and cofactor on first use.
    """

    def __init__(self, g: BiBlockGraph):
        self._g = g
        self._shapes = _shapes(g)
        self.product, self._quotients = _core_quotients(self._shapes)
        self.delta = _fastpoly.pmul([1, 1], self.product)
        self.lam = _cleared_lambda(self._shapes, self._quotients)
        self.inverse_den = _fastpoly.pmul(self.delta, self.lam)

    @functools.cached_property
    def _factors(self) -> list[tuple[list[int], int]]:
        """F as (e, p) factors: sigma' = (-1)^(c_0 + the sum of m + n over the
        blocks), and core_a^(c_a - 1) for the c_a blocks of each a != 0."""
        counts: Counter = Counter()
        for (m, n), count in self._shapes.items():
            counts[(m - 1) * (n - 1)] += count
        parity = sum(count * (m + n) for (m, n), count in self._shapes.items()) + counts[0]
        return [([_sign(parity)], 1)] + [([-1, 0, a], c - 1) for a, c in counts.items() if a]

    def _expanded(self, last: list[int], power: int) -> list[int]:
        """F last (q+1)^power: one Kronecker product, then power passes of
        Pascal's rule c_i + c_(i-1)."""
        coeffs = _moddet.power_product([(last, 1), *self._factors])
        for _ in range(power if coeffs else 0):
            coeffs.append(0)
            coeffs[1:] = map(add, coeffs[1:], coeffs)
        return coeffs

    def _value_at(self, last: list[int], power: int, q0: Rational) -> Rational:
        """F(q0) last(q0) (q0+1)^power, q0 = p/r: one Fraction of integers,
        each list r^D times its value at q0 (_cleared_at, D the largest
        degree), so the denominator is r^(D (1 + the sum of F's exponents) + power)."""
        lists = [last] + [e for e, _ in self._factors]
        value, *factors = _cleared_at(lists, q0)
        num, exponent = value * (q0.numerator + q0.denominator) ** power, 1
        for f, (_, p) in zip(factors, self._factors):
            num *= f**p
            exponent += p
        top = max(map(len, lists)) - 1
        return _demote(Fraction(num, q0.denominator ** (top * exponent + power)))

    @functools.cached_property
    def det(self) -> list[int]:
        return self._expanded(self.lam, self._g.n - 2)

    @functools.cached_property
    def cofactor(self) -> list[int]:
        return self._expanded(self.product, self._g.n - 1)

    def det_at(self, q0: Rational) -> Rational:
        """graph_det(g) at q0, without expanding it."""
        return self._value_at(self.lam, self._g.n - 2, q0)

    def cofactor_at(self, q0: Rational) -> Rational:
        """graph_cofactor(g) at q0, without expanding it."""
        return self._value_at(self.product, self._g.n - 1, q0)

    @functools.cached_property
    def _signatures(self) -> list[tuple[tuple[int, int], ...]]:
        """Each vertex's signature: the sorted (own, opp) part sizes of its
        blocks, own on its side; x and y are built from it.  A vertex in one
        block, as all but the cut vertices are, takes its block side's."""
        sizes = ((len(b.x), len(b.y)) for b in self._g.blocks)
        sides = [{"X": ((m, n),), "Y": ((n, m),)} for m, n in sizes]

        def signature(members):
            if len(members) == 1:
                ((b, side),) = members
                return sides[b][side]
            return tuple(sorted([sides[b][side][0] for b, side in members]))

        return list(map(signature, self._g.membership))

    @functools.cached_property
    def x(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """delta x_v = (1 - deg v) delta + sum of ((opp-1) q - 1) R_a."""
        return _cleared_sums(self._signatures, self.delta, self._quotients, lambda opp: [-1, opp - 1])

    @functools.cached_property
    def y(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """P y_v = (1 - deg v) P + sum of (opp-1) R_a."""
        return _cleared_sums(self._signatures, self.product, self._quotients, lambda opp: [opp - 1])

    @functools.cached_property
    def local(self) -> tuple[list[tuple[int, ...]], list[list[int]]]:
        return _cleared_local(self._g, self.product, self._quotients, self.y)

    @functools.cached_property
    def inverse(self) -> tuple[list[list[int]], list[list[int]]]:
        """(numerators, index) from _inverse_rows: entry (i, j) of
        graph_inverse(g) is numerators[index[i][j]] / inverse_den, one
        numerator X_a X_b - L Lambda per distinct key (a, b, L), each read
        back from one packed product at 2^k > 2 (max ‖X‖₁² + max ‖L‖₁ ‖Λ‖₁),
        which bounds its coefficients (_moddet.outer_form)."""
        return _inverse_rows(self, _moddet.outer_form(self.x[0], self.local[0], self.lam))


def _rows(values: list, index: list[list[int]]) -> list[list]:
    """The rows of values[index[i][j]]: equal entries are one object."""
    return [list(map(values.__getitem__, row)) for row in index]


def _shared_rfs(values, den: list[int]) -> list[RationalFunction]:
    """RationalFunction(value / den) for each integer list in values, reduced
    over den together (_fastpoly.reduce_over)."""
    return RationalFunction._over(values, den)


def _cleared_at(lists, q0: Rational) -> list[int]:
    """r^D v(q0) for each integer list v, q0 = p/r and D the largest degree
    among the lists: every value an integer over the one power r^D."""
    p, r = q0.numerator, q0.denominator
    top = max(map(len, lists))
    return [_horner(v, p, r)[0] * r ** (top - len(v)) for v in lists]


def values_at(values, den: list[int], q0: Rational) -> list[Rational]:
    """value(q0) / den(q0) for each integer list in values, the values of one
    (values, index) form of ClearedForms: one Fraction of the two lists'
    _cleared_at integers each.  den(q0) must be nonzero: for delta and P
    that is condition C1."""
    *scaled, den_value = _cleared_at([*values, den], q0)
    return [_demote(Fraction(v, den_value)) for v in scaled]


def _inverse_form(g: BiBlockGraph) -> tuple[list[RationalFunction], list[list[int]]]:
    """(values, index) of graph_inverse(g), one value per numerator of ClearedForms.inverse."""
    forms = ClearedForms(g)
    if not forms.lam:
        raise ArithmeticError("balance constant is identically zero; inverse form undefined")
    numerators, index = forms.inverse
    return _shared_rfs(numerators, forms.inverse_den), index


def graph_inverse(g: BiBlockGraph) -> RingMatrix:
    """Inverse of the q-distance matrix: negated local matrix plus the
    rank-one balance correction outer(x, x) / balance_constant.

    Entries are assembled over the structural common denominator
    clearing_poly(g) * (cleared balance constant) by ClearedForms, which keeps
    all intermediate arithmetic on integer coefficients; each distinct entry
    is canonicalised once and shared.
    """
    return RingMatrix(_rows(*_inverse_form(g)))


def _inverse_form_at(g: BiBlockGraph, q0: Rational) -> tuple[list[Rational], list[list[int]]]:
    """(values, index) of inverse_at(g, q0), one value per distinct key of _inverse_rows."""
    forms = ClearedForms(g)
    x_values = forms.x[0]
    delta, lam, *values = _cleared_at([forms.delta, forms.lam, *x_values, *forms.local[0]], q0)
    if delta == 0:
        raise PoleError(f"a cofactor core vanishes at q = {q0}; the inverse has a pole there")
    if lam == 0:
        raise PoleError(f"the balance constant vanishes at q = {q0}; the inverse has a pole there")
    den = delta * lam
    x, local = values[: len(x_values)], values[len(x_values):]

    def entry(a: int, b: int, l: int) -> Rational:
        return _demote(Fraction(x[a] * x[b] - local[l] * lam, den))

    return _inverse_rows(forms, entry)


def inverse_at(g: BiBlockGraph, q0: Rational) -> list[list[Rational]]:
    """graph_inverse(g) evaluated exactly at q0, without building it.

    Each distinct cleared list (delta, Lambda, the balance-vector values X
    and the local entries L) is evaluated at q0 once, as an integer over one
    shared power of q0's denominator (_cleared_at), and entry (i, j) is the
    one Fraction (X_i X_j - L_ij Lambda) / (delta Lambda) of those integers;
    equal entries are one object.  Raises PoleError when delta or Lambda
    vanishes at q0: delta where condition C1 fails, Lambda (where C1 holds)
    exactly where the determinant vanishes.
    """
    return _rows(*_inverse_form_at(g, q0))


# -- admissibility of concrete q values ---------------------------------------


@dataclass(frozen=True)
class ConditionViolation:
    block: int
    condition: str  # "C1" (cofactor core hits 1) or "C2" (determinant core hits mn)
    witness: str


@dataclass(frozen=True)
class ConditionCheck:
    q0: Rational
    violations: tuple[ConditionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated(self, condition: str) -> bool:
        return any(v.condition == condition for v in self.violations)


def check_conditions(g: BiBlockGraph, q0: Rational) -> ConditionCheck:
    """Admissibility of a concrete q value, per block.

    C1 fails when q0 = -1 or q0^2 (m-1)(n-1) = 1 (a cofactor core vanishes:
    vectors, weight matrices, the local matrix and the balance constant have
    poles).  C2 fails when q0 = -1 or (q0+1)^2 (m-1)(n-1) = m n (a determinant
    core vanishes: that block's determinant is zero, not the graph's, which
    is 59049/1024 for K_{2,9} with K_{1,1} attached at q0 = 1/2).  With
    q0 = p/r and a = (m-1)(n-1) the tests are p^2 a = r^2 and
    (p+r)^2 a = m n r^2, in integers.  Violations are data, not errors.
    """
    p, r = q0.numerator, q0.denominator
    p2, r2, s2 = p * p, r * r, (p + r) * (p + r)
    violations = []
    for b in g.blocks:
        m, n = len(b.x), len(b.y)
        a = (m - 1) * (n - 1)
        if q0 == -1:
            violations.append(ConditionViolation(b.index, "C1", "q = -1"))
            violations.append(ConditionViolation(b.index, "C2", "q = -1"))
            continue
        if p2 * a == r2:
            violations.append(
                ConditionViolation(b.index, "C1", f"q^2 (m-1)(n-1) = 1 = 1 for K_{{{m},{n}}}")
            )
        if s2 * a == m * n * r2:
            violations.append(
                ConditionViolation(
                    b.index, "C2", f"(q+1)^2 (m-1)(n-1) = {m * n} = m n for K_{{{m},{n}}}"
                )
            )
    return ConditionCheck(q0, tuple(violations))
