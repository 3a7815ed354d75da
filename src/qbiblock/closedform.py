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
from itertools import compress
from operator import add

from . import _fastpoly, _moddet
from .exactring import ONE, PoleError, Polynomial, Q, Rational, RationalFunction, RF_ZERO, _demote
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
    return Counter((min(b.m, b.n), max(b.m, b.n)) for b in g.blocks)


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


def _cleared_sums(g: BiBlockGraph, base: list[int], quotients, factor) -> tuple[list, list[int]]:
    """(values, index), entry v values[index[v]]: (1 - block degree of v) *
    base plus factor(opp) * R_a for each block containing v, own and opp the
    part sizes on v's side and on the other side and a = (own-1)(opp-1).  It
    depends only on v's signature, the sorted tuple of those pairs, so it is
    built once per signature and numbered by value: signatures with equal
    entries (all (own, 1) terms are equal) share one number."""
    sizes = [{"X": (b.m, b.n), "Y": (b.n, b.m)} for b in g.blocks]
    numbers: dict[tuple[int, ...], int] = {}

    @functools.cache
    def entry(sig):
        total = _fastpoly.pscale(base, 1 - len(sig))
        for own, opp in sig:
            term = _fastpoly.pmul(factor(opp), quotients[(own - 1) * (opp - 1)])
            total = _fastpoly.padd(total, term)
        return numbers.setdefault(tuple(total), len(numbers))

    index = [
        entry(tuple(sorted(sizes[b][side] for b, side in members)))
        for members in g.membership
    ]
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
    return RationalFunction(Polynomial(forms.lam), Polynomial(forms.delta))


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
        r = quotients[(b.m - 1) * (b.n - 1)]
        k = numbers.setdefault((0, *r), len(numbers))
        for u in b.x:
            for v in b.y:
                index[u][v] = index[v][u] = k
        for vertices, opp in ((b.x, b.n), (b.y, b.m)):
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


def _inverse_rows(forms: ClearedForms, entry) -> tuple[list, list[list[int]]]:
    """(values, index): entry (i, j) of -local_matrix + outer(x, x) /
    balance_constant is values[index[i][j]].

    Entry (i, j) depends only on x_i, x_j and the local entry L_ij, so
    entry(a, b, l) is called once per distinct key (a, b, l): a <= b the
    numbers of x_i and x_j in x's index, l the number of L_ij in local's
    index, 0 where i and j share no block.  A pair of x values has such a
    vertex pair when fewer than |a| |b| of its ordered pairs are local.
    Each row is filled by x value, then its local cells (never listed) are overwritten.
    """
    (x, ids), local_index = forms.x, forms.local[1]
    cells = lambda: ((i, j) for i, row in enumerate(local_index) for j in compress(range(len(row)), row))
    sizes, local_pairs = Counter(ids), Counter((ids[i], ids[j]) for i, j in cells())
    plain: list[list] = [[None] * len(x) for _ in x]
    values = []
    for a in range(len(x)):
        for b in range(a, len(x)):
            if local_pairs[a, b] < sizes[a] * sizes[b]:
                plain[a][b] = plain[b][a] = len(values)
                values.append(entry(a, b, 0))
    by_value = [list(map(row.__getitem__, ids)) for row in plain]
    index = [by_value[a].copy() for a in ids]
    keys: dict = {}
    for i, j in cells():
        key = (*sorted((ids[i], ids[j])), local_index[i][j])
        index[i][j] = keys.setdefault(key, len(values) + len(keys))
    values += [entry(*key) for key in keys]
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
            coeffs = list(map(add, coeffs + [0], [0] + coeffs))
        return coeffs

    def _value_at(self, last: list[int], power: int, q0: Rational) -> Rational:
        """F(q0) last(q0) (q0+1)^power, factor by factor in exact rationals."""
        value = Fraction(Polynomial(last).eval_at(q0)) * (q0 + 1) ** power
        for e, p in self._factors:
            value *= Polynomial(e).eval_at(q0) ** p
        return _demote(value)

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
    def x(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """delta x_v = (1 - deg v) delta + sum of ((opp-1) q - 1) R_a."""
        return _cleared_sums(self._g, self.delta, self._quotients, lambda opp: [-1, opp - 1])

    @functools.cached_property
    def y(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """P y_v = (1 - deg v) P + sum of (opp-1) R_a."""
        return _cleared_sums(self._g, self.product, self._quotients, lambda opp: [opp - 1])

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
    """RationalFunction(value / den) for each integer list in values."""
    den = Polynomial(den)
    return [RationalFunction(Polynomial(v), den) for v in values]


def values_at(values, den: list[int], q0: Rational) -> list[Rational]:
    """value(q0) / den(q0) for each integer list in values, the values of one
    (values, index) form of ClearedForms.  den(q0) must be nonzero: for
    delta and P that is condition C1."""
    den_value = Polynomial(den).eval_at(q0)
    return [_demote(Fraction(Polynomial(v).eval_at(q0)) / den_value) for v in values]


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
    at = lambda value: Fraction(Polynomial(value).eval_at(q0))
    delta, lam = at(forms.delta), at(forms.lam)
    if delta == 0:
        raise PoleError(f"a cofactor core vanishes at q = {q0}; the inverse has a pole there")
    if lam == 0:
        raise PoleError(f"the balance constant vanishes at q = {q0}; the inverse has a pole there")
    den = delta * lam
    x, local = list(map(at, forms.x[0])), list(map(at, forms.local[0]))

    def entry(a: int, b: int, l: int) -> Rational:
        return _demote((x[a] * x[b] - local[l] * lam) / den)

    return _inverse_rows(forms, entry)


def inverse_at(g: BiBlockGraph, q0: Rational) -> list[list[Rational]]:
    """graph_inverse(g) evaluated exactly at q0, without building it.

    Each distinct cleared list (delta, Lambda, the balance-vector values X
    and the local entries L) is evaluated at q0 once, and entry (i, j) is
    (X_i X_j - L_ij Lambda) / (delta Lambda) in exact rationals; equal
    entries are one object.  Raises PoleError when delta or Lambda vanishes
    at q0: delta where condition C1 fails, Lambda (where C1 holds) exactly
    where the determinant vanishes.
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
        a = (b.m - 1) * (b.n - 1)
        if q0 == -1:
            violations.append(ConditionViolation(b.index, "C1", "q = -1"))
            violations.append(ConditionViolation(b.index, "C2", "q = -1"))
            continue
        if p2 * a == r2:
            violations.append(
                ConditionViolation(b.index, "C1", f"q^2 (m-1)(n-1) = 1 = 1 for K_{{{b.m},{b.n}}}")
            )
        if s2 * a == b.m * b.n * r2:
            violations.append(
                ConditionViolation(
                    b.index, "C2", f"(q+1)^2 (m-1)(n-1) = {b.m * b.n} = m n for K_{{{b.m},{b.n}}}"
                )
            )
    return ConditionCheck(q0, tuple(violations))
