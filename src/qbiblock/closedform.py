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
and the determinant and cofactor from the same pieces; the public functions
wrap each distinct list in one Polynomial or RationalFunction, and the
verification harness checks the lists as they are.

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


def _cleared_sums(g: BiBlockGraph, base: list[int], quotients, factor) -> list[list[int]]:
    """Entry at v: (1 - block degree of v) * base plus factor(opp) * R_a for
    each block containing v, own and opp being the part sizes on v's side and
    on the other side and a = (own-1)(opp-1).  The entry depends only on v's
    signature, the sorted tuple of those pairs, so it is built once per
    signature, and signatures with equal entries (all (own, 1) terms are
    equal) share one list."""
    sizes = [{"X": (b.m, b.n), "Y": (b.n, b.m)} for b in g.blocks]
    shared: dict[tuple[int, ...], list[int]] = {}

    @functools.cache
    def entry(sig):
        total = _fastpoly.pscale(base, 1 - len(sig))
        for own, opp in sig:
            term = _fastpoly.pmul(factor(opp), quotients[(own - 1) * (opp - 1)])
            total = _fastpoly.padd(total, term)
        return shared.setdefault(tuple(total), total)

    return [
        entry(tuple(sorted(sizes[index][side] for index, side in members)))
        for members in g.membership
    ]


def balance_vector(g: BiBlockGraph) -> list[RationalFunction]:
    """The vector x with q_distance_matrix(g) @ x = balance_constant(g) * ones.

    Entry at v sums, over the blocks containing v, the side-dependent weight
    (q * (opposite - 1) - 1) / ((q+1) * cofactor_core), then subtracts
    (block degree - 1).  Vertices with the same block signature share one
    entry object.
    """
    forms = ClearedForms(g)
    return _shared_rfs(forms.x, forms.delta)


def diagonal_weight_vector(g: BiBlockGraph) -> list[RationalFunction]:
    """The vector y used on the diagonal of the local matrix.

    Entry at v sums (opposite - 1) / cofactor_core over the blocks containing
    v, then subtracts (block degree - 1).  Vertices with the same block
    signature share one entry object.
    """
    forms = ClearedForms(g)
    return _shared_rfs(forms.y, forms.product)


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


def _cleared_local(g: BiBlockGraph, product: list[int], quotients, y) -> dict:
    """The nonzero entries of delta * local_matrix(g) as coefficient tuples,
    keyed by (row, column): q R_a across a K_{m,n} block, -(n-1) q^2 R_a and
    -(m-1) q^2 R_a within its X and Y sides (two vertices share at most one
    block), and P - q^2 Y_v on the diagonal, Y_v = P y_v.  Equal entries are
    one tuple: the edge entry is built once per a = (m-1)(n-1), a within-side
    entry once per a and opposite part size, and a diagonal entry once per
    value of y_v; no two of these keys give equal entries."""
    edge = functools.cache(lambda a: (0, *quotients[a]))
    within = functools.cache(lambda a, opp: tuple(_fastpoly.pscale([0, 0, *quotients[a]], 1 - opp)))

    entries: dict[tuple[int, int], tuple[int, ...]] = {}
    for b in g.blocks:
        a = (b.m - 1) * (b.n - 1)
        w = edge(a)
        for u in b.x:
            for v in b.y:
                entries[u, v] = entries[v, u] = w
        for vertices, opp in ((b.x, b.n), (b.y, b.m)):
            w = within(a, opp)
            if not w:
                continue
            for u in vertices:
                for v in vertices:
                    if u != v:
                        entries[u, v] = w
    diagonal = functools.cache(lambda e: tuple(_fastpoly.psub(product, [0, 0, *e])))
    for v, e in enumerate(y):
        entries[v, v] = diagonal(tuple(e))
    return entries


def _local_entries(g: BiBlockGraph) -> dict[tuple[int, int], RationalFunction]:
    """The nonzero entries of local_matrix(g), keyed by (row, column); equal
    entries share one object."""
    forms = ClearedForms(g)
    return dict(zip(forms._local, _shared_rfs(forms._local.values(), forms.delta)))


def local_matrix(g: BiBlockGraph) -> RingMatrix:
    """The block-local matrix: q/(q+1) * edge weights - q^2/(q+1) * non-edge
    weights - q^2/(q+1) * diag(y) + 1/(q+1) * identity."""
    entries = _local_entries(g)
    return RingMatrix([[entries.get((i, j), RF_ZERO) for j in range(g.n)] for i in range(g.n)])


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
    entry(x_a, x_b, L) is called once per distinct key (a, b, L): a <= b the
    classes of equal x values of i and j, L = L_ij, or None where i and j
    share no block.  A class pair has such a vertex pair when fewer than
    |a| |b| of its ordered pairs are local.  Each row is filled by class,
    then its local entries are overwritten.
    """
    classes: dict = {}
    ids = [classes.setdefault(tuple(e), len(classes)) for e in forms.x]
    reps, sizes = list(classes), Counter(ids)
    local_pairs = Counter((ids[i], ids[j]) for i, j in forms._local)
    plain: list[list] = [[None] * len(reps) for _ in reps]
    values = []
    for a in range(len(reps)):
        for b in range(a, len(reps)):
            if local_pairs[a, b] < sizes[a] * sizes[b]:
                plain[a][b] = plain[b][a] = len(values)
                values.append(entry(reps[a], reps[b], None))
    by_class = [list(map(row.__getitem__, ids)) for row in plain]
    index = [by_class[a].copy() for a in ids]
    keys: dict = {}
    for (i, j), loc in forms._local.items():
        a, b = sorted((ids[i], ids[j]))
        index[i][j] = keys.setdefault((a, b, loc), len(values) + len(keys))
    values += [entry(reps[a], reps[b], loc) for a, b, loc in keys]
    return values, index


class ClearedForms:
    """The closed forms of one graph as integer coefficient lists over
    delta = (q+1) * product, product P being the product of the distinct
    nonconstant cofactor cores.

    lam is Lambda = delta * balance_constant(g), x the balance vector times
    delta, y the diagonal weight vector times P, local the distinct entries
    of local_matrix(g) times delta with their index, and inverse the numerators
    N = X_a X_b - L_ab Lambda of graph_inverse(g) over inverse_den =
    delta * Lambda, and det and cofactor are graph_det(g) = F (q+1)^(n-2) Lambda
    and graph_cofactor(g) = F (q+1)^(n-1) P, F their shared factor (_factors),
    which det_at and cofactor_at evaluate at q0 factor by factor.  All are
    built in integer-list arithmetic from the per-shape products R_a of the
    other cores (P / core_a); x, y, local, inverse, det and cofactor on first use.
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
    def x(self) -> list[list[int]]:
        """delta x_v = (1 - deg v) delta + sum of ((opp-1) q - 1) R_a."""
        return _cleared_sums(self._g, self.delta, self._quotients, lambda opp: [-1, opp - 1])

    @functools.cached_property
    def y(self) -> list[list[int]]:
        """P y_v = (1 - deg v) P + sum of (opp-1) R_a."""
        return _cleared_sums(self._g, self.product, self._quotients, lambda opp: [opp - 1])

    @functools.cached_property
    def _local(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return _cleared_local(self._g, self.product, self._quotients, self.y)

    @functools.cached_property
    def local(self) -> tuple[list[tuple[int, ...]], list[list[int]]]:
        """(values, index): entry (i, j) of delta * local_matrix(g) is
        values[index[i][j]], one value per distinct entry, () first."""
        n = self._g.n
        numbers = {(): 0}
        index = [[0] * n for _ in range(n)]
        for (i, j), e in self._local.items():
            index[i][j] = numbers.setdefault(e, len(numbers))
        return list(numbers), index

    @functools.cached_property
    def inverse(self) -> tuple[list[list[int]], list[list[int]]]:
        """(numerators, index) from _inverse_rows: entry (i, j) of
        graph_inverse(g) is numerators[index[i][j]] / inverse_den, one
        numerator X_a X_b - L Lambda per distinct key (a, b, L)."""

        def numerator(xa: tuple[int, ...], xb: tuple[int, ...], loc: tuple[int, ...] | None):
            num = _fastpoly.pmul(xa, xb)
            return num if loc is None else _fastpoly.psub(num, _fastpoly.pmul(loc, self.lam))

        return _inverse_rows(self, numerator)


def _per_object(values, make) -> list:
    """make(value) for each value, called once per distinct value object, so
    that values shared as objects stay shared."""
    made = {id(v): v for v in values}
    made = {key: make(v) for key, v in made.items()}
    return [made[id(v)] for v in values]


def _shared_rfs(values, den: list[int]) -> list[RationalFunction]:
    """RationalFunction(value / den) for each integer list in values."""
    den = Polynomial(den)
    return _per_object(values, lambda v: RationalFunction(Polynomial(v), den))


def values_at(values, den: list[int], q0: Rational) -> list[Rational]:
    """value(q0) / den(q0) for each integer list of ClearedForms in values,
    each distinct list object evaluated once.  den(q0) must be nonzero: for
    delta and P that is condition C1."""
    den_value = Polynomial(den).eval_at(q0)
    return _per_object(values, lambda v: _demote(Fraction(Polynomial(v).eval_at(q0)) / den_value))


def graph_inverse(g: BiBlockGraph) -> RingMatrix:
    """Inverse of the q-distance matrix: negated local matrix plus the
    rank-one balance correction outer(x, x) / balance_constant.

    Entries are assembled over the structural common denominator
    clearing_poly(g) * (cleared balance constant) by ClearedForms, which keeps
    all intermediate arithmetic on integer coefficients; each distinct entry
    is canonicalised once and shared.
    """
    forms = ClearedForms(g)
    if not forms.lam:
        raise ArithmeticError("balance constant is identically zero; inverse form undefined")
    numerators, index = forms.inverse
    entries = _shared_rfs(numerators, forms.inverse_den)
    return RingMatrix([[entries[k] for k in row] for row in index])


def inverse_at(g: BiBlockGraph, q0: Rational) -> list[list[Rational]]:
    """graph_inverse(g) evaluated exactly at q0, without building it.

    Each distinct cleared list (delta, Lambda, the balance-vector values X
    and the local entries L) is evaluated at q0 once, and entry (i, j) is
    (X_i X_j - L_ij Lambda) / (delta Lambda) in exact rationals.  Raises
    PoleError when delta or Lambda vanishes at q0: delta where condition C1
    fails, Lambda (where C1 holds) exactly where the determinant vanishes.
    """
    forms = ClearedForms(g)
    at = functools.cache(lambda value: Fraction(Polynomial(value).eval_at(q0)))
    delta, lam = at(tuple(forms.delta)), at(tuple(forms.lam))
    if delta == 0:
        raise PoleError(f"a cofactor core vanishes at q = {q0}; the inverse has a pole there")
    if lam == 0:
        raise PoleError(f"the balance constant vanishes at q = {q0}; the inverse has a pole there")
    den = delta * lam

    def entry(xa: tuple[int, ...], xb: tuple[int, ...], loc: tuple[int, ...] | None):
        num = at(xa) * at(xb)
        if loc is not None:
            num -= at(loc) * lam
        return _demote(num / den)

    values, index = _inverse_rows(forms, entry)
    return [list(map(values.__getitem__, row)) for row in index]


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
