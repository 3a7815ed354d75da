"""Exact integer-polynomial matrix arithmetic by Kronecker substitution (internal).

A polynomial is an ascending list of ints.  Every engine packs each entry into
one integer by evaluating it at ``B = 2^k`` (``pack``), works on plain
integers, and reads each result back as balanced base-``B`` digits
(``unpack``).  The readout is exact: ``k`` is chosen so that ``B > 2C`` for
an a-priori bound ``C`` on every result coefficient, which makes the digits
unique, and ``unpack`` raises ``ArithmeticError`` on a digit past ``C``.

* ``det_int_poly_matrix``: one fraction-free determinant that never updates
  the last row, with the Hadamard bound ``C = ⌈(∏ᵢ Σⱼ ‖aᵢⱼ‖₁²)^½⌉``.  A
  coefficient of ``det A(q)`` is a Fourier coefficient of ``det A`` on the
  unit circle, so it is at most ``max |det A(z)|`` there, which Hadamard's
  inequality bounds by the product of the row 2-norms, and
  ``|aᵢⱼ(z)| ≤ ‖aᵢⱼ‖₁``.  ``C`` is never larger than the permanent bound
  ``∏ᵢ Σⱼ ‖aᵢⱼ‖₁``.  With ``A = [[A₁₁, c], [rᵀ, a]]`` at ``2^k``, the
  elimination of the upper rows ``[A₁₁ | c]`` and back-substitution (below)
  give ``p = det(P A₁₁)`` and ``x = adj(P A₁₁) P c``, and
  ``det A = s (p a - rᵀ x)`` by the Schur complement,
  ``det A₁₁ · a - rᵀ adj(A₁₁) c``: the integer that eliminating the whole
  matrix gives, so ``C`` and the readout are unchanged.  When ``A₁₁`` is
  singular there is no pivot for the route, and the whole matrix is
  eliminated instead.
* ``matmul``: one integer dot product per entry,
  ``C = maxᵢ Σₖ ‖aᵢₖ‖₁ · maxₖⱼ ‖bₖⱼ‖₁ ≥ Σₖ ‖aᵢₖ‖₁·‖bₖⱼ‖₁``.
* ``power_product``: one product of packed powers, ``C = ∏ ‖eᵢ‖₁^pᵢ ≥ ‖∏ eᵢ^pᵢ‖₁``.
* ``outer_form``: ``uₐ u_b − c w_l`` from one product of packed values each,
  ``C = max ‖uₐ‖₁² + max ‖w_l‖₁ ‖c‖₁``.
* ``adjugate``: the elimination of ``[A | I]`` and back-substitution on each
  column of ``I`` give ``det(A) = s p`` and ``X = adj(P A) P = s adj(A)``;
  the Hadamard bound of ``A`` covers every (n-1)-minor when no row is zero,
  since each row factor is then at least 1.

There is one elimination, ``_eliminate``: Bareiss on the rows of a packed
``[A | C]``, which ends at the pivot ``p = det(P A)``, ``P`` the row swaps
of sign ``s``, with each row ``u`` as it was at its own pivot.  For a column
``b`` of ``C``, as eliminated ``b'``, fraction-free back-substitution
(``_back_substitute``), ``xᵢ = (p b'ᵢ - Σ_{i<j<m} uᵢⱼ xⱼ) / uᵢᵢ`` for the
``m`` rows, gives ``x = adj(P A) P b``, every division exact: by Cramer's
rule ``xᵢ`` is ``det(P A)`` with column ``i`` replaced by ``P b``, an
integer, and each ``u`` is a rational combination of rows of ``P [A | C]``,
so ``Σⱼ uᵢⱼ xⱼ = p b'ᵢ`` (Bareiss, Math. Comp. 22, 1968).

The elimination updates only the rows whose entry in the pivot column is
nonzero.  The dense fraction-free step would rescale such a row by
``pₜ/pₜ₋₁``, the ratio of successive pivots; these ratios telescope, so by
Sylvester's identity the dense row after a run of skipped steps is the
stored row times ``pₜ/den[i]``, ``den[i]`` the pivot of the row's last
update.  So the next update divides by ``den[i]`` instead of ``pₜ₋₁`` and
gives the dense minor exactly, a stored zero is a dense zero, and the
pivots, row swaps, results and bounds are those of the dense loop.

Two checks compare packed values and read back only a failing entry.  A
nonzero integer polynomial with coefficients at most ``C`` is not 0 at
``2^k > 2C``: divided by ``2^(k m)``, ``m`` the degree of its lowest term,
its value is that term's coefficient, nonzero and smaller than ``2^k``, plus
a multiple of ``2^k``.  So two polynomials equal at such a ``2^k`` are equal,
for ``C`` a bound on the coefficients of their difference:

* ``rank_one_mismatch``: ``D B = 1 r^T + d I`` for ``D`` the q-distance
  matrix of a distance table, read off its ``distance_classes``,
  ``C = maxᵢ Σₖ dist(i, k) · max ‖bₖⱼ‖₁ + maxⱼ ‖rⱼ‖₁ + ‖d‖₁``, the
  ``matmul`` bound plus the expected side's;
* ``outer_form_holds``: ``vᵢⱼ = uᵢ uⱼ - c wᵢⱼ`` for every cell, each
  distinct tuple of entries once,
  ``C = max ‖vᵢⱼ‖₁ + max ‖uᵢ‖₁² + max ‖wᵢⱼ‖₁ ‖c‖₁``;
* ``adjugate_mismatch``: ``vᵢⱼ det(A) = b adj(A)ᵢⱼ`` on the packed
  ``adjugate``, ``C = C_A (max ‖vᵢⱼ‖₁ + ‖b‖₁)`` for ``C_A`` the Hadamard bound
  of ``A``, which bounds ``det(A)`` and every ``adj(A)ᵢⱼ`` as above.

``rank_one_mismatch`` packs once more, a whole row into one integer of
signed ``s``-bit slots: row ``t`` of ``B`` is ``Wₜ = Σⱼ bₜⱼ(2^k) 2^(s j)``
and the expected row ``i`` is ``Rᵢ = Σⱼ (rⱼ + d [i = j])(2^k) 2^(s j)``.
Entry ``(i, t)`` of ``D`` is ``[e]_q = Σ_{u<e} q^u``, ``e = dist(i, t)``,
so row ``i`` of ``D B`` is ``Σₑ [e]_q(2^k) Gₑ``, ``Gₑ`` the sum of the
``Wₜ`` with ``dist(i, t) = e``, and by Horner on the suffix sums
``Sₑ = Σ_{e' ≥ e} Gₑ'`` it is ``Σₑ Sₑ 2^(k (e-1))``: additions and shifts,
no product.  Its difference from ``Rᵢ`` has the slots
``δⱼ = (D B - 1 r^T - d I)ᵢⱼ(2^k)``, and ``|δⱼ| ≤ C_s = n [diam]_q(2^k)
max |bₜⱼ(2^k)| + max |rⱼ(2^k)| + |d(2^k)|``, since no entry of ``D`` at
``2^k`` exceeds ``[diam]_q(2^k)``.  With ``2^s > 2 C_s`` the difference is
0 only when every slot is: divided by ``2^(s j)``, ``j`` its lowest nonzero
slot, it is ``δⱼ`` plus a multiple of ``2^s``, and ``0 < |δⱼ| < 2^s``.  So
the row identity holds at ``2^k``, hence as polynomials by the argument
above; and the slots of a nonzero difference are its balanced base-``2^s``
digits, which give the first failing ``j`` and
``(D B)ᵢⱼ(2^k) = δⱼ + rⱼ(2^k) + d(2^k) [i = j]``.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt, prod
from operator import mul


class SingularError(ValueError):
    """Elimination found no usable pivot."""


def _norm(e: list[int]) -> int:
    return sum(map(abs, e))


def _row_norms(entries: list[list[list[int]]]) -> list[int]:
    return [sum(map(_norm, row)) for row in entries]


def hadamard_bound(entries: list[list[list[int]]]) -> int:
    """⌈(∏ᵢ Σⱼ ‖aᵢⱼ‖₁²)^½⌉: bounds every coefficient of the determinant of a
    square matrix of integer polynomial lists; 0 when a row is zero."""
    squares = prod(sum(_norm(e) ** 2 for e in row if e) for row in entries)
    return isqrt(squares - 1) + 1 if squares else 0


def _digit_bits(bound: int) -> int:
    """k with 2^k > 2 * bound: balanced base-2^k digits up to bound are unique."""
    return (2 * bound).bit_length()


def pack(e: list[int], k: int) -> int:
    """The polynomial e evaluated at 2^k."""
    value = 0
    for c in reversed(e):
        value = (value << k) + c
    return value


def _pack_rows(entries: list[list[list[int]]], k: int) -> list[list[int]]:
    """Each entry of a matrix of integer polynomial lists packed at 2^k,
    empty entries straight to 0."""
    return [[pack(e, k) if e else 0 for e in row] for row in entries]


def unpack(value: int, k: int, bound: int) -> list[int]:
    """Coefficients of the polynomial whose value at 2^k is value, read as balanced
    base-2^k digits; raises ArithmeticError when a digit is past bound."""
    base = 1 << k
    half = base >> 1
    coeffs = []
    while value:
        digit = value & (base - 1)
        if digit >= half:
            digit -= base
        if abs(digit) > bound:
            raise ArithmeticError("Kronecker readout exceeded its coefficient bound")
        coeffs.append(digit)
        value = (value - digit) >> k
    return coeffs


def _eliminate(mat: list[list[int]]) -> tuple[int, int]:
    """Bareiss elimination of the leading square block of an integer matrix,
    in place, every column carried along.  Only rows below the pivot with a
    nonzero multiplier are updated; den[i] is the pivot of row i's last
    update (1 before any), and each update (pivot * entry - multiplier *
    pivot_row_entry) is exactly divisible by it.  A skipped row is the dense
    row over prev / den[i] (module docstring), and is brought up to date by
    that factor when it becomes the pivot row, so each row ends as it was at
    its own pivot.  Returns the sign of the row swaps and the last pivot,
    whose product is the block's determinant; raises SingularError."""
    n = len(mat)
    sign = prev = 1
    den = [1] * n
    for k in range(n):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            raise SingularError(f"matrix is singular (no pivot at elimination step {k})")
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            den[k], den[piv] = den[piv], den[k]
            sign = -sign
        row_k = mat[k]
        if den[k] != prev:
            d = den[k]
            row_k[k:] = [a * prev // d for a in row_k[k:]]
        pivot = row_k[k]
        tail = row_k[k + 1:]
        for i in range(k + 1, n):
            row_i = mat[i]
            f = row_i[k]
            if f:
                d = den[i]
                row_i[k + 1:] = [(a * pivot - f * b) // d for a, b in zip(row_i[k + 1:], tail)]
                den[i] = pivot
        den[k] = prev = pivot
    return sign, prev


def _back_substitute(rows: list[list[int]], pivot: int, c: int) -> list[int]:
    """x = adj(P A) P b for the m rows u of [A | C] as _eliminate left them,
    pivot = det(P A) its last pivot, P its row swaps and b column c:
    xᵢ = (pivot uᵢ[c] - Σ_{i<j<m} uᵢⱼ xⱼ) / uᵢᵢ, every division exact
    (module docstring)."""
    m = len(rows)
    x = [0] * m
    for i in range(m - 1, -1, -1):
        row = rows[i]
        x[i] = (pivot * row[c] - sum(map(mul, row[i + 1:m], x[i + 1:]))) // row[i]
    return x


def det_int_poly_matrix(entries: list[list[list[int]]]) -> list[int]:
    """Exact determinant (ascending int coefficient list) of a square matrix of
    integer polynomial lists."""
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ValueError("determinant requires a nonempty square matrix")
    bound = hadamard_bound(entries)
    k = _digit_bits(bound)
    try:
        det = _bordered_det(_pack_rows(entries, k))
    except SingularError:
        # no pivot in the leading block: eliminate the whole matrix
        try:
            sign, pivot = _eliminate(_pack_rows(entries, k))
        except SingularError:
            return []
        det = sign * pivot
    return unpack(det, k, bound)


def _bordered_det(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix [[A₁₁, c], [rᵀ, a]] that never
    updates its last row: det A = det A₁₁ · a − rᵀ adj(A₁₁) c.  The
    elimination of the upper rows [A₁₁ | c] and back-substitution on c give
    x = adj(P A₁₁) P c = s adj(A₁₁) c, s the sign of the row swaps P.  Raises
    SingularError, with the upper rows modified, when A₁₁ is singular."""
    *upper, last = mat
    sign, pivot = _eliminate(upper)
    x = _back_substitute(upper, pivot, len(upper))
    return sign * (pivot * last[-1] - sum(map(mul, last, x)))


def matmul(a: list[list[list[int]]], b: list[list[list[int]]]) -> list[list[list[int]]]:
    """Product of two matrices of integer polynomial lists."""
    bound = max(_row_norms(a)) * max(_norm(e) for row in b for e in row)
    k = _digit_bits(bound)
    columns = list(zip(*([pack(e, k) for e in row] for row in b)))
    return [
        [unpack(sum(map(mul, row, col)), k, bound) for col in columns]
        for row in ([pack(e, k) for e in row] for row in a)
    ]


def power_product(factors: list[tuple[list[int], int]]) -> list[int]:
    """Coefficients of the product of e^p over the (e, p) factors of integer
    polynomial lists: [1] for no factors, [] when a factor with p > 0 is zero."""
    bound = prod(_norm(e) ** p for e, p in factors)
    k = _digit_bits(bound)
    return unpack(prod(pack(e, k) ** p for e, p in factors), k, bound)


def _packed_adjugate(entries: list[list[list[int]]], factor: int = 1):
    """(C, k, det(A) at 2^k, rows of adj(A) at 2^k) of a square matrix A of
    integer polynomial lists, by one Bareiss elimination of [A | I] at
    2^k > 2 C factor, C the Hadamard bound of A.

    Back-substitution on column j of the identity gives column j of
    X = adj(P A) P = s adj(A), for the row swaps P of sign s.  Raises
    SingularError for a singular matrix, a zero row included.
    """
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ValueError("adjugate requires a nonempty square matrix")
    norms = _row_norms(entries)
    if 0 in norms:
        raise SingularError(f"matrix is singular (row {norms.index(0)} is zero)")
    # every row factor is at least 1, so every minor is within the bound
    bound = hadamard_bound(entries)
    k = _digit_bits(bound * factor)
    aug = [
        [pack(e, k) for e in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(entries)
    ]
    sign, pivot = _eliminate(aug)
    columns = [_back_substitute(aug, pivot, n + j) for j in range(n)]
    return bound, k, sign * pivot, [[sign * v for v in row] for row in zip(*columns)]


def adjugate(entries: list[list[list[int]]]) -> tuple[list[int], list[list[list[int]]]]:
    """(det(A), adj(A)) of a square matrix of integer polynomial lists, so that
    adj(A) / det(A) is its inverse over the rational-function field; raises
    SingularError for a singular matrix (_packed_adjugate)."""
    bound, k, det, adj = _packed_adjugate(entries)
    return unpack(det, k, bound), [[unpack(v, k, bound) for v in row] for row in adj]


def adjugate_mismatch(entries: list[list[list[int]]], values, index, den: list[int]):
    """First (i, j) in row order where values[index[i][j]] det(A) != den adj(A)_ij,
    as (i, j, det(A), adj(A)_ij), or None; raises SingularError (_packed_adjugate).

    Compared at 2^k > 2 C (max ‖values‖₁ + ‖den‖₁), C the Hadamard bound of A,
    which bounds det(A) and adj(A)_ij, so also every coefficient of each
    difference; det(A) and adj(A)_ij are read back only for the failing entry.
    """
    factor = max(map(_norm, values)) + _norm(den)
    bound, k, det, adj = _packed_adjugate(entries, max(factor, 1))
    den_value = pack(den, k)
    left = [pack(v, k) * det for v in values]
    for i, (row, cells) in enumerate(zip(index, adj)):
        for j, (t, a) in enumerate(zip(row, cells)):
            if left[t] != den_value * a:
                return i, j, unpack(det, k, bound), unpack(a, k, bound)
    return None


def outer_form(u_values, w_values, c: list[int]):
    """The function (a, b, l) -> u_a u_b - c w_l of integer lists, u_a and u_b
    in u_values, w_l in w_values: each list packed once at 2^k > 2C,
    C = max ‖u‖₁² + max ‖w‖₁ ‖c‖₁, and each entry one product read back."""
    bound = max(map(_norm, u_values)) ** 2 + max(map(_norm, w_values)) * _norm(c)
    k = _digit_bits(bound)
    pu, pw = ([pack(e, k) for e in form] for form in (u_values, w_values))
    pc = pack(c, k)
    return lambda a, b, l: unpack(pu[a] * pu[b] - pc * pw[l], k, bound)


def outer_form_holds(values, index, u, w, c: list[int]) -> bool:
    """Whether values[index[i][j]] = u_i u_j - c w_ij for every cell (i, j),
    u a (values, index) vector and w a (values, index) matrix of integer
    lists, c an integer list.  Each distinct (u_i, values, u_j, w_ij) index
    tuple is compared once, packed at 2^k > 2C, C the bound in the module
    docstring."""
    (u_values, u_index), (w_values, w_index) = u, w
    bound = max(map(_norm, values)) + max(map(_norm, u_values)) ** 2
    k = _digit_bits(bound + max(map(_norm, w_values)) * _norm(c))
    packed, pu, pw = ([pack(e, k) for e in form] for form in (values, u_values, w_values))
    pc = pack(c, k)
    cells = set()
    for a, row, w_row in zip(u_index, index, w_index):
        cells.update(zip(repeat(a), row, u_index, w_row))
    return all(packed[t] == pu[a] * pu[b] - pc * pw[l] for a, t, b, l in cells)


def distance_classes(dist: list[list[int]]) -> tuple[list[list[list[int]]], int, int]:
    """(classes, row_norm, diameter) of a distance table, the shape that
    rank_one_mismatch reads D from: classes[i][e - 1] lists the vertices at
    distance e from i, for e = 1 .. ecc(i), row_norm = maxᵢ Σₖ dist(i, k)
    bounds the 1-norm of a row of D, since ‖[d]_q‖₁ = d, and diameter is the
    largest distance."""
    classes = []
    for row in dist:
        groups = [[] for _ in range(max(row) + 1)]
        for v, e in enumerate(row):
            groups[e].append(v)
        classes.append(groups[1:])
    return classes, max(map(sum, dist)), max(map(max, dist))


def rank_one_mismatch(shape, values, index, r, d) -> tuple[int, int, list[int]] | None:
    """(i, j, (D B)_ij) at the first failing entry, in row order, of
    D B = 1 r^T + d I, or None when it holds: D is the q-distance matrix of
    the distance table whose distance_classes are shape, entry (i, j) of B
    is values[index[i][j]], r has one integer list per column of B, and d
    is an integer list, zero unless B is square.  Packed at 2^k > 2C, C the
    bound in the module docstring, each row of D B one integer of slots."""
    classes, row_norm, diameter = shape
    product_bound = row_norm * max(map(_norm, values))
    k = _digit_bits(product_bound + max(map(_norm, r)) + _norm(d))
    packed = [pack(v, k) for v in values]
    expected, diagonal = [pack(e, k) for e in r], pack(d, k)
    # every slot of a row's difference is at most n [diam]_q(2^k) max |B|
    # + max |r| + |d| at 2^k; 2^s > 2 slot_bound
    top = pack([1] * diameter, k)
    slot_bound = len(classes) * top * max(map(abs, packed))
    slot_bound += max(map(abs, expected)) + abs(diagonal)
    s = _digit_bits(slot_bound)
    rows = [pack([packed[t] for t in row], s) for row in index]
    want = pack(expected, s)
    for i, groups in enumerate(classes):
        # Σ_e [e]_q(2^k) G_e, G_e the sum of rows[v] over dist(i, v) = e,
        # by Horner on the suffix sums Σ_{e' >= e} G_e'
        acc = suffix = 0
        for group in reversed(groups):
            suffix = sum(map(rows.__getitem__, group), suffix)
            acc = (acc << k) + suffix
        slots = unpack(acc - want - (diagonal << s * i), s, slot_bound)
        if slots:
            j = next(j for j, v in enumerate(slots) if v)
            value = slots[j] + expected[j] + (diagonal if i == j else 0)
            return i, j, unpack(value, k, product_bound)
    return None
