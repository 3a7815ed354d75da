"""Exact determinants of integer-polynomial matrices by Kronecker substitution (internal).

Every entry is evaluated at ``B = 2^k``, one fraction-free integer Bareiss
elimination gives ``det(A)(B)``, and the coefficients of ``det(A)`` are read
back as the balanced base-``B`` digits of that integer.  The readout is exact,
not heuristic, because of an a-priori bound computed from the input matrix:
every coefficient of det is bounded in absolute value by the product over rows
of the sum of entry one-norms (a permanent bound ``C``), and ``k`` is chosen so
that ``B > 2C``, which makes the balanced digits unique.
"""

from __future__ import annotations


def _det_int(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss (all divisions exact)."""
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        row_k = mat[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = mat[i]
            f = row_i[k]
            row_i[k + 1:] = [
                (a * pivot - f * b) // prev for a, b in zip(row_i[k + 1:], row_k[k + 1:])
            ]
        prev = pivot
    return sign * mat[n - 1][n - 1]


def det_int_poly_matrix(entries: list[list[list[int]]]) -> list[int]:
    """Exact determinant (ascending int coefficient list) of a square matrix of
    integer polynomial lists."""
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ValueError("determinant requires a nonempty square matrix")
    coeff_bound = 1
    for row in entries:
        coeff_bound *= sum(sum(abs(c) for c in e) for e in row)
    if coeff_bound == 0:
        return []
    k = (2 * coeff_bound).bit_length()
    mat = [[sum(c << (k * i) for i, c in enumerate(e)) for e in row] for row in entries]
    value = _det_int(mat)
    base = 1 << k
    half = base >> 1
    coeffs = []
    while value:
        digit = value & (base - 1)
        if digit >= half:
            digit -= base
        if abs(digit) > coeff_bound:
            raise ArithmeticError("Kronecker determinant readout exceeded its bound")
        coeffs.append(digit)
        value = (value - digit) >> k
    return coeffs
