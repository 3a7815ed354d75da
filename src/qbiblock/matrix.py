"""Dense matrices over an exact ring, with an exact determinant.

Matrices are immutable value types generic over the entry ring: entries only
need the arithmetic the chosen operation uses (``+``, ``-``, ``*``, and
``is_zero`` for the determinant).  The determinant uses fraction-free
Bareiss condensation, which needs ``exact_div`` and so takes polynomial
entries.  Matrices of integer-coefficient polynomials have a faster
determinant engine, and their inverse as ``adj(A) / det(A)``, in
``_moddet``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


class DimensionError(ValueError):
    """Raised when matrix dimensions do not conform."""


class RingMatrix:
    """An immutable dense matrix of exact ring elements, stored row-major."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence]):
        rows = tuple(tuple(row) for row in rows)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionError("ragged rows in matrix construction")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, index: tuple[int, int]):
        i, j = index
        return self.rows[i][j]

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int, zero) -> "RingMatrix":
        return cls([[zero] * ncols for _ in range(nrows)])

    @classmethod
    def ones(cls, nrows: int, ncols: int, one) -> "RingMatrix":
        return cls([[one] * ncols for _ in range(nrows)])

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: "RingMatrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._require_same_shape(other)
        return RingMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._require_same_shape(other)
        return RingMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RingMatrix":
        return self.map(lambda e: -e)

    def __mul__(self, scalar) -> "RingMatrix":
        return self.map(lambda e: e * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        bt = other.transpose().rows
        out = []
        for row in self.rows:
            out_row = []
            for col in bt:
                acc = row[0] * col[0]
                for a, b in zip(row[1:], col[1:]):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return RingMatrix(out)

    def transpose(self) -> "RingMatrix":
        return RingMatrix(list(zip(*self.rows)))

    def map(self, f: Callable) -> "RingMatrix":
        return RingMatrix([[f(e) for e in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"RingMatrix({[list(r) for r in self.rows]!r})"

    def __str__(self):
        return "\n".join("\t".join(str(e) for e in row) for row in self.rows)


def outer(u: Sequence, v: Sequence) -> RingMatrix:
    """Outer product: entry (i, j) = u[i] * v[j]."""
    return RingMatrix([[ui * vj for vj in v] for ui in u])


# -- determinant ------------------------------------------------------------


def det_bareiss(m: RingMatrix):
    """Exact determinant of a square matrix over an integral domain.

    Fraction-free Bareiss condensation with row-swap pivoting (first
    structurally nonzero entry); every interior division is exact.
    """
    if not m.is_square:
        raise DimensionError("determinant requires a square matrix")
    n = m.nrows
    a = [list(row) for row in m.rows]
    zero = a[0][0] * 0
    sign = 1
    prev = None
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero), None)
        if piv is None:
            return zero
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = a[i][j] * pivot - a[i][k] * a[k][j]
                a[i][j] = t if prev is None else t.exact_div(prev)
        prev = pivot
    return a[n - 1][n - 1] * sign
