from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from qbiblock import _fastpoly, _moddet
from qbiblock.exactring import ONE, Q, ZERO, Polynomial, RationalFunction, RF_ONE, RF_ZERO
from qbiblock.matrix import DimensionError, RingMatrix, det_bareiss, outer
from helpers import (
    dense_eliminate,
    det_cofactor,
    identity,
    inverse_gauss,
    int_rows,
    rf_matrix,
    whole_det_int_poly_matrix,
)


def rand_poly(rng: random.Random, max_deg: int = 2, bound: int = 3) -> Polynomial:
    return Polynomial([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def poly_matrix(rng: random.Random, n: int, max_deg: int = 2) -> RingMatrix:
    return RingMatrix([[rand_poly(rng, max_deg) for _ in range(n)] for _ in range(n)])


def test_constructors():
    j = RingMatrix.ones(2, 3, ONE)
    assert j.nrows == 2 and j.ncols == 3
    assert all(e == ONE for row in j.rows for e in row)


def test_outer_and_products():
    a, b = Q + 1, Q - 1
    assert outer([ONE, ONE], [a, b]) == RingMatrix([[a, b], [a, b]])
    j23 = RingMatrix.ones(2, 3, ONE)
    j32 = RingMatrix.ones(3, 2, ONE)
    assert j23 @ j32 == RingMatrix.ones(2, 2, ONE) * 3
    m = RingMatrix([[Q, ONE], [ZERO, Q + 2]])
    assert m @ identity(2, ZERO, ONE) == m
    assert m + (-m) == RingMatrix.zeros(2, 2, ZERO)
    assert (m - m) == RingMatrix.zeros(2, 2, ZERO)
    assert m.transpose().transpose() == m


def test_dimension_errors():
    m = RingMatrix([[ONE, ZERO]])
    with pytest.raises(DimensionError):
        m @ m
    with pytest.raises(DimensionError):
        m + RingMatrix([[ONE]])
    with pytest.raises(DimensionError):
        RingMatrix([[ONE], [ONE, ZERO]])


def test_det_examples():
    assert det_bareiss(RingMatrix([[ZERO, ONE], [ONE, ZERO]])) == Polynomial((-1,))
    assert det_bareiss(RingMatrix([[Polynomial((2,)), ZERO], [ZERO, Polynomial((3,))]])) == Polynomial((6,))
    m = RingMatrix([[ZERO, Q + 1], [Q + 1, ZERO]])
    assert det_bareiss(m) == -((Q + 1) ** 2)


def test_det_zero_column():
    m = RingMatrix([[ZERO, ONE], [ZERO, Q]])
    assert det_bareiss(m) == ZERO


def test_det_bareiss_matches_cofactor_expansion():
    rng = random.Random(1401)
    for n in range(1, 6):
        for _ in range(6):
            m = poly_matrix(rng, n)
            assert det_bareiss(m) == det_cofactor(m)


def test_det_transpose_and_multiplicativity():
    rng = random.Random(77)
    for _ in range(5):
        m = poly_matrix(rng, 4)
        nmat = poly_matrix(rng, 4)
        assert det_bareiss(m.transpose()) == det_bareiss(m)
        assert det_bareiss(m @ nmat) == det_bareiss(m) * det_bareiss(nmat)


def test_modular_engine_matches_generic_condensation():
    rng = random.Random(31337)
    for n in (1, 2, 3, 5, 8, 10):
        for _ in range(3):
            m = poly_matrix(rng, n, max_deg=2)
            assert Polynomial(_moddet.det_int_poly_matrix(int_rows(m))) == det_bareiss(m)
    rows = [list(r) for r in poly_matrix(rng, 5, max_deg=2).rows]
    zero_row = RingMatrix(rows[:2] + [[ZERO] * 5] + rows[3:])
    equal_rows = RingMatrix(rows[:4] + [rows[1]])
    assert _moddet.det_int_poly_matrix(int_rows(zero_row)) == []
    assert _moddet.det_int_poly_matrix(int_rows(equal_rows)) == []


@pytest.mark.parametrize("engine", [_moddet.det_int_poly_matrix, _moddet.adjugate])
@pytest.mark.parametrize("entries", [[], [[[1], [1]]], [[[1], [1]], [[1]]]])
def test_packed_engines_reject_empty_and_nonsquare_matrices(engine, entries):
    with pytest.raises(ValueError, match="requires a nonempty square matrix"):
        engine(entries)


def test_inverse_examples():
    i3 = identity(3, RF_ZERO, RF_ONE)
    assert inverse_gauss(i3) == i3
    swap = rf_matrix(RingMatrix([[ZERO, ONE], [ONE, ZERO]]))
    assert inverse_gauss(swap) == swap


def test_inverse_singular_error_carries_step():
    m = rf_matrix(RingMatrix([[ONE, ONE], [ONE, ONE]]))
    with pytest.raises(_moddet.SingularError, match=r"no pivot at elimination step 1\)"):
        inverse_gauss(m)


def test_inverse_times_matrix_is_identity():
    rng = random.Random(2024)
    produced = 0
    while produced < 8:
        n = rng.randint(1, 8)
        m = poly_matrix(rng, n, max_deg=1)
        if det_bareiss(m).is_zero:
            continue
        produced += 1
        mr = rf_matrix(m)
        assert inverse_gauss(mr) @ mr == identity(n, RF_ZERO, RF_ONE)


def test_scalar_shift_of_ones_inverse_identity():
    # (a I_n + b J_n)^(-1) = (1/a) (I_n - b/(a + n b) J_n) whenever a, a+nb != 0
    rng = random.Random(99)
    for n in range(2, 7):
        for _ in range(3):
            a = Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
            b = Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
            if a + n * b == 0:
                continue
            af, bf = RationalFunction(a), RationalFunction(b)
            eye = identity(n, RF_ZERO, RF_ONE)
            jn = RingMatrix.ones(n, n, RF_ONE)
            m = eye * af + jn * bf
            expected = (eye - jn * (bf / (af + n * bf))) * af.inv()
            assert inverse_gauss(m) == expected


def test_block_operator_identities():
    # E0/E1/E2 have an all-ones last row and zeros elsewhere; E_mm is a single
    # one at the bottom-right corner.
    mdim = 3
    for s in range(2, 6):
        for t in range(2, 6):
            def last_row_ones(rows: int, cols: int) -> RingMatrix:
                return RingMatrix(
                    [[ONE if i == rows - 1 else ZERO for _ in range(cols)] for i in range(rows)]
                )

            e1 = last_row_ones(mdim, s - 1)
            e2 = last_row_ones(mdim, t)
            e_mm = RingMatrix(
                [
                    [ONE if (i == mdim - 1 and j == mdim - 1) else ZERO for j in range(mdim)]
                    for i in range(mdim)
                ]
            )
            j_s1 = RingMatrix.ones(s - 1, s - 1, ONE)
            j_t = RingMatrix.ones(t, t, ONE)
            assert e1 @ j_s1 == e1 * (s - 1)
            assert e2 @ j_t == e2 * t
            assert e1 @ RingMatrix.ones(s - 1, t, ONE) == e2 * (s - 1)
            assert e2 @ RingMatrix.ones(t, s - 1, ONE) == e1 * t
            assert RingMatrix.ones(s - 1, mdim, ONE) @ e_mm == e1.transpose()
            assert RingMatrix.ones(t, mdim, ONE) @ e_mm == e2.transpose()


def test_packed_matmul_matches_schoolbook_product():
    rng = random.Random(2718)
    for rows, inner, cols in ((1, 1, 1), (2, 5, 3), (4, 3, 6), (6, 6, 6), (7, 2, 1)):
        a = int_rows(RingMatrix(
            [[rand_poly(rng, max_deg=3, bound=9) for _ in range(inner)] for _ in range(rows)]
        ))
        b = int_rows(RingMatrix(
            [[rand_poly(rng, max_deg=4, bound=9) for _ in range(cols)] for _ in range(inner)]
        ))
        a[0][0] = []
        b[-1][-1] = [-9, 0, 0, -9]
        expected = []
        for i in range(rows):
            expected_row = []
            for j in range(cols):
                acc: list[int] = []
                for k in range(inner):
                    acc = _fastpoly.padd(acc, _fastpoly.pmul(a[i][k], b[k][j]))
                expected_row.append(acc)
            expected.append(expected_row)
        assert _moddet.matmul(a, b) == expected


def test_adjugate_mismatch_finds_the_first_unequal_cross_product():
    # values = adj * c and den = det * c, so values * det = den * adj entrywise
    rng = random.Random(3141)
    c = [2, 0, -5]
    for n in (1, 2, 5):
        m = poly_matrix(rng, n, max_deg=1)
        while det_bareiss(m).is_zero:
            m = poly_matrix(rng, n, max_deg=1)
        rows = int_rows(m)
        det, adj = _moddet.adjugate(rows)
        values = [_fastpoly.pmul(e, c) for row in adj for e in row]
        index = [[i * n + j for j in range(n)] for i in range(n)]
        den = _fastpoly.pmul(det, c)
        assert _moddet.adjugate_mismatch(rows, values, index, den) is None
        for i, j in ((n - 1, n - 1), (0, n - 1)):
            wrong = list(values)
            wrong[index[i][j]] = _fastpoly.padd(values[index[i][j]], [0, 1])
            assert _moddet.adjugate_mismatch(rows, wrong, index, den) == (i, j, det, adj[i][j])
    # p = 2^k0 - q vanishes at 2^k0, the width of the Hadamard bound 7 alone
    a, values = [5, -2], [[3, 1]]
    k0 = (2 * 7).bit_length()
    p = [1 << k0, -1]
    assert _moddet.pack(p, k0) == 0
    den = _fastpoly.padd(_fastpoly.pmul(values[0], a), p)
    assert _moddet.adjugate_mismatch([[a]], values, [[0]], den) == (0, 0, a, [1])


def test_unpack_reads_balanced_digits_and_refuses_digits_past_the_bound():
    coeffs = [3, -5, 0, 7, -1]
    k = 5
    value = _moddet.pack(coeffs, k)
    assert value == 3 - 5 * 2**5 + 7 * 2**15 - 2**20
    assert _moddet.unpack(value, k, 7) == coeffs
    assert _moddet.unpack(0, k, 7) == []
    with pytest.raises(ArithmeticError):
        _moddet.unpack(value, k, 6)
    with pytest.raises(ArithmeticError):
        _moddet.unpack(_moddet.pack([1, 12], k), k, 7)


def repeated_pmul(factors) -> list[int]:
    out = [1]
    for e, p in factors:
        for _ in range(p):
            out = _fastpoly.pmul(out, e)
    return out


def test_power_product_matches_repeated_schoolbook_products():
    rng = random.Random(1618)
    cases = [
        [],
        [([3, -1], 0)],
        [([], 0), ([1, 1], 3)],
        [([], 2), ([1, 1], 3)],
        [([1, 1], 3), ([], 1)],
        [([-1], 1)],
        [([-1], 5), ([-1, 0, 2], 2)],
        [([-7], 1), ([-1, 0, 4], 0), ([-1, 0, 9], 3), ([5, -12, 0, 30], 1)],
    ]
    for _ in range(20):
        factors = []
        for _ in range(rng.randint(1, 4)):
            e = list(rand_poly(rng, max_deg=4, bound=50).coeffs)
            factors.append((e, rng.randint(0, 6)))
        cases.append(factors)
    for factors in cases:
        assert _moddet.power_product(factors) == repeated_pmul(factors), factors
    assert _moddet.power_product([]) == [1]
    assert _moddet.power_product([([], 2), ([1, 1], 3)]) == []


def test_adjugate_matches_inverse_gauss():
    rng = random.Random(4242)
    # a zero leading entry forces a row swap in the first elimination step
    cases = [RingMatrix([[ZERO, Q + 1, ONE], [Q - 2, Q, ZERO], [ONE, -Q, Q * Q]])]
    while len(cases) < 7:
        m = poly_matrix(rng, rng.randint(1, 5), max_deg=1)
        if not det_bareiss(m).is_zero:
            cases.append(m)
    for m in cases:
        n = m.nrows
        det, adj = _moddet.adjugate(int_rows(m))
        assert Polynomial(det) == det_bareiss(m)
        ref = inverse_gauss(rf_matrix(m))
        for i in range(n):
            for j in range(n):
                # adj / det == num / den, cross-multiplied
                num, den = ref[i, j].num, ref[i, j].den
                assert Polynomial(adj[i][j]) * den == num * Polynomial(det)


def test_adjugate_of_a_singular_matrix_raises():
    rng = random.Random(77)
    rows = [list(r) for r in poly_matrix(rng, 4, max_deg=2).rows]
    equal_rows = RingMatrix(rows[:3] + [rows[0]])
    zero_row = RingMatrix(rows[:1] + [[ZERO] * 4] + rows[2:])
    for m in (equal_rows, zero_row):
        with pytest.raises(_moddet.SingularError):
            _moddet.adjugate(int_rows(m))


def nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def arrow(blocks: list[list[list[int]]], border: list[int] | None) -> list[list[int]]:
    """The block-diagonal matrix of blocks, bordered by a last row and column
    that take border's entries in order, corner last, when border is given."""
    n = sum(map(len, blocks))
    mat, at = [], 0
    for block in blocks:
        for row in block:
            mat.append([0] * at + row + [0] * (n - at - len(row)))
        at += len(block)
    if border is None:
        return mat
    for row, e in zip(mat, border):
        row.append(e)
    mat.append(border[n:])
    return mat


def structured_matrices(rng: random.Random) -> list[list[list[int]]]:
    def block(size, density=1.0):
        return [[nonzero(rng) if rng.random() < density else 0 for _ in range(size)]
                for _ in range(size)]

    def sizes():
        return [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]

    diagonal = arrow([block(s) for s in sizes()], None)
    blocks = [block(s) for s in sizes()]
    bordered = arrow(blocks, [nonzero(rng) for _ in range(2 * sum(map(len, blocks)) + 1)])
    n = rng.randint(2, 7)
    patterned = block(n, rng.uniform(0.1, 0.9))
    zero_column = [[0] + row[1:] for row in block(n)]
    # the rows of a bordered matrix out of order need row swaps
    swapped = rng.sample(bordered, len(bordered))
    repeated = [list(row) for row in patterned] + [list(patterned[rng.randrange(n)])]
    singular = [row + [0] for row in repeated]
    return [diagonal, bordered, patterned, zero_column, swapped, singular]


def eliminated(engine, mat: list[list[int]]):
    """(sign, last pivot) and each row from its own pivot on, the part that
    back-substitution reads, or the SingularError text."""
    work = [list(row) for row in mat]
    try:
        result = engine(work)
    except _moddet.SingularError as error:
        return str(error)
    return result, [row[i:] for i, row in enumerate(work)]


def test_elimination_skipping_zero_multipliers_matches_the_dense_loop():
    singular = 0
    for seed in range(300):
        rng = random.Random(seed)
        for mat in structured_matrices(rng):
            expected = eliminated(dense_eliminate, mat)
            assert eliminated(_moddet._eliminate, mat) == expected, (seed, mat)
            singular += isinstance(expected, str)
    # the zero-column and repeated-row cases, at least, raise
    assert singular >= 2 * 300


def dense_adjugate(mat: list[list[int]]):
    """_moddet.adjugate of an integer matrix, as constant polynomials, from
    the right block s adj(A) of the dense Gauss-Jordan on [A | I]; or the
    SingularError text, the adjugate's own for a zero row."""
    n = len(mat)
    zero = next((i for i, row in enumerate(mat) if not any(row)), None)
    if zero is not None:
        return f"matrix is singular (row {zero} is zero)"
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    try:
        sign, pivot = dense_eliminate(work, jordan=True)
    except _moddet.SingularError as error:
        return str(error)
    return [sign * pivot], constant_rows([[sign * v for v in row[n:]] for row in work])


def test_back_substituted_adjugate_matches_the_dense_gauss_jordan():
    singular = 0
    for seed in range(300):
        rng = random.Random(seed)
        for mat in structured_matrices(rng):
            expected = dense_adjugate(mat)
            try:
                got = _moddet.adjugate(constant_rows(mat))
            except _moddet.SingularError as error:
                got = str(error)
            assert got == expected, (seed, mat)
            singular += isinstance(expected, str)
    # the zero-column and repeated-row cases, at least, raise
    assert singular >= 2 * 300


class CountingRow(list):
    """A matrix row that counts the elimination's row updates: the writes of
    the entries right of the current step's column, the last column index
    read from any row.  counter sums them over the rows sharing it, updates
    counts this row's."""

    def __init__(self, values, counter):
        super().__init__(values)
        self.counter = counter
        self.updates = 0

    def __getitem__(self, index):
        if isinstance(index, int):
            self.counter["step"] = index
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        if isinstance(index, slice) and index.start == self.counter["step"] + 1:
            self.counter["updates"] += 1
            self.updates += 1
        super().__setitem__(index, value)


def row_updates(engine, mat: list[list[int]]) -> int:
    counter = {"step": -1, "updates": 0}
    engine([CountingRow(row, counter) for row in mat])
    return counter["updates"]


def nonsingular_blocks_and_border(rng: random.Random):
    """Five nonsingular dense blocks of sizes 1-5 and a dense border, corner 1000."""
    blocks = []
    while len(blocks) < 5:
        size = rng.randint(1, 5)
        block = [[nonzero(rng) for _ in range(size)] for _ in range(size)]
        if not isinstance(eliminated(dense_eliminate, block), str):
            blocks.append(block)
    border = [nonzero(rng) for _ in range(2 * sum(map(len, blocks)))] + [1000]
    return blocks, border


def test_elimination_updates_a_bordered_block_diagonal_matrix_block_by_block():
    blocks, border = nonsingular_blocks_and_border(random.Random(2024))
    mat = arrow(blocks, border)
    n = len(mat)
    # the counter sees every update of the dense loop
    assert row_updates(dense_eliminate, mat) == n * (n - 1) // 2
    # each block's rows and the border row, as if each block were alone
    per_block = []
    at = 0
    for block in blocks:
        size = len(block)
        alone = border[at:at + size] + border[n - 1 + at:n - 1 + at + size] + [1000]
        per_block.append(row_updates(_moddet._eliminate, arrow([block], alone)))
        at += size
    assert row_updates(_moddet._eliminate, mat) == sum(per_block) < n * (n - 1) // 2


def test_bordered_determinant_never_updates_the_last_row():
    mat = arrow(*nonsingular_blocks_and_border(random.Random(4096)))
    n = len(mat)
    counter = {"step": -1, "updates": 0}
    rows = [CountingRow(row, counter) for row in mat]
    det = _moddet._bordered_det(rows)
    sign, pivot = dense_eliminate([list(row) for row in mat])
    assert det == sign * pivot != 0
    # the dense border row is read, never written
    assert rows[-1].updates == 0 and rows[-1] == mat[-1]
    upper = row_updates(_moddet._eliminate, mat[:-1])
    assert counter["updates"] == upper == row_updates(_moddet._eliminate, mat) - (n - 1)


def constant_rows(mat: list[list[int]]) -> list[list[list[int]]]:
    return [[[v] if v else [] for v in row] for row in mat]


def test_bordered_determinant_matches_the_whole_matrix_elimination():
    fallbacks = 0
    for seed in range(300):
        rng = random.Random(seed)
        for mat in structured_matrices(rng):
            entries = constant_rows(mat)
            assert _moddet.det_int_poly_matrix(entries) == whole_det_int_poly_matrix(entries)
            fallbacks += isinstance(eliminated(_moddet._eliminate, mat[:-1]), str)
    # every zero-column case, and others, has a singular leading block
    assert fallbacks > 300
    rng = random.Random(8128)
    for n in range(1, 9):
        for _ in range(12):
            entries = int_rows(poly_matrix(rng, n, max_deg=rng.randint(0, 3)))
            assert _moddet.det_int_poly_matrix(entries) == whole_det_int_poly_matrix(entries)


def test_bordered_determinant_named_cases():
    det = _moddet.det_int_poly_matrix
    # singular leading block, nonsingular matrix: the whole matrix is eliminated
    assert det([[[], [1]], [[1], []]]) == [-1]
    assert det(constant_rows([[1, 2, 3], [1, 2, 4], [0, 1, 0]])) == [-1]
    # two equal upper rows: the leading block and the matrix are singular
    assert det([[[1, 1], [2], [0, 3]], [[1, 1], [2], [0, 3]], [[5], [], [1]]]) == []
    # nonsingular leading block, last row 1 * row 0 + q * row 1: singular
    rows = [[[1, 1], [2], []], [[1], [0, 3], [1]]]
    last = [_fastpoly.padd(a, _fastpoly.pmul([0, 1], b)) for a, b in zip(*rows)]
    assert det(rows + [last]) == []
    # n = 1
    assert det([[[3, 0, -2]]]) == [3, 0, -2]
    assert det([[[]]]) == []
    # a zero last row
    assert det(rows + [[[], [], []]]) == []
    # a last row zero but in its corner: det A11 times the corner
    leading = det([row[:2] for row in rows])
    assert det(rows + [[[], [], [0, 0, 5]]]) == _fastpoly.pmul(leading, [0, 0, 5]) != []


def test_hadamard_bound_covers_the_determinant_and_undercuts_the_permanent_bound():
    rng = random.Random(1618)
    # a Sylvester-Hadamard matrix meets the bound exactly: det = 16 = sqrt(4^4)
    h4 = RingMatrix([[Polynomial((1 - 2 * (bin(i & j).count("1") % 2),)) for j in range(4)]
                     for i in range(4)])
    cases = [RingMatrix([[ONE]]), h4, h4.map(lambda e: e * Q**2)]
    cases += [poly_matrix(rng, rng.randint(1, 6), max_deg=rng.randint(0, 3)) for _ in range(40)]
    for m in cases:
        rows = int_rows(m)
        bound = _moddet.hadamard_bound(rows)
        reached = max(map(abs, det_bareiss(m).coeffs), default=0)
        permanent = prod(sum(sum(map(abs, e)) for e in row) for row in rows)
        assert reached <= bound <= permanent
    assert _moddet.hadamard_bound(int_rows(h4)) == 16
    assert det_bareiss(h4) == Polynomial((16,))
    assert det_bareiss(cases[2]) == Polynomial((16,)) * Q**8
