from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

import pytest

from qbiblock import _fastpoly, _moddet
from qbiblock.closedform import (
    ClearedForms,
    _inverse_form,
    _inverse_rows,
    _shapes,
    _shared_rfs,
    balance_constant,
    balance_vector,
    block_cofactor,
    block_det,
    block_inverse,
    check_conditions,
    clearing_poly,
    cofactor_core,
    det_core,
    diagonal_weight_vector,
    edge_weight_matrix,
    graph_cofactor,
    graph_det,
    graph_inverse,
    inverse_at,
    local_matrix,
    nonedge_weight_matrix,
    values_at,
)
from qbiblock.cli import _lambda_at
from qbiblock.exactring import (
    ONE,
    PoleError,
    Polynomial,
    Q,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    ZERO,
)
from qbiblock.graph import (
    BlockSpec,
    build,
    distances,
    path_tree,
    random_biblock,
    random_tree,
    star_tree,
)
from qbiblock.matrix import RingMatrix, det_bareiss
from qbiblock.oracle import all_trees, default_corpus
from qbiblock.qdist import q_distance_matrix, q_distance_rows
from helpers import (
    ReferenceClearedForms,
    assert_rf_matches_the_reference,
    formulas_large_graphs,
    identity,
    inverse_gauss,
    reference_check_conditions,
    reference_graph_cofactor,
    reference_graph_det,
    reference_inverse_rows,
    rf_matrix,
)
from helpers import diagonal_weight_vector as reference_y

QP1 = Q + 1


def single_block(s, t):
    return build([BlockSpec(s, t)])


def graph_attach(v, side="X"):
    from qbiblock.graph import Attachment

    return Attachment(v, side)


def test_block_det_examples():
    assert block_det(1, 1) == Polynomial((-1,))
    assert block_det(1, 2) == 2 * QP1
    assert block_det(2, 2) == QP1**2 * (Q + 3) * (Q - 1)


def test_block_det_small_cases_match_elimination():
    for s in range(1, 4):
        for t in range(1, 4):
            assert block_det(s, t) == det_bareiss(q_distance_matrix(single_block(s, t)))


def test_block_cofactor_examples():
    assert block_cofactor(1, 1) == -QP1
    assert block_cofactor(2, 1) == QP1**2
    for s in range(1, 5):
        for t in range(1, 5):
            value = block_cofactor(s, t).eval_at(0)
            assert value in (1, -1)


def test_block_parts_validation():
    with pytest.raises(ValueError):
        block_det(0, 1)
    with pytest.raises(ValueError):
        block_cofactor(1, 0)
    with pytest.raises(ValueError):
        block_inverse(0, 2)


def test_block_inverse_single_edge():
    swap = rf_matrix(RingMatrix([[ZERO, ONE], [ONE, ZERO]]))
    assert block_inverse(1, 1) == swap


def test_block_inverse_matches_elimination():
    g = single_block(1, 2)
    assert block_inverse(1, 2) == inverse_gauss(rf_matrix(q_distance_matrix(g)))


def test_block_inverse_product_is_identity():
    s, t = 3, 2
    d = rf_matrix(q_distance_matrix(single_block(s, t)))
    eye = identity(s + t, RF_ZERO, RF_ONE)
    assert d @ block_inverse(s, t) == eye


def test_graph_det_reduces_to_block_det_for_one_block():
    for s, t in ((1, 1), (2, 3), (4, 2)):
        g = single_block(s, t)
        assert graph_det(g) == block_det(s, t)
        assert graph_cofactor(g) == block_cofactor(s, t)


def test_path3_det():
    g = build(path_tree(3))
    assert graph_det(g) == 2 * QP1
    # the path on 3 vertices is also the one-block graph K_{1,2}
    assert graph_det(g) == block_det(1, 2)
    assert graph_det(g) == det_bareiss(q_distance_matrix(g))


def test_tree_det_depends_only_on_order():
    rng = random.Random(64)
    for n in range(2, 10):
        expected = (-1) ** (n - 1) * (n - 1) * QP1 ** (n - 2)
        assert graph_det(build(path_tree(n))) == expected
        assert graph_det(build(star_tree(n))) == expected
        assert graph_det(build(random_tree(rng.randrange(1 << 30), n))) == expected


def test_balance_vector_single_edge():
    g = single_block(1, 1)
    inv_qp1 = RationalFunction(ONE, QP1)
    assert balance_vector(g) == [inv_qp1, inv_qp1]
    assert diagonal_weight_vector(g) == [RF_ZERO, RF_ZERO]


def test_balance_vector_cut_vertex():
    # two single-edge blocks sharing vertex 0: x(0) = 2/(q+1) - 1
    g = build([BlockSpec(1, 1), BlockSpec(1, 1, graph_attach(0))])
    x = balance_vector(g)
    assert x[0] == RationalFunction(2, QP1) - 1
    assert x[0] == RationalFunction(1 - Q, QP1)


def test_weight_matrices_examples():
    g = single_block(1, 1)
    minus_one = RationalFunction(-1)
    assert edge_weight_matrix(g) == RingMatrix([[RF_ZERO, minus_one], [minus_one, RF_ZERO]])
    assert nonedge_weight_matrix(g) == RingMatrix.zeros(2, 2, RF_ZERO)

    g22 = single_block(2, 2)
    b = nonedge_weight_matrix(g22)
    w = RationalFunction(ONE, Q**2 - 1)
    assert b[0, 1] == w and b[1, 0] == w
    assert b[2, 3] == w
    assert b[0, 2] == RF_ZERO
    assert all(b[i, i] == RF_ZERO for i in range(4))


def test_weight_matrices_sparsity_pattern():
    g = build([BlockSpec(2, 2), BlockSpec(2, 2, graph_attach(0))])
    a = edge_weight_matrix(g)
    b = nonedge_weight_matrix(g)
    d = distances(g)
    for i in range(g.n):
        for j in range(g.n):
            common = {blk for blk, _ in g.membership[i]} & {blk for blk, _ in g.membership[j]}
            if not common or i == j:
                assert a[i, j] == RF_ZERO
                assert b[i, j] == RF_ZERO
            elif d[i][j] == 1:
                assert a[i, j] != RF_ZERO
                assert b[i, j] == RF_ZERO
            else:
                assert a[i, j] == RF_ZERO
                assert b[i, j] != RF_ZERO


def test_balance_constant_examples():
    assert balance_constant(single_block(1, 1)) == RationalFunction(ONE, QP1)
    assert balance_constant(build(path_tree(3))) == RationalFunction(2, QP1)
    assert balance_constant(single_block(2, 2)) == RationalFunction(
        QP1**2 - 4, QP1 * (Q**2 - 1)
    )


def test_local_matrix_single_edge():
    g = single_block(1, 1)
    inv_qp1 = RationalFunction(ONE, QP1)
    mq = RationalFunction(-Q, QP1)
    assert local_matrix(g) == RingMatrix([[inv_qp1, mq], [mq, inv_qp1]])
    row_sum = inv_qp1 + mq
    assert row_sum == RationalFunction(1 - Q, QP1)


def test_local_matrix_diagonal_placement():
    g = build([BlockSpec(2, 3), BlockSpec(1, 2, graph_attach(0))])
    loc = local_matrix(g)
    y = diagonal_weight_vector(g)
    a = edge_weight_matrix(g)
    b = nonedge_weight_matrix(g)
    qq = RationalFunction(Q, QP1)
    qq2 = RationalFunction(Q**2, QP1)
    inv_qp1 = RationalFunction(ONE, QP1)
    for v in range(g.n):
        assert loc[v, v] == a[v, v] * qq - b[v, v] * qq2 - y[v] * qq2 + inv_qp1


def test_graph_inverse_single_edge():
    swap = rf_matrix(RingMatrix([[ZERO, ONE], [ONE, ZERO]]))
    assert graph_inverse(single_block(1, 1)) == swap


def test_graph_inverse_matches_block_inverse():
    for s in range(1, 6):
        for t in range(1, 6):
            assert graph_inverse(single_block(s, t)) == block_inverse(s, t)


def test_graph_inverse_product_identity_on_a_three_block_graph():
    specs = random_biblock(12, 3, 2)
    g = build(specs)
    d = rf_matrix(q_distance_matrix(g))
    eye = identity(g.n, RF_ZERO, RF_ONE)
    assert d @ graph_inverse(g) == eye


def test_graph_inverse_matches_the_elimination_adjugate_on_small_corpus_graphs():
    # verify compares the inverse's numerators with the adjugate; this compares
    # the canonical entries that `inverse` prints
    checked = 0
    for _, specs in default_corpus(7):
        g = build(specs)
        if g.n > 10:
            continue
        det, adj = _moddet.adjugate(q_distance_rows(distances(g)))
        inverse = graph_inverse(g)
        for i in range(g.n):
            for j in range(g.n):
                expected = RationalFunction(Polynomial(adj[i][j]), Polynomial(det))
                assert inverse[i, j] == expected, (specs, i, j)
        checked += 1
    assert checked == 113


# -- structured assembly: sparse local matrix, evaluate-first inverse ---------

AT_POINTS = (Fraction(2, 7), Fraction(-3, 5), 3)


def corpus_sample():
    """Every sixth graph of the default corpus: 29 graphs, K_{s,t}, trees and
    random bi-block graphs alike."""
    return [build(specs) for _, specs in default_corpus(7)[::6]]


def evaluated_inverse(g, q0):
    inv = graph_inverse(g)
    return [[inv[i, j].eval_at(q0) for j in range(g.n)] for i in range(g.n)]


def assert_inverse_at_matches_symbolic(g, q0):
    try:
        expected = evaluated_inverse(g, q0)
    except PoleError:
        with pytest.raises(PoleError):
            inverse_at(g, q0)
        return
    got = inverse_at(g, q0)
    # equal values with equal types (int or Fraction) print the same bytes
    assert repr(got) == repr(expected), (g, q0)


def test_local_matrix_matches_dense_reference():
    qq = RationalFunction(Q, QP1)
    qq2 = RationalFunction(Q**2, QP1)
    inv_qp1 = RationalFunction(ONE, QP1)
    for g in corpus_sample():
        a = edge_weight_matrix(g)
        b = nonedge_weight_matrix(g)
        y = diagonal_weight_vector(g)
        loc = local_matrix(g)
        for i in range(g.n):
            for j in range(g.n):
                expected = a[i, j] * qq - b[i, j] * qq2
                if i == j:
                    expected = expected - y[i] * qq2 + inv_qp1
                assert loc[i, j] == expected, (g, i, j)


def test_local_matrix_of_a_tree_is_the_bapat_lal_pati_q_laplacian():
    # the paper's tree case: L = (I - qA + q^2 (Delta - I)) / (1 + q), A the
    # adjacency and Delta the degree matrix (Bapat, Lal and Pati, "A q-analogue
    # of the distance matrix of a tree", Linear Algebra Appl. 416, 2006)
    trees = all_trees(8)
    assert len(trees) == 47
    for specs in trees:
        g = build(specs)
        dist = distances(g)
        loc = local_matrix(g)
        for i, row in enumerate(dist):
            degree = row.count(1)
            for j, d in enumerate(row):
                if i == j:
                    numerator = Polynomial((1, 0, degree - 1))
                else:
                    numerator = -Q if d == 1 else ZERO
                assert loc[i, j] == RationalFunction(numerator, QP1), (specs, i, j)


def test_inverse_at_matches_evaluated_graph_inverse_on_corpus():
    checked = 0
    for g in corpus_sample():
        for q0 in AT_POINTS:
            if check_conditions(g, q0).ok:
                assert_inverse_at_matches_symbolic(g, q0)
                checked += 1
    assert checked > 60


def test_inverse_at_pole_where_only_the_balance_constant_vanishes():
    # K_{1,2} with K_{2,2} glued on: at q = -5/3 no block condition fails,
    # yet the balance constant and the determinant are both zero
    g = build([BlockSpec(1, 2), BlockSpec(2, 2, graph_attach(0, "Y"))])
    q0 = Fraction(-5, 3)
    assert check_conditions(g, q0).ok
    assert balance_constant(g).eval_at(q0) == 0 == graph_det(g).eval_at(q0)
    with pytest.raises(PoleError):
        evaluated_inverse(g, q0)
    with pytest.raises(PoleError):
        inverse_at(g, q0)


def test_inverse_at_pole_where_a_cofactor_core_vanishes():
    # K_{2,2} at q = 1: its cofactor core q^2 - 1 vanishes (condition C1)
    g = single_block(2, 2)
    assert check_conditions(g, 1).violated("C1")
    with pytest.raises(PoleError):
        inverse_at(g, 1)


def test_inverse_at_property_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 10**6),
        r_max=st.integers(1, 6),
        part_max=st.integers(1, 4),
        q0=st.fractions(min_value=-4, max_value=4, max_denominator=9),
    )
    def prop(seed, r_max, part_max, q0):
        g = build(random_biblock(seed, r_max, part_max))
        hypothesis.assume(check_conditions(g, q0).ok)
        assert_inverse_at_matches_symbolic(g, q0)
        if balance_constant(g).eval_at(q0) == 0:
            return
        # D(q0) @ inverse_at(g, q0) = I, with D(q0) evaluated from distances alone
        d = [[e.eval_at(q0) for e in row] for row in q_distance_matrix(g).rows]
        inv = inverse_at(g, q0)
        for i in range(g.n):
            for j in range(g.n):
                assert sum(d[i][k] * inv[k][j] for k in range(g.n)) == (i == j)

    prop()


# -- shape counts and shared entries against the per-block reference ----------


def reference_balance_constant(g):
    acc = RF_ZERO
    for b in g.blocks:
        acc = acc + RationalFunction(det_core(b.m, b.n), QP1 * cofactor_core(b.m, b.n))
    return acc


def reference_membership_sums(g, term):
    """Entry at v built on its own: 1 - (block degree) plus one term per
    membership, term(block, opposite part size - 1)."""
    out = []
    for members in g.membership:
        entry = RationalFunction(1 - len(members))
        for index, side in members:
            b = g.blocks[index]
            entry = entry + term(b, (b.n if side == "X" else b.m) - 1)
        out.append(entry)
    return out


def reference_balance_vector(g):
    return reference_membership_sums(
        g, lambda b, t: RationalFunction(Q * t - 1, QP1 * cofactor_core(b.m, b.n))
    )


def reference_diagonal_weight_vector(g):
    return reference_membership_sums(
        g, lambda b, t: RationalFunction(Polynomial((t,)), cofactor_core(b.m, b.n))
    )


def json_bytes(values) -> str:
    return json.dumps([v.to_json() for v in values])


def test_shape_grouped_forms_match_the_per_block_reference():
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    assert len(graphs) == 176
    for g in graphs:
        det, cof = graph_det(g), graph_cofactor(g)
        assert det == reference_graph_det(g), g
        assert str(det) == str(reference_graph_det(g))
        assert json.dumps(det.to_json()) == json.dumps(reference_graph_det(g).to_json())
        assert json.dumps(cof.to_json()) == json.dumps(reference_graph_cofactor(g).to_json()), g
        assert json_bytes([balance_constant(g)]) == json_bytes([reference_balance_constant(g)]), g
        assert json_bytes(balance_vector(g)) == json_bytes(reference_balance_vector(g)), g
        assert json_bytes(diagonal_weight_vector(g)) == json_bytes(
            reference_diagonal_weight_vector(g)
        ), g


def test_factored_det_and_cofactor_match_the_per_block_reference_on_many_cores():
    g = build(random_biblock(9, 400, 4))
    assert g.n == 938
    assert len({(m - 1) * (n - 1) for m, n in _shapes(g)}) == 7
    assert graph_det(g) == reference_graph_det(g)
    assert graph_cofactor(g) == reference_graph_cofactor(g)


def test_factored_det_and_cofactor_on_a_long_path_match_the_tree_closed_form():
    # det = (-1)^(n-1) (n-1) (q+1)^(n-2) and xi = (-1)^(n-1) (q+1)^(n-1)
    n = 2000
    g = build(path_tree(n))
    sign = (-1) ** (n - 1)
    assert graph_det(g).coeffs == tuple(sign * (n - 1) * comb(n - 2, i) for i in range(n - 1))
    assert graph_cofactor(g).coeffs == tuple(sign * comb(n - 1, i) for i in range(n))


FACTORED_POINTS = (0, Fraction(2, 7), Fraction(-3, 5), Fraction(5, 3), 1, Fraction(1, 2))


def test_factored_values_at_q0_match_the_expanded_values():
    # det_at, cofactor_at and lambda --at against the expanded symbolic
    # values, at points where some core vanishes with exponent 0 in F (a
    # lone K_{2,2} at q0 = 1) and with a positive exponent (two K_{2,2})
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    vanishing = set()
    for g in graphs:
        forms = ClearedForms(g)
        det, cofactor, lam = graph_det(g), graph_cofactor(g), balance_constant(g)
        for q0 in FACTORED_POINTS:
            pairs = [(forms.det_at(q0), det), (forms.cofactor_at(q0), cofactor)]
            if not check_conditions(g, q0).violated("C1"):
                pairs.append((_lambda_at(g, q0)["value"][0][0], lam))
            for got, symbolic in pairs:
                want = symbolic.eval_at(q0)
                assert (type(got), got) == (type(want), want), (g.specs, q0)
            vanishing |= {p > 0 for e, p in forms._factors if not Polynomial(e).eval_at(q0)}
    assert vanishing == {False, True}


def test_shared_sign_counts_each_block_with_a_constant_cofactor_core():
    # a K_{1,t} block has a = 0 and the cofactor core -1, which P leaves
    # out, so sigma' carries one more sign per such block; the K_{1,t} shapes
    # and the repeated a != 0 shapes are chosen with both parities of m + n
    constant = [(1, 1), (1, 2), (2, 1)]
    repeated = [[], [(2, 2), (2, 2)], [(2, 3), (3, 2), (2, 2), (3, 3), (3, 3), (2, 3)]]
    for c0 in range(4):
        for others in repeated:
            shapes = constant[:c0] + others
            if not shapes:
                continue
            specs = [BlockSpec(*shapes[0])]
            specs += [BlockSpec(m, n, graph_attach(0, "Y")) for m, n in shapes[1:]]
            g = build(specs)
            assert graph_det(g) == reference_graph_det(g), shapes
            assert graph_cofactor(g) == reference_graph_cofactor(g), shapes


def test_factored_det_and_cofactor_property_on_random_shapes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        blocks=st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**6), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    def prop(blocks):
        specs, count = [], 0
        for m, n, vertex, side in blocks:
            attach = graph_attach(vertex % count, "X" if side else "Y") if specs else None
            specs.append(BlockSpec(m, n, attach))
            count += m + n - (1 if attach else 0)
        g = build(specs)
        assert graph_det(g) == reference_graph_det(g)
        assert graph_cofactor(g) == reference_graph_cofactor(g)

    prop()


def test_vector_entries_are_shared_per_membership_signature():
    for g in formulas_large_graphs() + corpus_sample():
        signatures = [
            tuple(sorted((g.blocks[i].m, g.blocks[i].n, side) for i, side in members))
            for members in g.membership
        ]
        for vector in (balance_vector(g), diagonal_weight_vector(g)):
            by_signature = {}
            for signature, entry in zip(signatures, vector):
                assert by_signature.setdefault(signature, entry) is entry, (g, signature)
            assert len({id(e) for e in vector}) <= len(by_signature)
    # 58 signatures, sorted (own part, other part) pairs, among the 299
    # vertices of the largest benchmark graph, and 38 distinct values of x
    g = build(random_biblock(23, 100, 3))
    sizes = [{"X": (b.m, b.n), "Y": (b.n, b.m)} for b in g.blocks]
    signatures = {tuple(sorted(sizes[i][side] for i, side in members)) for members in g.membership}
    assert len(signatures) == 58
    assert len({id(e) for e in balance_vector(g)}) == 38


def test_equal_cleared_entries_are_one_object():
    # x, y and local number their entries by value, so that every consumer
    # (canonicalisation, rendering) meets each value once, and the public
    # wrappers give equal entries one object
    for g in [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs():
        forms = ClearedForms(g)
        for values, _ in (forms.x, forms.y, forms.local):
            assert len({tuple(v) for v in values}) == len(values), g
        local = [e for row in local_matrix(g).rows for e in row]
        for entries in (balance_vector(g), diagonal_weight_vector(g), local):
            assert len({id(e) for e in entries}) == len(set(entries)), g


def test_every_cleared_vector_and_matrix_is_one_values_index_form():
    # x, y and local are (values, index): pairwise distinct values, each one
    # used, expanding to the per-vertex lists and the dict of nonzero local
    # entries of the rational-function route; local's value 0 is (), unused
    # where no entry is zero, and value 0 of x and y is vertex 0's
    for g in [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs():
        forms, ref = ClearedForms(g), ReferenceClearedForms(g)
        (x, x_index), (y, y_index), (local, local_index) = forms.x, forms.y, forms.local
        for values, rows in ((x, [x_index]), (y, [y_index]), (local, local_index)):
            assert len({tuple(v) for v in values}) == len(values), g
            assert {0, *(k for row in rows for k in row)} == set(range(len(values))), g
        assert [list(x[k]) for k in x_index] == ref.x, g
        want_y = [_fastpoly.cleared(e, forms.product) for e in reference_y(g)]
        assert [list(y[k]) for k in y_index] == want_y, g
        nonzero = {
            (i, j): tuple(local[k])
            for i, row in enumerate(local_index)
            for j, k in enumerate(row)
            if k
        }
        want = {(i, j): tuple(e) for i, row in enumerate(ref.local) for j, e in enumerate(row) if e}
        assert nonzero == want, g


def test_clearing_poly_clears_every_entry_over_distinct_cores():
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()[2:]
    for g in graphs:
        delta = clearing_poly(g)
        distinct = {(b.m - 1) * (b.n - 1) for b in g.blocks} - {0}
        assert delta.degree == 1 + 2 * len(distinct), g
        delta_int = list(delta.coeffs)
        local = {e for row in local_matrix(g).rows for e in row}
        for value in [balance_constant(g), *balance_vector(g), *local]:
            # raises ArithmeticError unless value * delta has integer coefficients
            _fastpoly.cleared(value, delta_int)


def assert_cleared_forms_match_the_reference(g):
    forms, ref = ClearedForms(g), ReferenceClearedForms(g)
    assert forms.delta == ref.delta, g
    assert forms.lam == ref.lam and forms.inverse_den == ref.inverse_den, g
    values, index = forms.x
    assert [list(values[k]) for k in index] == ref.x, g
    values, index = forms.y
    want_y = [_fastpoly.cleared(e, forms.product) for e in reference_y(g)]
    assert [list(values[k]) for k in index] == want_y, g
    values, index = forms.local
    assert [[list(values[k]) for k in row] for row in index] == ref.local, g
    numerators, index = forms.inverse
    assert [[numerators[k] for k in row] for row in index] == ref.inverse, g


def test_cleared_forms_match_the_rational_function_route():
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    assert len(graphs) == 176
    for g in graphs:
        assert_cleared_forms_match_the_reference(g)


def test_shared_rational_functions_match_the_fraction_reference():
    # every distinct value of x, y, local, inverse and lam, each form
    # reduced over its shared denominator
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    assert len(graphs) == 176
    for g in graphs:
        forms = ClearedForms(g)
        for values, den in (
            (forms.x[0], forms.delta),
            (forms.y[0], forms.product),
            (forms.local[0], forms.delta),
            (forms.inverse[0], forms.inverse_den),
            ([forms.lam], forms.delta),
        ):
            for value, rf in zip(values, _shared_rfs(values, den)):
                assert_rf_matches_the_reference(rf, list(value), den)


def test_json_text_of_every_distinct_value_matches_to_json():
    # the text the formula commands print for each distinct x, y, lambda,
    # inverse, det and xi value is the compact, key-sorted dump of to_json
    compact = lambda v: json.dumps(v.to_json(), sort_keys=True, separators=(",", ":"))
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    assert len(graphs) == 176
    for g in graphs:
        forms = ClearedForms(g)
        values = [graph_det(g), graph_cofactor(g)]
        values += _shared_rfs(forms.x[0], forms.delta) + _shared_rfs(forms.y[0], forms.product)
        values += _shared_rfs([forms.lam], forms.delta)
        if forms.lam:
            values += _inverse_form(g)[0]
        for value in values:
            assert value._json_text() == compact(value), g


def test_integer_at_route_matches_the_fraction_formula():
    # inverse_at and values_at read each cleared list as an integer over one
    # power of q0's denominator; the reference evaluates each list in Fractions
    # and takes (x_a x_b - L_l lambda) / (delta lambda) of the cleared values
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    demoted_type = lambda value: int if value.denominator == 1 else Fraction
    poles = 0
    for g in graphs:
        forms = ClearedForms(g)
        (x, x_index), (local, local_index) = forms.x, forms.local
        for q0 in (Fraction(2, 7), Fraction(-3, 5), 1, Fraction(-1, 2), Fraction(5, 3)):
            at = lambda value: Fraction(Polynomial(value).eval_at(q0))
            delta, lam = at(forms.delta), at(forms.lam)
            for values, den in ((x, forms.delta), (forms.y[0], forms.product), ([forms.lam], forms.delta)):
                if at(den) == 0:
                    continue
                got = values_at(values, den, q0)
                want = [at(v) / at(den) for v in values]
                assert got == want, (g, q0)
                assert list(map(type, got)) == list(map(demoted_type, want)), (g, q0)
            if delta == 0 or lam == 0:
                poles += 1
                with pytest.raises(PoleError):
                    inverse_at(g, q0)
                continue
            x_at, local_at, want = list(map(at, x)), list(map(at, local)), {}
            for i, row in enumerate(inverse_at(g, q0)):
                for j, value in enumerate(row):
                    a, b, l = x_index[i], x_index[j], local_index[i][j]
                    if (a, b, l) not in want:
                        want[a, b, l] = (x_at[a] * x_at[b] - local_at[l] * lam) / (delta * lam)
                    assert value == want[a, b, l] and type(value) is demoted_type(want[a, b, l])
    assert poles > 0  # q0 = 1 is a root of K_{2,2}'s cofactor core


def test_inverse_rows_match_the_reference_routine():
    # the cell values and the distinct count of the routine that keyed every
    # local cell, on the corpus, the formulas_large graphs and K_{s,t}
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    graphs += [single_block(s, t) for s in range(1, 7) for t in range(1, 7)]
    key = lambda a, b, l: (a, b, l)
    for g in graphs:
        forms = ClearedForms(g)
        values, index = _inverse_rows(forms, key)
        want_values, want_index = reference_inverse_rows(forms, key)
        assert len(values) == len(want_values), g
        assert [[values[k] for k in row] for row in index] == [
            [want_values[k] for k in row] for row in want_index
        ], g


def test_inverse_has_one_numerator_per_distinct_key():
    # entry (i, j) depends only on x_i, x_j and L_ij; every numerator is used
    counts = []
    for g in formulas_large_graphs():
        forms = ClearedForms(g)
        numerators, index = forms.inverse
        (x, x_index), (local, local_index) = forms.x, forms.local
        x = [x[k] for k in x_index]
        keys = {
            (frozenset((x[i], x[j])), local[local_index[i][j]])
            for i in range(g.n)
            for j in range(g.n)
        }
        assert {k for row in index for k in row} == set(range(len(numerators))), g
        assert len(numerators) == len(keys), g
        counts.append(len(numerators))
    assert counts == [949, 945, 266, 55]


def test_cleared_forms_match_the_rational_function_route_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 10**6), r_max=st.integers(1, 8), part_max=st.integers(1, 5)
    )
    def prop(seed, r_max, part_max):
        assert_cleared_forms_match_the_reference(build(random_biblock(seed, r_max, part_max)))

    prop()


# -- identity suite on small graphs, straight rational-function route ---------


def small_corpus():
    yield single_block(1, 1)
    yield single_block(1, 2)
    yield single_block(2, 2)
    yield build(path_tree(4))
    yield build(star_tree(5))
    yield build(random_biblock(21, 3, 2))


def test_matrix_times_balance_vector_is_constant():
    for g in small_corpus():
        d = rf_matrix(q_distance_matrix(g))
        x = balance_vector(g)
        lam = balance_constant(g)
        for i in range(g.n):
            acc = RF_ZERO
            for j in range(g.n):
                acc = acc + d[i, j] * x[j]
            assert acc == lam


def test_balance_vector_sum():
    for g in small_corpus():
        x = balance_vector(g)
        lam = balance_constant(g)
        total = RF_ZERO
        for entry in x:
            total = total + entry
        assert total == 1 - (Q - 1) * lam


def test_anchor_sums():
    for g in small_corpus():
        d = rf_matrix(q_distance_matrix(g))
        x = balance_vector(g)
        anchor = g.n - 1
        weighted = RF_ZERO
        affine = RF_ZERO
        for i in range(g.n):
            weighted = weighted + (RationalFunction(1 + Q) + (Q**2 - 1) * d[i, anchor]) * x[i]
            affine = affine + (RF_ONE + (Q - 1) * d[i, anchor]) * x[i]
        assert weighted == RationalFunction(QP1)
        assert affine == RF_ONE


def test_anchor_sums_are_anchor_free_on_trees():
    # empirically the anchor vertex does not matter; exercised on trees
    for specs in (path_tree(5), star_tree(5), random_tree(3, 6)):
        g = build(specs)
        d = rf_matrix(q_distance_matrix(g))
        x = balance_vector(g)
        for anchor in range(g.n):
            weighted = RF_ZERO
            for i in range(g.n):
                weighted = weighted + (RationalFunction(1 + Q) + (Q**2 - 1) * d[i, anchor]) * x[i]
            assert weighted == RationalFunction(QP1)


def test_local_matrix_product_identity():
    for g in small_corpus():
        d = rf_matrix(q_distance_matrix(g))
        loc = local_matrix(g)
        x = balance_vector(g)
        eye = identity(g.n, RF_ZERO, RF_ONE)
        ones = [RF_ONE] * g.n
        from qbiblock.matrix import outer

        assert d @ loc + eye == outer(ones, x)


# -- admissibility ------------------------------------------------------------


def test_conditions_k22_at_one():
    g = single_block(2, 2)
    check = check_conditions(g, 1)
    assert check.violated("C1") and check.violated("C2")
    assert graph_det(g).eval_at(1) == 0


def test_conditions_minus_one_everywhere():
    for g in (single_block(1, 1), single_block(3, 2), build(path_tree(4))):
        check = check_conditions(g, -1)
        assert check.violated("C1") and check.violated("C2")
        assert len(check.violations) == 2 * len(g.blocks)


def test_integer_conditions_match_the_fraction_reference():
    # points where each condition holds: K_{2,2} violates C1 and C2 at 1 and
    # C2 alone at -3, K_{3,3} C1 at +-1/2, K_{2,9} C2 at 1/2 and -5/2
    points = (1, -1, -3, 0, 2) + tuple(map(Fraction, ("1/2", "-1/2", "-5/2", "2/7", "-3/2")))
    k29_k11 = build([BlockSpec(2, 9), BlockSpec(1, 1, graph_attach(0, "X"))])
    graphs = [build(specs) for _, specs in default_corpus(7)] + formulas_large_graphs()
    graphs += [single_block(2, 2), single_block(3, 3), k29_k11]
    seen = set()
    for g in graphs:
        for q0 in points:
            check = check_conditions(g, q0)
            assert check == reference_check_conditions(g, q0), (g.specs, q0)
            seen.update((v.condition, q0) for v in check.violations)
    assert {("C1", 1), ("C2", 1), ("C2", -3), ("C1", Fraction(1, 2)), ("C1", Fraction(-1, 2))} <= seen
    assert {("C2", Fraction(1, 2)), ("C2", Fraction(-5, 2)), ("C1", -1), ("C2", -1)} <= seen


def test_conditions_k11_at_one():
    check = check_conditions(single_block(1, 1), 1)
    assert check.ok
