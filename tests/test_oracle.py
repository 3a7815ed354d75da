from __future__ import annotations

import functools
import itertools
import math
import random

import pytest
from helpers import (
    center_tree_code,
    cofactor_rows,
    first_of_class_trees,
    inverse_gauss,
    int_rows,
    oracle_large_graphs,
    parent_det_and_cofactor,
    parent_differenced,
    rf_matrix,
    rowcol_cofactor_matrix,
    separate_det_and_cofactor,
    vertex0_det_and_cofactor,
)

from qbiblock import _fastpoly, _moddet, closedform, oracle
from qbiblock.exactring import Polynomial, Q
from qbiblock.graph import (
    BlockSpec,
    build,
    distances,
    path_tree,
    random_biblock,
    random_tree,
    star_tree,
)
from qbiblock.matrix import DimensionError, RingMatrix, det_bareiss
from qbiblock.oracle import (
    CheckResult,
    all_trees,
    default_corpus,
    oracle_cofactor,
    oracle_det,
    oracle_det_and_cofactor,
    oracle_inverse,
    verify_corpus,
    verify_graph,
)
from qbiblock.qdist import (
    bfs_parents,
    bordered_rows,
    cofactor_matrix,
    q_distance_matrix,
    q_distance_rows,
    row_references,
)

QP1 = Q + 1


def test_oracle_det_examples():
    assert oracle_det(build([BlockSpec(1, 1)])) == Polynomial((-1,))
    assert oracle_det(build(path_tree(3))) == 2 * QP1
    assert oracle_det(build(star_tree(4))) == -3 * QP1**2


def test_oracle_cofactor_examples():
    assert oracle_cofactor(build([BlockSpec(1, 1)])) == -QP1
    assert oracle_cofactor(build(path_tree(3))) == QP1**2
    assert oracle_cofactor(build([BlockSpec(2, 1)])) == QP1**2


def test_oracle_det_and_cofactor_match_sympy_domain_matrix():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    q = sympy.symbols("q")
    ring = sympy.ZZ[q]

    def to_ring(p: Polynomial):
        return ring.from_sympy(sum(c * q**i for i, c in enumerate(p.coeffs)))

    def sympy_det(m):
        rows = [[to_ring(e) for e in row] for row in m.rows]
        return DomainMatrix(rows, (m.nrows, m.ncols), ring).det()

    corpus = dict(default_corpus())
    for name in ("tree_8v_30", "K_5_5", "random_000", "random_001", "random_002", "random_004"):
        g = build(corpus[name])
        qmat = q_distance_matrix(g)
        assert to_ring(oracle_det(g)) == sympy_det(qmat), name
        assert to_ring(oracle_cofactor(g)) == sympy_det(cofactor_matrix(qmat, distances(g))), name


def test_differenced_oracles_match_generic_bareiss_on_the_undifferenced_matrices():
    # generic Bareiss over the Polynomial ring: no Kronecker readout, no row
    # differencing; it is slow past 20 vertices, where the full corpus run
    # is left to a one-off script
    small = [item for item in default_corpus(7) if vertex_count(item[1]) <= 20]
    sample = random.Random(344).sample(small, 14)
    for name, specs in sample:
        g = build(specs)
        qmat = q_distance_matrix(g)
        assert oracle_det(g) == det_bareiss(qmat), name
        cof = cofactor_matrix(qmat, distances(g))
        assert oracle_cofactor(g) == det_bareiss(cof), name


def vertex_count(specs) -> int:
    return 1 + sum(b.m + b.n - 1 for b in specs)


def mid_size_biblock(seed: int) -> list:
    """The first random_biblock(s, 16, 3) with 30 to 40 vertices, s from seed on."""
    for s in itertools.count(seed):
        specs = random_biblock(s, 16, 3)
        if 30 <= vertex_count(specs) <= 40:
            return specs


def test_closed_forms_match_oracles_on_mid_size_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=8, deadline=None)
    @hypothesis.given(seed=hypothesis.strategies.integers(0, 10**6))
    def prop(seed):
        g = build(mid_size_biblock(seed))
        assert 30 <= g.n <= 40
        assert closedform.graph_det(g) == oracle_det(g)
        assert closedform.graph_cofactor(g) == oracle_cofactor(g)

    prop()


def test_oracle_matches_the_separate_routes_on_the_corpus():
    corpus = default_corpus(7)
    assert len(corpus) == 172
    for name, specs in corpus:
        g = build(specs)
        assert oracle_det_and_cofactor(g) == separate_det_and_cofactor(g), name


def test_oracle_matches_the_separate_routes_on_the_oracle_large_graphs():
    for g in oracle_large_graphs():
        assert oracle_det_and_cofactor(g) == separate_det_and_cofactor(g), g.n


def test_oracle_matches_the_separate_routes_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(seed=st.integers(0, 10**6), blocks=st.integers(1, 7), part=st.integers(1, 4))
    def prop(seed, blocks, part):
        g = build(random_biblock(seed, blocks, part))
        assert oracle_det_and_cofactor(g) == separate_det_and_cofactor(g)

    prop()


def permuted(dist: list[list[int]], order: list[int]) -> list[list[int]]:
    """The distance table with its vertices renumbered, order[i] becoming i."""
    return [[dist[u][v] for v in order] for u in order]


def test_centre_rooted_oracle_matches_the_vertex0_route():
    # on the corpus and the oracle_large graphs as built, and under three
    # seeded renumberings, which move vertex 0 and shuffle every level
    graphs = [(name, build(specs)) for name, specs in default_corpus(7)]
    graphs += [(f"oracle_large_{g.n}", g) for g in oracle_large_graphs()]
    assert len(graphs) == 175
    for name, g in graphs:
        dist = distances(g)
        want = vertex0_det_and_cofactor(dist)
        assert oracle._det_and_cofactor(dist) == want, name
        for seed in (1, 2, 3):
            order = random.Random(f"{name}:{seed}").sample(range(g.n), g.n)
            assert oracle._det_and_cofactor(permuted(dist, order)) == want, (name, seed)


def test_twin_differenced_oracle_matches_the_parent_only_route():
    # the oracle's rows less a twin's row where there is one, against the
    # bordered rows at vertex 0 less their BFS parents' rows alone
    graphs = [build(specs) for _, specs in default_corpus(7)] + oracle_large_graphs()
    graphs += [build([BlockSpec(s, s)]) for s in range(1, 13)]
    graphs += [build([BlockSpec(1, t)]) for t in range(1, 21)]
    assert len(graphs) == 207
    twin_rows = 0
    for g in graphs:
        dist = distances(g)
        refs = row_references(dist, bfs_parents(dist))
        twin_rows += sum(dist[u][r] == 2 for u, r in enumerate(refs))
        assert oracle._det_and_cofactor(dist) == parent_det_and_cofactor(dist), g.n
    assert twin_rows > len(graphs)


def test_bordered_determinant_does_not_depend_on_the_root():
    # det D is kept by any renumbering; the cofactor read past q^M is
    # det D * a^T D^-1 1 with a_v = q^d(r, v), the same for every root r
    small = [(name, build(specs)) for name, specs in default_corpus(7)]
    small = [(name, g) for name, g in small if g.n <= 12]
    assert len(small) > 100
    for name, g in small:
        dist = distances(g)
        want = vertex0_det_and_cofactor(dist)
        for root in range(1, g.n):
            order = [root] + [v for v in range(g.n) if v != root]
            assert vertex0_det_and_cofactor(permuted(dist, order)) == want, (name, root)


def test_oracle_roots_at_a_centre_and_orders_rows_by_level(monkeypatch):
    seen = []

    def recording(dist):
        seen.append(dist)
        return bordered_rows(dist)

    monkeypatch.setattr(oracle, "bordered_rows", recording)
    g = build(path_tree(9))
    dist = distances(g)
    assert oracle_det_and_cofactor(g) == tuple(map(Polynomial, vertex0_det_and_cofactor(dist)))
    (rooted,) = seen
    assert rooted[0] == [0, 1, 1, 2, 2, 3, 3, 4, 4] == sorted(dist[4])
    assert rooted == permuted(dist, [4, 3, 5, 2, 6, 1, 7, 0, 8])
    # a broom, the path 0-1-2-3-4 with leaves 5-8 on vertex 4: of the two
    # centres, 2 and 3, vertex 3 has the least distance sum (15 against 18);
    # each level goes by distance sum, 4 (14) before 2 (18), the leaves
    # (21) before 1 (23)
    g = build(path_tree(5) + [BlockSpec(1, 1, graph_attach(4))] * 4)
    dist = distances(g)
    assert oracle_det_and_cofactor(g) == tuple(map(Polynomial, vertex0_det_and_cofactor(dist)))
    assert seen[1] == permuted(dist, [3, 4, 2, 5, 6, 7, 8, 1, 0])


def test_degree_bound_exceeds_the_determinant_degree_on_the_corpus():
    for name, specs in default_corpus(7):
        g = build(specs)
        _, m = bordered_rows(distances(g))
        assert oracle_det(g).degree < m, name


def test_corner_split_on_single_blocks_stars_and_paths():
    # K_{1,1} is the 2 x 2 bordered matrix [[-(1+q), 1], [1, q^2]]
    assert oracle_det_and_cofactor(build([BlockSpec(1, 1)])) == (Polynomial((-1,)), -QP1)
    graphs = [[BlockSpec(1, t)] for t in range(1, 7)] + [star_tree(k) for k in (2, 3, 5, 9)]
    for specs in graphs:
        g = build(specs)
        assert oracle_det_and_cofactor(g) == separate_det_and_cofactor(g), specs
        assert oracle_det_and_cofactor(g) == (closedform.graph_det(g), closedform.graph_cofactor(g))
    # a tree on n vertices: det = (-1)^(n-1) (n-1) (q+1)^(n-2), cofactor (-1)^(n-1) (q+1)^(n-1)
    n = 40
    det, cof = oracle_det_and_cofactor(build(path_tree(n)))
    assert det == Polynomial([-(n - 1) * math.comb(n - 2, i) for i in range(n - 1)])
    assert cof == Polynomial([-math.comb(n - 1, i) for i in range(n)])


def test_corner_split_with_a_negative_leading_determinant_coefficient():
    # a negative lead below the corner must not borrow from the cofactor's digits
    graphs = [[BlockSpec(2, 3)], [BlockSpec(3, 4)], [BlockSpec(2, 2), BlockSpec(2, 3, graph_attach(0))]]
    for specs in graphs:
        g = build(specs)
        det, cof = oracle_det_and_cofactor(g)
        assert det.coeffs[-1] < 0, specs
        assert (det, cof) == separate_det_and_cofactor(g), specs
        assert (det, cof) == (closedform.graph_det(g), closedform.graph_cofactor(g)), specs


def test_a_wrong_closed_form_fails_only_its_own_check(monkeypatch):
    specs = [BlockSpec(2, 2), BlockSpec(1, 3, graph_attach(1))]
    for name, check in (("det", "det_vs_oracle"), ("cofactor", "cofactor_vs_oracle")):
        with monkeypatch.context() as patch:
            real = getattr(closedform.ClearedForms, name).func
            wrong = property(lambda forms, real=real: _fastpoly.padd(real(forms), [0, 1]))
            patch.setattr(closedform.ClearedForms, name, wrong)
            report = verify_graph(specs, "faulty")
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == [check] and failed[0].witness, name
        assert len(report.checks) == len(oracle._CHECK_NAMES)


def test_both_oracle_checks_share_one_determinant(monkeypatch):
    # verify_graph reads the oracle off the one distance table it builds
    calls = {"_det_and_cofactor": 0, "distances": 0}
    counting_wrappers(monkeypatch, calls, oracle)
    expansions = {"det": 0, "cofactor": 0}
    counting_properties(monkeypatch, expansions, closedform.ClearedForms)
    engine = {"det_int_poly_matrix": 0}
    counting_wrappers(monkeypatch, engine, _moddet)
    specs = random_biblock(5, 4, 3)
    assert verify_graph(specs, "g").passed
    expected = {"_det_and_cofactor": 1, "distances": 1, "det": 1, "cofactor": 1}
    assert {**calls, **expansions} == expected
    assert engine == {"det_int_poly_matrix": 1}
    calls.update(dict.fromkeys(calls, 0))
    expansions.update(dict.fromkeys(expansions, 0))
    report = verify_graph(specs, "g", select=["cofactor_vs_oracle"])
    assert [c.name for c in report.checks] == ["cofactor_vs_oracle"] and report.passed
    assert {**calls, **expansions} == {**expected, "det": 0}


@pytest.mark.parametrize("select", [["nope"], ["det_vs_oracle", "nope"]])
def test_verify_graph_rejects_unknown_check_names(select):
    with pytest.raises(ValueError, match=r"unknown check names: \['nope'\]"):
        verify_graph(path_tree(3), "p3", select=select)


def one_norm(e: list[int]) -> int:
    return sum(map(abs, e))


def test_integer_rows_equal_the_ring_matrices_on_the_corpus():
    # the second route's integer lists against the Polynomial constructions,
    # both cofactor routes
    corpus = default_corpus(7)
    assert len(corpus) == 172
    for name, specs in corpus:
        g = build(specs)
        dist = distances(g)
        qmat = q_distance_matrix(g)
        assert q_distance_rows(dist) == int_rows(qmat), name
        cof = cofactor_rows(dist)
        assert cof == int_rows(cofactor_matrix(qmat, dist)), name
        assert cof == int_rows(rowcol_cofactor_matrix(qmat, dist)), name


def test_parent_differenced_subtracts_each_parent_row_and_leaves_small_entries():
    # expected rows come from Polynomial subtraction on the ring matrices
    for seed in range(8):
        g = build(random_biblock(seed, 6, 3))
        dist = distances(g)
        parents = bfs_parents(dist)
        qmat = q_distance_matrix(g)
        diffed = parent_differenced(q_distance_rows(dist), dist)
        assert diffed[0] == int_rows(qmat)[0]
        for i in range(1, g.n):
            expected = [a - b for a, b in zip(qmat.rows[i], qmat.rows[parents[i]])]
            assert diffed[i] == [list(e.coeffs) for e in expected]
            # 0 or +-q^m
            assert all(one_norm(e) <= 1 for e in diffed[i])
        # the cofactor matrix drops vertex 0, so rows whose parent is 0 stay
        cof = cofactor_matrix(qmat, dist)
        cof_diffed = parent_differenced(cofactor_rows(dist), dist)
        for i in range(1, g.n):
            p = parents[i]
            row = cof.rows[i - 1]
            expected = row if p == 0 else [a - b for a, b in zip(row, cof.rows[p - 1])]
            assert cof_diffed[i - 1] == [list(e.coeffs) for e in expected]
            assert all(one_norm(e) <= 2 for e in cof_diffed[i - 1])


def test_parent_differenced_rejects_mismatched_sizes():
    dist = distances(build(path_tree(4)))
    with pytest.raises(DimensionError):
        parent_differenced(q_distance_rows(dist), distances(build(path_tree(6))))


def test_oracle_inverse_examples():
    g = build([BlockSpec(1, 1)])
    assert oracle_inverse(g) == rf_matrix(q_distance_matrix(g))  # the 2x2 swap is an involution
    g12 = build([BlockSpec(1, 2)])
    assert oracle_inverse(g12) == closedform.block_inverse(1, 2)
    g_random = build(random_biblock(5, 3, 2))
    assert oracle_inverse(g_random) == closedform.graph_inverse(g_random)


def test_oracle_inverse_matches_rational_function_gauss_jordan():
    # the adjugate over its determinant against field elimination on the
    # ring matrix: 9 blocks, 13 trees and the 41 random corpus graphs with
    # n <= 10
    blocks = [[BlockSpec(s, t)] for s in range(1, 4) for t in range(1, 4)]
    randoms = [specs for name, specs in default_corpus(7) if name.startswith("random")]
    graphs = [build(specs) for specs in blocks + list(all_trees(6)) + randoms]
    graphs = [g for g in graphs if g.n <= 10]
    assert len(graphs) == 9 + 13 + 41
    for g in graphs:
        assert oracle_inverse(g) == inverse_gauss(rf_matrix(q_distance_matrix(g))), g.n


def test_verify_single_edge_all_checks_pass():
    report = verify_graph([BlockSpec(1, 1)], "K_1_1")
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == list(oracle._CHECK_NAMES)
    assert all(c.witness is None for c in report.checks)


def test_verify_random_graph_passes():
    report = verify_graph(random_biblock(1, 4, 3), "seeded")
    assert report.passed


@pytest.mark.parametrize(
    "specs, n",
    [(random_tree(3, 60), 60), (random_biblock(5, 30, 3), 51)],
    ids=["random_tree_60", "random_biblock_30_blocks"],
)
def test_verify_passes_past_the_corpus_sizes(specs, n):
    # most of the elimination's row updates are skipped at these sizes; the
    # elimination comparison does not run past _ELIMINATION_COMPARE_MAX
    assert build(specs).n == n
    report = verify_graph(specs)
    assert [c.name for c in report.checks if c.passed] == list(oracle._CHECK_NAMES[:-1])


def test_verify_report_json_shape():
    report = verify_graph([BlockSpec(1, 2)], "K_1_2")
    payload = report.to_json()
    assert payload["graph"]["name"] == "K_1_2"
    assert payload["graph"]["blocks"] == [{"m": 1, "n": 2}]
    assert all(set(c) <= {"name", "pass", "witness"} for c in payload["checks"])
    assert all(c["pass"] for c in payload["checks"])


def test_sign_flip_is_isolated_to_det_and_cofactor_checks(monkeypatch):
    # flip sigma', the sign of the factor F that the det and the cofactor
    # share: both must fail, and no other cleared form reads that sign
    sign = closedform._sign
    monkeypatch.setattr(closedform, "_sign", lambda k: -sign(k))
    specs = [BlockSpec(1, 1), BlockSpec(2, 2, graph_attach(1))]
    report = verify_graph(specs, "flipped")
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"det_vs_oracle", "cofactor_vs_oracle"}
    witnesses = [c.witness for c in report.checks if not c.passed]
    assert all(w for w in witnesses)


def test_tree_enumeration_counts():
    # OEIS A000055 for n = 2..10, each tree in a class of its own under the
    # center-rooted encoding: no class is merged, split or missed
    trees = all_trees(10)
    counts: dict[int, int] = {}
    for tree in trees:
        n = len(tree) + 1
        counts[n] = counts.get(n, 0) + 1
    assert counts == {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
    codes = {center_tree_code((0,) + tuple(s.attach.vertex for s in tree[1:])) for tree in trees}
    assert len(codes) == len(trees) == 200
    assert all_trees(8) == trees[:47]


def test_tree_enumeration_matches_the_exhaustive_first_of_class_sweep():
    assert all_trees(8) == first_of_class_trees(8)


def test_default_corpus_composition():
    corpus = default_corpus(7)
    assert len(corpus) == 25 + 47 + 100
    names = [name for name, _ in corpus]
    assert len(set(names)) == len(names)
    assert default_corpus(7) == default_corpus(7)
    assert default_corpus(7) != default_corpus(8)


def test_verify_corpus_is_deterministic_and_pool_stable():
    corpus = default_corpus(3)[:6] + default_corpus(3)[-3:]
    sequential = verify_corpus(corpus, jobs=1)
    pooled = verify_corpus(corpus, jobs=2)
    again = verify_corpus(corpus, jobs=2)
    assert [r for r, _ in sequential] == [r for r, _ in pooled] == [r for r, _ in again]
    assert [r.name for r, _ in pooled] == [name for name, _ in corpus]
    assert all(ms >= 0.0 for _, ms in sequential + pooled)


def test_verify_small_sample_of_default_corpus():
    corpus = default_corpus(7)
    sample = corpus[:3] + corpus[25:28] + corpus[72:76]
    for name, specs in sample:
        report = verify_graph(specs, name)
        assert report.passed, [c for c in report.checks if not c.passed]


def test_elimination_comparison_runs_only_on_small_graphs():
    small = verify_graph([BlockSpec(2, 2)], "small")
    assert any(c.name == "inverse_vs_elimination" for c in small.checks)
    big = verify_graph([BlockSpec(5, 5), BlockSpec(5, 5, graph_attach(0))], "big")
    assert big.vertex_count > oracle._ELIMINATION_COMPARE_MAX
    assert not any(c.name == "inverse_vs_elimination" for c in big.checks)
    assert big.passed


def counting_wrappers(monkeypatch, calls: dict[str, int], module) -> None:
    """Replace each module.name in calls by a wrapper that counts its calls."""

    def counting(name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(module, name, counting(name))


def counting_properties(monkeypatch, calls: dict[str, int], cls) -> None:
    """Replace each cached property cls.name in calls by one that counts how
    often it is computed."""

    def counting(name):
        real = getattr(cls, name).func

        def wrapper(self):
            calls[name] += 1
            return real(self)

        prop = functools.cached_property(wrapper)
        prop.__set_name__(cls, name)
        return prop

    for name in calls:
        monkeypatch.setattr(cls, name, counting(name))


def test_skipped_elimination_comparison_builds_nothing(monkeypatch):
    calls = {"ClearedForms": 0}
    counting_wrappers(monkeypatch, calls, oracle)
    built = {"_core_quotients": 0, "_cleared_sums": 0, "_cleared_local": 0}
    counting_wrappers(monkeypatch, built, closedform)
    specs = random_biblock(5, 4, 3)
    assert build(specs).n == 12 > oracle._ELIMINATION_COMPARE_MAX
    report = verify_graph(specs, "n12", select=["inverse_vs_elimination"])
    assert report.checks == ()
    assert calls == {"ClearedForms": 0}
    assert built == {"_core_quotients": 0, "_cleared_sums": 0, "_cleared_local": 0}
    report = verify_graph(specs, "n12", select=["inverse_product", "inverse_vs_elimination"])
    assert [c.name for c in report.checks] == ["inverse_product"] and report.passed
    # _cleared_sums builds x and, for the local diagonal, y
    assert calls == {"ClearedForms": 1}
    assert built == {"_core_quotients": 1, "_cleared_sums": 2, "_cleared_local": 1}


def test_verify_graph_builds_the_clearing_poly_and_balance_constant_once(monkeypatch):
    # delta and the quotients R_a come from _core_quotients, Lambda from _cleared_lambda
    pieces = ("_core_quotients", "_cleared_lambda", "_cleared_sums", "_cleared_local")
    calls = dict.fromkeys(pieces, 0)
    counting_wrappers(monkeypatch, calls, closedform)
    for specs in ([BlockSpec(2, 2), BlockSpec(1, 3, graph_attach(1))], random_biblock(5, 4, 3)):
        report = verify_graph(specs, "g")
        assert report.passed and "inverse_product" in [c.name for c in report.checks]
        assert calls == dict(zip(pieces, (1, 1, 2, 1))), specs
        calls.update(dict.fromkeys(pieces, 0))


def first_rank_one_mismatch(dist, values, index, r, d):
    """The first failing entry of D B = 1 r^T + d I, read back through matmul."""
    b = [[list(values[t]) for t in row] for row in index]
    for i, row in enumerate(_moddet.matmul(q_distance_rows(dist), b)):
        for j, got in enumerate(row):
            if got != (_fastpoly.padd(r[j], d) if i == j else r[j]):
                return i, j, got
    return None


def rank_one_mismatches(dist, identities) -> list:
    """_moddet.rank_one_mismatch of each (values, index, r, d) in identities,
    all read off one distance_classes of dist."""
    shape = _moddet.distance_classes(dist)
    return [_moddet.rank_one_mismatch(shape, *identity) for identity in identities]


def rank_one_identities(g) -> list[tuple]:
    """verify's three identities D B = 1 r^T + d I of g, as (values, index, r, d)."""
    forms, n = closedform.ClearedForms(g), g.n
    values, index = forms.x
    return [
        (values, [[k] for k in index], [forms.lam], []),
        (*forms.local, [list(values[k]) for k in index], _fastpoly.pscale(forms.delta, -1)),
        (*forms.inverse, [[]] * n, forms.inverse_den),
    ]


def with_entries(values, index, cells, change) -> tuple[list, list[list[int]]]:
    """(values, index) with entry (i, j) of B replaced by change(B_ij) for each
    (i, j) in cells, each new entry a value of its own."""
    values, index = list(values), [row.copy() for row in index]
    for i, j in cells:
        values.append(change(list(values[index[i][j]])))
        index[i][j] = len(values) - 1
    return values, index


def test_rank_one_mismatch_agrees_with_the_matmul_readout():
    rng = random.Random(1618)
    for seed in range(8):
        g = build(random_biblock(seed, 3, 3))
        dist, n = distances(g), g.n
        identities = rank_one_identities(g)
        assert rank_one_mismatches(dist, identities) == [None] * 3
        # one entry of B, of r or of d off by a nonzero term
        changed = []
        for values, index, r, d in identities:
            term = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [rng.choice((-1, 1))]
            where = rng.choice(("b", "r", "d") if len(index[0]) == n else ("b", "r"))
            if where == "b":
                cell = rng.randrange(n), rng.randrange(len(index[0]))
                values, index = with_entries(values, index, [cell], lambda e: _fastpoly.padd(e, term))
            elif where == "r":
                r = bumped_list(r, rng.randrange(len(r)), term)
            else:
                d = _fastpoly.padd(d, term)
            changed.append((values, index, r, d))
        expected = [first_rank_one_mismatch(dist, *identity) for identity in changed]
        assert None not in expected
        assert rank_one_mismatches(dist, changed) == expected, seed


def test_rank_one_mismatch_on_the_oracle_large_graphs_and_a_long_path():
    # path_tree(40) has the most distance classes: 39 on its end rows
    path = distances(build(path_tree(40)))
    classes, row_norm, diameter = _moddet.distance_classes(path)
    assert (len(classes[0]), len(classes[20]), row_norm, diameter) == (39, 20, 780, 39)
    assert classes[0] == [[v] for v in range(1, 40)]
    rng = random.Random(2718)

    def negate(e):
        return _fastpoly.pscale(e, -1)

    def bump(e):
        return _fastpoly.padd(e, [rng.randint(-4, 4), rng.choice((-1, 1))])

    for g in [*oracle_large_graphs(), build(path_tree(40))]:
        dist, n = distances(g), g.n
        identities = rank_one_identities(g)
        assert rank_one_mismatches(dist, identities) == [None] * 3
        # D (-B) = 1 (-r)^T - d I holds with every slot of a row negated
        negated = [
            (list(map(negate, values)), index, list(map(negate, r)), negate(d))
            for values, index, r, d in identities
        ]
        assert rank_one_mismatches(dist, negated) == [None] * 3
        for values, index, r, d in identities:
            m = len(index[0])
            changed = [
                # the last row and the last column of B
                (*with_entries(values, index, [(n - 1, m - 1)], bump), r, d),
                # an all-zero column of B, the last
                (*with_entries(values, index, [(i, m - 1) for i in range(n)], lambda e: []), r, d),
                # -B against r and d
                (list(map(negate, values)), index, r, d),
                # the expected side alone
                (values, index, bumped_list(r, m - 1, [0, -1]), d),
            ]
            if m > 1:
                # two entries of one row; the diagonal term alone
                row = rng.randrange(n)
                cells = [(row, 0), (row, m - 1)]
                changed.append((*with_entries(values, index, cells, bump), r, d))
                changed.append((values, index, r, bump(d)))
            expected = [first_rank_one_mismatch(dist, *identity) for identity in changed]
            assert None not in expected
            assert rank_one_mismatches(dist, changed) == expected, (n, m)


def changed_property(monkeypatch, cls, name, change) -> None:
    """Replace the cached property cls.name by change(its value)."""
    real = getattr(cls, name).func
    prop = functools.cached_property(lambda self: change(real(self)))
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


def bumped_list(values: list, i: int, term: list[int]) -> list:
    values = list(values)
    values[i] = _fastpoly.padd(list(values[i]), term)
    return values


def bumped_vertex(form, i: int, term: list[int]) -> tuple[list, list[int]]:
    """A (values, index) vector with entry i plus term, no other entry changed."""
    values, index = form
    values, index = [*values, _fastpoly.padd(list(values[index[i]]), term)], index.copy()
    index[i] = len(values) - 1
    return values, index


def bumped_cell(i: int, j: int, term: list[int]):
    """Entry (i, j) of a (values, index) matrix plus term, no other entry changed."""

    def change(form):
        return with_entries(*form, [(i, j)], lambda e: _fastpoly.padd(e, term))

    return change


# the witness of each packed check with one closed-form entry off, on a
# 7-vertex graph; recorded from the entry-by-entry comparison that read every
# product back into coefficient lists, and for the three sums of x from the
# term-by-term sum of x and a two-row product for the anchor sums
WITNESS_PINS = [
    ("matrix_times_balance_is_constant", "x", lambda x: bumped_vertex(x, 2, [0, 1]),
     "row 0: -6 + 3q + 4q^2 != -6 + 2q + 4q^2"),
    ("local_matrix_product", "local", bumped_cell(1, 1, [0, 0, 1]),
     "entry (0,1): -1 + 4q + q^2 - 2q^3 != -1 + 4q - 3q^3"),
    ("local_matrix_product", "local", bumped_cell(1, 0, [0, 1]),
     "entry (0,0): -1 + 2q + q^2 != -1 + q"),
    ("inverse_product", "inverse", bumped_cell(2, 3, [1]), "entry (0,3): 1 != 0"),
    ("inverse_product", "inverse", bumped_cell(1, 0, [0, 0, 1]),
     "entry (0,0): 6 + 4q - 11q^2 - 7q^3 + 6q^4 + 4q^5 != 6 + 4q - 12q^2 - 8q^3 + 6q^4 + 4q^5"),
    ("inverse_vs_elimination", "inverse", bumped_cell(2, 3, [1]),
     "entry (2,3): 12 + 44q + 6q^2 - 180q^3 - 250q^4 + 76q^5 + 418q^6 + 276q^7 - 90q^8"
     " - 200q^9 - 96q^10 - 16q^11 != 6 + 16q - 40q^2 - 200q^3 - 220q^4 + 120q^5 + 440q^6"
     " + 280q^7 - 90q^8 - 200q^9 - 96q^10 - 16q^11"),
    ("inverse_vs_elimination", "inverse", bumped_cell(1, 0, [0, 0, 1]),
     "entry (1,0): 6 - 2q - 100q^2 - 208q^3 - 30q^4 + 344q^5 + 374q^6 + 20q^7 - 208q^8"
     " - 150q^9 - 42q^10 - 4q^11 != 6 - 2q - 106q^2 - 236q^3 - 76q^4 + 324q^5 + 404q^6"
     " + 64q^7 - 186q^8 - 146q^9 - 42q^10 - 4q^11"),
    ("balance_vector_sum", "x", lambda x: bumped_vertex(x, 2, [0, 1]),
     "sum: -7 + 8q + 3q^2 - 3q^3 != -7 + 7q + 3q^2 - 3q^3"),
    ("balance_vector_sum", "x", lambda x: bumped_vertex(x, 4, [0, 0, -1]),
     "sum: -7 + 7q + 2q^2 - 3q^3 != -7 + 7q + 3q^2 - 3q^3"),
    ("anchor_weighted_sum", "x", lambda x: bumped_vertex(x, 2, [0, 1]),
     "anchor sum: -1 - 2q + 3q^3 + 2q^4 != -1 - 2q + 2q^3 + q^4"),
    ("anchor_affine_sum", "x", lambda x: bumped_vertex(x, 4, [0, 0, -1]),
     "anchor sum: -1 - q + q^2 + q^3 - q^4 != -1 - q + q^2 + q^3"),
]


@pytest.mark.parametrize("check, name, change, witness", WITNESS_PINS)
def test_packed_checks_render_the_pinned_witness(monkeypatch, check, name, change, witness):
    changed_property(monkeypatch, closedform.ClearedForms, name, change)
    specs = [BlockSpec(2, 2), BlockSpec(1, 3, graph_attach(1))]
    (result,) = verify_graph(specs, "g", select=[check]).checks
    assert (result.name, result.passed, result.witness) == (check, False, witness)


def bumped_numerator(form):
    """The inverse's first numerator plus q, in every cell that shares it."""
    values, index = form
    return [_fastpoly.padd(values[0], [0, 1]), *values[1:]], index


def repointed_cell(form):
    """Cell (1, 2) of the inverse's index pointing at another numerator."""
    values, index = form
    index = [row.copy() for row in index]
    index[1][2] = (index[1][2] + 1) % len(values)
    return values, index


# one corruption each: the numerators and the index leave the two identities
# that inverse_product is deduced from passing, x and the local matrix break one
INVERSE_CORRUPTIONS = [
    ("inverse", bumped_numerator, "local_matrix_product"),
    ("inverse", repointed_cell, "local_matrix_product"),
    ("x", lambda x: bumped_vertex(x, 2, [0, 1]), "matrix_times_balance_is_constant"),
    ("local", bumped_cell(1, 1, [0, 0, 1]), "local_matrix_product"),
]


@pytest.mark.parametrize("name, change, identity", INVERSE_CORRUPTIONS)
def test_deduced_inverse_product_fails_with_the_direct_witness(monkeypatch, name, change, identity):
    changed_property(monkeypatch, closedform.ClearedForms, name, change)
    for specs in ([BlockSpec(2, 2), BlockSpec(1, 3, graph_attach(1))], random_biblock(20, 14, 3)):
        report = {c.name: c for c in verify_graph(specs, "g").checks}
        (alone,) = verify_graph(specs, "g", select=["inverse_product"]).checks
        with monkeypatch.context() as patch:
            # the product route alone, as before the deduction
            patch.setattr(_moddet, "outer_form_holds", lambda *args: False)
            (direct,) = verify_graph(specs, "g", select=["inverse_product"]).checks
        assert not direct.passed and direct.witness, (name, specs)
        assert report["inverse_product"] == alone == direct, (name, specs)
        assert report[identity].passed == (name == "inverse"), (name, specs)


def test_deduced_inverse_product_passes_alone_and_skips_the_product(monkeypatch):
    calls = {"rank_one_mismatch": 0}
    counting_wrappers(monkeypatch, calls, _moddet)
    for name, specs in default_corpus(7):
        (result,) = verify_graph(specs, name, select=["inverse_product"]).checks
        assert result == CheckResult("inverse_product", True), name
    # the balance and local identities, and no product D N
    assert calls == {"rank_one_mismatch": 2 * 172}


def results_one_check_at_a_time(specs, name: str) -> tuple:
    """The CheckResult of each check of verify_graph, each from a run of its own."""
    return tuple(
        result
        for check in oracle._CHECK_NAMES
        for result in verify_graph(specs, name, select=[check]).checks
    )


def test_each_check_alone_matches_its_entry_of_the_full_run(monkeypatch):
    # a check reads only what it builds itself or what it shares with the
    # others, so running it alone changes nothing
    for name, specs in default_corpus(7)[:40]:
        assert results_one_check_at_a_time(specs, name) == verify_graph(specs, name).checks, name
    specs = [BlockSpec(2, 2), BlockSpec(1, 3, graph_attach(1))]
    for check, name, change, witness in WITNESS_PINS:
        with monkeypatch.context() as patch:
            changed_property(patch, closedform.ClearedForms, name, change)
            full = verify_graph(specs, "g").checks
            assert CheckResult(check, False, witness) in full, check
            assert results_one_check_at_a_time(specs, "g") == full, check


def test_packed_check_width_covers_the_expected_side(monkeypatch):
    # p = 2^k0 - q vanishes at 2^k0 for the width k0 of the product bound
    # alone, so a check packed at 2^k0 would take Lambda + p for Lambda
    specs = [BlockSpec(2, 2), BlockSpec(1, 3, graph_attach(1))]
    g = build(specs)
    forms = closedform.ClearedForms(g)
    product_bound = max(map(sum, distances(g))) * max(map(one_norm, forms.x[0]))
    k0 = (2 * product_bound).bit_length()
    p = [1 << k0, -1]
    assert _moddet.pack(p, k0) == 0
    real = closedform._cleared_lambda
    monkeypatch.setattr(closedform, "_cleared_lambda", lambda *args: _fastpoly.padd(real(*args), p))
    (result,) = verify_graph(specs, "g", select=["matrix_times_balance_is_constant"]).checks
    wrong = Polynomial(_fastpoly.padd(forms.lam, p))
    assert not result.passed and result.witness == f"row 0: {Polynomial(forms.lam)} != {wrong}"


def test_outer_form_width_covers_every_term():
    # p = 2^k0 - q vanishes at 2^k0 for the width k0 of the bound less one
    # of its three terms, so a check packed at 2^k0 would take N, x or the
    # local matrix changed by p for the true one
    forms = closedform.ClearedForms(build(random_biblock(20, 14, 3)))
    inputs = {"numerators": forms.inverse, "x": forms.x, "local": forms.local}
    assert _moddet.outer_form_holds(*inputs["numerators"], forms.x, forms.local, forms.lam)
    terms = {
        "numerators": max(map(one_norm, forms.inverse[0])),
        "x": max(map(one_norm, forms.x[0])) ** 2,
        "local": max(map(one_norm, forms.local[0])) * one_norm(forms.lam),
    }
    for term in terms:
        k0 = _moddet._digit_bits(sum(bound for t, bound in terms.items() if t != term))
        p = [1 << k0, -1]
        assert _moddet.pack(p, k0) == 0
        values, index = inputs[term]
        # value 0 of the local matrix is its zero entry; change a nonzero one
        changed = {**inputs, term: (bumped_list(values, int(term == "local"), p), index)}
        numerators, x, local = changed.values()
        assert not _moddet.outer_form_holds(*numerators, x, local, forms.lam), term


def test_zero_balance_constant_fails_a_check_and_refuses_only_the_inverse(monkeypatch):
    monkeypatch.setattr(closedform, "_cleared_lambda", lambda shapes, quotients: [])
    report = verify_graph([BlockSpec(2, 2)], "zero")
    failed = {c.name for c in report.checks if not c.passed}
    assert {"balance_constant_nonzero", "inverse_product"} <= failed
    with pytest.raises(ArithmeticError):
        closedform.graph_inverse(build([BlockSpec(2, 2)]))


def graph_attach(v, side="X"):
    from qbiblock.graph import Attachment

    return Attachment(v, side)
