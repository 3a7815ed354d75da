"""Brute-force oracles and the verification harness.

The oracles never call the closed-form code paths: they work from the
distance table alone, so agreement between the two routes is evidence, not
tautology.  The determinant and the reduced cofactor come from one packed
determinant, of the q-distance matrix bordered at a root r with corner q^M
(qdist.bordered_rows): it is det D + q^M * cofactor, and M, one more than
the row-degree sum, bounds deg det D a priori, so the coefficients below
q^M are det D and the rest the cofactor.  The engine's Hadamard bound
covers both readouts.  The root's row, dense and with the corner, comes
last, where the engine reads it once and never updates it.

Each other row is differenced against original rows of earlier vertices
(qdist.bordered_rows): a previous twin's, an earlier vertex with the same
neighbours, giving -[2]_q, [2]_q and zeros; none for a child of the root;
else, with BFS parent p and p's parent g, row_u - (1 + q) row_p + q row_g.
The q-integers' rule [E + 2]_q - (1 + q) [E + 1]_q + q [E]_q = 0
(Bapat-Lal-Pati, LAA 2006) cancels the pivot corrections and the border,
leaving entries ([d(u, v)]_q - [d(p, v)]_q) - q ([d(p, v)]_q - [d(g, v)]_q)
of at most two terms, 0 wherever a shortest path from u to v runs through p
and g: a dense block's rows and a path's stay sparse, read off the distance
table, never off the block structure.  In the BFS order below every row
used precedes u, so the operations are unit lower triangular, never touch
the root's row and keep det B(z); M and the Hadamard bound are computed
from the rows as they are, so both readouts stay proven (qdist module
docstring).

The root and the row order are read off the distance table: the root is a
centre (least eccentricity), of least distance sum among the centres, and
the other vertices follow in BFS levels from it, each level by distance
sum, ties in vertex order.  Relabelling rows and columns together keeps
det D, and the cofactor does not depend on the root: with
a_r = (q^d(r, v))_v, the cofactor at r is det D * a_r^T D^-1 1, and since
q^d = 1 - (1 - q) [d]_q, a_r = 1 - (1 - q) D e_r, so
a_r^T D^-1 1 = 1^T D^-1 1 + q - 1 for every r, Bapat-Lal-Pati's lambda
(LAA 2006).  A root of small eccentricity keeps the degrees of its own
row and its children's, up to d(r, v), and so M, the packed digits and the
Bareiss intermediates, small; the order makes the cost a function of the
graph, not of its labelling.  The inverse oracle is adj(D) / det(D): the same
engine eliminates [D | I] and back-substitutes on each column of I
(_moddet.adjugate).

verify_graph runs a fixed list of identity checks per graph, one method each
of a per-graph _Checks, whose shared inputs are built on first use and at
most once: the cleared forms, the oracle's (det, cofactor) and the distance
classes, read off the one distance table built first.  The matrix
identities are verified over a cleared structural common denominator
(q+1) * prod(distinct cofactor cores), which turns every rational-function
identity into an equivalent integer-polynomial identity; the straight
rational-function route is exercised on small graphs by the test suite.  The
cleared integer forms come from closedform.ClearedForms, their one owner,
which builds them in integer-list arithmetic without a RationalFunction: the
balance vector, the balance constant, the local matrix, the numerators of
the inverse over its denominator, and the determinant and cofactor that the
oracle's are compared with.  The three matrix identities, D X = Lambda 1,
D (delta L) = 1 X^T - delta I and D N = delta Lambda I with X = delta x,
share the shape D B = 1 r^T + d I; _moddet.rank_one_mismatch checks one at
its own 2^k, each distinct entry of B packed once, with D read off
_moddet.distance_classes.  Each row of D B is one integer of slots, the
rows of B summed over the distance classes, with no product, and only a
failing entry is read back, for its witness.  The third identity is
deduced from the first two, whose witnesses are kept: when both hold and
N_ij = X_i X_j - Lambda (delta L)_ij in every cell
(_moddet.outer_form_holds), D N = Lambda 1 X^T - Lambda (1 X^T - delta I)
= delta Lambda I, which is inverse_den (checked too).  When either identity or
a cell fails, inverse_product runs the product D N itself, so its verdict
and witness are the product's.  The elimination comparison checks
N * det == delta Lambda * adj(D) on the packed values of that adjugate
(_moddet.adjugate_mismatch), and the three sums of x are one
_moddet.matmul.

verify_corpus fans the graphs out over a process pool when asked for more
than one job; reports come back in corpus order with per-graph wall times.

all_trees grows the corpus trees a leaf at a time, keeping the first extension
of each isomorphism class, told by its least bracket encoding over all roots.
"""

from __future__ import annotations

import functools
import os
import random
import time
from dataclasses import dataclass

from . import _fastpoly, _moddet
from .closedform import ClearedForms
from .exactring import Polynomial, RationalFunction
from .graph import (
    BiBlockGraph,
    BlockSpec,
    _tree,
    build,
    distances,
    graph_to_json,
    random_biblock,
)
from .matrix import RingMatrix
from .qdist import bordered_rows, q_distance_rows

# Above this size the elimination-inverse comparison is skipped: the inverse
# is still fully verified by inverse_product's exact identity D N = delta
# Lambda I, deduced from the other two matrix identities and a check of every
# cell, else checked as a product, and uniqueness of the inverse makes the
# entrywise comparison mathematically redundant there.
_ELIMINATION_COMPARE_MAX = 10

_CHECK_NAMES = (
    "det_vs_oracle",
    "cofactor_vs_oracle",
    "balance_constant_nonzero",
    "matrix_times_balance_is_constant",
    "balance_vector_sum",
    "anchor_weighted_sum",
    "anchor_affine_sum",
    "local_matrix_product",
    "inverse_product",
    "inverse_vs_elimination",
)


def oracle_det_and_cofactor(g: BiBlockGraph) -> tuple[Polynomial, Polynomial]:
    """(det D, reduced cofactor), straight from the distance table: the first
    M coefficients of the bordered determinant and the rest."""
    return tuple(map(Polynomial, _det_and_cofactor(distances(g))))


def _det_and_cofactor(dist: list[list[int]]) -> tuple[list[int], list[int]]:
    """oracle_det_and_cofactor of the graph with distance table dist, as
    coefficient lists.  The root is a centre, of least distance sum among
    the centres; the other vertices follow in BFS levels from it, each level
    by distance sum, ties in vertex order."""
    total = list(map(sum, dist))
    root = min(range(len(dist)), key=lambda v: (max(dist[v]), total[v]))
    level = dist[root]
    order = sorted(range(len(dist)), key=lambda v: (level[v], total[v]))
    rows, m = bordered_rows([[dist[u][v] for v in order] for u in order])
    coeffs = _moddet.det_int_poly_matrix(rows)
    return _fastpoly.pstrip(coeffs[:m]), coeffs[m:]


def oracle_det(g: BiBlockGraph) -> Polynomial:
    """Determinant of the q-distance matrix (oracle_det_and_cofactor)."""
    return oracle_det_and_cofactor(g)[0]


def oracle_cofactor(g: BiBlockGraph) -> Polynomial:
    """Reduced cofactor, the same at every pivot (oracle_det_and_cofactor)."""
    return oracle_det_and_cofactor(g)[1]


def oracle_inverse(g: BiBlockGraph) -> RingMatrix:
    """Inverse of the q-distance matrix, adj(D) / det(D), straight from the
    distance table by the packed adjugate; raises _moddet.SingularError when
    D is singular."""
    det, adj = _moddet.adjugate(q_distance_rows(distances(g)))
    det = Polynomial(det)
    return RingMatrix([[RationalFunction(Polynomial(e), det) for e in row] for row in adj])


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class VerificationReport:
    name: str
    specs: tuple[BlockSpec, ...]
    vertex_count: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        graph = graph_to_json(self.specs)
        graph["name"] = self.name
        graph["vertices"] = self.vertex_count
        return {"graph": graph, "checks": [c.to_json() for c in self.checks]}


def _clip(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _mismatch(where: str, got: list[int], want: list[int]) -> str | None:
    """Witness when two coefficient lists differ, else None."""
    if got == want:
        return None
    return f"{where}: {_clip(str(Polynomial(got)))} != {_clip(str(Polynomial(want)))}"


class _Checks:
    """The identity checks of one graph, one method per name of _CHECK_NAMES,
    each returning its witness, or None when the check passes.  The inputs
    that checks share are built on first use, at most once per graph."""

    def __init__(self, specs, name: str):
        self.name = name
        self.g = build(specs)
        self.dist = distances(self.g)

    @functools.cached_property
    def forms(self) -> ClearedForms:
        return ClearedForms(self.g)

    @functools.cached_property
    def oracle(self) -> tuple[list[int], list[int]]:
        return _det_and_cofactor(self.dist)

    @functools.cached_property
    def classes(self):
        return _moddet.distance_classes(self.dist)

    @functools.cached_property
    def sums(self) -> list[list[int]]:
        """sum_i x_i, sum_i w_i x_i and sum_i a_i x_i, with the last vertex as
        anchor, a_i = q^dist(i, anchor) and w_i = (1 + q) a_i."""
        weights = [
            [[1]] * self.g.n,
            [[0] * row[-1] + [1, 1] for row in self.dist],
            [[0] * row[-1] + [1] for row in self.dist],
        ]
        values, index = self.forms.x
        return [row[0] for row in _moddet.matmul(weights, [[values[k]] for k in index])]

    def det_vs_oracle(self) -> str | None:
        return _mismatch("det", self.forms.det, self.oracle[0])

    def cofactor_vs_oracle(self) -> str | None:
        return _mismatch("cofactor", self.forms.cofactor, self.oracle[1])

    def balance_constant_nonzero(self) -> str | None:
        return None if self.forms.lam else f"balance constant is zero for {self.name}"

    @functools.cached_property
    def _balance_witness(self) -> str | None:
        forms = self.forms
        values, index = forms.x
        if found := _moddet.rank_one_mismatch(
            self.classes, values, [[k] for k in index], [forms.lam], []
        ):
            return _mismatch(f"row {found[0]}", found[2], forms.lam)
        return None

    def matrix_times_balance_is_constant(self) -> str | None:
        return self._balance_witness

    def balance_vector_sum(self) -> str | None:
        expected = _fastpoly.psub(self.forms.delta, _fastpoly.pmul([-1, 1], self.forms.lam))
        return _mismatch("sum", self.sums[0], expected)

    def anchor_weighted_sum(self) -> str | None:
        return _mismatch("anchor sum", self.sums[1], _fastpoly.pmul([1, 1], self.forms.delta))

    def anchor_affine_sum(self) -> str | None:
        return _mismatch("anchor sum", self.sums[2], self.forms.delta)

    @functools.cached_property
    def _local_witness(self) -> str | None:
        # D L = 1 x^T - delta I, shown as (D L + delta I)_ij against x_j
        forms = self.forms
        values, index = forms.x
        x = [values[k] for k in index]
        if found := _moddet.rank_one_mismatch(
            self.classes, *forms.local, x, _fastpoly.pscale(forms.delta, -1)
        ):
            i, j, got = found
            shown = _fastpoly.padd(got, forms.delta) if i == j else got
            return _mismatch(f"entry ({i},{j})", shown, x[j])
        return None

    def local_matrix_product(self) -> str | None:
        return self._local_witness

    def inverse_product(self) -> str | None:
        # D N = delta Lambda I follows from D X = Lambda 1, D (delta L) =
        # 1 X^T - delta I and N = X X^T - Lambda (delta L) cell by cell;
        # otherwise the product itself, for its witness.  Entry (i, j) of
        # the inverse is numerators[index[i][j]] / inverse_den
        forms = self.forms
        if (
            self._balance_witness is None
            and self._local_witness is None
            and forms.inverse_den == _fastpoly.pmul(forms.delta, forms.lam)
            and _moddet.outer_form_holds(*forms.inverse, forms.x, forms.local, forms.lam)
        ):
            return None
        if found := _moddet.rank_one_mismatch(
            self.classes, *forms.inverse, [[]] * self.g.n, forms.inverse_den
        ):
            i, j, got = found
            return _mismatch(f"entry ({i},{j})", got, forms.inverse_den if i == j else [])
        return None

    def inverse_vs_elimination(self) -> str | None:
        # inverse / inverse_den == adj / det, cross-multiplied
        (numerators, index), den = self.forms.inverse, self.forms.inverse_den
        try:
            found = _moddet.adjugate_mismatch(q_distance_rows(self.dist), numerators, index, den)
        except _moddet.SingularError as exc:
            return f"elimination failed: {exc}"
        if found is None:
            return None
        i, j, elim_det, elim_adj = found
        return _mismatch(
            f"entry ({i},{j})",
            _fastpoly.pmul(numerators[index[i][j]], elim_det),
            _fastpoly.pmul(den, elim_adj),
        )


def verify_graph(specs, name: str = "graph", select=None) -> VerificationReport:
    """Run the identity checks on one graph; failures carry a first-mismatch witness.

    select restricts the run to a subset of check names (default: all); the
    report always lists checks in the fixed master order.
    """
    wanted = set(_CHECK_NAMES) if select is None else set(select)
    unknown = wanted - set(_CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")
    checks = _Checks(specs, name)
    n = checks.g.n
    if n > _ELIMINATION_COMPARE_MAX:
        wanted.discard("inverse_vs_elimination")
    witnesses = {check: getattr(checks, check)() for check in _CHECK_NAMES if check in wanted}
    results = tuple(CheckResult(check, w is None, w) for check, w in witnesses.items())
    return VerificationReport(name, tuple(specs), n, results)


# -- corpus -------------------------------------------------------------------


def _canonical_tree_code(parents: tuple[int, ...]) -> str:
    """Least nested-bracket encoding over all roots: equal iff the trees are isomorphic."""
    n = len(parents) + 1
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for child, parent in enumerate(parents, start=1):
        neighbors[child].append(parent)
        neighbors[parent].append(child)

    def encode(v: int, parent: int) -> str:
        return "(" + "".join(sorted(encode(u, v) for u in neighbors[v] if u != parent)) + ")"

    return min(encode(root, -1) for root in range(n))


@functools.cache
def all_trees(max_n: int) -> tuple[tuple[BlockSpec, ...], ...]:
    """All pairwise non-isomorphic trees on 2..max_n vertices as build sequences.

    The trees on n vertices are the first-seen one-leaf extensions
    parents + (p,), p < n - 1, of those on n - 1, in order: each is the
    lexicographically first parent sequence of its class, as a sweep of all
    sequences keeps.  A first sequence's prefix is first in its class (were T'
    smaller and isomorphic by phi, T' + (phi(p),) would be smaller than the
    whole), and the extensions of sorted prefixes come in lexicographic order.
    Each sequence starts with 0 (vertex 1 on vertex 0); graph._tree builds the rest.
    """
    out: list[tuple[BlockSpec, ...]] = []
    layer: list[tuple[int, ...]] = [()]  # the tree on one vertex
    for n in range(2, max_n + 1):
        firsts: dict[str, tuple[int, ...]] = {}
        for tree in (parents + (p,) for parents in layer for p in range(n - 1)):
            firsts.setdefault(_canonical_tree_code(tree), tree)
        layer = list(firsts.values())
        out.extend(tuple(_tree(parents[1:])) for parents in layer)
    return tuple(out)


def default_corpus(seed: int = 7) -> list[tuple[str, list[BlockSpec]]]:
    """The standard verification corpus.

    All complete bipartite blocks K_{s,t} for 1 <= s,t <= 5, every
    non-isomorphic tree on up to 8 vertices, and 100 seeded random bi-block
    graphs with at most 5 blocks and parts at most 4.
    """
    corpus: list[tuple[str, list[BlockSpec]]] = []
    for s in range(1, 6):
        for t in range(1, 6):
            corpus.append((f"K_{s}_{t}", [BlockSpec(s, t)]))
    for index, tree in enumerate(all_trees(8)):
        corpus.append((f"tree_{len(tree) + 1}v_{index:02d}", list(tree)))
    rng = random.Random(seed)
    for index in range(100):
        corpus.append((f"random_{index:03d}", random_biblock(rng.randrange(1 << 62), 5, 4)))
    return corpus


def _verify_timed(item) -> tuple[VerificationReport, float]:
    """verify_graph of one (name, specs) pair, with its wall time in milliseconds."""
    name, specs = item
    started = time.perf_counter()
    report = verify_graph(specs, name)
    return report, (time.perf_counter() - started) * 1000.0


def verify_corpus(corpus, jobs: int = 1) -> list[tuple[VerificationReport, float]]:
    """Verify every (name, specs) pair; returns (report, milliseconds) pairs in
    corpus order.

    With jobs > 1 the graphs go one at a time to a pool of worker processes,
    at most one per core, since the checks are pure Python and threads would
    share one interpreter lock.
    """
    corpus = list(corpus)
    workers = min(jobs, len(corpus), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that a run with one job does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            return list(pool.map(_verify_timed, corpus))
    return [_verify_timed(item) for item in corpus]
