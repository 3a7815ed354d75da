from __future__ import annotations

import hashlib
import json

import pytest

from qbiblock import cli
from qbiblock.graph import (
    Attachment,
    BlockSpec,
    GraphError,
    build,
    distances,
    graph_to_json,
    path_tree,
    random_biblock,
    random_tree,
    specs_from_json,
    star_tree,
)
from qbiblock.oracle import all_trees


def test_single_edge_block():
    g = build([BlockSpec(1, 1)])
    assert g.n == 2
    assert len(g.blocks) == 1
    assert distances(g) == [[0, 1], [1, 0]]


def test_vertex_count_identity_example():
    g = build([BlockSpec(2, 3), BlockSpec(1, 2, Attachment(0, "X"))])
    assert g.n == (2 + 3) + (1 + 2) - 2 + 1 == 7


def test_two_edges_make_a_path():
    g = build([BlockSpec(1, 1), BlockSpec(1, 1, Attachment(1, "X"))])
    assert g.n == 3
    d = distances(g)
    assert d[0][2] == 2 and d[0][1] == 1 and d[1][2] == 1


def test_builder_numbering_is_deterministic():
    g = build([BlockSpec(2, 3), BlockSpec(1, 2, Attachment(0, "X"))])
    assert g.blocks[0].x == (0, 1)
    assert g.blocks[0].y == (2, 3, 4)
    # the cut vertex joins the second block's X side; its new vertices follow on
    assert g.blocks[1].x == (0,)
    assert g.blocks[1].y == (5, 6)


def test_attach_side_matters_for_the_metric():
    gx = build([BlockSpec(1, 2), BlockSpec(1, 1, Attachment(1, "X"))])
    gy = build([BlockSpec(1, 2), BlockSpec(1, 1, Attachment(1, "Y"))])
    # vertex 1 is a Y-vertex of block 0; vertex 3 is the new vertex
    dx = distances(gx)
    dy = distances(gy)
    # attached on X: new vertex is across the new block from vertex 1
    assert dx[1][3] == 1
    # attached on Y: vertex 1 is on the new block's Y side, new vertex on X
    assert dy[1][3] == 1
    # but the distance from vertex 0 (X side of block 0) differs in structure:
    assert dx[0][3] == dx[0][1] + 1
    assert dy[0][3] == dy[0][1] + 1


def test_build_errors():
    with pytest.raises(GraphError):
        build([])
    with pytest.raises(GraphError):
        build([BlockSpec(0, 1)])
    with pytest.raises(GraphError):
        build([BlockSpec(1, 1, Attachment(0, "X"))])
    with pytest.raises(GraphError):
        build([BlockSpec(1, 1), BlockSpec(1, 1)])
    with pytest.raises(GraphError):
        build([BlockSpec(1, 1), BlockSpec(1, 1, Attachment(7, "X"))])
    with pytest.raises(GraphError):
        build([BlockSpec(1, 1), BlockSpec(1, 1, Attachment(0, "Z"))])


def test_four_cycle_distances():
    g = build([BlockSpec(2, 2)])
    d = distances(g)
    # X = {0,1}, Y = {2,3}; same-side pairs are at distance 2
    assert d[0][1] == 2 and d[2][3] == 2
    assert d[0][2] == d[0][3] == d[1][2] == d[1][3] == 1


def test_path_on_four_vertices():
    g = build(path_tree(4))
    d = distances(g)
    assert max(max(row) for row in d) == 3
    assert d[0][3] == 3


def test_distance_table_invariants_on_random_graphs():
    for seed in range(25):
        specs = random_biblock(seed, 5, 4)
        g = build(specs)
        d = distances(g)
        r = len(g.blocks)
        assert g.n == sum(s.m + s.n for s in specs) - r + 1
        for i in range(g.n):
            assert d[i][i] == 0
            for j in range(g.n):
                assert d[i][j] == d[j][i]
                assert 0 <= d[i][j] <= 2 * r
                for k in range(g.n):
                    assert d[i][j] <= d[i][k] + d[k][j]


def test_within_block_distance_pattern():
    g = build([BlockSpec(3, 4)])
    d = distances(g)
    for block in g.blocks:
        for u in block.x:
            for v in block.y:
                assert d[u][v] == 1
        for side in (block.x, block.y):
            for u in side:
                for v in side:
                    if u != v:
                        assert d[u][v] == 2


def test_leaf_block_distance_recursion():
    # distances into a leaf block go through its cut vertex: +2 to the X side,
    # +1 to the Y side (the cut vertex sits on the X side)
    specs = random_biblock(3, 4, 3)
    specs.append(BlockSpec(3, 2, Attachment(0, "X")))
    g = build(specs)
    d = distances(g)
    leaf = g.blocks[-1]
    cut = 0
    leaf_vertices = set(leaf.x) | set(leaf.y)
    for v_outside in range(g.n):
        if v_outside in leaf_vertices or v_outside == cut:
            continue
        for u in leaf.x:
            if u != cut:
                assert d[v_outside][u] == d[v_outside][cut] + 2
        for u in leaf.y:
            assert d[v_outside][u] == d[v_outside][cut] + 1


def test_generators_shapes():
    assert len(path_tree(4)) == 3
    assert len(star_tree(4)) == 3
    assert all(s.attach.vertex == 0 for s in star_tree(5)[1:])
    assert build(random_tree(11, 9)).n == 9


def test_random_generator_determinism():
    assert random_biblock(42, 5, 4) == random_biblock(42, 5, 4)
    assert random_tree(7, 10) == random_tree(7, 10)


def _digest(spec_lists) -> str:
    objs = [graph_to_json(specs) for specs in spec_lists]
    return hashlib.sha256(json.dumps(objs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_tree_generators_are_pinned():
    # every block of every generated tree, and random_tree's draw order, which
    # the benchmark's tree33 and tree180 reference graphs depend on
    paths = [path_tree(n) for n in (2, 3, 40, 300)]
    stars = [star_tree(n) for n in (2, 3, 40)]
    randoms = [random_tree(seed, n) for seed, n in ((0, 180), (1, 33), (5, 2), (7, 64))]
    assert all(type(specs) is list for specs in paths + stars + randoms)
    assert _digest(paths) == "73a88d156a22e74eda10877157b1c04a8a9c0d359efe591a8e22572183484069"
    assert _digest(stars) == "953682bbded68b45280643e0f532eb81202c1b4698c345a0864e12267f491faf"
    assert _digest(randoms) == "9bcad6db7c03b8834b9fd1e89176813bca6184495048ad5b2f1f2a4bedd1f7d8"
    trees = all_trees(8)
    assert len(trees) == 47
    assert _digest(trees) == "6be0ac51037060a89d5bf4161aa4a4130388151e492b99d0d06bc3060758a8fb"


def test_json_round_trip():
    for seed in range(10):
        specs = random_biblock(seed, 4, 3)
        assert specs_from_json(graph_to_json(specs)) == specs


def test_json_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sequences = st.one_of(
        st.builds(random_biblock, st.integers(0, 2**62), st.integers(1, 8), st.integers(1, 4)),
        st.builds(path_tree, st.integers(2, 30)),
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(specs=sequences)
    def prop(specs):
        text = json.dumps(graph_to_json(specs))
        rebuilt = specs_from_json(json.loads(text))
        assert rebuilt == specs
        assert distances(build(rebuilt)) == distances(build(specs))
        assert json.dumps(graph_to_json(rebuilt)) == text

    prop()


@pytest.mark.parametrize("block", [1, "K22", None, [2, 2]])
def test_a_block_that_is_not_an_object_is_an_input_error(tmp_path, capsys, block):
    obj = {"blocks": [block]}
    with pytest.raises(GraphError, match="block 0 must be an object"):
        specs_from_json(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["det", str(path)]) == cli.EXIT_INPUT
    assert "block 0 must be an object" in capsys.readouterr().err


def test_json_validation_errors():
    with pytest.raises(GraphError):
        specs_from_json({"nope": []})
    with pytest.raises(GraphError):
        specs_from_json({"blocks": []})
    with pytest.raises(GraphError):
        specs_from_json({"blocks": [{"m": 1}]})
    with pytest.raises(GraphError):
        specs_from_json({"blocks": [{"m": 1, "n": "2"}]})
    with pytest.raises(GraphError):
        specs_from_json({"blocks": [{"m": 1, "n": 1}, {"m": 1, "n": 1, "attach": {"vertex": 0, "side": "Q"}}]})
