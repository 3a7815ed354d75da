"""Workload inputs, command lists and correctness gates.

Every workload starts from fixed reference graphs drawn with the package's own
generators, and the run seed relabels them: a random block order, random
vertex order inside each side, random side swaps.  The relabelled graph is
isomorphic to its reference, so the seed changes every input file and every
output byte while the amount of work stays the same.  Redrawing the graphs per
seed instead would move the verify wall time by about 20% between seeds,
because its cost is carried by a handful of the largest graphs.  Vertex 0 of
the reference stays vertex 0, since the cofactor oracle pivots on it and the
pivot's eccentricity sets the cofactor matrix's degree bound.
"""

from __future__ import annotations

import json
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

# generators and build() are looked up on their modules at call time, so
# that the layer wrappers of the traced run also see the set-up's calls
from qbiblock import graph as qgraph
from qbiblock import oracle
from qbiblock.graph import Attachment, BlockSpec, graph_to_json

Q0_TEXT = "2/7"
Q0 = Fraction(2, 7)
SCALAR_COMMANDS = ("det", "xi", "lambda", "vectors")
# the CLI's default corpus seed; verify_corpus keeps its first 112 graphs:
# all 25 K_{s,t}, all 47 trees on up to 8 vertices and the first 40 random
# graphs, about 23 s of the full corpus's 59 s on a 2-core Xeon
CORPUS_SEED = 7
CORPUS_SIZE = 112
INVERSE_SAMPLE_COLUMNS = 3
INVERSE_SAMPLE_ENTRIES = 24


def _references(workload: str):
    """(name, build sequence) pairs of a workload's reference graphs."""
    if workload == "verify_corpus":
        return oracle.default_corpus(CORPUS_SEED)[:CORPUS_SIZE]
    if workload == "oracle_large":
        # n = 33, 34, 33; about 8 s of verify each, 80% of it in the oracles
        return [
            ("tree33", qgraph.random_tree(1, 33)),
            ("biblock34", qgraph.random_biblock(20, 14, 3)),
            ("biblock33", qgraph.random_biblock(81, 14, 3)),
        ]
    if workload == "formulas_large":
        # 100 blocks with parts 1-3 (n = 299 and 303); a dense core with 12
        # blocks that have both parts >= 2 (n = 87); a random tree (n = 180)
        return [
            ("big299", qgraph.random_biblock(23, 100, 3)),
            ("big303", qgraph.random_biblock(86, 100, 3)),
            ("dense87", qgraph.random_biblock(116, 30, 3)),
            ("tree180", qgraph.random_tree(0, 180)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def bfs_distances(g) -> list[list[int]]:
    """All-pairs distances from the block lists, independent of qbiblock.graph.distances."""
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for b in g.blocks:
        for u in b.x:
            for v in b.y:
                neighbors[u].append(v)
                neighbors[v].append(u)
    table = []
    for source in range(g.n):
        dist = [-1] * g.n
        dist[source] = 0
        queue = deque((source,))
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        table.append(dist)
    return table


def relabel(specs, rng: random.Random) -> list[BlockSpec]:
    """A build sequence of a graph isomorphic to build(specs), in a random order.

    Blocks are placed in a random order that keeps the placed blocks connected;
    each placed block may swap its sides; new vertices of each side are
    numbered in a random order.  Vertex 0 keeps number 0.
    """
    g = qgraph.build(specs)
    new_id: dict[int, int] = {}
    out: list[BlockSpec] = []

    def number(vertices):
        for v in vertices:
            new_id[v] = len(new_id)

    root = rng.choice(sorted(index for index, _ in g.membership[0]))
    b = g.blocks[root]
    x, y = (list(b.x), list(b.y)) if 0 in b.x else (list(b.y), list(b.x))
    x.remove(0)
    rng.shuffle(x)
    rng.shuffle(y)
    number([0] + x + y)
    out.append(BlockSpec(len(x) + 1, len(y)))
    placed = {root}
    frontier = {index for v in b.x + b.y for index, _ in g.membership[v]} - placed
    while frontier:
        index = rng.choice(sorted(frontier))
        frontier.discard(index)
        placed.add(index)
        b = g.blocks[index]
        x, y = (list(b.x), list(b.y)) if rng.random() < 0.5 else (list(b.y), list(b.x))
        (cut,) = [v for v in x + y if v in new_id]
        side = "X" if cut in x else "Y"
        x = [v for v in x if v != cut]
        y = [v for v in y if v != cut]
        rng.shuffle(x)
        rng.shuffle(y)
        number(x + y)
        m, n = len(x) + (side == "X"), len(y) + (side == "Y")
        out.append(BlockSpec(m, n, Attachment(new_id[cut], side)))
        frontier |= {i for v in b.x + b.y for i, _ in g.membership[v]} - placed

    old = bfs_distances(g)
    new = bfs_distances(qgraph.build(out))
    if any(new[new_id[u]][new_id[v]] != old[u][v] for u in range(g.n) for v in range(g.n)):
        raise AssertionError("relabelled graph is not isomorphic to its reference")
    return out


def prepare(workload: str, seed: int, workdir: Path) -> dict:
    """Generate the seeded inputs, build and check each graph, write the graph files.

    Returns the manifest: graph names, relative file paths, build sequences
    as JSON, and the command list of one round.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    graphs = []
    for name, specs in _references(workload):
        rng = random.Random(f"{workload}:{seed}:{name}")
        specs = relabel(specs, rng)
        path = workdir / f"{name}.json"
        doc = graph_to_json(specs)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        graphs.append({"name": name, "path": path.as_posix(), "graph": doc})
    order = random.Random(f"{workload}:{seed}:order")
    return {"workload": workload, "seed": seed, "graphs": graphs, "commands": commands(workload, graphs, order)}


def commands(workload: str, graphs: list[dict], order: random.Random) -> list[dict]:
    """One round: each command is a key, a class for per-class timing, and its argv.

    Graphs of a verify command and the formula commands run in a seeded random
    order.  The host's speed changes within seconds, so operations of one kind
    run back to back would put a percentile at the mercy of one short window.
    """
    if workload in ("verify_corpus", "oracle_large"):
        paths = [g["path"] for g in graphs]
        order.shuffle(paths)
        return [{"key": "verify", "cls": "verify", "argv": ["verify", "--json", "--corpus"] + paths}]
    out = []
    for g in graphs[:2]:
        for name in SCALAR_COMMANDS:
            cls = "det" if name in ("det", "xi") else "scalar_other"
            out.append({"key": f"{name}:{g['name']}", "cls": cls,
                        "argv": [name, g["path"], "--format", "json"]})
            out.append({"key": f"{name}@:{g['name']}", "cls": "at",
                        "argv": [name, g["path"], "--format", "json", "--at", Q0_TEXT]})
    for g in graphs[2:]:
        out.append({"key": f"inverse:{g['name']}", "cls": "inverse_json",
                    "argv": ["inverse", g["path"], "--format", "json"]})
        out.append({"key": f"inverse@:{g['name']}", "cls": "inverse_at",
                    "argv": ["inverse", g["path"], "--at", Q0_TEXT]})
    order.shuffle(out)
    return out


# -- correctness gates ----------------------------------------------------------
# Each gate returns a list of (gate name, failure message or None).


def _frac(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def _poly_at(coeffs, q0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q0 + _frac(c)
    return acc


def eval_json(value, q0: Fraction) -> Fraction:
    """Evaluate a symbolic CLI value (polynomial list or {num, den}) at q0."""
    if isinstance(value, dict):
        return _poly_at(value["num"], q0) / _poly_at(value["den"], q0)
    return _poly_at(value, q0)


def gate_verify(manifest: dict, stdout: str) -> list[tuple[str, str | None]]:
    """Every graph report passes every check; the summary counts every graph."""
    results = []
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    reports, summary = lines[:-1], (lines[-1].get("summary") if lines else None)
    expected = manifest["commands"][0]["argv"][3:]
    for i, path in enumerate(expected):
        if i >= len(reports):
            results.append((f"verify:{path}", "no report"))
            continue
        report = reports[i]
        if report["graph"]["name"] != path:
            results.append((f"verify:{path}", f"report {i} names {report['graph']['name']}"))
            continue
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        if len(report["checks"]) < 9 or failed:
            results.append((f"verify:{path}", f"checks failed: {failed}"))
        else:
            results.append((f"verify:{path}", None))
    ok_summary = (
        summary is not None
        and summary["graphs"] == len(expected)
        and summary["failures"] == 0
        and len(reports) == len(expected)
    )
    results.append(("verify:summary", None if ok_summary else f"summary {summary}"))
    return results


def gate_scalar(name: str, symbolic: str, at: str) -> list[tuple[str, str | None]]:
    """The symbolic value evaluated at q0 by this code equals the --at output."""
    sym = json.loads(symbolic)
    val = json.loads(at)
    if name == "vectors":
        pairs = [(eval_json(s, Q0), _frac(v)) for key in ("x", "y") for s, v in zip(sym[key], val[key])]
        same_len = len(sym["x"]) == len(val["x"]) and len(sym["y"]) == len(val["y"])
        bad = [i for i, (a, b) in enumerate(pairs) if a != b]
        msg = None if same_len and not bad else f"entries {bad[:5]} differ (lengths ok: {same_len})"
    else:
        a, b = eval_json(sym["value"], Q0), _frac(val["value"])
        msg = None if a == b else f"symbolic at q0 = {a}, --at = {b}"
    return [(f"{name}:symbolic_vs_at", msg)]


def parse_inverse_text(text: str) -> list[list[Fraction]]:
    return [[Fraction(cell) for cell in line.split("\t")] for line in text.splitlines() if line]


def gate_inverse(graph: dict, symbolic: str, at: str, seed: int) -> list[tuple[str, str | None]]:
    """D(q0) inverse[:, j] = e_j on sampled columns, and symbolic entries at q0
    equal the --at entries on sampled positions."""
    g = qgraph.build(qgraph.specs_from_json(graph["graph"]))
    n = g.n
    inv = parse_inverse_text(at)
    sym = json.loads(symbolic)["value"]
    name = graph["name"]
    if len(inv) != n or any(len(r) != n for r in inv) or len(sym) != n:
        return [(f"inverse:{name}:shape", f"expected {n}x{n}")]
    dist = bfs_distances(g)
    qint = [Fraction(0)]
    for d in range(1, max(max(r) for r in dist) + 1):
        qint.append(qint[-1] + Q0 ** (d - 1))
    rng = random.Random(f"gate:{seed}:{name}")
    results = []
    for j in rng.sample(range(n), min(INVERSE_SAMPLE_COLUMNS, n)):
        col = [inv[k][j] for k in range(n)]
        bad = [i for i in range(n) if sum(qint[dist[i][k]] * col[k] for k in range(n)) != (i == j)]
        results.append((f"inverse:{name}:column{j}", f"rows {bad[:5]} of D(q0) col != e_j" if bad else None))
    positions = [(i, i) for i in rng.sample(range(n), min(4, n))]
    positions += [(rng.randrange(n), rng.randrange(n)) for _ in range(INVERSE_SAMPLE_ENTRIES - len(positions))]
    bad = [(i, j) for i, j in positions if eval_json(sym[i][j], Q0) != inv[i][j]]
    results.append((f"inverse:{name}:symbolic_vs_at", f"entries {bad[:5]} differ" if bad else None))
    return results


def _guarded(name: str, gate, *args) -> list[tuple[str, str | None]]:
    """Run one gate; output that cannot be parsed fails the gate instead of the run."""
    try:
        return gate(*args)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [(name, f"unreadable output: {type(exc).__name__}: {exc}")]


def run_gates(manifest: dict, outputs: dict[str, str]) -> list[tuple[str, str | None]]:
    """All correctness gates of one round, given each command key's stdout."""
    if manifest["workload"] in ("verify_corpus", "oracle_large"):
        return _guarded("verify", gate_verify, manifest, outputs["verify"])
    results = []
    for g in manifest["graphs"][:2]:
        for name in SCALAR_COMMANDS:
            pair = outputs[f"{name}:{g['name']}"], outputs[f"{name}@:{g['name']}"]
            for gate, msg in _guarded(f"{name}:symbolic_vs_at", gate_scalar, name, *pair):
                results.append((f"{gate}:{g['name']}", msg))
    for g in manifest["graphs"][2:]:
        pair = outputs[f"inverse:{g['name']}"], outputs[f"inverse@:{g['name']}"]
        results += _guarded(f"inverse:{g['name']}", gate_inverse, g, *pair, manifest["seed"])
    return results
