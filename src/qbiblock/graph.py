"""Bi-block graphs: trees of complete bipartite blocks glued at cut vertices.

A graph is described by a build sequence of block specs.  The first block
stands alone; every later block names one existing vertex and the side (X or
Y) of the new block that vertex is identified with.  This makes the
block-tree property hold by construction and fixes a deterministic global
vertex numbering: block 1 contributes its X side then its Y side (ids
0..m+n-1); each later block contributes its new X vertices then its new Y
vertices, in order.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

SIDES = ("X", "Y")

# Largest vertex count accepted from a graph file or by `gen`: about 16 times
# the largest benchmark graph (n = 303).  Without it a one-line file such as
# {"blocks": [{"m": 1000000, "n": 1}]} allocates a million membership lists
# and a (q+1)-power of degree one million.
MAX_VERTICES = 5000


class GraphError(ValueError):
    """Raised for invalid block specs, graph files, or vertex references."""


@dataclass(frozen=True)
class Attachment:
    vertex: int
    side: str


@dataclass(frozen=True)
class BlockSpec:
    m: int
    n: int
    attach: Attachment | None = None


@dataclass(frozen=True)
class Block:
    index: int
    x: tuple[int, ...]
    y: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True, slots=True, eq=False)
class BiBlockGraph:
    """Immutable validated bi-block graph with global vertex ids."""

    specs: tuple[BlockSpec, ...]
    blocks: tuple[Block, ...]
    n: int
    membership: tuple[tuple[tuple[int, str], ...], ...]

    def __repr__(self):
        parts = ", ".join(f"K_{{{b.m},{b.n}}}" for b in self.blocks)
        return f"BiBlockGraph({self.n} vertices; {parts})"


def build(specs) -> BiBlockGraph:
    """Construct and validate a bi-block graph from a block build sequence."""
    specs = tuple(specs)
    if not specs:
        raise GraphError("a bi-block graph needs at least one block")
    blocks: list[Block] = []
    membership: list[list[tuple[int, str]]] = []
    for index, spec in enumerate(specs):
        if spec.m < 1 or spec.n < 1:
            raise GraphError(f"block {index}: part sizes must be at least 1, got {spec.m}x{spec.n}")
        # the new vertices are numbered from start, the X side's first
        start = len(membership)
        if index == 0:
            if spec.attach is not None:
                raise GraphError("the first block must not carry an attachment")
            x = tuple(range(start, start + spec.m))
            y = tuple(range(start + spec.m, start + spec.m + spec.n))
        else:
            if spec.attach is None:
                raise GraphError(f"block {index} needs an attachment to an existing vertex")
            if spec.attach.side not in SIDES:
                raise GraphError(f"block {index}: side must be 'X' or 'Y', got {spec.attach.side!r}")
            cut = spec.attach.vertex
            if not 0 <= cut < start:
                raise GraphError(f"block {index} attaches to unknown vertex {cut}")
            membership[cut].append((index, spec.attach.side))
            if spec.attach.side == "X":
                x = (cut,) + tuple(range(start, start + spec.m - 1))
                y = tuple(range(start + spec.m - 1, start + spec.m - 1 + spec.n))
            else:
                x = tuple(range(start, start + spec.m))
                y = (cut,) + tuple(range(start + spec.m, start + spec.m + spec.n - 1))
        for v in x:
            if v >= start:
                membership.append([(index, "X")])
        for v in y:
            if v >= start:
                membership.append([(index, "Y")])
        blocks.append(Block(index, x, y))

    n = len(membership)
    assert n == sum(b.m + b.n for b in blocks) - len(blocks) + 1
    return BiBlockGraph(specs, tuple(blocks), n, tuple(tuple(ms) for ms in membership))


def adjacency(g: BiBlockGraph) -> list[list[int]]:
    """Neighbor lists: u ~ v iff they sit on opposite sides of a common block."""
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for block in g.blocks:
        for u in block.x:
            for v in block.y:
                neighbors[u].append(v)
                neighbors[v].append(u)
    return neighbors


def distances(g: BiBlockGraph) -> list[list[int]]:
    """All-pairs shortest path lengths by BFS from every vertex."""
    neighbors = adjacency(g)
    table: list[list[int]] = []
    for source in range(g.n):
        dist = [-1] * g.n
        dist[source] = 0
        queue = deque((source,))
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in neighbors[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(v)
        table.append(dist)
    return table


# -- generators --------------------------------------------------------------


def _tree(parents) -> list[BlockSpec]:
    """The tree of single-edge blocks on the edge 0-1 in which vertex v + 2 hangs off parents[v]."""
    return [BlockSpec(1, 1)] + [BlockSpec(1, 1, Attachment(p, "X")) for p in parents]


def path_tree(n: int) -> list[BlockSpec]:
    """The path 0-1-...-(n-1) on n vertices: vertex v + 1 hangs off v."""
    if n < 2:
        raise GraphError("a path needs at least 2 vertices")
    return _tree(range(1, n - 1))


def star_tree(n: int) -> list[BlockSpec]:
    """The star on n vertices: every vertex but 0 hangs off vertex 0."""
    if n < 2:
        raise GraphError("a star needs at least 2 vertices")
    return _tree([0] * (n - 2))


def random_tree(seed: int, n: int) -> list[BlockSpec]:
    """A random tree on n vertices, deterministic for a fixed seed: vertex v
    hangs off a uniform earlier vertex, drawn for v = 2, ..., n - 1 in turn."""
    if n < 2:
        raise GraphError("a tree needs at least 2 vertices")
    rng = random.Random(seed)
    return _tree([rng.randrange(v) for v in range(2, n)])


def random_biblock(seed: int, r_max: int, part_max: int) -> list[BlockSpec]:
    """A random bi-block build sequence: r <= r_max blocks, parts in 1..part_max,
    uniform attachment vertex and side.  Deterministic for a fixed seed."""
    if r_max < 1 or part_max < 1:
        raise GraphError("r_max and part_max must be at least 1")
    rng = random.Random(seed)
    r = rng.randint(1, r_max)
    specs = [BlockSpec(rng.randint(1, part_max), rng.randint(1, part_max))]
    count = specs[0].m + specs[0].n
    for _ in range(r - 1):
        m = rng.randint(1, part_max)
        n = rng.randint(1, part_max)
        vertex = rng.randrange(count)
        side = rng.choice(SIDES)
        specs.append(BlockSpec(m, n, Attachment(vertex, side)))
        count += m + n - 1
    return specs


# -- JSON graph files --------------------------------------------------------


def graph_to_json(specs) -> dict:
    """Lossless JSON form: {"blocks": [{"m": .., "n": .., "attach": {..}?}, ..]}."""
    blocks = []
    for spec in specs:
        entry: dict = {"m": spec.m, "n": spec.n}
        if spec.attach is not None:
            entry["attach"] = {"vertex": spec.attach.vertex, "side": spec.attach.side}
        blocks.append(entry)
    return {"blocks": blocks}


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int; json reads
    # every integer as an int itself
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def specs_from_json(obj) -> list[BlockSpec]:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise GraphError("graph JSON must be an object with a 'blocks' array")
    raw_blocks = obj["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise GraphError("'blocks' must be a nonempty array")
    specs = []
    # every block after the first shares its cut vertex; build() rejects parts below 1
    vertices = 1
    for i, raw in enumerate(raw_blocks):
        if not isinstance(raw, dict):
            raise GraphError(f"block {i} must be an object")
        try:
            m, n = raw["m"], raw["n"]
        except KeyError as missing:
            raise GraphError(f"block {i} is missing field {missing}") from None
        if not _is_int(m) or not _is_int(n):
            raise GraphError(f"block {i}: 'm' and 'n' must be integers")
        vertices += max(m, 1) + max(n, 1) - 1
        if vertices > MAX_VERTICES:
            raise GraphError(f"block {i}: the graph exceeds {MAX_VERTICES} vertices")
        attach = None
        if "attach" in raw:
            raw_attach = raw["attach"]
            if (
                not isinstance(raw_attach, dict)
                or not _is_int(raw_attach.get("vertex"))
                or raw_attach.get("side") not in SIDES
            ):
                raise GraphError(f"block {i}: attach must be {{'vertex': int, 'side': 'X'|'Y'}}")
            attach = Attachment(raw_attach["vertex"], raw_attach["side"])
        specs.append(BlockSpec(m, n, attach))
    return specs
