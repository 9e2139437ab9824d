"""Perturbed-grid node placement with quasi-unit-disk (Q-UDG) links.

Nodes sit on a rows x cols grid, jittered uniformly per axis. Two nodes at
distance d share a link with certainty below a*R, never at or beyond R, and
with probability (R - d) / (R - a*R) in between.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

from .rng import substream


class Position(NamedTuple):
    """(x, y) point in metres."""

    x: float
    y: float


@dataclass(frozen=True)
class TopologyParams:
    """Deployment and link-model parameters.

    qudg_factor is the certainty fraction a: links are certain below
    a * tx_range. perturbation is the jitter amplitude as a fraction of
    spacing, per axis. seed defaults to 0, while the command line's
    run.seed defaults to 1, so TopologyParams(20, 20) is not the network
    `extrout topology` generates at its defaults.
    """

    grid_rows: int
    grid_cols: int
    spacing: float = 100.0
    perturbation: float = 0.25
    tx_range: float = 145.0
    qudg_factor: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid needs at least one row and one column")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if not 0.0 <= self.perturbation <= 1.0:
            raise ValueError(f"perturbation must be in [0, 1], got {self.perturbation}")
        if not (math.isfinite(self.tx_range) and self.tx_range > 0):
            raise ValueError(f"tx_range must be positive and finite, got {self.tx_range}")
        if not 0.0 <= self.qudg_factor <= 1.0:
            raise ValueError(f"qudg_factor must be in [0, 1], got {self.qudg_factor}")

    @property
    def node_count(self) -> int:
        return self.grid_rows * self.grid_cols

    def node_at(self, row: int, col: int) -> int:
        return row * self.grid_cols + col + 1


@dataclass
class Topology:
    """A placed node set and the links among it; immutable after build.

    links may be any iterable of node pairs, each in either order and
    possibly repeated. A self-link or an end missing from positions raises
    ValueError. The graph is stored once, by index: nodes holds the ids
    ascending, node_index each id's index in nodes, and neighbor_indices,
    for each index, its neighbours' distinct indices, ascending. Index
    order is id order, so a search that reads its neighbours ascending by
    index reads them ascending by id. Equality compares params, positions
    and neighbor_indices.

    memo keeps RNG-independent results that other modules derive from the
    graph, each under a key that the function filling it owns and
    documents. It takes no part in equality, so a warmed topology equals a
    fresh one.
    """

    params: TopologyParams
    positions: dict[int, Position]
    links: InitVar[Iterable[tuple[int, int]]]
    nodes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    node_index: dict[int, int] = field(init=False, repr=False, compare=False)
    neighbor_indices: tuple[tuple[int, ...], ...] = field(init=False)
    memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self, links):
        nodes = self.nodes = tuple(sorted(self.positions))
        at = self.node_index = {n: k for k, n in enumerate(nodes)}
        nbrs: list[list[int]] = [[] for _ in nodes]
        try:
            for i, j in links:
                if i == j:
                    raise ValueError(f"self-link on node {i}")
                a, b = at[i], at[j]
                nbrs[a].append(b)
                nbrs[b].append(a)
        except KeyError:
            raise ValueError(f"link ({min(i, j)}, {max(i, j)}) references "
                             "an unplaced node") from None
        self.neighbor_indices = tuple(tuple(sorted(set(v))) for v in nbrs)
        self.memo = {}

    @property
    def node_count(self) -> int:
        return len(self.positions)


def link_probability(d: float, tx_range: float, qudg_factor: float) -> float:
    """Probability that two nodes at distance d share a link.

    1 below the certainty radius qudg_factor * tx_range, 0 at or beyond
    tx_range, linear in between. qudg_factor = 1 degenerates to a pure
    unit-disk model (the probabilistic band is empty).
    """
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    if not (math.isfinite(tx_range) and tx_range > 0):
        raise ValueError(f"tx_range must be positive and finite, got {tx_range}")
    if not 0.0 <= qudg_factor <= 1.0:
        raise ValueError(f"qudg_factor must be in [0, 1], got {qudg_factor}")
    certain = qudg_factor * tx_range
    if d < certain:
        return 1.0
    if d >= tx_range:
        return 0.0
    return (tx_range - d) / (tx_range - certain)


def place_nodes(params: TopologyParams, rng: random.Random) -> dict[int, Position]:
    """Jittered grid placement, row-major ids starting at 1.

    Node (r, c) lands uniformly in [c*s - p*s, c*s + p*s] x [r*s - p*s, r*s + p*s].
    The x offset is drawn before the y offset for each node in id order.
    """
    jitter = params.perturbation * params.spacing
    positions: dict[int, Position] = {}
    for row in range(params.grid_rows):
        for col in range(params.grid_cols):
            x = col * params.spacing + rng.uniform(-jitter, jitter)
            y = row * params.spacing + rng.uniform(-jitter, jitter)
            positions[params.node_at(row, col)] = Position(x, y)
    return positions


def build_qudg(positions: dict[int, Position], params: TopologyParams,
               rng: random.Random) -> Topology:
    """Sample the Q-UDG link set over the given positions.

    Links are found by testing neighbouring cells: nodes are bucketed into
    square cells a hair wider than tx_range, so a linked pair (d < tx_range)
    always sits in the same or adjacent cells. Each cell is tested against
    itself and its four forward neighbours (dx, dy) in (1, -1), (1, 0),
    (1, 1), (0, 1), which tests every such pair once. Pairs closer than the
    certainty radius link at once; pairs inside the probabilistic band are
    collected, sorted, and given their variates in ascending (i, j) order,
    so a fixed seed reproduces the identical link set.
    """
    certain = params.qudg_factor * params.tx_range
    # The margin keeps rounding in x / side from ever putting a linked pair
    # two cells apart.
    side = params.tx_range * (1 + 1e-9)
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in sorted(positions.items()):
        cells.setdefault((math.floor(x / side), math.floor(y / side)), []).append(i)
    dist = math.dist
    links = []
    band = []
    for (cx, cy), members in cells.items():
        near = [j for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1))
                for j in cells.get((cx + dx, cy + dy), ())]
        for a, i in enumerate(members):
            pi = positions[i]
            for j in members[a + 1:] + near:
                d = dist(pi, positions[j])
                pair = (i, j) if i < j else (j, i)
                if d < certain:
                    links.append(pair)
                elif d < params.tx_range:
                    band.append((*pair, d))
    band.sort()
    for i, j, d in band:
        if rng.random() < link_probability(d, params.tx_range, params.qudg_factor):
            links.append((i, j))
    return Topology(params=params, positions=dict(positions), links=links)


def generate(params: TopologyParams) -> Topology:
    """Place and link a topology from its own seed (placement and link
    randomness run on separate named streams)."""
    positions = place_nodes(params, substream(params.seed, "placement"))
    return build_qudg(positions, params, substream(params.seed, "links"))


def average_degree(topo: Topology) -> float:
    """Mean link count over interior grid nodes.

    Boundary rows/columns are excluded to avoid edge effects, so each inner
    row adds one slice of the row-major degrees; when the grid has no
    interior (fewer than 3 rows or columns), or the node ids are not its
    cells 1..N (a loaded file may number nodes freely), all nodes count.
    """
    p = topo.params
    degrees = list(map(len, topo.neighbor_indices))
    if topo.nodes == tuple(range(1, p.node_count + 1)):
        cols = p.grid_cols
        # Index r * cols + 1 is row r's second cell; cols - 2 cells follow.
        degrees = [degree for start in range(cols + 1, p.node_count - cols, cols)
                   for degree in degrees[start:start + cols - 2]] or degrees
    return sum(degrees) / len(degrees)


def topology_to_text(topo: Topology) -> str:
    """Serialize to the plain text exchange format.

    Header `N R a p spacing seed`, then one `id x y` line per node, then one
    `i j` line per link. Floats use repr so the round-trip is lossless. The
    header ends with `rows cols` only when the grid holds the N nodes in
    a shape that the six fields would read as another (_six_field_shape),
    so a square grid's file keeps its bytes.
    """
    p = topo.params
    count = topo.node_count
    head = f"{count} {p.tx_range!r} {p.qudg_factor!r} {p.perturbation!r} {p.spacing!r} {p.seed}"
    if p.node_count == count and (p.grid_rows, p.grid_cols) != _six_field_shape(count):
        head += f" {p.grid_rows} {p.grid_cols}"
    # Each id is formatted once, for its node line and all its link ends.
    names = list(map(str, topo.nodes))
    lines = [head]
    lines += [f"{name} {pos.x!r} {pos.y!r}" for name, pos
              in zip(names, map(topo.positions.__getitem__, topo.nodes))]
    # Nodes and each node's neighbours ascend, so the links come out sorted.
    lines += [f"{names[k]} {names[j]}" for k, near in enumerate(topo.neighbor_indices)
              for j in near if j > k]
    return "\n".join(lines) + "\n"


def load_topology(path) -> Topology:
    """Read a topology file, UTF-8 in the text exchange format, line by
    line.

    Blank lines and `#` comment lines are skipped wherever they stand. A
    link may be given with either end first and may repeat. The header
    may end with the grid shape, `rows cols`, whose product must be N;
    without it the shape is inferred: sqrt(N) for square N, else a single
    row (matrix views then report unavailable). Lines end
    at LF, CRLF or CR. Bytes that are not UTF-8 raise ValueError
    naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return _read_topology(fh)
        except UnicodeDecodeError as exc:
            # Its position is within the chunk decoded, not the file: left out.
            raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None


_HEADER_FIELDS = (("node count", int), ("tx_range", float),
                  ("qudg_factor", float), ("perturbation", float),
                  ("spacing", float), ("seed", int), ("rows", int), ("cols", int))
_NODE_FIELDS = (("node id", int), ("x", float), ("y", float))
_LINK_FIELDS = (("link end", int), ("link end", int))


def _read_topology(lines) -> Topology:
    """Parse the lines of the text exchange format as they are read.

    A link end written as its node line writes the id reuses that node's
    int, so a large file makes one int per node, not one per link end.
    Each link goes to Topology as the pair the file writes.
    """
    numbered = enumerate(lines, 1)
    for lineno, line in numbered:
        head = line.split()
        if head and head[0][0] != "#":
            break
    else:
        raise ValueError("empty topology file")
    if len(head) not in (6, 8):
        raise ValueError("malformed header: " + repr(line.rstrip("\n")))
    n, tx_range, qudg_factor, perturbation, spacing, seed, *shape = _convert(
        head, _HEADER_FIELDS, lineno)
    if n < 1:
        raise ValueError(f"header node count must be at least 1, got {n}")
    grid_rows, grid_cols = shape or _six_field_shape(n)
    if grid_rows * grid_cols != n:
        raise ValueError(f"header grid {grid_rows}x{grid_cols} does not hold {n} nodes")
    params = TopologyParams(grid_rows=grid_rows, grid_cols=grid_cols, spacing=spacing,
                            perturbation=perturbation, tx_range=tx_range,
                            qudg_factor=qudg_factor, seed=seed)
    positions: dict[int, Position] = {}
    ids: dict[str, int] = {}
    links = []
    for lineno, line in numbered:
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) == 2:
            a, b = parts
            try:
                i = ids[a] if a in ids else int(a)
                j = ids[b] if b in ids else int(b)
            except ValueError:
                _convert(parts, _LINK_FIELDS, lineno)  # names the field
                raise
            links.append((i, j))
        elif len(parts) == 3:
            try:
                node, x, y = int(parts[0]), float(parts[1]), float(parts[2])
            except ValueError:
                _convert(parts, _NODE_FIELDS, lineno)  # names the field
                raise
            if not (math.isfinite(x) and math.isfinite(y)):
                name, raw = (("y", parts[2]) if math.isfinite(x)
                             else ("x", parts[1]))
                raise ValueError(f"line {lineno}: {name} must be a finite "
                                 f"number, got {raw!r}")
            if node in positions:
                raise ValueError(f"node {node} listed twice")
            positions[node] = Position(x, y)
            ids[parts[0]] = node
        else:
            raise ValueError("malformed line: " + repr(line.rstrip("\n")))
    if len(positions) != n:
        raise ValueError(f"header says {n} nodes, file has {len(positions)}")
    return Topology(params=params, positions=positions, links=links)


def _six_field_shape(n: int) -> tuple[int, int]:
    """The grid a header without `rows cols` stands for: sqrt(n) x sqrt(n)
    when n is square, else one row."""
    side = math.isqrt(n)
    return (side, side) if side * side == n else (1, n)


def _convert(parts: list[str], fields, lineno: int) -> list:
    """Each of parts converted by its field's type; a part the type
    rejects raises ValueError naming the line and the field."""
    values = []
    for raw, (name, kind) in zip(parts, fields):
        try:
            values.append(kind(raw))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(
                f"line {lineno}: {name} must be {what}, got {raw!r}") from None
    return values
