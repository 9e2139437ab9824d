"""Topology generation: placement, link model, persistence."""

from __future__ import annotations

import hashlib
import math
import re
import random
from pathlib import Path

import pytest

from extrout import topology
from extrout.rng import substream
from extrout.topology import (
    Position,
    Topology,
    TopologyParams,
    average_degree,
    build_qudg,
    generate,
    link_probability,
    load_topology,
    place_nodes,
    topology_to_text,
)

from oracles import adjacency, link_pairs

DATA = Path(__file__).parent / "data"


def _loaded(tmp_path, text: str) -> Topology:
    """load_topology on a file holding text as UTF-8."""
    path = tmp_path / "topo.txt"
    path.write_bytes(text.encode("utf-8"))
    return load_topology(path)


# ---------------------------------------------------------------- link model

def test_link_probability_certain_below_inner_radius():
    assert link_probability(30.0, 145.0, 0.25) == 1.0
    assert link_probability(0.0, 145.0, 0.25) == 1.0
    assert link_probability(36.24, 145.0, 0.25) == 1.0


def test_link_probability_zero_at_and_beyond_range():
    assert link_probability(145.0, 145.0, 0.25) == 0.0
    assert link_probability(150.0, 145.0, 0.25) == 0.0
    assert link_probability(1e9, 145.0, 0.25) == 0.0


def test_link_probability_linear_band_value():
    assert link_probability(100.0, 145.0, 0.25) == (145.0 - 100.0) / (145.0 - 36.25)
    assert link_probability(100.0, 145.0, 0.25) == pytest.approx(0.41379, abs=5e-6)


def test_link_probability_band_boundaries():
    assert link_probability(36.25, 145.0, 0.25) == 1.0
    just_inside = math.nextafter(145.0, 0.0)
    assert 0.0 < link_probability(just_inside, 145.0, 0.25) < 0.001


def test_link_probability_non_increasing_in_distance():
    rng = random.Random(4242)
    distances = sorted(rng.uniform(0.0, 200.0) for _ in range(500))
    values = [link_probability(d, 145.0, 0.25) for d in distances]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_link_probability_degenerate_factor_one_is_pure_disk():
    # a=1 leaves no probabilistic band, so the division never happens
    assert link_probability(144.9, 145.0, 1.0) == 1.0
    assert link_probability(145.0, 145.0, 1.0) == 0.0


def test_link_probability_rejects_bad_arguments():
    with pytest.raises(ValueError):
        link_probability(-1.0, 145.0, 0.25)
    with pytest.raises(ValueError):
        link_probability(10.0, 0.0, 0.25)
    with pytest.raises(ValueError):
        link_probability(10.0, math.nan, 0.25)
    with pytest.raises(ValueError):
        link_probability(10.0, math.inf, 0.25)
    with pytest.raises(ValueError):
        link_probability(10.0, 145.0, 1.5)
    with pytest.raises(ValueError):
        link_probability(10.0, 145.0, -0.1)


# ----------------------------------------------------------------- placement

def test_place_nodes_within_jitter_box():
    params = TopologyParams(grid_rows=20, grid_cols=20, spacing=100.0,
                            perturbation=0.25, seed=11)
    positions = place_nodes(params, substream(11, "placement"))
    assert len(positions) == 400
    for node, pos in positions.items():
        row, col = divmod(node - 1, params.grid_cols)
        assert abs(pos.x - col * 100.0) <= 25.0
        assert abs(pos.y - row * 100.0) <= 25.0


def test_place_nodes_zero_perturbation_is_exact_grid():
    params = TopologyParams(grid_rows=3, grid_cols=4, spacing=50.0,
                            perturbation=0.0, seed=1)
    positions = place_nodes(params, substream(1, "placement"))
    for node, pos in positions.items():
        row, col = divmod(node - 1, params.grid_cols)
        assert pos == Position(col * 50.0, row * 50.0)


def test_place_nodes_deterministic_per_seed():
    params = TopologyParams(grid_rows=5, grid_cols=5, seed=9)
    first = place_nodes(params, substream(9, "placement"))
    second = place_nodes(params, substream(9, "placement"))
    assert first == second
    other = place_nodes(params, substream(10, "placement"))
    assert first != other


def test_node_at_is_row_major():
    # ids are 1-based, cells 0-based
    params = TopologyParams(grid_rows=3, grid_cols=5, seed=0)
    assert params.node_at(0, 0) == 1
    assert params.node_at(0, 4) == 5
    assert params.node_at(1, 0) == 6
    assert params.node_at(2, 4) == 15
    for node in range(1, 16):
        assert params.node_at(*divmod(node - 1, params.grid_cols)) == node


def test_params_validation():
    with pytest.raises(ValueError):
        TopologyParams(grid_rows=0, grid_cols=5)
    with pytest.raises(ValueError):
        TopologyParams(grid_rows=2, grid_cols=2, spacing=0.0)
    with pytest.raises(ValueError):
        TopologyParams(grid_rows=2, grid_cols=2, perturbation=1.5)
    with pytest.raises(ValueError):
        TopologyParams(grid_rows=2, grid_cols=2, qudg_factor=-0.5)
    with pytest.raises(ValueError):
        TopologyParams(grid_rows=2, grid_cols=2, tx_range=-1.0)


# ----------------------------------------------------------------- build

def test_build_qudg_certain_and_forbidden_links_exhaustive():
    # 100 m pitch, no jitter: laterals at 100 < aR are certain, diagonals
    # at ~141 < 142.5 too, and two-apart pairs at 200 > R never link.
    params = TopologyParams(grid_rows=3, grid_cols=3, spacing=100.0,
                            perturbation=0.0, tx_range=150.0,
                            qudg_factor=0.95, seed=2)
    topo = generate(params)
    expected = set()
    for i in topo.nodes:
        for j in topo.nodes:
            if i < j and math.dist(topo.positions[i],
                                   topo.positions[j]) < 0.95 * 150.0:
                expected.add((i, j))
    assert link_pairs(topo) == expected
    assert len(expected) == 12 + 8  # laterals + diagonals on a 3x3 grid


def test_build_qudg_respects_hard_bounds_with_jitter():
    params = TopologyParams(grid_rows=10, grid_cols=10, seed=5)
    topo = generate(params)
    certain = params.qudg_factor * params.tx_range
    linked = link_pairs(topo)
    for i in topo.nodes:
        for j in topo.nodes:
            if i >= j:
                continue
            d = math.dist(topo.positions[i], topo.positions[j])
            if d < certain:
                assert (i, j) in linked
            if d >= params.tx_range:
                assert (i, j) not in linked


def test_build_qudg_deterministic_per_seed():
    params = TopologyParams(grid_rows=8, grid_cols=8, seed=77)
    assert link_pairs(generate(params)) == link_pairs(generate(params))


class _CountingMath:
    """Stands in for the math module and counts dist calls."""

    def __init__(self):
        self.dist_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def dist(self, p, q):
        self.dist_calls += 1
        return math.dist(p, q)


def test_build_qudg_evaluates_linearly_many_distances(monkeypatch):
    # Counting instead of timing: an all-pairs scan makes N(N-1)/2 =
    # 1,279,200 evaluations here, the cell grid about 8 per node.
    params = TopologyParams(grid_rows=40, grid_cols=40, seed=1)
    positions = place_nodes(params, substream(params.seed, "placement"))
    counting = _CountingMath()
    monkeypatch.setattr(topology, "math", counting)
    topo = build_qudg(positions, params, substream(params.seed, "links"))
    assert link_pairs(topo)
    assert counting.dist_calls < 20 * params.node_count


def _two_node_params(seed: int) -> TopologyParams:
    return TopologyParams(grid_rows=1, grid_cols=2, spacing=100.0,
                          perturbation=0.0, tx_range=145.0,
                          qudg_factor=0.25, seed=seed)


@pytest.mark.parametrize("distance", [60.0, 100.0, 130.0])
def test_band_link_frequency_matches_probability(distance):
    # 10^4 independent draws through the real builder per probed distance
    positions = {1: Position(0.0, 0.0), 2: Position(distance, 0.0)}
    trials = 10_000
    hits = 0
    for trial in range(trials):
        params = _two_node_params(trial)
        topo = build_qudg(positions, params, substream(trial, "links"))
        hits += 1 if link_pairs(topo) else 0
    expected = link_probability(distance, 145.0, 0.25)
    assert abs(hits / trials - expected) < 0.02


# ----------------------------------------------------------------- topology

def test_topology_rejects_self_links_and_unplaced_endpoints():
    params = TopologyParams(grid_rows=1, grid_cols=2, seed=0)
    positions = {1: Position(0.0, 0.0), 2: Position(10.0, 0.0)}
    with pytest.raises(ValueError, match=r"^self-link on node 1$"):
        Topology(params, positions, ((1, 2), (1, 1)))
    with pytest.raises(ValueError, match=r"^link \(1, 3\) references an unplaced node$"):
        Topology(params, positions, ((1, 3),))


def test_adjacency_is_sorted_and_symmetric():
    params = TopologyParams(grid_rows=1, grid_cols=4, seed=0)
    positions = {i: Position(i * 10.0, 0.0) for i in range(1, 5)}
    topo = Topology(params, positions, ((3, 1), (2, 3), (4, 3)))
    assert topo.neighbor_indices == ((2,), (2,), (0, 1, 3), (2,))
    assert adjacency(topo)[3] == (1, 2, 4)
    assert (1, 3) in link_pairs(topo) and (1, 2) not in link_pairs(topo)


def test_average_degree_complete_triangle():
    params = TopologyParams(grid_rows=1, grid_cols=3, seed=0)
    positions = {i: Position(i * 10.0, 0.0) for i in range(1, 4)}
    topo = Topology(params, positions, ((1, 2), (1, 3), (2, 3)))
    assert average_degree(topo) == 2.0


def test_average_degree_empty_links():
    params = TopologyParams(grid_rows=1, grid_cols=3, seed=0)
    positions = {i: Position(i * 10.0, 0.0) for i in range(1, 4)}
    assert average_degree(Topology(params, positions, ())) == 0.0


def test_average_degree_uses_interior_nodes_when_present():
    # dense 5x5 disk grid: every interior node has all 8 neighbors
    params = TopologyParams(grid_rows=5, grid_cols=5, spacing=100.0,
                            perturbation=0.0, tx_range=150.0,
                            qudg_factor=0.95, seed=4)
    topo = generate(params)
    assert average_degree(topo) == 8.0  # corners and edges excluded


@pytest.mark.parametrize("shift", [-1, 4, 100])
def test_average_degree_over_all_nodes_when_ids_are_not_the_cells(tmp_path, shift):
    # the dense 3x3 grid renumbered n + shift, as a file may number it:
    # corners have 3 links, edges 5 and the centre 8
    dense = generate(TopologyParams(grid_rows=3, grid_cols=3, perturbation=0.0,
                                    tx_range=150.0, qudg_factor=0.95, seed=4))
    text = topology_to_text(Topology(
        dense.params, {n + shift: pos for n, pos in dense.positions.items()},
        frozenset((i + shift, j + shift) for i, j in link_pairs(dense))))
    assert average_degree(_loaded(tmp_path, text)) == 40 / 9


def _interior_degree(topo: Topology) -> float:
    """average_degree's rule node by node: the mean degree of the nodes
    whose row-major cell divmod(node - 1, cols) is off the border, or of
    every node when none is or the ids are not 1..N."""
    p = topo.params
    degrees = {n: len(near) for n, near in zip(topo.nodes, topo.neighbor_indices)}
    inner = []
    if sorted(degrees) == list(range(1, p.node_count + 1)):
        for node, degree in degrees.items():
            row, col = divmod(node - 1, p.grid_cols)
            if 0 < row < p.grid_rows - 1 and 0 < col < p.grid_cols - 1:
                inner.append(degree)
    inner = inner or list(degrees.values())
    return sum(inner) / len(inner)


@pytest.mark.parametrize("rows, cols", [(1, 16), (16, 1), (2, 2), (2, 5), (3, 3),
                                        (10, 30), (30, 10), (20, 20)])
def test_average_degree_matches_a_node_by_node_interior_rule(rows, cols):
    # the default profile's band links give the cells unequal degrees
    for seed in (1, 2):
        topo = generate(TopologyParams(rows, cols, seed=seed))
        assert average_degree(topo) == _interior_degree(topo)


def test_average_degree_counts_every_node_of_the_sparse_id_file():
    topo = load_topology(DATA / "sparse_ids_8x8.txt")
    assert (topo.params.grid_rows, topo.params.grid_cols) == (8, 8)
    assert average_degree(topo) == _interior_degree(topo) == 198 / 64
    assert f"{average_degree(topo):.3f}" == "3.094"


# ----------------------------------------------------------------- text form

def test_topology_text_round_trip_is_lossless(tmp_path):
    params = TopologyParams(grid_rows=4, grid_cols=4, seed=21)
    topo = generate(params)
    back = _loaded(tmp_path, topology_to_text(topo))
    assert back.positions == topo.positions
    assert link_pairs(back) == link_pairs(topo)
    assert back.params.tx_range == params.tx_range
    assert back.params.qudg_factor == params.qudg_factor
    assert back.params.perturbation == params.perturbation
    assert back.params.spacing == params.spacing
    assert back.params.seed == params.seed
    assert back.params.node_count == params.node_count


def test_save_and_load_topology(tmp_path):
    params = TopologyParams(grid_rows=3, grid_cols=3, seed=8)
    topo = generate(params)
    path = tmp_path / "topo.txt"
    path.write_text(topology_to_text(topo), encoding="utf-8")
    back = load_topology(path)
    assert back.positions == topo.positions
    assert link_pairs(back) == link_pairs(topo)


@pytest.mark.parametrize("rows, cols", [(10, 30), (1, 16), (30, 1), (4, 4), (1, 7)])
def test_a_saved_grid_loads_back_in_its_shape(tmp_path, rows, cols):
    # Six header fields stand for a square grid when N is square, else one
    # row; any other shape ends the header with `rows cols`.
    params = TopologyParams(rows, cols, seed=1)
    topo = generate(params)
    text = topology_to_text(topo)
    head = text.split("\n", 1)[0].split()
    assert head[6:] == ([] if (rows, cols) in ((4, 4), (1, 7)) else [str(rows), str(cols)])
    back = _loaded(tmp_path, text)
    assert back.params == params
    assert back == topo
    assert average_degree(back) == average_degree(topo)


def _text_by_lines(topo: Topology) -> str:
    """The text exchange format written line by line: the header, with
    `rows cols` when the grid holds the nodes but is neither the square
    nor the one row six fields stand for, each node by ascending id, then
    each link (low, high) in sorted order."""
    p = topo.params
    n = len(topo.positions)
    side = math.isqrt(n)
    six = (side, side) if side * side == n else (1, n)
    out = "%d %r %r %r %r %d" % (n, p.tx_range, p.qudg_factor, p.perturbation,
                                 p.spacing, p.seed)
    if p.grid_rows * p.grid_cols == n and (p.grid_rows, p.grid_cols) != six:
        out += " %d %d" % (p.grid_rows, p.grid_cols)
    out += "\n"
    for node in sorted(topo.positions):
        x, y = topo.positions[node]
        out += "%d %r %r\n" % (node, x, y)
    for i, j in sorted(link_pairs(topo)):
        out += "%d %d\n" % (i, j)
    return out


@pytest.mark.parametrize("source", ["perturbed 12x12", "10x30", "sparse ids"])
def test_topology_text_matches_a_line_by_line_writer(tmp_path, source):
    if source == "sparse ids":
        topo = load_topology(DATA / "sparse_ids_8x8.txt")
    elif source == "10x30":
        topo = generate(TopologyParams(10, 30, seed=1))
    else:
        topo = generate(TopologyParams(12, 12, perturbation=0.5, seed=6))
    text = topology_to_text(topo)
    assert text == _text_by_lines(topo)
    assert len(text.split("\n", 1)[0].split()) == (8 if source == "10x30" else 6)
    assert _loaded(tmp_path, text) == topo
    if source == "sparse ids":  # negative ids, in node and link lines
        assert text == (DATA / "sparse_ids_8x8.txt").read_text(encoding="utf-8")


def test_a_grid_that_does_not_hold_its_nodes_writes_no_shape(tmp_path):
    # A hand-built topology may carry any params; a shape whose product is
    # not N would make a file the loader rejects, so none is written.
    topo = Topology(TopologyParams(2, 2), {k: Position(100.0 * k, 0.0) for k in (1, 2, 3)},
                    [(1, 2), (2, 3)])
    text = topology_to_text(topo)
    assert len(text.split("\n", 1)[0].split()) == 6
    back = _loaded(tmp_path, text)
    assert (back.params.grid_rows, back.params.grid_cols) == (1, 3)


@pytest.mark.parametrize("header, message", [
    ("3 150.0 0.95 0.0 100.0 0 3", "malformed header"),
    ("3 150.0 0.95 0.0 100.0 0 2 2", "header grid 2x2 does not hold 3 nodes"),
    ("3 150.0 0.95 0.0 100.0 0 1 x", "line 1: cols must be an integer, got 'x'"),
])
def test_loader_rejects_a_bad_grid_shape(tmp_path, header, message):
    text = f"{header}\n1 0.0 0.0\n2 100.0 0.0\n3 200.0 0.0\n1 2\n"
    with pytest.raises(ValueError, match=re.escape(message)):
        _loaded(tmp_path, text)


def test_loader_skips_comment_lines(tmp_path):
    params = TopologyParams(grid_rows=2, grid_cols=2, seed=1)
    topo = generate(params)
    path = tmp_path / "topo.txt"
    path.write_text("# provenance line\n# another\n" + topology_to_text(topo),
                    encoding="utf-8")
    back = load_topology(path)
    assert back.positions == topo.positions


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_loader_reads_any_line_ending(tmp_path, newline):
    topo = generate(TopologyParams(3, 3, seed=4))
    saved = topology_to_text(topo)
    text = "# saved\n\n" + saved
    assert _loaded(tmp_path, text) == topo
    assert _loaded(tmp_path, text.replace("\n", newline)) == topo
    # Only these three end a line: split at NEL, the file is one long line.
    with pytest.raises(ValueError, match="malformed header"):
        _loaded(tmp_path, saved.replace("\n", "\x85"))


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["x", "y"])
def test_loader_rejects_non_finite_coordinates(tmp_path, field, raw):
    node = f"2 {raw} 0.0" if field == "x" else f"2 100.0 {raw}"
    text = f"2 150.0 0.95 0.0 100.0 0\n# nodes\n1 0.0 0.0\n{node}\n1 2\n"
    with pytest.raises(ValueError, match=re.escape(
            f"line 4: {field} must be a finite number, got '{raw}'")):
        _loaded(tmp_path, text)


def test_topology_accepts_links_as_any_pairs():
    positions = {n: Position(100.0 * n, 0.0) for n in (1, 2, 3)}
    topo = Topology(TopologyParams(1, 3), positions, [[2, 1], [1, 3], (3, 1)])
    assert link_pairs(topo) == frozenset({(1, 2), (1, 3)})
    assert adjacency(topo) == {1: (2, 3), 2: (1,), 3: (1,)}


# The README dense and the default profile at 20x20 and 80x80, a
# non-square grid, and a 9x9 grid whose cells are crowded, whose
# coordinates go negative and whose every linked pair is a band pair.
_PINNED_PROFILES = [
    TopologyParams(20, 20, perturbation=0.0, tx_range=150.0, qudg_factor=0.95, seed=3),
    TopologyParams(20, 20, seed=3),
    TopologyParams(10, 30, perturbation=0.5, qudg_factor=0.5, seed=7),
    TopologyParams(80, 80, perturbation=0.0, tx_range=150.0, qudg_factor=0.95, seed=1),
    TopologyParams(80, 80, seed=1),
    TopologyParams(9, 9, perturbation=1.0, tx_range=450.0, qudg_factor=0.0, seed=5),
]


def test_generated_topologies_are_pinned(tmp_path):
    # Each profile's saved text and its link stream's state after the
    # build, hashed together: the same links from the same band variates,
    # and no variate more or less. The saved text loads back to the same
    # graph.
    digest = hashlib.sha256()
    for params in _PINNED_PROFILES:
        rng = substream(params.seed, "links")
        topo = build_qudg(place_nodes(params, substream(params.seed, "placement")),
                          params, rng)
        text = topology_to_text(topo)
        digest.update(text.encode())
        digest.update(repr(rng.getstate()).encode())
        # the 10x30 header ends with its shape, so it loads back as 10x30
        loaded = _loaded(tmp_path, text)
        assert loaded.params == params
        assert ((loaded.positions, loaded.neighbor_indices, loaded.nodes)
                == (topo.positions, topo.neighbor_indices, topo.nodes))
    assert digest.hexdigest() == "9266f3636c79668b64640ee48197d16b1bfa73d158135567ba45272adbbb8bcd"


def test_golden_2x2_placement_frozen():
    # run-once, inspected, frozen: 2x2 grid, p=0.5, seed 3
    params = TopologyParams(grid_rows=2, grid_cols=2, spacing=100.0,
                            perturbation=0.5, seed=3)
    generated = topology_to_text(generate(params))
    frozen = (DATA / "golden_2x2.txt").read_text(encoding="utf-8")
    assert generated == frozen


def test_default_deployment_degree_is_measured_not_asserted():
    # quoted average degree for these parameters is 7; the link model
    # yields about 2, so the value is only reported (see README)
    params = TopologyParams(grid_rows=20, grid_cols=20, seed=1)
    degree = average_degree(generate(params))
    assert 0.0 < degree < 8.0
