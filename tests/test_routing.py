"""Shortest paths, extrapolation, and disjoint path extraction."""

from __future__ import annotations

import hashlib
import logging
import random
from itertools import product

import pytest

from extrout import routing
from extrout.routing import (
    ExtendedRoute,
    Route,
    UnreachableError,
    at_hop_distance,
    disjoint_paths,
    extrapolate,
    hop_distances,
    path_avoids,
    shortest_path,
)
from extrout.topology import Position, Topology, TopologyParams, generate

from ladders import LINK_PROFILES, line_topology, parallel_paths, random_topology
from oracles import (CountingNeighbours, adjacency, bfs_levels, link_pairs,
                     max_node_disjoint_paths, min_disjoint_hops, route_is_valid,
                     smallest_shortest_path)


# ------------------------------------------------------------------- routes

def test_route_basics_and_validation():
    r = Route((4, 9, 2))
    assert r.hops == 2 and r.source == 4 and r.dest == 2
    assert r.links() == ((4, 9), (9, 2))
    assert Route((7,)).hops == 0
    with pytest.raises(ValueError):
        Route(())
    with pytest.raises(ValueError):
        Route((1, 2, 1))


def test_extended_route_accessors():
    full = Route(tuple(range(2, 18)))  # nodes 2..17, 15 hops
    ext = ExtendedRoute(route=full, source_ext=3, dest_ext=4)
    assert ext.route.source == 2 and ext.route.dest == 17
    assert ext.route.nodes[ext.source_ext:len(full.nodes) - ext.dest_ext] == tuple(range(5, 14))
    assert ExtendedRoute(route=full, source_ext=0, dest_ext=15).dest_ext == 15
    with pytest.raises(ValueError):
        ExtendedRoute(route=full, source_ext=-1, dest_ext=3)
    with pytest.raises(ValueError):
        ExtendedRoute(route=full, source_ext=3, dest_ext=-1)
    with pytest.raises(ValueError):
        ExtendedRoute(route=full, source_ext=8, dest_ext=8)


# ------------------------------------------------------------ hop distances

def test_hop_distances_match_independent_bfs():
    for seed in range(100):
        topo = random_topology(24, 0.12, seed)
        graph = adjacency(topo)
        for start in (1, 12, 24):
            assert hop_distances(topo, start) == bfs_levels(graph, start)


def test_hop_tables_are_kept_from_the_first_request_and_read_only():
    # Tables are kept by source index; the dict hop_distances hands out is
    # the caller's own, read off the kept table.
    topo = line_topology(6)
    assert topo.memo == {}
    distances = hop_distances(topo, 1)
    table = topo.memo[routing._hop_table][0]
    assert topo.memo[routing._hop_table] == {0: table}
    assert table == (0, 1, 2, 3, 4, 5)
    distances[6] = 0
    assert hop_distances(topo, 1) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}
    assert topo.memo[routing._hop_table][0] is table
    with pytest.raises(TypeError):
        table[5] = 0
    assert table[5] == 5


def test_at_hop_distance_matches_bfs():
    # p = 0.06 leaves several components; the landmarks lie in node 1's,
    # so pairs elsewhere are searched without a bound. Cold, only the
    # landmarks' tables are kept, so most checks search; kept, every
    # node's table is, so every check reads one. hops = -1 matches no
    # pair, unreachable ones included. hops runs to 7 and to two past each
    # graph's diameter, where the landmarks' upper bound answers many
    # unsearched.
    for (p, seed), kept in product(((0.06, 1), (0.06, 2), (0.12, 3), (0.3, 4)),
                                   (False, True)):
        topo = random_topology(24, p, seed)
        graph = adjacency(topo)
        diameter = max(max(bfs_levels(graph, n).values()) for n in topo.nodes)
        if kept:
            for n in topo.nodes:
                hop_distances(topo, n)
        for u in topo.nodes:
            levels = bfs_levels(graph, u)
            for v in topo.nodes:
                for hops in range(-1, max(8, diameter + 3)):
                    assert at_hop_distance(topo, u, v, hops) == (levels.get(v) == hops)
        tables = topo.memo[routing._hop_table]
        if kept:
            assert len(tables) == topo.node_count
        else:  # the searches build no table of their own
            assert len(tables) <= routing.LANDMARKS
            assert set(tables.values()) == set(topo.memo[routing._landmarks])


def test_at_hop_distance_reads_a_kept_table_and_no_neighbour_list():
    # 1-2-3-4-5 and 6-7 are two components; 1's and 7's tables are kept
    line = line_topology(7)
    topo = Topology(line.params, line.positions, ((1, 2), (2, 3), (3, 4), (4, 5), (6, 7)))
    hop_distances(topo, 1)
    hop_distances(topo, 7)
    topo.neighbor_indices = counted = CountingNeighbours(topo.neighbor_indices)
    for u, v, hops, expected in ((1, 5, 4, True), (5, 1, 4, True), (1, 5, 3, False),
                                 (3, 7, 1, False), (1, 6, -1, False), (6, 1, -1, False),
                                 (7, 6, 1, True), (2, 7, -1, False)):
        assert at_hop_distance(topo, u, v, hops) is expected
    assert counted.reads == 0
    assert routing._landmarks not in topo.memo
    # with neither end's table kept, the landmark search runs
    assert at_hop_distance(topo, 2, 4, 2)
    assert counted.reads > 0
    assert routing._landmarks in topo.memo


def test_a_pair_closer_through_a_landmark_is_rejected_unsearched():
    # On the chain 1-...-9 the landmarks are 1, 9, 5 and 3. 4 and 6 both
    # lie 1 hop from landmark 5, so at most 2 hops apart: any more hops is
    # rejected with no search.
    topo = line_topology(9)
    routing._landmarks(topo)
    counted = _counted(topo)
    for hops in (3, 4, 8):
        assert not at_hop_distance(topo, 4, 6, hops)
    assert counted.reads == 0
    # a pair its landmarks leave open is searched
    assert at_hop_distance(topo, 4, 6, 2)
    assert counted.reads > 0


def test_at_hop_distance_rejects_ends_outside_the_topology():
    topo = line_topology(5)
    for u, v, hops in ((1, 99, 3), (98, 99, 0), (99, 99, 0), (99, 1, 3)):
        with pytest.raises(ValueError, match="not in topology"):
            at_hop_distance(topo, u, v, hops)


def test_hop_distance_values_and_errors():
    topo = line_topology(6)
    assert hop_distances(topo, 1)[6] == 5
    assert hop_distances(topo, 3)[3] == 0
    with pytest.raises(ValueError):
        hop_distances(topo, 99)
    split = Topology(topo.params, topo.positions, ((1, 2), (3, 4), (4, 5), (5, 6)))
    assert 6 not in hop_distances(split, 1)


# ------------------------------------------------------------ shortest path

def test_shortest_path_length_matches_bfs():
    rng = random.Random(7)
    for seed in range(60):
        topo = random_topology(24, 0.15, seed)
        levels = bfs_levels(adjacency(topo), 1)
        reachable = [n for n in levels if n != 1]
        if not reachable:
            continue
        for _ in range(5):
            target = rng.choice(reachable)
            route = shortest_path(topo, 1, target)
            assert route.hops == levels[target]
            assert route.source == 1 and route.dest == target
            assert route_is_valid(topo, route)


def _all_shortest_paths(topo: Topology, source: int, dest: int) -> list[tuple]:
    graph = adjacency(topo)
    dist = bfs_levels(graph, dest)
    paths = []

    def walk(prefix: list[int]) -> None:
        tail = prefix[-1]
        if tail == dest:
            paths.append(tuple(prefix))
            return
        for m in graph[tail]:
            if dist.get(m) == dist[tail] - 1:
                walk(prefix + [m])

    walk([source])
    return paths


def test_shortest_path_is_lexicographically_smallest():
    rng = random.Random(31)
    for seed in range(40):
        topo = random_topology(10, 0.3, seed)
        levels = bfs_levels(adjacency(topo), 1)
        reachable = [n for n in levels if n != 1]
        if not reachable:
            continue
        target = rng.choice(reachable)
        route = shortest_path(topo, 1, target)
        assert route.nodes == min(_all_shortest_paths(topo, 1, target))


def test_shortest_path_trivial_and_errors():
    topo = line_topology(5)
    assert shortest_path(topo, 3, 3) == Route((3,))
    with pytest.raises(ValueError):
        shortest_path(topo, 1, 9)
    with pytest.raises(ValueError):
        path_avoids(topo, 9, 1, set())  # an unknown source
    split = Topology(topo.params, topo.positions, ((1, 2), (4, 5)))
    with pytest.raises(UnreachableError):
        shortest_path(split, 1, 5)
    with pytest.raises(UnreachableError):
        path_avoids(split, 1, 5, {9})


def _counting_walks(monkeypatch) -> list:
    """The ordered pairs whose walk is started, in order: each call of
    routing._walk on a pair it keeps no walk for, whether it raises or
    not."""
    walks = []
    walk = routing._walk

    def counting(topo, source, dest, *stop):
        if (source, dest) not in topo.memo.get(counting, {}):
            walks.append((source, dest))
        return walk(topo, source, dest, *stop)

    # _walk keys its walks by routing._walk, which is now counting
    monkeypatch.setattr(routing, "_walk", counting)
    return walks


def test_routes_are_kept_by_ordered_pair(monkeypatch):
    topo = line_topology(6)
    walks = _counting_walks(monkeypatch)
    counted = _counted(topo)
    route = shortest_path(topo, 1, 5)
    assert counted.reads > 0
    counted.read.clear()
    assert shortest_path(topo, 1, 5) == route
    assert counted.reads == 0  # walked once per ordered pair
    assert walks == [(1, 5)]
    back = shortest_path(topo, 5, 1)
    assert back.nodes == route.nodes[::-1]
    assert walks == [(1, 5), (5, 1)]
    assert topo.memo[routing._walk] == {(1, 5): list(route.nodes),
                                        (5, 1): list(back.nodes)}
    assert topo == line_topology(6)


def test_a_bad_pair_raises_every_time_and_keeps_nothing(monkeypatch):
    topo = line_topology(5)
    split = Topology(topo.params, topo.positions, ((1, 2), (4, 5)))
    walks = _counting_walks(monkeypatch)
    for _ in range(2):
        with pytest.raises(ValueError):
            shortest_path(topo, 1, 9)
        with pytest.raises(UnreachableError):
            shortest_path(split, 1, 5)
        with pytest.raises(ValueError):
            path_avoids(topo, 9, 1, {3})
        with pytest.raises(UnreachableError):
            path_avoids(split, 1, 5, {3})
    assert walks == [(1, 9), (1, 5), (9, 1), (1, 5)] * 2
    assert topo.memo.get(routing._walk) == {}
    assert split.memo.get(routing._walk) == {}


# ------------------------------------------------------------- extrapolate

def test_extrapolate_exact_shape_on_a_line():
    # on a chain every strict extension step has exactly one candidate
    topo = line_topology(20)
    route = shortest_path(topo, 5, 13)
    ext = extrapolate(topo, route, 3, 4, random.Random(0))
    assert ext.route.nodes == tuple(range(2, 18))
    assert ext.source_ext == 3 and ext.dest_ext == 4
    assert ext.route.nodes[ext.source_ext:len(ext.route.nodes) - ext.dest_ext] == route.nodes
    assert route_is_valid(topo, ext.route)


def test_extrapolate_truncates_at_topology_edge(caplog):
    topo = line_topology(10)
    route = shortest_path(topo, 2, 8)
    with caplog.at_level(logging.INFO, logger="extrout.routing"):
        ext = extrapolate(topo, route, 3, 3, random.Random(0))
    assert ext.source_ext == 1  # only node 1 exists to the left
    assert ext.dest_ext == 2  # only 9, 10 to the right
    assert ext.route.nodes == tuple(range(1, 11))


def test_extrapolate_strict_requires_distance_growth():
    # triangle: the only neighbor of the source does not move away from
    # the destination, so strict mode stops while lenient mode takes it
    params = TopologyParams(grid_rows=1, grid_cols=3, perturbation=0.0, seed=0)
    positions = {i: Position(i * 10.0, 0.0) for i in (1, 2, 3)}
    topo = Topology(params, positions, ((1, 2), (1, 3), (2, 3)))
    route = shortest_path(topo, 1, 2)
    strict = extrapolate(topo, route, 1, 0, random.Random(0))
    assert strict.source_ext == 0
    lenient = extrapolate(topo, route, 1, 0, random.Random(0), strict=False)
    assert lenient.source_ext == 1
    assert lenient.route.source == 3


def test_extrapolate_respects_avoid_set():
    topo = line_topology(20)
    route = shortest_path(topo, 5, 13)
    ext = extrapolate(topo, route, 3, 4, random.Random(0), avoid=(4,))
    assert ext.source_ext == 0
    assert ext.dest_ext == 4


def test_extrapolate_tie_break_is_seed_deterministic():
    topo, hub_a, hub_b, rows = parallel_paths([4, 4, 4])
    route = Route((hub_a,) + tuple(rows[0]) + (hub_b,))
    # lenient mode: hub_b has one unused neighbor per remaining row and the
    # uniform tie-break should reach both of them across seeds
    picks = {extrapolate(topo, route, 0, 1, random.Random(s),
                         strict=False).route.dest for s in range(40)}
    assert picks == {rows[1][-1], rows[2][-1]}
    first = extrapolate(topo, route, 0, 1, random.Random(3), strict=False)
    again = extrapolate(topo, route, 0, 1, random.Random(3), strict=False)
    assert first == again


def test_extrapolate_validation():
    topo = line_topology(8)
    route = shortest_path(topo, 2, 6)
    with pytest.raises(ValueError):
        extrapolate(topo, route, -1, 0, random.Random(0))
    with pytest.raises(ValueError):
        extrapolate(topo, Route((2, 4)), 1, 1, random.Random(0))


# ----------------------------------------------------------- disjoint paths

def test_disjoint_paths_picks_cheapest_rows():
    topo, hub_a, hub_b, rows = parallel_paths([3, 4, 5])
    paths = disjoint_paths(topo, hub_a, hub_b, 2, Route((hub_a, hub_b)))
    assert sorted(p.hops for p in paths) == [4, 5]
    for p in paths:
        assert p.source == hub_a and p.dest == hub_b
        assert route_is_valid(topo, p)
    interiors = [set(p.nodes[1:-1]) for p in paths]
    assert interiors[0].isdisjoint(interiors[1])


def test_disjoint_paths_avoids_excluded_interior():
    topo, hub_a, hub_b, rows = parallel_paths([3, 4, 5])
    real = Route((hub_a,) + tuple(rows[0]) + (hub_b,))
    paths = disjoint_paths(topo, hub_a, hub_b, 2, real)
    used = set().union(*(p.nodes[1:-1] for p in paths))
    assert used.isdisjoint(rows[0])
    assert sorted(p.hops for p in paths) == [5, 6]


def test_disjoint_paths_ignore_excluded_ids_outside_the_topology():
    # excluded only names nodes to avoid: an id the topology lacks bans
    # nothing and must not crash the search.
    topo, hub_a, hub_b, rows = parallel_paths([3, 4, 5])
    stray = Route((hub_a, max(topo.nodes) + 1, -7, rows[1][0], hub_b))
    assert (disjoint_paths(topo, hub_a, hub_b, 3, stray)
            == disjoint_paths(topo, hub_a, hub_b, 3, Route((hub_a, rows[1][0], hub_b))))
    stray = Route((hub_a, 0, 10**9, hub_b))
    assert (disjoint_paths(topo, hub_a, hub_b, 3, stray)
            == disjoint_paths(topo, hub_a, hub_b, 3, Route((hub_a, hub_b))))


def test_disjoint_paths_shortfall_returns_fewer(caplog):
    topo, hub_a, hub_b, _ = parallel_paths([2, 3])
    with caplog.at_level(logging.INFO, logger="extrout.routing"):
        paths = disjoint_paths(topo, hub_a, hub_b, 4, Route((hub_a, hub_b)))
    assert len(paths) == 2
    assert "only 2 of 4" in caplog.text


def test_disjoint_paths_count_matches_flow_oracle():
    rng = random.Random(99)
    checked = 0
    for seed in range(80):
        topo = random_topology(20, 0.2, seed)
        a, b = rng.sample(topo.nodes, 2)
        expected = max_node_disjoint_paths(adjacency(topo), a, b)
        paths = disjoint_paths(topo, a, b, 20, Route((a, b)))
        assert len(paths) == expected
        for p in paths:
            assert route_is_valid(topo, p)
            assert p.source == a and p.dest == b
        interiors = [set(p.nodes[1:-1]) for p in paths]
        for i, left in enumerate(interiors):
            for right in interiors[i + 1:]:
                assert left.isdisjoint(right)
        checked += 1 if expected else 0
    assert checked >= 40  # the sweep actually exercised positive cases


def test_disjoint_paths_flow_oracle_with_banned_interior():
    rng = random.Random(5)
    exercised = 0
    for seed in range(60):
        topo = random_topology(18, 0.25, seed)
        a, b = rng.sample(topo.nodes, 2)
        try:
            real = shortest_path(topo, a, b)
        except UnreachableError:
            continue
        banned = set(real.nodes[1:-1])
        expected = max_node_disjoint_paths(adjacency(topo), a, b, banned)
        paths = disjoint_paths(topo, a, b, 18, real)
        assert len(paths) == expected
        for p in paths:
            assert banned.isdisjoint(p.nodes[1:-1])
        exercised += 1 if banned else 0
    assert exercised >= 20


def _brute_force_cases():
    # Here augmenting along the paths with fewest arcs, which still yields
    # the most paths, totals 7 hops for two paths from 3 to 4, not 6.
    links = ((1, 3), (1, 5), (1, 7), (2, 6), (2, 7), (3, 6), (4, 5), (4, 7), (5, 6))
    trap = Topology(TopologyParams(1, 7), {n: Position(float(n), 0.0) for n in range(1, 8)},
                    frozenset(links))
    yield trap, 3, 4, Route((3, 4))
    rng = random.Random(17)
    for seed in range(120):
        topo = random_topology(9, (0.25, 0.35, 0.6)[seed % 3], seed)
        a, b = rng.sample(topo.nodes, 2)
        excluded = Route((a, b))
        if seed % 2:
            try:
                excluded = shortest_path(topo, a, b)
            except UnreachableError:
                pass
        yield topo, a, b, excluded


def test_disjoint_paths_min_total_hops_matches_brute_force():
    checked = 0
    for topo, a, b, excluded in _brute_force_cases():
        totals = min_disjoint_hops(adjacency(topo), a, b, excluded.nodes[1:-1])
        for count in (1, 2, 3, 5):
            paths = disjoint_paths(topo, a, b, count, excluded)
            assert len(paths) == min(count, len(totals) - 1)
            assert sum(p.hops for p in paths) == totals[len(paths)]
            checked += len(paths) >= 2
    assert checked >= 100


def test_disjoint_paths_ignores_how_nodes_are_numbered():
    # Ids read from a topology file can be any ints, negative included;
    # relabelling every node (in the same order) relabels every path.
    topo = generate(TopologyParams(8, 8, perturbation=0.25, tx_range=180.0,
                                   qudg_factor=0.5, seed=4))
    relabel = {n: 7 * n - 100 for n in topo.nodes}
    moved = Topology(topo.params, {relabel[n]: pos for n, pos in topo.positions.items()},
                     frozenset((relabel[i], relabel[j]) for i, j in link_pairs(topo)))
    rng = random.Random(8)
    found = 0
    for _ in range(20):
        a, b = rng.sample(topo.nodes, 2)
        excluded = shortest_path(topo, a, b)
        paths = disjoint_paths(topo, a, b, 3, excluded)
        moved_paths = disjoint_paths(moved, relabel[a], relabel[b], 3,
                                     Route(tuple(relabel[n] for n in excluded.nodes)))
        assert moved_paths == [Route(tuple(relabel[n] for n in p.nodes)) for p in paths]
        found += len(paths)
    assert found >= 30


def test_first_disjoint_path_search_stops_at_the_goal():
    # One path needs no flow, so its search reads the neighbours of no
    # node that lies as far from the source as the goal or farther. With
    # nothing banned the walk never backs out: it reads the d lists of
    # the path's nodes before the goal.
    topo = generate(TopologyParams(10, 10, seed=0, **LINK_PROFILES[0]))
    levels = bfs_levels(adjacency(topo), 1)
    for goal, closer in ((2, 1), (34, 9), (100, 81)):
        assert sum(d < levels[goal] for d in levels.values()) == closer
        # walked before the count starts, as the walk reads the same lists
        expected = shortest_path(topo, 1, goal)
        counted = _counted(topo)
        paths = disjoint_paths(topo, 1, goal, 1, Route((1, goal)))
        assert paths == [expected]
        assert counted.read == [topo.node_index[n] for n in expected.nodes[:-1]]
        assert counted.reads == levels[goal] <= closer


def test_a_first_walk_backs_out_of_a_dead_end_once():
    # The source 1 is four hops from the goal 8. Its smallest closer
    # neighbour 2 leads only to 4, whose one closer neighbour 6 is banned,
    # so the walk backs out of 4 and then 2 and goes on through 3. 3's
    # smallest closer neighbour is 4 again, which the walk does not enter
    # twice.
    positions = {k: Position(100.0 * k, 0.0) for k in range(1, 9)}
    links = ((1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (6, 8), (5, 7), (7, 8))
    topo = Topology(TopologyParams(1, 8, perturbation=0.0), positions, links)
    excluded = Route((1, 6, 8))
    assert shortest_path(topo, 1, 8).nodes == (1, 2, 4, 6, 8)
    counted = _counted(topo)
    paths = disjoint_paths(topo, 1, 8, 1, excluded)
    assert [p.nodes for p in paths] == [
        smallest_shortest_path(adjacency(topo), 1, 8, excluded.nodes[1:-1])
    ] == [(1, 3, 5, 7, 8)]
    assert [topo.nodes[k] for k in counted.read] == [1, 2, 4, 2, 1, 3, 5, 7]


def test_a_first_pass_that_must_detour_falls_back_to_the_spfa():
    # Row 0 is two hops long and excluded, so the goal lies four hops away
    # through row 1, and the walk finds no step one hop closer than the
    # source. The SPFA then starts again from the source's out-side and
    # reads row 1 in order; the source's in-side, whose only arcs would
    # carry flow back, it never queues.
    topo, hub_a, hub_b, rows = parallel_paths([1, 3])
    at = topo.node_index
    hop_distances(topo, hub_b)
    counted = _counted(topo)
    paths = disjoint_paths(topo, hub_a, hub_b, 1, Route((hub_a, *rows[0], hub_b)))
    assert paths == [Route((hub_a, *rows[1], hub_b))]
    first, *later = rows[1]
    # [0, 0, 3, 0, 4, 5] when the SPFA read the source's in-side
    assert counted.read == [at[hub_a], at[hub_a], at[first], *(at[n] for n in later)]


def test_a_first_pass_whose_goal_is_cut_off_finds_nothing(caplog):
    # Excluding 3 and 4 leaves the source 2 only node 1, which is farther
    # from the goal, so the walk backs out of the source at once. The
    # SPFA then reads the source's out-side and node 1's; then nothing is
    # left.
    topo = line_topology(5)
    hop_distances(topo, 5)
    counted = _counted(topo)
    with caplog.at_level(logging.INFO, logger="extrout.routing"):
        paths = disjoint_paths(topo, 2, 5, 1, Route((2, 3, 4, 5)))
    assert paths == []
    assert "only 0 of 1" in caplog.text
    # indices of nodes 2, 2 and 1; [1, 1, 0, 1] when the SPFA read the
    # source's in-side
    assert counted.read == [1, 1, 0]


def test_a_long_detour_stops_where_the_spfa_discovers_the_goal():
    # A wall down column 3 of a 7x7 grid whose links reach the diagonal
    # neighbours leaves one gap, in the bottom row, so the goal two hops
    # from the source in the whole grid lies D = 6 hops away around the
    # wall. The fallback reads the grid in BFS levels from the source and
    # stops at the node that discovers the goal: it reads no node at the
    # goal's level or beyond, though nodes lie there.
    topo = generate(TopologyParams(7, 7, seed=0, **LINK_PROFILES[0]))
    cell = {(round(p.y / 100), round(p.x / 100)): n for n, p in topo.positions.items()}
    a, b = cell[3, 2], cell[3, 4]
    wall = [cell[r, 3] for r in range(6)]
    graph = adjacency(topo)
    levels = bfs_levels({n: [m for m in ms if m not in wall]
                         for n, ms in graph.items() if n not in wall}, a)
    d, big_d = bfs_levels(graph, a)[b], levels[b]
    assert (d, big_d) == (2, 6)
    assert sum(level >= big_d for level in levels.values()) > 1
    hop_distances(topo, b)
    counted = _counted(topo)
    paths = disjoint_paths(topo, a, b, 1, Route((a, *wall, b)))
    assert paths == [Route(smallest_shortest_path(graph, a, b, wall))]
    read = [topo.nodes[k] for k in counted.read]
    # Every neighbour one hop closer than the source lies in the wall, so
    # the walk reads the source alone, and the fallback starts there too.
    assert read[:2] == [a, a]
    fallback = read[1:]
    assert len(set(fallback)) == len(fallback)
    assert fallback[-1] == paths[0].nodes[-2]
    assert max(levels[n] for n in fallback) == big_d - 1


def test_anchors_in_different_components_read_nothing(caplog):
    topo = line_topology(4)
    split = Topology(topo.params, topo.positions, ((1, 2), (3, 4)))
    hop_distances(split, 4)
    counted = _counted(split)
    with caplog.at_level(logging.INFO, logger="extrout.routing"):
        assert disjoint_paths(split, 1, 4, 2, Route((1, 4))) == []
    assert "only 0 of 2" in caplog.text
    assert counted.reads == 0


def test_later_passes_take_no_bound_from_the_goal_table():
    # A lenient exclusion on a 14x17 grid. An SPFA limited to the corridor
    # the first pass uses (admitting an in-side only if its cost plus its
    # hops to the goal stays within a bound raised round by round) picks
    # another cost-10 augmenting path here, so a pair of paths with the
    # same 19 hops but other nodes.
    topo = generate(TopologyParams(14, 17, seed=881144, **LINK_PROFILES[0]))
    excluded = Route((56, 74, 57, 73, 89, 105, 121, 137, 154, 171, 188, 205,
                      223, 222, 206, 190, 207))
    assert [p.nodes for p in disjoint_paths(topo, 56, 207, 2, excluded)] == [
        (56, 55, 71, 88, 104, 120, 138, 155, 172, 189, 207),
        (56, 72, 90, 107, 123, 139, 156, 173, 191, 207)]


def test_disjoint_paths_validation():
    topo = line_topology(4)
    with pytest.raises(ValueError):
        disjoint_paths(topo, 1, 1, 2, Route((1, 4)))
    with pytest.raises(ValueError):
        disjoint_paths(topo, 1, 4, 0, Route((1, 4)))
    for outside in (9, -3):
        with pytest.raises(ValueError, match="anchors must be topology nodes"):
            disjoint_paths(topo, 1, outside, 2, Route((1, outside)))


def _disjoint_cases():
    """Seeded disjoint_paths calls on 6x6 to 12x12 grids: anchors come from
    extrapolated shortest paths, excluding that path as a plan does or
    nothing."""
    for side in range(6, 13):
        for k, profile in enumerate(LINK_PROFILES):
            topo = generate(TopologyParams(side, side, seed=10 * side + k, **profile))
            rng = random.Random(side * 31 + k)
            for _ in range(8):
                a = rng.choice(topo.nodes)
                reachable = sorted(hop_distances(topo, a).keys() - {a})
                if not reachable:
                    continue
                real = shortest_path(topo, a, rng.choice(reachable))
                main = extrapolate(topo, real, rng.randint(0, 3), rng.randint(0, 3),
                                   rng, strict=rng.random() < 0.5)
                a, b = main.route.source, main.route.dest
                for excluded in (main.route, Route((a, b))):
                    for count in range(1, 6):
                        yield topo, a, b, count, excluded


def _grid20_cases(counts=range(1, 4)):
    """Seeded disjoint_paths calls on 20x20 grids, the size the attack
    workloads plan on, in the README dense and the default sparse profile:
    anchors come from strict and lenient extrapolation of one drawn route,
    excluding that route or only the anchor pair."""
    for k, profile in enumerate(LINK_PROFILES[:2]):
        topo = generate(TopologyParams(20, 20, seed=3 + k, **profile))
        rng = random.Random(k)
        for _ in range(16):
            a = rng.choice(topo.nodes)
            reachable = sorted(hop_distances(topo, a).keys() - {a})
            if not reachable:
                continue
            real = shortest_path(topo, a, rng.choice(reachable))
            ext = rng.randint(0, 4), rng.randint(0, 4)
            for strict in (True, False):
                main = extrapolate(topo, real, *ext, rng, strict=strict)
                a, b = main.route.source, main.route.dest
                for excluded in (main.route, Route((a, b))):
                    for count in counts:
                        yield topo, a, b, count, excluded


def _paths_digest(cases) -> tuple[int, str]:
    digest = hashlib.sha256()
    calls = 0
    for topo, a, b, count, excluded in cases:
        paths = disjoint_paths(topo, a, b, count, excluded)
        digest.update(repr([p.nodes for p in paths]).encode() + b"\n")
        calls += 1
    return calls, digest.hexdigest()


def test_disjoint_paths_tie_order_is_pinned():
    # Which of several equally short path sets comes back is an output:
    # plans, traces and attack files all follow it. The hash was recorded
    # from the arc-list implementation the implicit search replaced.
    assert _paths_digest(_disjoint_cases()) == (
        1490, "d80336b14e58f04b65a9e580f8b9a04dd20780483792c15cd12471ec569ace00")


def test_disjoint_paths_tie_order_is_pinned_on_20x20_grids():
    # Recorded from the node-id search that the side-id search replaced.
    assert _paths_digest(_grid20_cases()) == (
        372, "4fe05267973a892cb5564ca190d4f7db59ef2d2f91edc3cd6a50013bf490c6a2")


def test_disjoint_paths_later_passes_are_pinned_on_20x20_grids():
    # Counts 4-6 run three or more SPFA passes, each stopping at the
    # distance the pass before it reached. Recorded from the search that
    # ran every pass until its queue emptied.
    assert _paths_digest(_grid20_cases(range(4, 7))) == (
        372, "ff46b41d05ea2c41710284fdd157c6c2a5a30225b4b26d74cb62f71bc66f9f66")


def _counted(topo) -> CountingNeighbours:
    topo.neighbor_indices = counted = CountingNeighbours(topo.neighbor_indices)
    return counted


def _pass_reads(topo, a, b, count, excluded):
    """The paths of one disjoint_paths call, and the neighbour lists it
    reads in its first pass and in its later passes. b's hop table is
    built before counting, so only the searches are counted. The first
    pass is what the same call reads at count 1; the later passes read
    the rest."""
    hop_distances(topo, b)
    plain = topo.neighbor_indices
    first = _counted(topo)
    disjoint_paths(topo, a, b, 1, excluded)
    topo.neighbor_indices = plain
    counted = _counted(topo)
    paths = disjoint_paths(topo, a, b, count, excluded)
    topo.neighbor_indices = plain
    assert counted.read[:first.reads] == first.read
    return paths, first.read, counted.read[first.reads:]


def test_disjoint_paths_read_order_is_pinned_on_20x20_grids():
    # The order in which the searches read neighbour lists is the order
    # their queues pop, so a FIFO that pops in another order fails here
    # even where the paths it returns happen to agree.
    first_digest, later_digest = hashlib.sha256(), hashlib.sha256()
    calls = first_reads = 0
    for case in _grid20_cases(range(1, 7)):
        _, first, later = _pass_reads(*case)
        first_digest.update(repr(first).encode() + b"\n")
        later_digest.update(repr(later).encode() + b"\n")
        calls += 1
        first_reads += len(first)
    # Recorded when the SPFA stopped queueing the source's in-side, one
    # read less per pass than the 286,707 of the search that queued it
    # (digest 0a29a843...).
    assert (calls, later_digest.hexdigest()) == (
        744, "f0102d3e79fdd6e583c93c3efbc43771c7cd3b33119876c3cd54a4515dfac0fc")
    # Recorded from the first pass that walks: in 60 of the calls it backs
    # out of a node past the source (48 of them then reach the goal), and
    # in 186 it leaves the source and the SPFA takes over. A BFS bounded
    # by the goal's table read 23,328 lists here (digest a4643f76...), a
    # bounded round and then an unbounded BFS 23,142, the unbounded BFS
    # alone 79,668.
    assert (first_reads, first_digest.hexdigest()) == (
        8592, "cfdf5cf1f71c4ef5951de67338ab6b89c26440e2bdc558a9dcf1c48acc1bd7ae")


def test_later_disjoint_path_passes_stop_at_their_lower_bound():
    # A later pass's goal distance cannot fall below the cost of the path
    # the pass before it found, so the search ends once it reaches that.
    # Between the attack pair with nothing excluded both paths cost 8.
    topo = generate(TopologyParams(20, 20, seed=3, **LINK_PROFILES[0]))
    paths, first, later = _pass_reads(topo, 315, 160, 2, Route((315, 160)))
    assert [p.hops for p in paths] == [8, 8]
    # 151 when the SPFA read the source's in-side
    assert len(later) == 150
    # the walk reads the path's 8 nodes before the goal; 24 for the BFS
    # bounded by the goal's table, 154 for the unbounded BFS
    assert len(first) == 8
    # 563 when every pass ran until its queue emptied
    assert len(first) + len(later) <= 400


def test_a_later_pass_that_cannot_reach_its_bound_runs_to_the_end():
    # Around the excluded 8-hop route the cheapest augmenting paths cost 8
    # and then 9, so the second pass never reaches the bound of 8 and
    # reads as much as a search without the stop (401 neighbour lists).
    topo = generate(TopologyParams(20, 20, seed=3, **LINK_PROFILES[0]))
    real = shortest_path(topo, 315, 160)
    assert real.hops == 8
    paths, first, later = _pass_reads(topo, 315, 160, 2, real)
    assert [p.nodes for p in paths] == [
        (315, 295, 275, 254, 235, 216, 197, 178, 159, 160),
        (315, 296, 276, 256, 237, 218, 199, 180, 160)]
    # 402 when the SPFA read the source's in-side
    assert len(later) == 401
    # the walk reads the path's 8 nodes before the goal; 18 for the BFS
    # bounded by the goal's table, 135 for the unbounded BFS
    assert len(first) == 8
