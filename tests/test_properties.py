"""Property tests over random small Q-UDG topologies."""

from __future__ import annotations

import gc
import random
import tempfile
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extrout.adversary import observe, unlinkability_score
from extrout.metrics import reconcile, report_from_run
from extrout.protocols import (
    PARAMETERISED_KINDS,
    VARIANT_KINDS,
    PlacementError,
    ProtocolVariant,
    ScenarioSettings,
    _pair_tiers,
    build_scenario,
)
from extrout.rng import substream
from extrout.routing import (Route, UnreachableError, at_hop_distance, disjoint_paths,
                             extrapolate, hop_distances, path_avoids, shortest_path)
from extrout.simengine import TrafficTrace, run
from extrout.topology import (Position, Topology, TopologyParams, build_qudg, generate,
                              load_topology, place_nodes, topology_to_text)

from oracles import (CountingNeighbours, adjacency, bfs_levels, decoy_pair_tiers,
                     link_pairs, qudg_links, reference_disjoint_paths,
                     smallest_shortest_path)

# Random small Q-UDG deployments: perturbed grids up to 7x7, from sparse to
# nearly unit-disk link models.
topology_params = st.builds(
    TopologyParams, grid_rows=st.integers(3, 7), grid_cols=st.integers(3, 7),
    perturbation=st.floats(0.0, 0.5), tx_range=st.just(150.0),
    qudg_factor=st.floats(0.3, 1.0), seed=st.integers(0, 2**16))

# The same grids at TopologyParams' defaults, the sparse profile, which
# often leaves a grid in pieces.
sparse_topology_params = st.builds(
    TopologyParams, grid_rows=st.integers(3, 7), grid_cols=st.integers(3, 7),
    seed=st.integers(0, 2**16))

# Layouts for the cell grid: tx_range from a fifth of the 100 m spacing to
# 4.5 spacings leaves cells empty or crowded; perturbation 1 puts nodes
# below zero.
cell_grid_layouts = st.builds(
    TopologyParams, grid_rows=st.integers(1, 9), grid_cols=st.integers(1, 9),
    perturbation=st.floats(0.0, 1.0), tx_range=st.floats(20.0, 450.0),
    qudg_factor=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(params=cell_grid_layouts)
def test_cell_grid_links_match_the_all_pairs_scan(params):
    positions = place_nodes(params, substream(params.seed, "placement"))
    built = build_qudg(positions, params, substream(params.seed, "links"))
    assert link_pairs(built) == qudg_links(positions, params,
                                           substream(params.seed, "links"))


@settings(max_examples=150, deadline=None)
@given(params=cell_grid_layouts)
def test_cell_grid_draws_as_many_variates_as_the_all_pairs_scan(params):
    positions = place_nodes(params, substream(params.seed, "placement"))
    built, scanned = substream(params.seed, "links"), substream(params.seed, "links")
    build_qudg(positions, params, built)
    qudg_links(positions, params, scanned)
    assert built.getstate() == scanned.getstate()


@settings(max_examples=60, deadline=None)
@given(params=topology_params, shift=st.sampled_from((-1, 4, 100)))
def test_topology_text_lists_the_links_sorted(params, shift):
    # ids renumbered n + shift, as a file may number them, so id 0 occurs;
    # each link is given high end first, which the topology must normalize
    grid = generate(params)
    shifted = sorted((i + shift, j + shift) for i, j in link_pairs(grid))
    topo = Topology(params, {n + shift: pos for n, pos in grid.positions.items()},
                    [(j, i) for i, j in shifted])
    lines = topology_to_text(topo).splitlines()
    assert lines[1 + topo.node_count:] == [f"{i} {j}" for i, j in shifted]


@settings(max_examples=60, deadline=None)
@given(params=topology_params, rnd=st.randoms(use_true_random=False))
def test_topology_is_the_same_from_any_listing_of_its_links(params, rnd):
    # The links shuffled, some given high end first and some repeated, make
    # the topology that the sorted distinct pairs make; one link fewer does not.
    grid = generate(params)
    pairs = sorted(link_pairs(grid))
    assume(pairs)
    listed = [(j, i) if rnd.random() < 0.5 else (i, j) for i, j in pairs]
    listed += rnd.choices(listed, k=len(listed) // 3)
    rnd.shuffle(listed)
    topo = Topology(params, grid.positions, listed)
    plain = Topology(params, grid.positions, pairs)
    assert topo == plain and topo.neighbor_indices == plain.neighbor_indices
    dropped = rnd.choice(pairs)
    assert Topology(params, grid.positions,
                    [pair for pair in pairs if pair != dropped]) != topo


@settings(max_examples=60, deadline=None)
@given(params=st.integers(2, 7).flatmap(lambda side: st.builds(
           TopologyParams, grid_rows=st.just(side), grid_cols=st.just(side),
           perturbation=st.floats(0.0, 0.5), tx_range=st.just(150.0),
           qudg_factor=st.floats(0.3, 1.0), seed=st.integers(0, 2**16))),
       rnd=st.randoms(use_true_random=False))
def test_loader_reads_links_either_way_round_repeated_among_comments(params, rnd):
    # Square grids, so the shape the loader infers is the shape written.
    topo = generate(params)
    head, *body = topology_to_text(topo).splitlines()
    lines = [head]
    for line in body:
        if rnd.random() < 0.3:
            lines.append(rnd.choice(("", "   ", "# note", "  # indented")))
        parts = line.split()
        if len(parts) == 3:
            lines.append(line)
            continue
        either_way = (line, f"{parts[1]} {parts[0]}")
        lines.append(rnd.choice(either_way))
        if rnd.random() < 0.3:
            lines.append(rnd.choice(either_way))
    lines.append("# trailing")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "topo.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_topology(path)
    assert loaded == topo
    assert (loaded.neighbor_indices, loaded.nodes) == (topo.neighbor_indices, topo.nodes)


@settings(max_examples=100, deadline=None)
@given(params=topology_params, ends=st.tuples(st.integers(1, 49), st.integers(1, 49)))
def test_shortest_path_is_the_smallest_shortest_path(params, ends):
    # Any two nodes, one node to itself, and pairs in different components,
    # which raise when the walk is asked for, before it takes a step.
    topo = generate(params)
    source, other = (topo.nodes[(end - 1) % topo.node_count] for end in ends)
    for dest in (source, other):
        expected = smallest_shortest_path(adjacency(topo), source, dest)
        if expected is None:
            with pytest.raises(UnreachableError):
                path_avoids(topo, source, dest, set())
            with pytest.raises(UnreachableError):
                shortest_path(topo, source, dest)
        else:
            assert shortest_path(topo, source, dest).nodes == expected


@settings(max_examples=100, deadline=None)
@given(params=topology_params, data=st.data())
def test_path_avoids_is_the_smallest_shortest_path_test(params, data):
    # A run of checks and whole paths on up to four pairs, each check
    # against a random forbidden set, so a pair's kept walk may stop at a
    # forbidden node, be checked again against another set and be finished
    # by a path, in any order. Each answer must be the oracle's.
    topo = generate(params)
    graph = adjacency(topo)
    node = st.sampled_from(topo.nodes)
    pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=4))
    for _ in range(data.draw(st.integers(1, 12))):
        u, v = data.draw(st.sampled_from(pairs))
        expected = smallest_shortest_path(graph, u, v)
        if data.draw(st.booleans()):
            # a few nodes, often on the path, so walks stop and resume
            on_path = st.sampled_from(expected) if expected else node
            forbidden = data.draw(st.sets(st.one_of(node, on_path), max_size=3))
            if expected is None:
                with pytest.raises(UnreachableError):
                    path_avoids(topo, u, v, forbidden)
            else:
                assert path_avoids(topo, u, v, forbidden) == forbidden.isdisjoint(expected)
        elif expected is None:
            with pytest.raises(UnreachableError):
                shortest_path(topo, u, v)
        else:
            assert shortest_path(topo, u, v).nodes == expected


@settings(max_examples=60, deadline=None)
@given(params=topology_params, ends=st.tuples(st.integers(1, 49), st.integers(1, 49)),
       ext=st.tuples(st.integers(0, 4), st.integers(0, 4)), strict=st.booleans(),
       seed=st.integers(0, 2**16))
def test_every_search_maps_through_a_relabel_to_sparse_ids(params, ends, ext,
                                                          strict, seed):
    # The searches run on indices into the sorted ids. Every other topology
    # here numbers its nodes 1..N, where an index is its id - 1, so only
    # sparse ids show an id read as an index or the other way round. An
    # increasing relabel keeps every ascending tie-break, so each result
    # is the relabelled one.
    topo = generate(params)
    relabel = {n: 7 * n + 3 for n in topo.nodes}
    sparse = Topology(params, {relabel[n]: pos for n, pos in topo.positions.items()},
                      [(relabel[i], relabel[j]) for i, j in link_pairs(topo)])
    source, dest = (topo.nodes[(end - 1) % topo.node_count] for end in ends)
    dist = hop_distances(topo, source)
    assert hop_distances(sparse, relabel[source]) == {
        relabel[n]: d for n, d in dist.items()}
    for hops in range(max(dist.values()) + 2):
        assert (at_hop_distance(sparse, relabel[source], relabel[dest], hops)
                == (dist.get(dest) == hops))
    if dest not in dist:
        with pytest.raises(UnreachableError):
            shortest_path(sparse, relabel[source], relabel[dest])
        return
    route = shortest_path(topo, source, dest)
    moved = shortest_path(sparse, relabel[source], relabel[dest])
    assert moved.nodes == tuple(relabel[n] for n in route.nodes)
    # 2 is no sparse id, so it bans nothing, but it is the index of
    # relabel[2], which a search that took it for an index would ban
    main = extrapolate(topo, route, *ext, random.Random(seed), strict=strict)
    moved_main = extrapolate(sparse, moved, *ext, random.Random(seed),
                             strict=strict, avoid=(2,))
    assert moved_main.route.nodes == tuple(relabel[n] for n in main.route.nodes)
    assert (moved_main.source_ext, moved_main.dest_ext) == (main.source_ext,
                                                            main.dest_ext)
    a, b = main.route.source, main.route.dest
    if a != b:
        paths = disjoint_paths(topo, a, b, 3, main.route)
        moved_paths = disjoint_paths(sparse, relabel[a], relabel[b], 3,
                                     moved_main.route)
        assert moved_paths == [Route(tuple(relabel[n] for n in p.nodes))
                               for p in paths]


def _far_pair(topo, start: int) -> tuple[int, int]:
    """start and the farthest node it reaches (smallest id among ties)."""
    dist = hop_distances(topo, start)
    far = max(dist.values())
    return start, min(n for n, d in dist.items() if d == far)


def _outcomes(topo, pair, variants, seed: int) -> list:
    """One plan per variant, or the placement error's message, each with
    the state of its rng after the build."""
    results = []
    for variant in variants:
        rng = random.Random(seed)
        try:
            plan = build_scenario(topo, *pair, variant, rng=rng)
        except PlacementError as exc:
            plan = str(exc)
        results.append((plan, rng.getstate()))
    return results


@settings(max_examples=40, deadline=None)
@given(params=topology_params, plan_seed=st.integers(0, 2**16),
       starts=st.lists(st.integers(1, 49), min_size=2, max_size=4))
def test_cache_state_never_changes_a_plan(params, plan_seed, starts):
    # The other routes' placements also keep prefixes of decoy paths,
    # walked under other forbidden sets: some past where a check of this
    # route stops and some short of it.
    fresh, warmed = generate(params), generate(params)
    pair = _far_pair(fresh, 1 + (starts[0] - 1) % fresh.node_count)
    others = [_far_pair(warmed, 1 + (start - 1) % warmed.node_count)
              for start in starts[1:]]
    variants = (ProtocolVariant("extrout_fake", 1), ProtocolVariant("nfake_pairs", 1),
                ProtocolVariant("nfake_pairs", 3), ProtocolVariant("extrout_duplicates", 2))
    expected = _outcomes(fresh, pair, variants, plan_seed)
    for k, other in enumerate(others, 1):
        _outcomes(warmed, other, variants + (ProtocolVariant("extrout_duplicates", 1),),
                  plan_seed + k)
    assert _outcomes(warmed, pair, variants, plan_seed) == expected
    assert warmed == generate(params)


@settings(max_examples=60, deadline=None)
@given(params=topology_params, ends=st.tuples(st.integers(1, 49), st.integers(1, 49)),
       slack=st.integers(1, 2))
def test_pair_ranking_matches_a_bfs_per_node(params, ends, slack):
    # Any route the start node reaches, from zero hops up, on layouts that
    # leave components apart.
    topo = generate(params)
    start = topo.nodes[(ends[0] - 1) % topo.node_count]
    reached = sorted(hop_distances(topo, start))
    route = shortest_path(topo, start, reached[(ends[1] - 1) % len(reached)])
    expected = decoy_pair_tiers(adjacency(topo), topo.positions, route.nodes, slack)
    assert [list(tier) for tier in _pair_tiers(topo, route, slack)] == expected


# about one route in five is short enough for its pass to pause
@settings(max_examples=100, deadline=None)
@given(params=topology_params, ends=st.tuples(st.integers(1, 49), st.integers(1, 49)),
       slack=st.integers(1, 2), k=st.integers(1, 4))
def test_a_ranking_read_in_parts_is_the_ranking_of_a_bfs_per_node(params, ends, slack, k):
    # The same route on the layout and on a copy moved by (1e6, -1e6),
    # where the rounding of midpoints and distances is a million times
    # coarser: the pass must yield only complete tiers on both. A reader
    # that stops after k tiers and is collected must leave the shared pass
    # paused, not closed, for the next reader.
    grid = generate(params)
    moved = Topology(params, {n: Position(x + 1e6, y - 1e6)
                              for n, (x, y) in grid.positions.items()}, link_pairs(grid))
    start = grid.nodes[(ends[0] - 1) % grid.node_count]
    reached = sorted(hop_distances(grid, start))
    route = shortest_path(grid, start, reached[(ends[1] - 1) % len(reached)])
    for topo in (grid, moved):
        expected = decoy_pair_tiers(adjacency(topo), topo.positions, route.nodes, slack)
        reader = _pair_tiers(topo, route, slack)
        assert [list(tier) for tier in islice(reader, k)] == expected[:k]
        del reader
        gc.collect()
        assert [list(tier) for tier in islice(_pair_tiers(topo, route, slack), k)] == expected[:k]
        assert [list(tier) for tier in _pair_tiers(topo, route, slack)] == expected


@settings(max_examples=60, deadline=None)
@given(params=topology_params, data=st.data())
def test_pair_ranking_follows_ids_not_layout_order(params, data):
    # A file may number its nodes in any order, so a tier's pair order must
    # come from the ids: relabel every node by a random permutation, the
    # order-reversing one among them.
    grid = generate(params)
    ids = data.draw(st.one_of(st.just(grid.nodes[::-1]), st.permutations(grid.nodes)))
    relabel = dict(zip(grid.nodes, ids))
    topo = Topology(params, {relabel[n]: pos for n, pos in grid.positions.items()},
                    frozenset((relabel[i], relabel[j]) for i, j in link_pairs(grid)))
    start = data.draw(st.sampled_from(topo.nodes))
    route = shortest_path(topo, start, data.draw(
        st.sampled_from(sorted(hop_distances(topo, start)))))
    for slack in (1, 2):
        expected = decoy_pair_tiers(adjacency(topo), topo.positions, route.nodes, slack)
        assert [list(tier) for tier in _pair_tiers(topo, route, slack)] == expected


@settings(max_examples=30, deadline=None)
@given(params=topology_params, plan_seed=st.integers(0, 2**16),
       start=st.integers(1, 49), count=st.integers(1, 3),
       budget=st.integers(1, 50))
def test_measured_tof_is_the_summed_chain_hops(params, plan_seed, start,
                                               count, budget):
    topo = generate(params)
    pair = _far_pair(topo, 1 + (start - 1) % topo.node_count)
    assume(pair[0] != pair[1])
    for kind in VARIANT_KINDS:
        variant = ProtocolVariant(kind, count if kind in PARAMETERISED_KINDS else 0)
        try:
            plan = build_scenario(topo, *pair, variant,
                                  ScenarioSettings(packet_budget=budget),
                                  random.Random(plan_seed))
        except PlacementError:
            continue
        # every variant's carrier is the real route between its extensions
        main = plan.main
        assert (main.route.nodes[main.source_ext:len(main.route.nodes) - main.dest_ext]
                == plan.real_route.nodes), kind
        if not variant.uses_cover:
            assert (main.source_ext, main.dest_ext) == (0, 0), kind
        assert main.source_ext <= plan.requested_source_ext, kind
        assert main.dest_ext <= plan.requested_dest_ext, kind
        report = report_from_run(plan, run(plan))
        assert reconcile(report).passed, kind
        assert report.tof_measured == (sum(c.hops for c in plan.all_chains())
                                       / plan.real_route.hops), kind


@settings(max_examples=30, deadline=None)
@given(params=topology_params, plan_seed=st.integers(0, 2**16),
       start=st.integers(1, 49), count=st.integers(1, 3),
       budget=st.integers(1, 50), strict=st.booleans())
def test_every_plan_reconciles_at_every_residual_rate(params, plan_seed, start,
                                                      count, budget, strict):
    # Residual cover is deleted, so zero is the only residual rate there
    # is. The closed-form TOF is the summed chain hops over the real hops,
    # so the measured TOF matches it bit for bit and reconcile exempts no
    # plan, strict or lenient.
    topo = generate(params)
    pair = _far_pair(topo, 1 + (start - 1) % topo.node_count)
    assume(pair[0] != pair[1])
    for kind in VARIANT_KINDS:
        variant = ProtocolVariant(kind, count if kind in PARAMETERISED_KINDS else 0)
        try:
            plan = build_scenario(topo, *pair, variant,
                                  ScenarioSettings(packet_budget=budget,
                                                   strict=strict),
                                  random.Random(plan_seed))
        except PlacementError:
            continue
        report = report_from_run(plan, run(plan))
        assert report.tof_measured == report.tof_analytical, kind
        assert reconcile(report).passed, kind
        assert report.tof_analytical == (sum(c.hops for c in plan.all_chains())
                                         / plan.real_route.hops), kind


@settings(max_examples=30, deadline=None)
@given(params=topology_params, plan_seed=st.integers(0, 2**16),
       start=st.integers(1, 49), count=st.integers(1, 3),
       budget=st.integers(1, 50))
def test_scores_match_the_trace_keyed_by_every_node(params, plan_seed, start,
                                                    count, budget):
    # A trace keys only its transmitters. fmean and pstdev are exact, so the
    # order and the silent nodes' zeros must not move a single bit of the
    # score.
    topo = generate(params)
    pair = _far_pair(topo, 1 + (start - 1) % topo.node_count)
    assume(pair[0] != pair[1])
    for kind in VARIANT_KINDS:
        variant = ProtocolVariant(kind, count if kind in PARAMETERISED_KINDS else 0)
        try:
            plan = build_scenario(topo, *pair, variant,
                                  ScenarioSettings(packet_budget=budget),
                                  random.Random(plan_seed))
        except PlacementError:
            continue
        trace = run(plan)
        full = TrafficTrace(
            node_tx={n: trace.node_tx.get(n, 0) for n in topo.nodes},
            link_tx=dict(trace.link_tx))
        assert trace.total_transmissions == full.total_transmissions, kind
        assert (unlinkability_score(observe(trace)).hex()
                == unlinkability_score(observe(full)).hex()), kind


@settings(max_examples=60, deadline=None)
@given(params=topology_params, plan_seed=st.integers(0, 2**16),
       ends=st.tuples(st.integers(1, 49), st.integers(1, 49)),
       count=st.integers(1, 3), strict=st.booleans(), pinned=st.booleans())
def test_chains_share_no_node_but_the_duplicate_anchors(params, plan_seed, ends,
                                                        count, strict, pinned):
    # Pinned zero extensions keep a one-hop pair's carrier one hop long.
    topo = generate(params)
    source = topo.nodes[(ends[0] - 1) % topo.node_count]
    reached = sorted(hop_distances(topo, source))
    dest = reached[(ends[1] - 1) % len(reached)]
    assume(source != dest)
    settings = (ScenarioSettings(source_ext=0, dest_ext=0, strict=strict)
                if pinned else ScenarioSettings(strict=strict))
    for kind in VARIANT_KINDS:
        variant = ProtocolVariant(kind, count if kind in PARAMETERISED_KINDS else 0)
        try:
            plan = build_scenario(topo, source, dest, variant, settings,
                                  random.Random(plan_seed))
        except PlacementError:
            continue
        shared = ({plan.main.route.source, plan.main.route.dest}
                  if kind == "extrout_duplicates" else set())
        chains = [(set(chain.nodes), set(map(frozenset, chain.links())))
                  for chain in plan.all_chains()]
        for i, (nodes, links) in enumerate(chains):
            for other_nodes, other_links in chains[i + 1:]:
                assert nodes & other_nodes <= shared, kind
                assert not links & other_links, kind


@settings(max_examples=150, deadline=None)
@given(params=st.one_of(topology_params, sparse_topology_params),
       plan_seed=st.integers(0, 2**16),
       ends=st.tuples(st.integers(1, 49), st.integers(1, 49)),
       ext=st.tuples(st.integers(0, 3), st.integers(0, 3)), strict=st.booleans())
def test_one_disjoint_path_is_the_smallest_shortest_path(params, plan_seed, ends,
                                                         ext, strict):
    # Anchors as a plan draws them, or a pair in different components;
    # excluding the extended route bans its interior, excluding only the
    # anchor pair bans nothing.
    topo = generate(params)
    source = topo.nodes[(ends[0] - 1) % topo.node_count]
    dest = topo.nodes[(ends[1] - 1) % topo.node_count]
    assume(source != dest)
    to_goal = hop_distances(topo, dest)  # the first pass's bound, built uncounted
    if source in to_goal:
        main = extrapolate(topo, shortest_path(topo, source, dest), *ext,
                           random.Random(plan_seed), strict=strict)
        a, b = main.route.source, main.route.dest
        to_goal = hop_distances(topo, b)
        exclusions = (main.route, Route((a, b)))
    else:
        a, b = source, dest
        exclusions = (Route((a, b)),)
    graph = adjacency(topo)
    for excluded in exclusions:
        expected = smallest_shortest_path(graph, a, b, excluded.nodes[1:-1])
        plain = topo.neighbor_indices
        topo.neighbor_indices = counted = CountingNeighbours(plain)
        paths = disjoint_paths(topo, a, b, 1, excluded)
        topo.neighbor_indices = plain
        assert [p.nodes for p in paths] == ([expected] if expected else [])
        # The walk reads only the corridor of the goal's distance d in the
        # whole topology: a node it enters at step l lies at level at most
        # l from the source outside the banned interior, and l + to_goal =
        # d. It enters each node once, and each back out of a node that
        # has no unbanned step one hop closer reads the parent again,
        # apart from the source's. When the path is d hops long the walk
        # finds it, reading exactly d lists if it never backs out.
        # Otherwise the walk ends by leaving the source, and the SPFA takes
        # over from the source: it reads each node's out-side once, in BFS
        # levels, and never the source's in-side, until it discovers the
        # goal, so only nodes closer to the source than the goal; with no
        # path it reads every node the source reaches.
        read = [topo.nodes[k] for k in counted.read]
        if a not in to_goal:
            assert read == []
            continue
        banned = set(excluded.nodes[1:-1]) - {a, b}
        levels = bfs_levels({n: [m for m in ms if m not in banned]
                             for n, ms in graph.items() if n not in banned}, a)
        d = to_goal[a]
        walked = expected is not None and len(expected) - 1 == d
        restart = len(read) if walked else len(read) - 1 - read[::-1].index(a)
        walk, fallback = read[:restart], read[restart:]
        assert walk[0] == a
        assert all(levels[n] + to_goal[n] <= d for n in walk)
        if walked:
            assert len(walk) == len(set(walk)) + len(set(walk) - set(expected))
            if len(walk) == len(set(walk)):
                assert walk == list(expected[:-1])
        else:
            assert walk[-1] == a
            assert len(walk) == 2 * len(set(walk)) - 1
            assert len(set(fallback)) == len(fallback)
            if expected:
                assert all(levels[n] < len(expected) - 1 for n in fallback)
            else:
                assert set(fallback) == levels.keys()
    # The last call banned nothing: its path is the plain shortest path.
    if a in to_goal:
        assert paths == [shortest_path(topo, a, b)]


# The dense, default and degree-7 link profiles.
DISJOINT_PATH_PROFILES = ({"perturbation": 0.0, "tx_range": 150.0, "qudg_factor": 0.95},
                          {}, {"tx_range": 245.0})


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(3, 9), st.integers(3, 9)),
       profile=st.sampled_from(DISJOINT_PATH_PROFILES), seed=st.integers(0, 2**16),
       ends=st.tuples(st.integers(1, 81), st.integers(1, 81)),
       exclusion=st.sampled_from(("shortest", "extended", "quarter")),
       count=st.integers(1, 5), rnd=st.randoms(use_true_random=False))
def test_disjoint_paths_follow_the_reference_tie_order(shape, profile, seed, ends,
                                                       exclusion, count, rnd):
    # Excluded: the anchors' shortest path, an extended route around one,
    # or random interior nodes covering a quarter of the topology.
    topo = generate(TopologyParams(*shape, seed=seed, **profile))
    source = topo.nodes[(ends[0] - 1) % topo.node_count]
    reached = sorted(hop_distances(topo, source))
    dest = reached[(ends[1] - 1) % len(reached)]
    assume(source != dest)
    excluded = shortest_path(topo, source, dest)
    if exclusion == "extended":
        excluded = extrapolate(topo, excluded, rnd.randint(0, 3), rnd.randint(0, 3),
                               rnd, strict=rnd.random() < 0.5).route
    elif exclusion == "quarter":
        others = [n for n in topo.nodes if n not in (source, dest)]
        excluded = Route((source, *rnd.sample(others, topo.node_count // 4), dest))
    a, b = excluded.source, excluded.dest
    expected = reference_disjoint_paths(adjacency(topo), a, b, count,
                                        excluded.nodes[1:-1])
    assert [p.nodes for p in disjoint_paths(topo, a, b, count, excluded)] == expected
