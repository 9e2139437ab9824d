"""Scenario assembly for each privacy variant, plus the dummy schedule."""

from __future__ import annotations

import hashlib
import logging
import random
from collections import Counter
from dataclasses import replace
from inspect import GEN_SUSPENDED, getgeneratorstate
from itertools import islice

import pytest

from extrout.adversary import endpoint_candidates
from extrout.metrics import report_from_run
from extrout.protocols import (
    PlacementError,
    ProtocolVariant,
    ScenarioSettings,
    _pair_tiers,
    build_scenario,
    dummy_schedule,
    place_fake_pair,
)
from extrout.routing import (ExtendedRoute, Route, _hop_table, extrapolate,
                             hop_distances, shortest_path)
from extrout.simengine import run
from extrout.topology import Position, Topology, TopologyParams, generate

from ladders import LINK_PROFILES, line_topology, parallel_paths
from oracles import CountingNeighbours, adjacency, decoy_pair_tiers, link_pairs


def _pinned(src_ext: int, dst_ext: int, **kw) -> ScenarioSettings:
    return ScenarioSettings(source_ext=src_ext, dest_ext=dst_ext, **kw)


# ----------------------------------------------------------------- variants

def test_variant_kinds_and_validation():
    assert ProtocolVariant("no_privacy").kind == "no_privacy"
    assert ProtocolVariant("extrout_baseline").kind == "extrout_baseline"
    assert ProtocolVariant("extrout_duplicates", 2).count == 2
    assert ProtocolVariant("extrout_fake", 1).kind == "extrout_fake"
    assert ProtocolVariant("nfake_pairs", 5).count == 5
    with pytest.raises(ValueError):
        ProtocolVariant("mystery")
    with pytest.raises(ValueError):
        ProtocolVariant("extrout_duplicates", 0)
    with pytest.raises(ValueError):
        ProtocolVariant("no_privacy", count=3)


def test_cover_flag_tracks_the_extended_family():
    assert not ProtocolVariant("no_privacy").uses_cover
    assert not ProtocolVariant("nfake_pairs", 1).uses_cover
    assert ProtocolVariant("extrout_baseline").uses_cover
    assert ProtocolVariant("extrout_duplicates", 1).uses_cover
    assert ProtocolVariant("extrout_fake", 2).uses_cover


def test_settings_validation():
    with pytest.raises(ValueError):
        ScenarioSettings(ext_low=5, ext_high=2)
    with pytest.raises(ValueError):
        ScenarioSettings(source_ext=-1)
    with pytest.raises(ValueError):
        ScenarioSettings(packet_budget=0)


# ----------------------------------------------------------- build_scenario

def test_no_privacy_plan_is_just_the_real_route():
    topo = line_topology(12)
    plan = build_scenario(topo, 2, 10, ProtocolVariant("no_privacy"))
    assert plan.real_route == shortest_path(topo, 2, 10)
    assert plan.main == ExtendedRoute(plan.real_route, 0, 0)
    assert plan.duplicates == () and plan.fake_paths == ()
    assert plan.all_chains() == (plan.real_route,)


def test_baseline_plan_extends_both_sides():
    topo = line_topology(20)
    plan = build_scenario(topo, 5, 13, ProtocolVariant("extrout_baseline"),
                          _pinned(3, 4), random.Random(1))
    assert plan.real_route.hops == 8
    assert plan.main.route.nodes == tuple(range(2, 18))
    assert plan.requested_source_ext == 3 and plan.requested_dest_ext == 4
    assert plan.all_chains() == (plan.main.route,)


def test_baseline_unpinned_extensions_stay_in_interval():
    topo = line_topology(40)
    lengths = set()
    for seed in range(30):
        plan = build_scenario(topo, 15, 23, ProtocolVariant("extrout_baseline"),
                              ScenarioSettings(ext_low=2, ext_high=5),
                              random.Random(seed))
        lengths.add((plan.main.source_ext, plan.main.dest_ext))
        assert 2 <= plan.requested_source_ext <= 5
        assert 2 <= plan.requested_dest_ext <= 5
        assert plan.main.source_ext == plan.requested_source_ext
        assert plan.main.dest_ext == plan.requested_dest_ext
    assert len(lengths) > 4  # the draw really varies


def test_duplicates_plan_uses_the_disjoint_row():
    topo, hub_a, hub_b, rows = parallel_paths([14, 14])
    src, dst = rows[0][2], rows[0][10]
    plan = build_scenario(topo, src, dst, ProtocolVariant("extrout_duplicates", 1),
                          _pinned(3, 4), random.Random(0))
    assert plan.main.route.hops == 15
    assert plan.main.route.source == hub_a and plan.main.route.dest == hub_b
    assert plan.duplicates == (Route((hub_a, *rows[1], hub_b)),)
    assert plan.duplicate_shortfall == 0
    assert plan.all_chains() == (plan.main.route,) + plan.duplicates


def test_duplicates_plan_at_an_isolated_node_has_none():
    # Node 1 has no link, so its zero-hop route cannot be extended and both
    # anchors are node 1: no duplicate exists, as no fake needs one.
    topo = generate(TopologyParams(3, 3, perturbation=0.0, tx_range=150.0,
                                   qudg_factor=0.375, seed=0))
    assert topo.neighbor_indices[0] == ()
    plan = build_scenario(topo, 1, 1, ProtocolVariant("extrout_duplicates", 2))
    assert plan.main.route.nodes == (1,)
    assert plan.duplicates == ()
    assert plan.duplicate_shortfall == 2
    assert plan.all_chains() == (Route((1,)),)


@pytest.mark.parametrize("count, expected", [
    (1, ((8, 2, 9),)),
    (2, ((8, 2, 9), (8, 3, 9))),
    (3, ((8, 2, 9), (8, 3, 9), (8, 14, 9))),
])
def test_duplicates_of_a_one_hop_carrier_leave_the_carrier_out(count, expected):
    # A one-hop carrier has no interior to ban, so disjoint_paths alone
    # would hand the carrier (8, 9) back as a duplicate of itself.
    topo = generate(TopologyParams(6, 6, **LINK_PROFILES[0], seed=3))
    plan = build_scenario(topo, 8, 9, ProtocolVariant("extrout_duplicates", count),
                          _pinned(0, 0), random.Random(1))
    assert plan.main.route == Route((8, 9))
    assert plan.duplicates == tuple(Route(nodes) for nodes in expected)
    assert plan.duplicate_shortfall == 0


def test_duplicates_shortfall_is_recorded_not_fatal():
    topo, hub_a, hub_b, rows = parallel_paths([14, 14])
    plan = build_scenario(topo, rows[0][2], rows[0][10],
                          ProtocolVariant("extrout_duplicates", 3),
                          _pinned(3, 4), random.Random(0))
    assert len(plan.duplicates) == 1
    assert plan.duplicate_shortfall == 2


def test_duplicates_shortfall_follows_the_duplicates():
    topo, hub_a, hub_b, rows = parallel_paths([14, 14, 14])
    plan = build_scenario(topo, rows[0][2], rows[0][10],
                          ProtocolVariant("extrout_duplicates", 2),
                          _pinned(3, 4), random.Random(0))
    assert len(plan.duplicates) == 2
    assert plan.duplicate_shortfall == 0
    assert replace(plan, duplicates=plan.duplicates[:1]).duplicate_shortfall == 1


def test_fake_extended_paths_avoid_the_main_route(monkeypatch):
    import extrout.protocols as protocols

    pairs = []

    def recording(*args, **kwargs):
        pairs.append(place_fake_pair(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(protocols, "place_fake_pair", recording)
    topo, hub_a, hub_b, rows = parallel_paths([14, 14, 14])
    src, dst = rows[0][2], rows[0][10]
    plan = build_scenario(topo, src, dst, ProtocolVariant("extrout_fake", 1),
                          _pinned(3, 4), random.Random(2))
    assert len(plan.fake_paths) == len(pairs) == 1
    fake = plan.fake_paths[0]
    # the placed pair's shortest path is the extended fake's core
    core = shortest_path(topo, *pairs[0]).nodes
    start = fake.nodes.index(core[0])
    assert fake.nodes[start:start + len(core)] == core
    assert fake.hops > len(core) - 1
    assert abs(len(core) - 1 - plan.real_route.hops) <= 1
    assert set(fake.nodes).isdisjoint(plan.main.route.nodes)
    assert plan.all_chains() == (plan.main.route, fake)


def test_fake_core_avoids_the_main_extension():
    # The decoy (8, 15, 14, 22, ...) once crossed node 22, the end of the
    # main route's destination extension, so the model counted a group of
    # 21 transmitters where the attacker sees only 20 sources.
    topo = generate(TopologyParams(8, 8, perturbation=0.25, qudg_factor=0.5, seed=1))
    plan = build_scenario(topo, 49, 28, ProtocolVariant("extrout_fake", 1),
                          rng=random.Random(8))
    main, fake = plan.all_chains()
    assert set(fake.nodes).isdisjoint(main.nodes)
    sources, _dests = endpoint_candidates(run(plan))
    assert report_from_run(plan).anonymity_single == 1.0 - 1.0 / len(sources)


def test_nfake_plan_places_disjoint_plain_routes():
    topo, hub_a, hub_b, rows = parallel_paths([14, 14, 14])
    src, dst = rows[0][2], rows[0][10]
    plan = build_scenario(topo, src, dst, ProtocolVariant("nfake_pairs", 2),
                          rng=random.Random(7))
    assert plan.main == ExtendedRoute(plan.real_route, 0, 0)
    assert len(plan.fake_paths) == 2
    seen = set(plan.real_route.nodes)
    for fake in plan.fake_paths:
        assert isinstance(fake, Route)
        assert abs(fake.hops - plan.real_route.hops) <= 1
        assert seen.isdisjoint(fake.nodes)
        seen |= set(fake.nodes)


def test_build_scenario_is_seed_deterministic():
    topo, _, _, rows = parallel_paths([14, 14, 14])
    args = (topo, rows[0][2], rows[0][10], ProtocolVariant("extrout_fake", 1))
    one = build_scenario(*args, ScenarioSettings(), random.Random(11))
    two = build_scenario(*args, ScenarioSettings(), random.Random(11))
    assert one.main == two.main and one.fake_paths == two.fake_paths


# ------------------------------------------------------------ fake placement

def test_place_fake_pair_separation_within_one_hop():
    topo, _, _, rows = parallel_paths([14, 14])
    real_src, real_dst = rows[0][2], rows[0][10]
    real = shortest_path(topo, real_src, real_dst)
    fs, fd = place_fake_pair(topo, real, random.Random(0))
    fake = shortest_path(topo, fs, fd)
    assert abs(fake.hops - real.hops) <= 1
    assert set(fake.nodes).isdisjoint(real.nodes)


def test_place_fake_pair_lands_on_the_far_row():
    # rows sit at increasing distance from the real route; the decoy pair
    # maximizes midpoint separation, so it must use the farthest row
    topo, _, _, rows = parallel_paths([14, 14, 14])
    for seed in range(8):
        fs, fd = place_fake_pair(topo, shortest_path(topo, rows[0][2], rows[0][10]),
                                 random.Random(seed))
        assert fs in rows[2] and fd in rows[2]


def test_place_fake_pair_respects_avoid_set():
    topo, _, _, rows = parallel_paths([14, 14, 14])
    fs, fd = place_fake_pair(topo, shortest_path(topo, rows[0][2], rows[0][10]),
                             random.Random(1), avoid=set(rows[2]))
    assert fs in rows[1] and fd in rows[1]


def test_place_fake_pair_fails_when_no_room():
    topo = line_topology(12)
    with pytest.raises(PlacementError):
        place_fake_pair(topo, shortest_path(topo, 1, 9), random.Random(0))


def test_a_rejected_candidate_is_walked_only_to_its_first_forbidden_node():
    # A horizontal 1-...-7 crosses the 8-hop vertical real route 8-...-15
    # at node 4. Free pairs along 1-7 lie at most 6 hops apart, so only
    # (1, 7) qualifies, at slack 2 alone; its path meets the route at 4.
    positions = {n: Position(100.0 * n, 0.0) for n in range(1, 8)}
    column = (8, 9, 10, 11, 4, 12, 13, 14, 15)
    positions.update({n: Position(400.0, 100.0 * (k - 4))
                      for k, n in enumerate(column) if n != 4})
    links = [(n, n + 1) for n in range(1, 7)] + list(zip(column, column[1:]))
    topo = Topology(TopologyParams(1, 15, perturbation=0.0), positions, links)
    real = shortest_path(topo, 8, 15)
    assert real.nodes == column
    assert shortest_path(topo, 1, 7).nodes.index(4) == 3
    with pytest.raises(PlacementError):  # ranks the pairs, warms 7's hop table
        place_fake_pair(topo, real, random.Random(0))
    topo.neighbor_indices = counted = CountingNeighbours(topo.neighbor_indices)
    with pytest.raises(PlacementError):
        place_fake_pair(topo, real, random.Random(0))
    assert counted.reads == 3


def test_place_fake_pair_logs_the_slack_fallback(caplog):
    # 1-2-3-4 carries the 3-hop real route; the only free pair, 5-6, is one
    # hop apart, which only slack 2 admits.
    positions = {n: Position(100.0 * n, 0.0) for n in range(1, 7)}
    topo = Topology(TopologyParams(1, 6, perturbation=0.0), positions,
                    ((1, 2), (2, 3), (3, 4), (5, 6)))
    real = shortest_path(topo, 1, 4)
    with caplog.at_level(logging.INFO, logger="extrout.protocols"):
        assert place_fake_pair(topo, real, random.Random(0)) == (5, 6)
    assert "separation 3, trying 2" in caplog.text
    caplog.clear()
    wide = line_topology(20)
    with caplog.at_level(logging.INFO, logger="extrout.protocols"):
        place_fake_pair(wide, shortest_path(wide, 1, 4), random.Random(0))
    assert "trying 2" not in caplog.text


def _tier_cases():
    """Seeded _pair_tiers calls on 6x6 to 20x20 grids at slack 1 and 2: from
    one node with a link, routes of 0, 1 and 2 hops (where the inner hop
    ball has a negative radius or is the node alone), to the farthest node
    and to a drawn one."""
    for side in range(6, 21, 2):
        for k, profile in enumerate(LINK_PROFILES):
            topo = generate(TopologyParams(side, side, seed=10 * side + k, **profile))
            rng = random.Random(side * 31 + k)
            a = rng.choice([n for n, near in zip(topo.nodes, topo.neighbor_indices)
                            if near])
            dist = hop_distances(topo, a)
            far = max(dist.values())
            ends = (a, min(n for n, d in dist.items() if d == 1),
                    min((n for n, d in dist.items() if d == 2), default=a),
                    min(n for n, d in dist.items() if d == far),
                    rng.choice(sorted(dist)))
            for b in ends:
                route = shortest_path(topo, a, b)
                for slack in (1, 2):
                    yield topo, route, slack


def test_pair_ranking_tie_order_is_pinned():
    # The ranking and its tiers decide which decoy each seed draws, so they
    # are an output. Recorded from the BFS-per-node ranking the hop balls
    # replaced.
    digest = hashlib.sha256()
    calls = 0
    for topo, route, slack in _tier_cases():
        digest.update(repr(tuple(_pair_tiers(topo, route, slack))).encode() + b"\n")
        calls += 1
    assert (calls, digest.hexdigest()) == (
        240, "9371e08537fd51210f21811f19efb23572043a40cf97edc3d0b8a7891763bb66")


def _placements_digest() -> tuple[int, str]:
    """Seeded place_fake_pair calls on 20x20 grids in the README dense and
    the default sparse profile, each real route with up to 9 decoys. The
    avoid set grows as _fake_paths grows it: the carrier, then each earlier
    fake path, extended when the plan has cover. Hashes each returned pair,
    or the placement error, with the RNG state after the call."""
    digest = hashlib.sha256()
    calls = 0
    for k, profile in enumerate(LINK_PROFILES[:2]):
        topo = generate(TopologyParams(20, 20, seed=5 + k, **profile))
        rng = random.Random(k)
        for _ in range(24):
            a = rng.choice(topo.nodes)
            reachable = sorted(hop_distances(topo, a).keys() - {a})
            if not reachable:
                continue
            real = shortest_path(topo, a, rng.choice(reachable))
            cover = rng.random() < 0.5
            main = (extrapolate(topo, real, rng.randint(2, 5), rng.randint(2, 5), rng)
                    if cover else ExtendedRoute(real, 0, 0))
            taken = set(main.route.nodes)
            for _ in range(9):
                calls += 1
                try:
                    pair = place_fake_pair(topo, real, rng, avoid=taken)
                except PlacementError as exc:
                    digest.update(repr((str(exc), rng.getstate())).encode() + b"\n")
                    break
                digest.update(repr((pair, rng.getstate())).encode() + b"\n")
                route = shortest_path(topo, *pair)
                if cover:
                    route = extrapolate(topo, route, rng.randint(2, 5),
                                        rng.randint(2, 5), rng, avoid=taken).route
                taken.update(route.nodes)
    return calls, digest.hexdigest()


def test_placements_are_pinned():
    # Which decoy a seed draws, and the RNG state it leaves, are outputs:
    # every later draw of the plan follows them. Recorded from the
    # placement that built each candidate's whole shortest path.
    assert _placements_digest() == (
        403, "956f2ad87e4561d5f481ddc74f5edc49ddc51efd8d22d3ac0d9021fcc3cdfdf3")


def test_pair_ranking_ignores_how_nodes_are_numbered():
    # Hop balls index nodes by position, not by id; ids read from a topology
    # file can be any ints, negative included. Relabelling every node (in
    # the same order) relabels every tier.
    topo = generate(TopologyParams(8, 8, perturbation=0.25, tx_range=180.0,
                                   qudg_factor=0.5, seed=4))
    relabel = {n: 7 * n - 100 for n in topo.nodes}
    moved = Topology(topo.params, {relabel[n]: pos for n, pos in topo.positions.items()},
                     frozenset((relabel[i], relabel[j]) for i, j in link_pairs(topo)))
    rng = random.Random(8)
    ranked = 0
    for _ in range(10):
        a = rng.choice(topo.nodes)
        route = shortest_path(topo, a, rng.choice(sorted(hop_distances(topo, a))))
        moved_route = Route(tuple(relabel[n] for n in route.nodes))
        for slack in (1, 2):
            tiers = tuple(_pair_tiers(topo, route, slack))
            assert tuple(_pair_tiers(moved, moved_route, slack)) == tuple(
                tuple((relabel[u], relabel[v]) for u, v in tier) for tier in tiers)
            ranked += sum(map(len, tiers))
    assert ranked > 1000


# ------------------------------------------------------ per-topology caches

def _mesh():
    """A connected 12x12 perturbed grid; 14 -> 131 is a 13-hop pair."""
    return generate(TopologyParams(grid_rows=12, grid_cols=12, perturbation=0.25,
                                   tx_range=160.0, qudg_factor=0.75, seed=4))


def _cover_plans(topo, seeds=range(5)):
    return [build_scenario(topo, 14, 131, variant, rng=random.Random(seed))
            for variant in (ProtocolVariant("extrout_fake", 1), ProtocolVariant("nfake_pairs", 3),
                            ProtocolVariant("extrout_duplicates", 2))
            for seed in seeds]


def test_plans_do_not_depend_on_cache_state():
    fresh = _cover_plans(_mesh())
    warmed = _mesh()
    warm_variants = (ProtocolVariant("extrout_fake", 2), ProtocolVariant("nfake_pairs", 1),
                     ProtocolVariant("extrout_duplicates", 2), ProtocolVariant("extrout_baseline"))
    # 3 -> 30 is short enough for its pass to pause, so the ranking memo
    # also passes through an entry that holds a paused pass
    for seed, (src, dst) in enumerate(((3, 30), (3, 100), (30, 90), (14, 131), (7, 138))):
        for variant in warm_variants:
            build_scenario(warmed, src, dst, variant, rng=random.Random(seed))
    assert warmed.memo[_pair_tiers][0] == shortest_path(warmed, 7, 138).nodes
    assert _cover_plans(warmed) == fresh
    assert warmed == _mesh()


def test_later_fake_plans_reuse_the_hop_tables():
    topo = _mesh()
    topo.neighbor_indices = counted = CountingNeighbours(topo.neighbor_indices)
    per_plan, memos = [], []
    for seed in range(20):
        counted.read.clear()
        build_scenario(topo, 14, 131, ProtocolVariant("extrout_fake", 1),
                       rng=random.Random(seed))
        per_plan.append(counted.reads)
        memos.append(topo.memo[_pair_tiers])
    # the first plan ranks the decoy pairs (every pair: this 13-hop route
    # never pauses its pass); a later plan never ranks again and runs at
    # most the odd BFS for a route endpoint asked for the first time
    assert max(per_plan[1:]) < 3 * topo.node_count
    assert all(memo is memos[0] for memo in memos)
    # the ranking's hop balls keep no hop table
    assert len(topo.memo[_hop_table]) < 10


def test_a_new_real_route_replaces_the_pair_ranking():
    topo = _mesh()
    first, second = shortest_path(topo, 14, 131), shortest_path(topo, 7, 138)
    place_fake_pair(topo, first, random.Random(0))
    route, entries = topo.memo[_pair_tiers]
    assert route == first.nodes
    ranking = entries[1][0]
    place_fake_pair(topo, first, random.Random(1))
    assert topo.memo[_pair_tiers][1][1][0] is ranking
    place_fake_pair(topo, second, random.Random(0))
    route, entries = topo.memo[_pair_tiers]
    assert route == second.nodes
    assert all(tiers is not ranking for tiers, _ in entries.values())


def _dense():
    """The README dense 20x20 network; 315 -> 160 is an 8-hop pair, and
    67 -> 279 a 12-hop one."""
    return generate(TopologyParams(20, 20, perturbation=0.0, tx_range=150.0,
                                   qudg_factor=0.95, seed=3))


def _pass_state(topo, slack):
    """The route's tiers read at slack, and the locals of its pass."""
    tiers, rest = topo.memo[_pair_tiers][1][slack]
    return tiers, rest.gi_frame.f_locals


def test_a_short_route_places_its_first_decoy_from_the_top_tiers(caplog):
    topo = _dense()
    real = shortest_path(topo, 315, 160)
    with caplog.at_level(logging.INFO, logger="extrout.protocols"):
        place_fake_pair(topo, real, random.Random(0))
    assert caplog.messages == ["slack 1 pass paused: 2 tiers complete after 128 of 391 free rows"]
    tiers, rest = topo.memo[_pair_tiers][1][1]
    assert getgeneratorstate(rest) == GEN_SUSPENDED  # the rest is not read
    assert _pass_state(topo, 1)[1]["read"] == 128
    expected = decoy_pair_tiers(adjacency(topo), topo.positions, real.nodes, 1)
    assert [list(tier) for tier in tiers] == expected[:1]
    assert [list(tier) for tier in _pair_tiers(topo, real, 1)] == expected


def test_a_long_route_reads_every_row_before_its_first_tier(caplog):
    # Its first tier is complete only after 243 of 387 rows, past the half
    # where the pass stops pausing.
    topo = _dense()
    real = shortest_path(topo, 67, 279)
    with caplog.at_level(logging.INFO, logger="extrout.protocols"):
        place_fake_pair(topo, real, random.Random(0))
    assert caplog.messages == []
    tiers, state = _pass_state(topo, 1)
    assert bin(state["visited"]).count("1") == 387
    assert sum(map(len, tiers)) + sum(map(len, state["by_gap"].values())) == 15047


@pytest.mark.parametrize("count, spacing, origin, ends, slack", [
    (11, 232.481244454418, (0.0, 0.0), (6, 6), 1),
    (11, 98.13453592028219, (-2810148.7532779058, 2596569.5133705195), (6, 6), 1),
])
def test_top_tiers_hold_where_the_distance_bound_is_tight(count, spacing, origin,
                                                          ends, slack, caplog):
    # On a line, a pair running straight away from a one-node route at the
    # full hop separation reaches the bound exactly, so only its rounding
    # pad keeps a tier from being released before such a pair is read.
    positions = {k: Position(origin[0] + spacing * k, origin[1])
                 for k in range(1, count + 1)}
    topo = Topology(TopologyParams(1, count, perturbation=0.0), positions,
                    [(k, k + 1) for k in range(1, count)])
    real = shortest_path(topo, *ends)
    expected = decoy_pair_tiers(adjacency(topo), topo.positions, real.nodes, slack)
    with caplog.at_level(logging.INFO, logger="extrout.protocols"):
        top = next(_pair_tiers(topo, real, slack))
    assert "pass paused" in caplog.text  # the tier came before every row was read
    assert list(top) == expected[0]
    # a tier released early would be split, or lose the pairs read after it
    assert [list(tier) for tier in _pair_tiers(topo, real, slack)] == expected


def test_an_avoid_set_over_the_top_tiers_falls_back_to_the_full_ranking(caplog):
    # Nodes 1, 8 and 141 hold both top tiers' pairs, (1, 141) and (1, 8).
    # Recorded from the placement that read the whole ranking: the pairs
    # drawn as the avoid set grows, and the RNG state after them.
    topo = _dense()
    real = shortest_path(topo, 315, 160)
    assert list(islice(_pair_tiers(topo, real, 1), 2)) == [((1, 141),), ((1, 8),)]
    taken, pairs, rng = {1, 8, 141}, [], random.Random(0)
    with caplog.at_level(logging.INFO, logger="extrout.protocols"):
        for _ in range(6):
            pairs.append(place_fake_pair(topo, real, rng, avoid=taken))
            taken.update(shortest_path(topo, *pairs[-1]).nodes)
    # each placement reads deeper than the one before it
    assert caplog.messages == [f"slack 1 resuming the pass: no decoy in the {n} tiers read"
                               for n in (2, 9, 30, 60, 82)]
    assert pairs == [(2, 142), (22, 49), (161, 301), (24, 166), (26, 164), (23, 168)]
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
        "0d4d392c1a0c5700b17e97ec6cb9f693ac7fcf6cf4bd25eddf7d56f44d506498")


# ------------------------------------------------------------ dummy schedule

def test_schedule_no_privacy_is_all_real():
    topo = line_topology(12)
    plan = build_scenario(topo, 2, 10, ProtocolVariant("no_privacy"))
    relays = dummy_schedule(plan)
    assert relays == Counter(plan.real_route.links())
    assert relays.total() == 8
    senders = {sender for sender, _ in relays}
    assert senders == set(range(2, 10))  # dest never transmits


def test_schedule_baseline_marks_the_real_segment():
    topo = line_topology(20)
    plan = build_scenario(topo, 5, 13, ProtocolVariant("extrout_baseline"),
                          _pinned(3, 4), random.Random(0))
    relays = dummy_schedule(plan)
    assert relays == Counter({(n, n + 1): 1 for n in range(2, 17)})
    main = plan.main
    core = main.route.nodes[main.source_ext:len(main.route.nodes) - main.dest_ext]
    assert core == plan.real_route.nodes
    real_links = plan.real_route.links()
    assert real_links == tuple((n, n + 1) for n in range(5, 13))
    assert relays.total() - sum(relays[link] for link in real_links) == 7
    senders = {sender for sender, _ in relays}
    assert senders == set(range(2, 17))  # anchor sink silent


def test_schedule_counts_follow_chain_hops():
    topo, hub_a, hub_b, rows = parallel_paths([14, 14])
    plan = build_scenario(topo, rows[0][2], rows[0][10],
                          ProtocolVariant("extrout_duplicates", 1),
                          _pinned(3, 4), random.Random(0))
    relays = dummy_schedule(plan)
    assert relays.total() == sum(c.hops for c in plan.all_chains()) == 30
    sent = Counter()
    for (sender, _), count in relays.items():
        sent[sender] += count
    assert sent[hub_a] == 2  # heads both chains
    assert sent[hub_b] == 0  # terminal sink of both
    expected = set().union(*(c.nodes[:-1] for c in plan.all_chains()))
    assert set(sent) == expected


def test_schedule_of_a_plain_route_is_its_links():
    topo = line_topology(12)
    plan = build_scenario(topo, 2, 10, ProtocolVariant("no_privacy"),
                          ScenarioSettings(packet_budget=1))
    assert dummy_schedule(plan) == Counter(plan.real_route.links())
    trace = run(plan)
    # the route's nodes but its sink send, once each; no other node does
    assert trace.node_tx == {n: 1 for n in range(2, 10)}
    assert sum(trace.link_tx.values()) == trace.total_transmissions == 8


def test_fake_paths_never_contain_the_real_endpoints():
    topo, _, _, rows = parallel_paths([14, 14, 14])
    src, dst = rows[0][2], rows[0][10]
    for seed in range(6):
        plan = build_scenario(topo, src, dst, ProtocolVariant("nfake_pairs", 2),
                              rng=random.Random(seed))
        for fake in plan.fake_paths:
            assert src not in fake.nodes and dst not in fake.nodes

