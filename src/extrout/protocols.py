"""Scenario assembly for each privacy technique.

A scenario plan fixes the real pair, the extended/duplicate/fake paths and
the traffic parameters; the relay counts derived from it are one
steady-state interval of synchronized cover traffic.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .routing import (ExtendedRoute, Route, disjoint_paths, extrapolate,
                      lexicographic_walk, log_info, shortest_path)
from .topology import Topology

VARIANT_KINDS = ("no_privacy", "extrout_baseline", "extrout_duplicates",
                 "extrout_fake", "nfake_pairs")
PARAMETERISED_KINDS = ("extrout_duplicates", "extrout_fake", "nfake_pairs")
COVER_KINDS = ("extrout_baseline", "extrout_duplicates", "extrout_fake")


class PlacementError(Exception):
    """No admissible fake source-destination pair exists."""


@dataclass(frozen=True)
class ProtocolVariant:
    """Which privacy technique runs, with its path count where applicable.

    residual_cover_rate adds that many dummy transmissions per interval at
    every node of the network, on top of the per-path cover streams.
    """

    kind: str
    count: int = 0
    residual_cover_rate: int = 0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant {self.kind!r}, "
                             f"expected one of {VARIANT_KINDS}")
        if self.kind in PARAMETERISED_KINDS and self.count < 1:
            raise ValueError(f"{self.kind} needs count >= 1, got {self.count}")
        if self.kind not in PARAMETERISED_KINDS and self.count != 0:
            raise ValueError(f"{self.kind} takes no count")
        if self.residual_cover_rate < 0 or self.residual_cover_rate != int(self.residual_cover_rate):
            raise ValueError("residual_cover_rate must be a non-negative integer")

    @property
    def uses_cover(self) -> bool:
        """Extended variants run synchronized cover on their chains."""
        return self.kind in COVER_KINDS


@dataclass(frozen=True)
class ScenarioSettings:
    """Knobs shared by every variant; extension lengths default to a uniform
    draw from [ext_low, ext_high] unless pinned explicitly."""

    source_ext: int | None = None
    dest_ext: int | None = None
    ext_low: int = 2
    ext_high: int = 5
    strict: bool = True
    packet_budget: int = 7000

    def __post_init__(self):
        if not 0 <= self.ext_low <= self.ext_high:
            raise ValueError(f"bad extension interval [{self.ext_low}, {self.ext_high}]")
        for v in (self.source_ext, self.dest_ext):
            if v is not None and v < 0:
                raise ValueError("pinned extensions must be non-negative")
        if self.packet_budget < 1:
            raise ValueError("packet_budget must be at least 1")


@dataclass(frozen=True)
class ScenarioPlan:
    """Everything the simulator needs for one scenario instance.

    main carries the real packet in every variant: real_route extended by
    its achieved extensions, (0, 0) for a variant without cover. The
    requested extensions are the lengths main was asked for. settings are
    the ones the plan was built with; the simulator runs it for their
    packet_budget intervals.
    """

    topology: Topology
    variant: ProtocolVariant
    real_route: Route
    main: ExtendedRoute
    duplicates: tuple[Route, ...] = ()
    fake_paths: tuple[Route, ...] = ()
    requested_source_ext: int = 0
    requested_dest_ext: int = 0
    settings: ScenarioSettings = ScenarioSettings()

    @property
    def source(self) -> int:
        return self.real_route.source

    @property
    def dest(self) -> int:
        return self.real_route.dest

    @property
    def duplicate_shortfall(self) -> int:
        """Duplicates asked for but not found disjoint."""
        if self.variant.kind != "extrout_duplicates":
            return 0
        return self.variant.count - len(self.duplicates)

    def all_chains(self) -> tuple[Route, ...]:
        """The real packet's carrier, then the chains that carry dummies only."""
        return (self.main.route,) + self.duplicates + self.fake_paths


def build_scenario(topo: Topology, source: int, dest: int,
                   variant: ProtocolVariant,
                   settings: ScenarioSettings | None = None,
                   rng: random.Random | None = None) -> ScenarioPlan:
    """Assemble a scenario plan for the given variant, which keeps the
    settings it was built with.

    Extension lengths, extension tie-breaks and fake placements draw from
    rng; a fixed seed reproduces the identical plan. Duplicates run
    between the carrier's anchors and share no node with it but those; a
    one-hop carrier has no interior to ban, so it is asked for one more
    path and dropped from them.
    """
    settings = settings or ScenarioSettings()
    rng = rng or random.Random(0)
    real = shortest_path(topo, source, dest)
    if variant.uses_cover:
        requested = _extension_lengths(settings, rng)
        main = extrapolate(topo, real, *requested, rng, strict=settings.strict)
    else:
        requested, main = (0, 0), ExtendedRoute(real, 0, 0)

    duplicates, fakes = (), ()
    if variant.kind == "extrout_duplicates":
        a, b = main.route.source, main.route.dest
        # a zero-hop route that cannot be extended has one anchor: no duplicate
        if a != b:
            # A one-hop carrier is the unique cheapest path and shares no
            # interior with any other, so every minimum-cost set holds it.
            found = disjoint_paths(topo, a, b,
                                   variant.count + (main.route.hops == 1),
                                   excluded=main.route)
            duplicates = tuple(path for path in found if path != main.route)
    elif variant.kind in ("extrout_fake", "nfake_pairs"):
        fakes = _fake_paths(topo, real, main, variant, settings, rng)
    return ScenarioPlan(
        topology=topo, variant=variant, real_route=real, main=main,
        duplicates=duplicates, fake_paths=fakes,
        requested_source_ext=requested[0], requested_dest_ext=requested[1],
        settings=settings)


def _extension_lengths(settings: ScenarioSettings,
                       rng: random.Random) -> tuple[int, int]:
    """Source and destination extension lengths: pinned, else drawn."""
    src_ext = settings.source_ext if settings.source_ext is not None \
        else rng.randint(settings.ext_low, settings.ext_high)
    dst_ext = settings.dest_ext if settings.dest_ext is not None \
        else rng.randint(settings.ext_low, settings.ext_high)
    return src_ext, dst_ext


def _fake_paths(topo, real, main, variant, settings, rng) -> tuple[Route, ...]:
    """variant.count fake paths, each placed off the carrier and the earlier
    fakes. Without cover they are plain shortest paths (N fake pairs);
    with it each is extrapolated too, and the extended route is kept."""
    taken = set(main.route.nodes)
    fakes = []
    for _ in range(variant.count):
        fs, fd = place_fake_pair(topo, real, rng, avoid=taken)
        route = shortest_path(topo, fs, fd)
        if variant.uses_cover:
            f_src, f_dst = _extension_lengths(settings, rng)
            route = extrapolate(topo, route, f_src, f_dst, rng,
                                strict=settings.strict, avoid=taken).route
        fakes.append(route)
        taken.update(route.nodes)
    return tuple(fakes)


def place_fake_pair(topo: Topology, real: Route, rng: random.Random,
                    avoid=()) -> tuple[int, int]:
    """Pick a decoy pair whose hop separation is within 1 of the real route's.

    Among admissible pairs the one whose segment midpoint lies farthest from
    the real route wins (ties break via rng); the fake shortest path must
    share no node with the real route or with `avoid`. The separation slack
    relaxes to 2 if nothing qualifies at 1, then placement fails.
    """
    avoid = set(avoid)
    forbidden = set(real.nodes) | avoid
    for slack in (1, 2):
        if slack == 2:
            log_info(__name__, "no fake pair within 1 hop of separation %d, trying 2", real.hops)
        for tier in _pair_tiers(topo, real, slack):
            # Tiers hold equal gaps, so filtering each one yields the tiers
            # of the filtered ranking; an emptied tier draws nothing.
            tier = [(u, v) for u, v in tier if u not in avoid and v not in avoid]
            rng.shuffle(tier)
            for u, v in tier:
                # u is free; the walk stops at the first forbidden node
                if forbidden.isdisjoint(lexicographic_walk(topo, u, v)):
                    return u, v
    raise PlacementError(
        f"no fake pair within 2 hops of separation {real.hops} avoids the real route")


def _pair_tiers(topo: Topology, real: Route, slack: int
                ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Pairs off the real route whose hop separation is within slack of
    its hops, ranked by decreasing distance from their midpoint to the
    route and cut into tiers of equal distance.

    The ranking depends on neither the RNG nor `avoid`, so it is computed
    once per slack and kept in topo.memo[_pair_tiers], as (route nodes,
    tiers by slack), for the latest real route only. Separations come from
    hop balls (bitsets over indices into topo.nodes, grown a hop at a time
    along topo.neighbor_indices), so no hop table is computed; v is
    admissible for u when it lies in u's ball of radius hops + slack but
    not in the one of radius hops - slack - 1.

    Pairs are grouped by distance as they are read, and only the distinct
    distances are sorted. topo.nodes is ascending and each row's bits are
    read from low to high, so every tier lists its pairs in (u, v) order.
    """
    memo = topo.memo.get(_pair_tiers)
    if memo is None or memo[0] != real.nodes:
        memo = topo.memo[_pair_tiers] = (real.nodes, {})
    by_slack = memo[1]
    if slack not in by_slack:
        want, nodes, nbrs = real.hops, topo.nodes, topo.neighbor_indices
        on_route = set(real.nodes)
        free = sum(1 << i for i, n in enumerate(nodes) if n not in on_route)
        real_pts = [topo.positions[n] for n in real.nodes]
        balls = [1 << i for i in range(len(nodes))]
        inner = [0] * len(nodes)
        for radius in range(want + slack):
            if radius == want - slack - 1:
                inner = balls
            grown = []
            for ball, adj in zip(balls, nbrs):
                for j in adj:
                    ball |= balls[j]
                grown.append(ball)
            balls = grown
        # tier of each midpoint (grid layouts share many) and of each gap
        tier_at, by_gap = {}, {}
        points = [topo.positions[n] for n in nodes]
        for i, u in enumerate(nodes):
            if u in on_route:
                continue
            ux, uy = points[i]
            # u's row read from its low bit: character k is "1" when
            # nodes[i + 1 + k] is an admissible partner after u
            bits = bin((balls[i] & ~inner[i] & free) >> (i + 1))[:1:-1]
            k = bits.find("1")
            while k >= 0:
                j = i + 1 + k
                v = nodes[j]
                vx, vy = points[j]
                mid = ((ux + vx) / 2, (uy + vy) / 2)
                tier = tier_at.get(mid)
                if tier is None:
                    gap = min(math.dist(mid, p) for p in real_pts)
                    tier = tier_at[mid] = by_gap.setdefault(gap, [])
                tier.append((u, v))
                k = bits.find("1", k + 1)
        by_slack[slack] = tuple(tuple(by_gap[gap])
                                for gap in sorted(by_gap, reverse=True))
    return by_slack[slack]


def dummy_schedule(plan: ScenarioPlan) -> Counter[tuple[int, int]]:
    """Relays per (sender, next hop) in one steady-state interval: every
    non-terminal node of every chain forwards once; terminal sinks only
    receive.

    The attacker sees counts only, so the real packet and the dummies are
    counted alike. Residual cover has no next hop and is added per node by
    the simulator.
    """
    counts: Counter[tuple[int, int]] = Counter()
    for chain in plan.all_chains():
        counts.update(chain.links())
    return counts
