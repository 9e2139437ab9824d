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
from heapq import heappop, heappush
from itertools import repeat

from .routing import (ExtendedRoute, Route, disjoint_paths, extrapolate,
                      log_info, path_avoids, shortest_path)
from .topology import Topology

VARIANT_KINDS = ("no_privacy", "extrout_baseline", "extrout_duplicates",
                 "extrout_fake", "nfake_pairs")
PARAMETERISED_KINDS = ("extrout_duplicates", "extrout_fake", "nfake_pairs")
COVER_KINDS = ("extrout_baseline", "extrout_duplicates", "extrout_fake")


class PlacementError(Exception):
    """No admissible fake source-destination pair exists."""


@dataclass(frozen=True)
class ProtocolVariant:
    """Which privacy technique runs, with its path count where applicable."""

    kind: str
    count: int = 0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant {self.kind!r}, "
                             f"expected one of {VARIANT_KINDS}")
        if self.kind in PARAMETERISED_KINDS and self.count < 1:
            raise ValueError(f"{self.kind} needs count >= 1, got {self.count}")
        if self.kind not in PARAMETERISED_KINDS and self.count != 0:
            raise ValueError(f"{self.kind} takes no count")

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
        variant=variant, real_route=real, main=main,
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

    Tiers are drawn from one at a time, as _pair_tiers yields them, so the
    ranking is read only as deep as the pair returned. A candidate's path
    is checked by routing.path_avoids, which walks it only as far as a
    check has needed on this topology, so the returned pair's path is
    walked already.
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
                if path_avoids(topo, u, v, forbidden):
                    return u, v
    raise PlacementError(
        f"no fake pair within 2 hops of separation {real.hops} avoids the real route")


def _pair_tiers(topo: Topology, real: Route, slack: int):
    """Yields the ranking of the pairs off the real route whose hop
    separation is within slack of its hops: by decreasing distance from
    their midpoint to the route, in tiers of equal distance, each a tuple
    of its pairs in (u, v) order, as _rank releases it.

    The ranking depends on neither the RNG nor `avoid`, so
    topo.memo[_pair_tiers] keeps (route nodes, entries by slack) for the
    latest real route only, each entry (tiers read, paused pass). A reader
    gets the tiers read, then resumes the pass, which stays paused for the
    next reader wherever this one stops.
    """
    memo = topo.memo.get(_pair_tiers)
    if memo is None or memo[0] != real.nodes:
        memo = topo.memo[_pair_tiers] = (real.nodes, {})
    if slack not in memo[1]:
        memo[1][slack] = ([], _rank(topo, real, slack))
    tiers, rest = memo[1][slack]
    yield from tiers
    # Not `yield from rest`: that would close the shared pass when a
    # reader that stopped early is collected.
    for tier in rest:
        tiers.append(tier)
        yield tier


def _rank(topo: Topology, real: Route, slack: int):
    """Yields the tiers of the route's ranking at slack, the farthest
    first, each released whole: the tuple of its (lower id, higher id)
    pairs in ascending order.

    Separations come from hop balls (_hop_balls), so no hop table is
    computed: v is admissible for u when it lies in u's ball of radius
    hops + slack but not in the one of radius hops - slack - 1.

    The bound. Let near(u) be the distance from u to its nearest route
    node, and reach = (hops + slack) * L / 2, with L the longest link. The
    ends of an admissible pair lie at most hops + slack links apart, so
    their midpoint lies within reach of either end, and its distance to
    the route is at most min(near(u), near(v)) + reach. reach is padded
    for float rounding, which scales with the coordinates in midpoints,
    sums and distances; the pad only reads more rows.

    The pass reads the free rows once, by descending near, and each pair
    when its second end is read. A pair not yet read then has an end not
    yet read, so before row r is read every unread pair lies within
    near(r) + reach of the route. A tier farther than that is complete,
    and every tier still to come lies nearer: the tiers yielded there,
    found by a heap of negated distances, are exactly the ranking's next
    tiers. At the end the rest are yielded by distance, from the heap
    sorted once.

    The pause rule. The bound is weak when the route runs near most
    nodes, where pausing late costs a later reader more than it saves.
    So the pass yields before a row only while fewer than half the free
    rows are read, and past that reads every row first. The rule changes
    when tiers are yielded, never which. The first pause and every return
    to reading rows after one are logged at INFO.

    Grid layouts share many midpoints, so each is scored once, and its
    tier kept in tier_at by the coordinate sums that the midpoint halves.
    """
    nodes = topo.nodes
    points = [topo.positions[n] for n in nodes]
    real_pts = [topo.positions[n] for n in real.nodes]
    on_route = set(real.nodes)
    free = [i for i, n in enumerate(nodes) if n not in on_route]
    balls, inner = _hop_balls(topo, real.hops, slack)
    near = {i: min(map(math.dist, repeat(points[i]), real_pts)) for i in free}
    rows = sorted(free, key=near.__getitem__, reverse=True)
    longest = max((math.dist(points[i], points[j])
                   for i, adj in enumerate(topo.neighbor_indices) for j in adj if j > i),
                  default=0.0)
    pad = 1e-9 * (1 + max((abs(c) for p in points for c in p), default=0.0))
    reach = (real.hops + slack) * longest / 2 + pad
    tier_at, by_gap, heap = {}, {}, []
    visited, yielded = 0, 0
    for read, i in enumerate(rows):
        if 2 * read < len(rows):
            done = []
            while heap and -heap[0] > near[i] + reach:
                done.append(by_gap.pop(-heappop(heap)))
            if done and not yielded:
                log_info(__name__, "slack %d pass paused: %d tiers complete after "
                         "%d of %d free rows", slack, len(done), read, len(rows))
            for tier in done:
                yield tuple(sorted(tier))
            yielded += len(done)
            if done:
                log_info(__name__, "slack %d resuming the pass: no decoy in the %d "
                         "tiers read", slack, yielded)
        u, (ux, uy) = nodes[i], points[i]
        # character j of bits is "1" when nodes[j] is a partner read before
        bits = bin(balls[i] & ~inner[i] & visited)[:1:-1]
        j = bits.find("1")
        while j >= 0:
            vx, vy = points[j]
            sums = (ux + vx, uy + vy)
            tier = tier_at.get(sums)
            if tier is None:
                mid = (sums[0] / 2, sums[1] / 2)
                gap = min(map(math.dist, repeat(mid), real_pts))
                tier = by_gap.get(gap)
                if tier is None:
                    tier = by_gap[gap] = []
                    heappush(heap, -gap)
                tier_at[sums] = tier
            # index order is id order
            tier.append((nodes[j], u) if j < i else (u, nodes[j]))
            j = bits.find("1", j + 1)
        visited |= 1 << i
    heap.sort()  # the tiers left, farthest first
    for neg in heap:
        yield tuple(sorted(by_gap.pop(-neg)))


def _hop_balls(topo: Topology, want: int, slack: int) -> tuple[list[int], list[int]]:
    """Each node's hop balls of radius want + slack and want - slack - 1
    (no node when that is negative): bitsets over indices into
    topo.nodes, grown a hop at a time along topo.neighbor_indices."""
    balls = [1 << i for i in range(len(topo.nodes))]
    inner = [0] * len(balls)
    for radius in range(want + slack):
        if radius == want - slack - 1:
            inner = balls
        grown = []
        for ball, adj in zip(balls, topo.neighbor_indices):
            for j in adj:
                ball |= balls[j]
            grown.append(ball)
        balls = grown
    return balls, inner


def dummy_schedule(plan: ScenarioPlan) -> Counter[tuple[int, int]]:
    """Relays per (sender, next hop) in one steady-state interval: every
    non-terminal node of every chain forwards once; terminal sinks only
    receive.

    The attacker sees counts only, so the real packet and the dummies are
    counted alike.
    """
    counts: Counter[tuple[int, int]] = Counter()
    for chain in plan.all_chains():
        counts.update(chain.links())
    return counts
