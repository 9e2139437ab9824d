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
from itertools import repeat

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

    Each slack's ranking is read in two parts: the top tiers first
    (_top_tiers), and the rest, _pair_tiers(...)[len(top):], only if
    nothing is drawn from those. A distance bound (a pair's midpoint lies
    within reach = (hops + slack) * longest link / 2 of either end) tells
    when the top tiers are complete without reading every pair; the rest
    is read by resuming that pass, so no pair is read twice. The top
    tiers are the ranking's first tiers, pair for pair in the same order,
    so every draw, the pair returned and the RNG state left are the ones
    a read of the whole ranking gives. Where the bound would read at
    least half the rows, the whole ranking is read at once instead.
    """
    avoid = set(avoid)
    forbidden = set(real.nodes) | avoid
    for slack in (1, 2):
        if slack == 2:
            log_info(__name__, "no fake pair within 1 hop of separation %d, trying 2", real.hops)
        top = _top_tiers(topo, real, slack)
        pair = _draw_pair(topo, top, avoid, forbidden, rng)
        if pair is None:
            pair = _draw_pair(topo, _pair_tiers(topo, real, slack)[len(top):],
                              avoid, forbidden, rng)
        if pair is not None:
            return pair
    raise PlacementError(
        f"no fake pair within 2 hops of separation {real.hops} avoids the real route")


def _draw_pair(topo, tiers, avoid, forbidden, rng) -> tuple[int, int] | None:
    """The first pair, tier by tier, in an rng-shuffled order within each
    tier, that avoids `avoid` and whose path meets no forbidden node."""
    for tier in tiers:
        # Tiers hold equal gaps, so filtering each one yields the tiers
        # of the filtered ranking; an emptied tier draws nothing.
        tier = [(u, v) for u, v in tier if u not in avoid and v not in avoid]
        rng.shuffle(tier)
        for u, v in tier:
            # u is free; the walk stops at the first forbidden node
            if forbidden.isdisjoint(lexicographic_walk(topo, u, v)):
                return u, v
    return None


def _pair_tiers(topo: Topology, real: Route, slack: int
                ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Pairs off the real route whose hop separation is within slack of
    its hops, ranked by decreasing distance from their midpoint to the
    route and cut into tiers of equal distance; each tier lists its pairs
    in (u, v) order.

    The ranking depends on neither the RNG nor `avoid`, so it is kept in
    the route's memo entry (_ranking), and read only as deep as asked:
    _top_tiers gives its first tiers, and this call finishes the pass
    that found them (a fallback, logged at INFO) if it stopped early.
    """
    entry = _ranking(topo, real, slack)
    tiers, finish = entry
    if finish is not None:
        log_info(__name__, "slack %d fallback: no decoy in the %d top tiers, "
                 "resuming the pass", slack, len(tiers))
        entry[:] = tiers + finish(), None
    return entry[0]


def _top_tiers(topo: Topology, real: Route, slack: int
               ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The first tiers of _pair_tiers(topo, real, slack), as many as are
    known: the top pass's, or the whole ranking."""
    return _ranking(topo, real, slack)[0]


def _ranking(topo: Topology, real: Route, slack: int) -> list:
    """The memo entry [tiers, finish] of the route's ranking at slack,
    from _rank. topo.memo[_pair_tiers] holds (route nodes, entries by
    slack) for the latest real route only."""
    memo = topo.memo.get(_pair_tiers)
    if memo is None or memo[0] != real.nodes:
        memo = topo.memo[_pair_tiers] = (real.nodes, {})
    entry = memo[1].get(slack)
    if entry is None:
        entry = memo[1][slack] = list(_rank(topo, real, slack))
    return entry


def _rank(topo: Topology, real: Route, slack: int):
    """(tiers, finish): the first tiers of the route's ranking at slack,
    and finish(), which reads the pairs not yet read and returns the other
    tiers, or None when tiers is the whole ranking.

    Separations come from hop balls (_hop_balls), so no hop table is
    computed: v is admissible for u when it lies in u's ball of radius
    hops + slack but not in the one of radius hops - slack - 1.

    The bound. Let near(u) be the distance from u to its nearest route
    node, and reach = (hops + slack) * L / 2, with L the longest link. The
    ends of an admissible pair lie at most hops + slack links apart, so
    their midpoint lies within reach of either end, and its distance to
    the route is at most min(near(u), near(v)) + reach. reach is padded
    for float rounding (_bound_terms), which only reads more rows.

    The top pass reads the farthest free row first, with all its
    partners, then the other free rows by descending near, each pair when
    its second end is read. A pair not yet read has an end not yet read,
    so its distance is at most near(next row) + reach. Once a distance
    read exceeds that limit, every tier above the limit is complete: those
    tiers, each sorted into (u, v) order, are exactly the ranking's first
    tiers. finish() reads the remaining pairs in (u, v) order, row by row
    in index order from each row's low bit, skipping every pair the pass
    read; the tiers that already held pairs are sorted before and merged
    after, so every tier lists the pairs of a whole-ranking read, in its
    order.

    The half-rows rule. The bound is weak when the route runs near most
    nodes. Let G0 be the best distance in the farthest row. Both ends of
    a top-tier pair have near + reach >= G0, so the pass ends once it has
    read every row that does. If at least half the free rows do, the pass
    is skipped and finish() reads every pair at once, in index order,
    where tiers need no sort. The choice changes what is read, never what
    is returned.
    """
    nodes = topo.nodes
    points = [topo.positions[n] for n in nodes]
    real_pts = [topo.positions[n] for n in real.nodes]
    on_route = set(real.nodes)
    free = [i for i, n in enumerate(nodes) if n not in on_route]
    if not free:
        return (), None
    balls, inner = _hop_balls(topo, real.hops, slack)
    near = {i: min(map(math.dist, repeat(points[i]), real_pts)) for i in free}
    rows = sorted(free, key=near.__getitem__, reverse=True)
    longest, pad = _bound_terms(topo)
    reach = (real.hops + slack) * longest / 2 + pad
    group, by_gap = _gap_grouper(nodes, points, real_pts)
    far = rows[0]
    others = sum(1 << i for i in free) & ~(1 << far)
    best = group(far, balls[far] & ~inner[far] & others)
    visited = 0

    def finish():
        # Tiers holding pairs read out of (u, v) order are put in order now,
        # the rest is appended in order, and sort() then merges two runs.
        started = list(by_gap.values())
        for tier in started:
            tier[:] = _in_order(tier)
        for i in free:
            if i != far:
                partners = others >> (i + 1) << (i + 1)
                if visited >> i & 1:
                    partners &= ~visited
                group(i, balls[i] & ~inner[i] & partners)
        for tier in started:
            tier.sort()
        return tuple(tuple(by_gap[gap]) for gap in sorted(by_gap, reverse=True))

    reached = sum(near[i] + reach >= best for i in rows)
    if 2 * reached >= len(rows):
        log_info(__name__, "slack %d full ranking: %d of %d free rows reach the "
                 "farthest row's best gap", slack, reached, len(rows))
        return finish(), None
    read, limit = 1, -math.inf
    for i in rows[1:]:
        if best > near[i] + reach:
            limit = near[i] + reach
            break
        best = max(best, group(i, balls[i] & ~inner[i] & visited))
        visited |= 1 << i
        read += 1
    top = tuple(tuple(_in_order(by_gap.pop(gap)))
                for gap in sorted([gap for gap in by_gap if gap > limit], reverse=True))
    log_info(__name__, "slack %d top pass: read %d of %d free rows, released %d tiers",
             slack, read, len(rows), len(top))
    return top, finish


def _in_order(pairs) -> list[tuple[int, int]]:
    """The pairs, each as (lower id, higher id), in ascending order."""
    return sorted((u, v) if u < v else (v, u) for u, v in pairs)


def _bound_terms(topo: Topology) -> tuple[float, float]:
    """(longest link, rounding pad) for _rank's bound, kept in topo.memo.
    Rounding in midpoints, sums and distances scales with the
    coordinates, so the pad does too."""
    terms = topo.memo.get(_bound_terms)
    if terms is None:
        points = [topo.positions[n] for n in topo.nodes]
        longest = max((math.dist(points[i], points[j])
                       for i, adj in enumerate(topo.neighbor_indices) for j in adj if j > i),
                      default=0.0)
        pad = 1e-9 * (1 + max((abs(c) for p in points for c in p), default=0.0))
        terms = topo.memo[_bound_terms] = (longest, pad)
    return terms


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


def _gap_grouper(nodes, points, real_pts):
    """(group, by_gap): group(i, partners) appends (nodes[i], nodes[j])
    for each index j in the bitset partners to by_gap's list at the
    distance from the pair's midpoint (of points[i] and points[j]) to the
    route through real_pts. It returns the largest distance among the
    midpoints it scored first (-inf if none), so the running maximum of
    its returns is the largest distance read.

    Grid layouts share many midpoints, so each is scored once, and its
    list kept in tier_at by the coordinate sums that the midpoint halves.
    """
    tier_at, by_gap = {}, {}

    def group(i: int, partners: int) -> float:
        u, (ux, uy) = nodes[i], points[i]
        best = -math.inf
        # character j of bits is "1" when nodes[j] is a partner
        bits = bin(partners)[:1:-1]
        j = bits.find("1")
        while j >= 0:
            vx, vy = points[j]
            sums = (ux + vx, uy + vy)
            tier = tier_at.get(sums)
            if tier is None:
                mid = (sums[0] / 2, sums[1] / 2)
                gap = min(map(math.dist, repeat(mid), real_pts))
                tier = tier_at[sums] = by_gap.setdefault(gap, [])
                if gap > best:
                    best = gap
            tier.append((u, nodes[j]))
            j = bits.find("1", j + 1)
        return best
    return group, by_gap


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
