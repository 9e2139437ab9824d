"""Hop-count routing: shortest paths, route extrapolation, disjoint alternatives.

All links have unit weight, so shortest-path search is breadth-first; ties
resolve to the lexicographically smallest node sequence so every function
here is deterministic for a fixed topology and seed.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass

from .topology import Topology

# Landmark nodes whose hop tables bound pair distances in at_hop_distance.
LANDMARKS = 4


def log_info(name: str, msg: str, *args) -> None:
    """Log msg % args at INFO on the logger `name`, once the application
    has imported `logging`. Before that no handler or level can be set, so
    the record would be dropped, and importing `logging` would only cost
    every command start-up time."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).info(msg, *args, stacklevel=2)


class UnreachableError(Exception):
    """No path exists between the requested endpoints."""


@dataclass(frozen=True)
class Route:
    """A simple path, stored as the node sequence."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise ValueError("a route needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("route revisits a node")

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def dest(self) -> int:
        return self.nodes[-1]

    def links(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))


@dataclass(frozen=True)
class ExtendedRoute:
    """A source-destination path embedded in a longer anchor-to-anchor path.

    source_ext and dest_ext are the hops of extrapolated cover before the
    real source and after the real destination; the route between them is
    the real one. A variant without cover extends nothing: (real, 0, 0).
    """

    route: Route
    source_ext: int
    dest_ext: int

    def __post_init__(self):
        if not (0 <= self.source_ext and 0 <= self.dest_ext
                and self.source_ext + self.dest_ext <= self.route.hops):
            raise ValueError(
                f"extensions ({self.source_ext}, {self.dest_ext}) exceed a "
                f"{self.route.hops}-hop route")


def hop_distances(topo: Topology, src: int) -> dict[int, int]:
    """BFS hop counts from src to every node it reaches, by id.

    A new dict read off src's hop table (see _hop_table), so a second
    request runs no search and the caller may change what it gets.
    """
    nodes = topo.nodes
    return {nodes[k]: d for k, d in enumerate(_hop_table(topo, _index(topo, src)))
            if d >= 0}


def _index(topo: Topology, node: int) -> int:
    """node's index into topo.nodes; a node outside the topology raises
    ValueError."""
    k = topo.node_index.get(node)
    if k is None:
        raise ValueError(f"node {node} not in topology")
    return k


def _hop_table(topo: Topology, src: int) -> tuple[int, ...]:
    """Hop counts from index src to every index into topo.nodes, -1 where
    unreachable, from one BFS along topo.neighbor_indices.

    Every table is kept in topo.memo[_hop_table], a dict by source index,
    and read by every search here: the landmarks, at_hop_distance, _walk,
    extrapolation and the first disjoint-path pass. It is a tuple,
    so no caller can change what the others read. The decoy-pair ranking
    uses hop balls and no table at all.
    """
    tables = topo.memo.get(_hop_table)
    if tables is None:
        tables = topo.memo[_hop_table] = {}
    table = tables.get(src)
    if table is None:
        nbrs = topo.neighbor_indices
        dist = [-1] * len(nbrs)
        dist[src] = 0
        frontier, hops = [src], 0
        while frontier:
            hops += 1
            reached = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[v] < 0:
                        dist[v] = hops
                        reached.append(v)
            frontier = reached
        table = tables[src] = tuple(dist)
    return table


def _landmarks(topo: Topology) -> tuple[tuple[int, ...], ...]:
    """Hop tables of LANDMARKS nodes picked farthest-first from index 0,
    the lowest id (on a grid, its corners), taking the lowest index among
    equally far nodes from the landmarks so far; those distances are
    updated only while another pick follows. The tuple of them is kept in
    topo.memo[_landmarks]; each table is _hop_table's."""
    tables = topo.memo.get(_landmarks)
    if tables is None:
        tables = [_hop_table(topo, 0)]
        nearest = tables[0]
        while len(tables) < LANDMARKS:
            if len(tables) > 1:
                # -1 in every table off index 0's component, so it stays -1
                nearest = [b if b < a else a for a, b in zip(nearest, tables[-1])]
            tables.append(_hop_table(topo, nearest.index(max(nearest))))
        tables = topo.memo[_landmarks] = tuple(tables)
    return tables


def at_hop_distance(topo: Topology, u: int, v: int, hops: int) -> bool:
    """Whether v lies exactly `hops` hops from u.

    Pair sampling asks this for every pair it draws, so it avoids a BFS
    over the whole topology. When either end's hop table is kept in
    topo.memo[_hop_table], the answer is read off it (-1, unreachable,
    matches no hops). Otherwise the landmark tables bound the distance by
    the triangle inequality: a pair whose path through a landmark is
    shorter than `hops` is answered with no search, and an A* search from
    u, guided by the tables' lower bound on the distance to v, finds the
    distance exactly but expands only nodes that could still lie on a
    path of at most `hops` hops. No table is built for the check, since
    one BFS over the topology costs more than the search. An end outside
    the topology raises ValueError.
    """
    a, b = _index(topo, u), _index(topo, v)
    if a == b:
        return hops == 0
    tables = topo.memo.get(_hop_table, {})
    if a in tables:
        return hops >= 0 and tables[a][b] == hops
    if b in tables:
        return hops >= 0 and tables[b][a] == hops
    bounds = []
    for table in _landmarks(topo):
        if (table[a] < 0) != (table[b] < 0):
            return False  # different components
        if table[b] >= 0:
            if table[a] + table[b] < hops:
                return False  # closer than hops through this landmark
            bounds.append((table, table[b]))

    def lower(n: int) -> int:
        bound = 0
        for table, tv in bounds:
            gap = abs(table[n] - tv)
            if gap > bound:
                bound = gap
        return bound

    if lower(a) > hops:
        return False
    nbrs = topo.neighbor_indices
    depth = {a: 0}
    heap = [(lower(a), 0, a)]
    while heap:
        _f, neg_depth, n = heapq.heappop(heap)
        if n == b:
            return -neg_depth == hops
        if -neg_depth > depth[n]:
            continue  # reached by a shorter path since it was pushed
        step = 1 - neg_depth
        for m in nbrs[n]:
            if step < depth.get(m, hops + 1):
                f = step + lower(m)
                if f <= hops:
                    depth[m] = step
                    # deeper nodes first among equal bounds
                    heapq.heappush(heap, (f, -step, m))
    return False


def shortest_path(topo: Topology, source: int, dest: int) -> Route:
    """Minimum-hop path from source to dest: the pair's kept walk (see
    _walk), taken to its end."""
    return Route(tuple(_walk(topo, source, dest)))


def path_avoids(topo: Topology, u: int, v: int, forbidden: set[int]) -> bool:
    """Whether shortest_path(topo, u, v) meets no node of forbidden. The
    pair's kept walk (see _walk) is tested first and walked on only while
    it is clear, up to its first forbidden node."""
    return _walk(topo, u, v, forbidden) is not None


def _walk(topo: Topology, source: int, dest: int, stop=frozenset()) -> list[int] | None:
    """The ids of the minimum-hop path from source to dest, source first;
    None if it meets stop, walked then only to its first node in stop.

    Each step takes the first neighbour (indices ascend with ids) one hop
    closer to dest, so among equal-length paths the lexicographically
    smallest wins and the next step depends on the last node alone.
    topo.memo[_walk] keeps the list by ordered pair, so no step is walked
    twice; a kept walk is tested against stop once before it is walked
    on. A bad pair raises on every call and keeps nothing.
    """
    walks = topo.memo.get(_walk)
    if walks is None:
        walks = topo.memo[_walk] = {}
    walked = walks.get((source, dest))
    if walked is None:
        k = _index(topo, source)
        if _hop_table(topo, _index(topo, dest))[k] < 0:
            raise UnreachableError(f"no path from {source} to {dest}")
        walked = walks[source, dest] = [source]
    if stop and not stop.isdisjoint(walked):
        return None
    if walked[-1] == dest:
        return walked
    at, nodes, nbrs = topo.node_index, topo.nodes, topo.neighbor_indices
    dist = _hop_table(topo, at[dest])
    k = at[walked[-1]]
    for closer in range(dist[k] - 1, -1, -1):
        for k in nbrs[k]:
            if dist[k] == closer:
                break
        walked.append(nodes[k])
        if nodes[k] in stop:
            return None
    return walked


def extrapolate(topo: Topology, route: Route, source_ext: int, dest_ext: int,
                rng: random.Random, strict: bool = True, avoid=()) -> ExtendedRoute:
    """Extend a shortest path beyond both endpoints, one hop at a time.

    Strict mode admits a step-k candidate only if its hop distance to the
    far real endpoint is exactly route.hops + k, so the whole extended path
    stays a shortest path between its anchors. Lenient mode admits any
    neighbor that keeps the path simple. Ties break uniformly via rng among
    the candidates in ascending order. Extension truncates (never fails)
    when a step has no candidate; nodes in `avoid` are never used, and
    those outside the topology are ignored.
    """
    if source_ext < 0 or dest_ext < 0:
        raise ValueError("extension hop counts must be non-negative")
    hops = route.hops
    src, dst = route.source, route.dest
    a, b = _index(topo, src), _index(topo, dst)
    dist_to_dst = _hop_table(topo, b)
    if dist_to_dst[a] != hops:
        raise ValueError("route is not a shortest path between its endpoints")
    dist_to_src = _hop_table(topo, a)
    at = topo.node_index
    used = {at[n] for n in (*route.nodes, *avoid) if n in at}
    nodes, nbrs = topo.nodes, topo.neighbor_indices

    def grow(tail: int, dist: tuple[int, ...], want: int) -> list[int]:
        chain: list[int] = []
        for k in range(1, want + 1):
            cands = [m for m in nbrs[tail]
                     if m not in used and (not strict or dist[m] == hops + k)]
            if not cands:
                break
            tail = rng.choice(cands)
            chain.append(nodes[tail])
            used.add(tail)
        return chain

    prefix = grow(a, dist_to_dst, source_ext)
    suffix = grow(b, dist_to_src, dest_ext)
    if source_ext > 0 and not prefix:
        log_info(__name__, "no source-side extension possible from node %d", src)
    if dest_ext > 0 and not suffix:
        log_info(__name__, "no destination-side extension possible from node %d", dst)
    full = Route(tuple(reversed(prefix)) + route.nodes + tuple(suffix))
    return ExtendedRoute(route=full, source_ext=len(prefix),
                         dest_ext=len(suffix))


def disjoint_paths(topo: Topology, anchor_source: int, anchor_dest: int,
                   count: int, excluded: Route) -> list[Route]:
    """Up to `count` anchor-to-anchor paths, pairwise internally
    vertex-disjoint and avoiding the interior of `excluded` (ids outside
    the topology ban nothing).

    Runs successive shortest-path augmentation (Suurballe & Tarjan) on a
    node-split unit-capacity flow network, so the returned set has maximum
    cardinality (up to count) and, for that cardinality, minimum total hop
    count. No network is built. With no flow, the first augmenting path is
    the lexicographically smallest shortest path in G - B, the topology
    without the banned interior B, so the first pass is _walk's step rule
    on the goal's kept hop table to_goal, stepped through G - B: take
    the first unbanned neighbour one hop closer, and back out of a node
    with none for good (whether it is a dead end depends on the node
    alone). Every step of a d-hop path lowers to_goal by one, so the walk
    reaches the goal exactly when G - B keeps the whole topology's
    distance d. Otherwise, and in every later pass, an SPFA over in- and
    out-side ids reads each residual arc off the flow so far and
    topo.neighbor_indices, in the order an arc list built from the sorted
    links would hold it; that order picks among equally short path sets.
    Its FIFO is a list the loop appends to and reads in order: sides pop
    as from a double-ended queue, but none is removed. Augmenting path
    costs never decrease, so each pass stops once the goal's distance
    reaches the cost of the path before it: no side on the goal's
    predecessor chain can then improve, so the path is the one the full
    search would return. With no flow the queue runs in BFS levels, so
    the goal's first distance is final. Later passes take no bound from
    to_goal: one limited to the same corridor can pick another augmenting
    path of equal cost.
    Returns fewer than `count` paths when the topology cannot supply them.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if anchor_source == anchor_dest:
        raise ValueError("anchors must differ")
    source, goal = _index(topo, anchor_source), _index(topo, anchor_dest)
    at, nbrs = topo.node_index, topo.neighbor_indices
    # Side k is the in-node and side n + k the out-node of nodes[k], so a
    # neighbour's index is its in-side id. Flow on the link arc
    # k_out -> w_in (cost 1) puts w in succ[k], which stays the shared
    # empty no_flow until k first sends flow; flow on an interior node's
    # unit split arc k_in -> k_out (cost 0) sets through[k]. Anchors have no
    # split arc (through is None), and no pass enters a blocked in-side.
    n = len(nbrs)
    size = 2 * n
    no_flow: frozenset[int] = frozenset()
    succ: list[set[int] | frozenset[int]] = [no_flow] * n
    through: list[bool | None] = [False] * n
    blocked = [False] * n
    for node in excluded.nodes[1:-1]:
        if node in at:
            blocked[at[node]] = True
    start = n + source
    # No flow ever enters the source, so its in-side leads nowhere: it is
    # blocked too. The walk never steps to the source either.
    blocked[source], blocked[goal] = True, False
    to_goal = _hop_table(topo, goal)
    if to_goal[source] < 0:  # the goal lies in another component
        log_info(__name__, "only 0 of %d requested disjoint paths exist", count)
        return []

    # First path: the walk the docstring describes.
    path, dead = [source], set()
    while path and path[-1] != goal:
        closer = to_goal[path[-1]] - 1
        for w in nbrs[path[-1]]:
            if to_goal[w] == closer and not blocked[w] and w not in dead:
                path.append(w)
                break
        else:
            dead.add(path.pop())
    for k, w in zip(path, path[1:]):
        succ[k], through[w] = {w}, True
    through[source] = through[goal] = None
    found, bound = (1, len(path) - 1) if path else (0, size - 1)
    while found < count:
        # SPFA, since the residual arcs of used links cost -1. size stands
        # for no path: every path costs less. Augmenting path costs never
        # fall, so dist[goal] cannot end below bound, the cost of the last
        # path found; once it reaches bound, every side on goal's prev chain
        # holds its final distance and that chain is the path the search
        # would return if run to the end. With no flow yet, bound is
        # size - 1, which the goal's first distance meets. Only a link arc
        # reaches goal.
        dist = [size] * size
        prev = [-1] * size
        queued = [False] * size
        dist[start] = 0
        queue = [start]
        for u in queue:
            queued[u] = False
            du = dist[u]
            if u >= n:
                k = u - n
                if through[k] and du < dist[k]:
                    dist[k] = du
                    prev[k] = u
                    if not queued[k]:
                        queued[k] = True
                        queue.append(k)
                dt, used = du + 1, succ[k]
                for to in nbrs[k]:
                    if dt < dist[to] and not blocked[to] and to not in used:
                        dist[to] = dt
                        prev[to] = u
                        if not queued[to]:
                            queued[to] = True
                            queue.append(to)
                if dist[goal] <= bound:
                    break
            elif through[u] is False:  # so no flow enters node either
                to = n + u
                if du < dist[to]:
                    dist[to] = du
                    prev[to] = u
                    if not queued[to]:
                        queued[to] = True
                        queue.append(to)
            else:
                dt = du - 1
                for w in nbrs[u]:
                    to = n + w
                    if dt < dist[to] and u in succ[w]:
                        dist[to] = dt
                        prev[to] = u
                        if not queued[to]:
                            queued[to] = True
                            queue.append(to)
        if prev[goal] < 0:
            break
        to = goal
        while to != start:
            u = prev[to]
            if abs(u - to) == n:  # the split arc, forward or back
                through[min(u, to)] = u < to
            elif u >= n:
                if succ[u - n]:
                    succ[u - n].add(to)
                else:
                    succ[u - n] = {to}
            else:
                succ[to - n].remove(u)
            to = u
        bound = dist[goal]
        found += 1
    if found < count:
        log_info(__name__, "only %d of %d requested disjoint paths exist", found, count)

    # Decompose the flow: from the source anchor, take each node's smallest
    # used link out (indices ascend with node ids) and consume it.
    nodes = topo.nodes
    paths = []
    for _ in range(found):
        path, k = [anchor_source], source
        while k != goal:
            out = succ[k]
            if not out:
                raise RuntimeError("flow decomposition lost a path")
            k = min(out)
            out.remove(k)
            path.append(nodes[k])
        paths.append(Route(tuple(path)))
    return paths
