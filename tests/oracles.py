"""Independent reference implementations used only to check the library.

These deliberately avoid sharing code or approach with the package: hop
counts come from a frontier-list BFS, smallest shortest paths from a
walk down its levels, disjoint path counts from an Edmonds-Karp max flow
on a dictionary-based residual graph, least disjoint-path hop totals
from enumerating every simple path, disjoint paths in their tie order
from an SPFA run to the end over an explicit arc list, Q-UDG links from
a scan of every node pair and decoy-pair tiers from a BFS per node.  The attacker's
chains are the exception: they share the package's stop rule but come
from its earlier walk, which marks both directions of every link it
crosses.  Route and output checks that only tests need live here too.
"""

import math
from collections import defaultdict, deque


def adjacency(topo) -> dict:
    """A topology's graph by id: each node's neighbours, ascending, read off
    its neighbour lists by index."""
    nodes = topo.nodes
    return {n: tuple(nodes[j] for j in near)
            for n, near in zip(nodes, topo.neighbor_indices)}


def link_pairs(topo) -> frozenset[tuple[int, int]]:
    """A topology's links as (low, high) pairs, read off its adjacency."""
    return frozenset((i, j) for i, near in adjacency(topo).items()
                     for j in near if i < j)


def route_is_valid(topo, route) -> bool:
    """True when every consecutive pair of the route is a topology link."""
    linked = link_pairs(topo)
    return all((min(u, v), max(u, v)) in linked for u, v in route.links())


def matrix_from_csv(text: str) -> list[list[float]]:
    """Parse a written matrix, skipping provenance comments and blanks."""
    rows = []
    for ln in text.splitlines():
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        rows.append([float(cell) for cell in ln.split(",")])
    return rows


class CountingNeighbours(tuple):
    """Neighbour lists by node index that record which are read by index,
    in order, so a test can bound how much of the graph a search expands
    and pin the order it expands it in; reads is how many."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.read = []
        return self

    @property
    def reads(self) -> int:
        return len(self.read)

    def __getitem__(self, index):
        self.read.append(index)
        return super().__getitem__(index)


def bfs_levels(adjacency: dict, start) -> dict:
    """Hop distance from start to every reachable node."""
    levels = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        upcoming = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in levels:
                    levels[neighbor] = depth
                    upcoming.append(neighbor)
        frontier = upcoming
    return levels


def smallest_shortest_path(adjacency: dict, source, sink, banned=()):
    """The lexicographically smallest of the shortest source-sink paths
    that avoid the `banned` nodes (the endpoints are never banned), or
    None when there is none.

    Hop levels from the sink on the adjacency without the banned nodes,
    then a walk from the source that always takes the smallest neighbour
    one level closer.
    """
    banned = set(banned) - {source, sink}
    kept = {node: [m for m in neighbors if m not in banned]
            for node, neighbors in adjacency.items() if node not in banned}
    levels = bfs_levels(kept, sink)
    if source not in levels:
        return None
    path = [source]
    while path[-1] != sink:
        closer = levels[path[-1]] - 1
        path.append(min(m for m in kept[path[-1]] if levels.get(m) == closer))
    return tuple(path)


def max_node_disjoint_paths(adjacency: dict, source, sink,
                            banned=()) -> int:
    """Maximum number of internally node-disjoint source-sink paths.

    Standard node splitting: v_in -> v_out with capacity 1 (unbounded for
    the endpoints), each link as two directed unit arcs, then Edmonds-Karp
    counts unit augmentations.
    """
    banned = set(banned) - {source, sink}
    capacity: dict[tuple, int] = {}

    def add(u, v, cap):
        capacity[(u, v)] = capacity.get((u, v), 0) + cap
        capacity.setdefault((v, u), 0)

    big = len(adjacency) + 1
    for node in adjacency:
        if node in banned:
            continue
        add(("in", node), ("out", node), big if node in (source, sink) else 1)
    for node, neighbors in adjacency.items():
        if node in banned:
            continue
        for neighbor in neighbors:
            if neighbor in banned:
                continue
            add(("out", node), ("in", neighbor), 1)

    outgoing: dict = {}
    for u, v in capacity:
        outgoing.setdefault(u, []).append(v)

    start, goal = ("out", source), ("in", sink)
    flow = 0
    while True:
        parents = {start: None}
        queue = [start]
        index = 0
        while index < len(queue) and goal not in parents:
            node = queue[index]
            index += 1
            for neighbor in outgoing.get(node, ()):
                if neighbor not in parents and capacity[(node, neighbor)] > 0:
                    parents[neighbor] = node
                    queue.append(neighbor)
        if goal not in parents:
            return flow
        node = goal
        while parents[node] is not None:
            prev = parents[node]
            capacity[(prev, node)] -= 1
            capacity[(node, prev)] += 1
            node = prev
        flow += 1


def min_disjoint_hops(adjacency: dict, source, sink, banned=()) -> list[int]:
    """Least total hops of c internally node-disjoint source-sink paths,
    indexed by c from 0 up to the largest c that exists.

    Brute force for graphs of at most 9 nodes: enumerate every simple path
    avoiding `banned`, keep the fewest hops per interior node set, then
    split the interior nodes among paths in every way (memoized over the
    nodes still free). The direct link, which has no interior, can be
    taken once on top of any set.
    """
    if len(adjacency) > 9:
        raise ValueError("brute force is for graphs of at most 9 nodes")
    banned = set(banned) - {source, sink}
    bit = {n: 1 << k for k, n in enumerate(
        n for n in adjacency if n not in banned and n not in (source, sink))}
    fewest: dict[int, int] = {}  # interior bit set -> fewest hops

    def walk(node, interior: int, hops: int) -> None:
        for neighbor in adjacency[node]:
            if neighbor == sink:
                fewest[interior] = min(fewest.get(interior, hops + 1), hops + 1)
            elif neighbor in bit and not interior & bit[neighbor]:
                walk(neighbor, interior | bit[neighbor], hops + 1)

    walk(source, 0, 0)
    memo: dict[int, list[int]] = {}

    def best(free: int) -> list[int]:
        if free not in memo:
            lowest = free & -free
            result = list(best(free & ~lowest)) if free else [0]
            for interior, hops in fewest.items():
                if interior & lowest and interior & free == interior:
                    for c, total in enumerate(best(free & ~interior), start=1):
                        if c == len(result):
                            result.append(total + hops)
                        else:
                            result[c] = min(result[c], total + hops)
            memo[free] = result
        return memo[free]

    totals = best(sum(bit.values()))
    if 0 in fewest:  # the direct link
        with_link = [total + 1 for total in totals]
        totals = ([0] + [min(pair) for pair in zip(totals[1:], with_link)]
                  + with_link[-1:])
    return totals


def reference_disjoint_paths(adjacency: dict, source, sink, count: int,
                             banned=()) -> list[tuple]:
    """The tie-order spec of the duplicate-path search: up to `count`
    internally node-disjoint source-sink paths that avoid the `banned`
    nodes (the endpoints are never banned), as node tuples.

    Successive shortest paths on the node-split network, built as an
    explicit arc list. First each node but the endpoints gets its unit
    split arc ("in", v) -> ("out", v) of cost 0, in ascending id order;
    then each sorted link (u, v), u < v, gives the unit arcs
    ("out", u) -> ("in", v) and ("out", v) -> ("in", u) of cost 1. Every
    arc is stored beside its residual twin (reverse direction, negated
    cost, no capacity), and a side reads its arcs in the order they were
    stored, so the split arc comes first. Every pass runs a plain FIFO
    SPFA from ("out", source) that relaxes on `<` until its queue is
    empty, then augments along the arcs that last lowered each side on
    the way to ("in", sink). The flow is decomposed from the source by
    taking each node's smallest used link and consuming it.
    """
    banned = set(banned) - {source, sink}
    kept = sorted(n for n in adjacency if n not in banned)
    head, cap, cost = [], [], []
    arcs_of = defaultdict(list)

    def add(tail, to, weight):
        for a, b, c, w in ((tail, to, 1, weight), (to, tail, 0, -weight)):
            arcs_of[a].append(len(head))
            head.append(b)
            cap.append(c)
            cost.append(w)

    for v in kept:
        if v not in (source, sink):
            add(("in", v), ("out", v), 0)
    for u in kept:
        for v in adjacency[u]:
            if u < v and v not in banned:
                add(("out", u), ("in", v), 1)
                add(("out", v), ("in", u), 1)

    start, goal = ("out", source), ("in", sink)
    found = 0
    while found < count:
        dist, via = {start: 0}, {}
        queue, queued = deque([start]), {start}
        while queue:
            side = queue.popleft()
            queued.remove(side)
            here = dist[side]
            for arc in arcs_of[side]:
                to = head[arc]
                if cap[arc] and here + cost[arc] < dist.get(to, math.inf):
                    dist[to], via[to] = here + cost[arc], arc
                    if to not in queued:
                        queued.add(to)
                        queue.append(to)
        if goal not in dist:
            break
        side = goal
        while side != start:
            arc = via[side]
            cap[arc] -= 1
            cap[arc ^ 1] += 1
            side = head[arc ^ 1]
        found += 1

    used = defaultdict(set)  # node -> the ends of its links that carry flow
    for arc in range(0, len(head), 2):
        if cost[arc] == 1 and not cap[arc]:
            used[head[arc ^ 1][1]].add(head[arc][1])
    paths = []
    for _ in range(found):
        path = [source]
        while path[-1] != sink:
            step = min(used[path[-1]])
            used[path[-1]].remove(step)
            path.append(step)
        paths.append(tuple(path))
    return paths


def qudg_links(positions: dict, params, rng) -> set:
    """Q-UDG link set by testing every pair in ascending (i, j) order.

    No spatial index: every pair's distance is computed, and a variate is
    drawn only for pairs in the band between the certain radius and
    tx_range.
    """
    certain = params.qudg_factor * params.tx_range
    ids = sorted(positions)
    links = set()
    for a, i in enumerate(ids):
        pi = positions[i]
        for j in ids[a + 1:]:
            d = math.dist(pi, positions[j])
            if d < certain:
                links.add((i, j))
            elif d < params.tx_range:
                if rng.random() < (params.tx_range - d) / (params.tx_range - certain):
                    links.add((i, j))
    return links


def decoy_pair_tiers(adjacency: dict, positions: dict, route_nodes,
                     slack: int) -> list[list[tuple]]:
    """Pairs of nodes off the route whose hop separation is within slack
    of the route's hops, grouped by the distance from their midpoint to
    the nearest route node: tiers from the farthest down, each tier's
    pairs ascending.

    A BFS from every free node gives the separations, and every pair's
    distance is computed on its own.
    """
    want = len(route_nodes) - 1
    points = [positions[n] for n in route_nodes]
    free = sorted(set(adjacency) - set(route_nodes))
    tiers: dict[float, list[tuple]] = {}
    for u in free:
        levels = bfs_levels(adjacency, u)
        for v in free:
            if u < v and v in levels and abs(levels[v] - want) <= slack:
                (ux, uy), (vx, vy) = positions[u], positions[v]
                mid = ((ux + vx) / 2, (uy + vy) / 2)
                gap = min(math.dist(mid, p) for p in points)
                tiers.setdefault(gap, []).append((u, v))
    return [sorted(tiers[gap]) for gap in sorted(tiers, reverse=True)]


def reference_branches(obs) -> tuple:
    """The chains of a well-formed trace's active links, as the walk that
    marks both directions of every link it crosses finds them: cut at
    nodes of active degree other than 2 and at nodes whose count matches
    neither neighbour's, each cycle without a stop cut at its lowest node
    after the chains that end at stops, each chain the tuple of its nodes
    from its higher-count end."""
    adj = defaultdict(list)
    for (i, j), count in obs.link_tx.items():
        if count > 0:
            adj[i].append(j)
            adj[j].append(i)

    def is_stop(n) -> bool:
        if len(adj[n]) != 2:
            return True
        own = obs.node_tx.get(n, 0)
        return all(obs.node_tx.get(m, 0) != own for m in adj[n])

    stops = {n for n in adj if is_stop(n)}
    seen = set()
    branches = []

    def walk_from(start) -> None:
        for nxt in sorted(adj[start]):
            if (start, nxt) in seen:
                continue
            chain = [start]
            prev, cur = start, nxt
            seen.update(((prev, cur), (cur, prev)))
            while cur not in stops and cur != start:
                chain.append(cur)
                prev, cur = cur, next(m for m in adj[cur] if m != prev)
                seen.update(((prev, cur), (cur, prev)))
            chain.append(cur)
            if obs.node_tx.get(chain[0], 0) < obs.node_tx.get(chain[-1], 0):
                chain.reverse()
            branches.append(tuple(chain))

    for start in sorted(stops):
        walk_from(start)
    for n in sorted(adj):
        if not any(n in chain for chain in branches):
            walk_from(n)  # a cycle without a stop, cut at its lowest node
    return tuple(branches)
