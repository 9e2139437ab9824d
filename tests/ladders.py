"""Hand-built topologies with known hop counts, plus a seeded random
graph builder for oracle comparisons and the link profiles that seeded
grids are generated with."""

import random

from extrout.topology import Position, Topology, TopologyParams

# Link profiles for seeded grids: the README dense one, the default sparse
# one (often disconnected) and a heavily jittered one with a wide
# probabilistic band.
LINK_PROFILES = ({"perturbation": 0.0, "tx_range": 150.0, "qudg_factor": 0.95},
                 {},
                 {"perturbation": 1.0, "qudg_factor": 0.1})


def _params(node_count: int, seed: int = 0) -> TopologyParams:
    return TopologyParams(grid_rows=1, grid_cols=node_count,
                          perturbation=0.0, seed=seed)


def line_topology(node_count: int, spacing: float = 100.0) -> Topology:
    """A simple chain 1-2-...-n."""
    positions = {i: Position(i * spacing, 0.0)
                 for i in range(1, node_count + 1)}
    links = tuple((i, i + 1) for i in range(1, node_count))
    return Topology(_params(node_count), positions, links)


def random_topology(n: int, p: float, seed: int) -> Topology:
    """Erdos-Renyi link set over n nodes laid out on a line."""
    rng = random.Random(seed)
    positions = {i: Position(float(i), 0.0) for i in range(1, n + 1)}
    links = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                  if rng.random() < p)
    return Topology(_params(n, seed), positions, links)


def parallel_paths(interiors, spacing: float = 100.0):
    """Two hub nodes joined by disjoint row segments.

    Row j holds interiors[j] chain nodes, so the hub-to-hub path through
    it runs interiors[j] + 1 hops.  Returns (topo, hub_a, hub_b, rows)
    with rows[j] listing that row's node ids in hub-a to hub-b order.
    """
    if not interiors or any(k < 0 for k in interiors):
        raise ValueError("need at least one row of non-negative size")
    hub_a, hub_b = 1, 2
    widest = max(interiors)
    positions = {
        hub_a: Position(0.0, 0.0),
        hub_b: Position((widest + 1) * spacing, 0.0),
    }
    links = []
    rows = []
    next_id = 3
    for j, size in enumerate(interiors):
        row = list(range(next_id, next_id + size))
        next_id += size
        for offset, node in enumerate(row):
            positions[node] = Position((offset + 1) * spacing,
                                       (j + 1) * spacing)
        chain = [hub_a] + row + [hub_b]
        links += [(u, v) for u, v in zip(chain, chain[1:])]
        rows.append(row)
    topo = Topology(_params(len(positions)), positions, tuple(links))
    return topo, hub_a, hub_b, rows
