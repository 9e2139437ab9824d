"""Deterministic interval-stepped execution of a scenario plan.

Traffic is synchronous and lossless: each interval repeats the steady-state
relay counts once, so per-node totals are the per-interval counts scaled by
the interval count (order within an interval never affects totals).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .protocols import ScenarioPlan, dummy_schedule
from .topology import TopologyParams

HEAT_GLYPHS = " .:-=+*#%@"  # 10 intensity levels for the ASCII matrix view


@dataclass
class TrafficTrace:
    """What the network did, and all the global attacker sees: transmit
    counts per node and per link.

    node_tx holds each node that transmits; a node missing from it sent
    nothing.
    """

    node_tx: dict[int, int]
    link_tx: dict[tuple[int, int], int]

    @property
    def total_transmissions(self) -> int:
        return sum(self.node_tx.values())


def run(plan: ScenarioPlan) -> TrafficTrace:
    """Execute the plan for the packet_budget intervals of its settings.

    Lossless and deterministic: every interval relays the same counts, so
    totals are exact multiples of one interval.
    """
    budget = plan.settings.packet_budget
    node_tx: dict[int, int] = {}
    link_tx: dict[tuple[int, int], int] = {}
    for (sender, next_hop), relays in dummy_schedule(plan).items():
        sent = relays * budget
        node_tx[sender] = node_tx.get(sender, 0) + sent
        link = (sender, next_hop) if sender < next_hop else (next_hop, sender)
        link_tx[link] = link_tx.get(link, 0) + sent
    return TrafficTrace(node_tx=node_tx, link_tx=dict(sorted(link_tx.items())))


def transmission_matrix(node_tx: Mapping[int, int],
                        params: TopologyParams) -> list[list[int]]:
    """Per-grid-cell values, row-major, for grid-placed topologies.

    Reshapes any mapping keyed by exactly the grid ids 1..N, read in id
    order and cut into rows of grid_cols. A trace's node_tx leaves out the
    nodes that sent nothing, so their 0 must be filled in first; cmd_run
    passes topo.node_index and gets the grid of indices into topo.nodes.
    """
    ids = range(1, params.node_count + 1)
    if set(node_tx) != set(ids):
        raise ValueError("matrix view unavailable: node counts do not cover "
                         "the full grid")
    cells = list(map(node_tx.__getitem__, ids))
    cols = params.grid_cols
    return [cells[start:start + cols] for start in range(0, len(cells), cols)]


def mean_matrix(totals: list[list[int]], runs: int) -> list[list[float]]:
    """Cell-wise mean of `runs` runs from their summed matrix."""
    if runs < 1:
        raise ValueError("no runs to average")
    return [[cell / runs for cell in row] for row in totals]


def matrix_to_csv(matrix) -> str:
    return "\n".join(",".join(map(str, row)) for row in matrix) + "\n"


def ascii_heatmap(matrix) -> str:
    """Counts bucketed into 10 glyph levels, one grid row per line."""
    peak = max((cell for row in matrix for cell in row), default=0)
    out = []
    for row in matrix:
        if peak <= 0:
            out.append(HEAT_GLYPHS[0] * len(row))
        else:
            out.append("".join(HEAT_GLYPHS[round(9 * cell / peak)] for cell in row))
    return "\n".join(out) + "\n"
