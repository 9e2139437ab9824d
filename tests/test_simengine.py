"""Deterministic execution, matrix views, matrix serialization."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from extrout.protocols import (
    PARAMETERISED_KINDS,
    VARIANT_KINDS,
    ProtocolVariant,
    ScenarioSettings,
    build_scenario,
)
from extrout.simengine import (
    HEAT_GLYPHS,
    ascii_heatmap,
    matrix_to_csv,
    mean_matrix,
    run,
    transmission_matrix,
)
from extrout.topology import TopologyParams, generate

from ladders import LINK_PROFILES, line_topology, parallel_paths
from oracles import matrix_from_csv


def _baseline_plan(budget: int = 7000):
    topo = line_topology(20)
    settings = ScenarioSettings(source_ext=3, dest_ext=4, packet_budget=budget)
    return build_scenario(topo, 5, 13, ProtocolVariant("extrout_baseline"), settings,
                          random.Random(0))


# ------------------------------------------------------------------ run()

def test_run_counts_scale_with_budget():
    plan = _baseline_plan(100)
    trace = run(plan)
    assert trace.total_transmissions == 1500
    # chain interiors transmit once per interval, the sink anchor never,
    # and a node that sends nothing is left out
    for node in range(2, 17):
        assert trace.node_tx[node] == 100
    assert set(trace.node_tx) == set(range(2, 17))


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_run_keys_only_the_transmitters(kind):
    topo = generate(TopologyParams(grid_rows=8, grid_cols=8, tx_range=150.0,
                                   qudg_factor=0.95, seed=3))
    count = 2 if kind in PARAMETERISED_KINDS else 0
    plan = build_scenario(topo, 19, 46, ProtocolVariant(kind, count),
                          ScenarioSettings(packet_budget=3), random.Random(0))
    node_tx = run(plan).node_tx
    # every chain node but the last transmits; nothing else does
    assert set(node_tx) == set().union(*(chain.nodes[:-1]
                                         for chain in plan.all_chains()))
    assert all(c > 0 for c in node_tx.values())


def test_run_link_counts_cover_the_chain():
    plan = _baseline_plan(7)
    trace = run(plan)
    assert trace.link_tx == {(n, n + 1): 7 for n in range(2, 17)}


def test_run_uses_plan_budget_by_default():
    plan = _baseline_plan()
    assert run(plan).node_tx[5] == plan.settings.packet_budget == 7000


def test_run_rejects_bad_budget():
    # The plan's budget lives in its settings, which reject it first.
    plan = _baseline_plan()
    with pytest.raises(ValueError, match="packet_budget must be at least 1"):
        run(replace(plan, settings=replace(plan.settings, packet_budget=0)))


def test_run_counts_every_chain():
    topo, hub_a, hub_b, rows = parallel_paths([14, 14])
    variant = ProtocolVariant("extrout_duplicates", 1)
    plan = build_scenario(topo, rows[0][2], rows[0][10], variant,
                          ScenarioSettings(source_ext=3, dest_ext=4,
                                           packet_budget=10),
                          random.Random(0))
    trace = run(plan)
    assert trace.node_tx[hub_a] == 20  # heads both chains
    assert hub_b not in trace.node_tx  # sink of both chains: sends nothing
    # every transmission is a relay over a link
    assert sum(trace.link_tx.values()) == trace.total_transmissions == 300


def test_run_is_deterministic():
    plan = _baseline_plan(13)
    a = run(plan)
    b = run(plan)
    assert a == b


def test_run_totals_match_an_interval_replay():
    # replay every chain link by link, interval by interval; run() must
    # agree with this in closed form
    topo, _, _, rows = parallel_paths([14, 14])
    plan = build_scenario(topo, rows[0][2], rows[0][10],
                          ProtocolVariant("extrout_duplicates", 1),
                          ScenarioSettings(source_ext=3, dest_ext=4,
                                           packet_budget=9),
                          random.Random(0))
    node_totals = Counter()
    link_totals = Counter()
    for _ in range(9):
        for chain in plan.all_chains():
            for u, v in chain.links():
                node_totals[u] += 1
                link_totals[min(u, v), max(u, v)] += 1
    trace = run(plan)
    assert trace.node_tx == node_totals
    assert trace.link_tx == link_totals


def test_trace_order_is_pinned():
    # Dict order is observable to every caller that iterates a trace:
    # node_tx in insertion order, link_tx sorted by (low, high). Recorded
    # from the Counter-based run.
    topo = generate(TopologyParams(12, 12, seed=5, **LINK_PROFILES[0]))
    rng = random.Random(12)
    digest = hashlib.sha256()
    plans = 0
    for _ in range(6):
        source, dest = rng.sample(topo.nodes, 2)
        for kind in VARIANT_KINDS:
            count = rng.randint(1, 3) if kind in PARAMETERISED_KINDS else 0
            plan = build_scenario(topo, source, dest,
                                  ProtocolVariant(kind, count),
                                  ScenarioSettings(packet_budget=3),
                                  random.Random(plans))
            trace = run(plan)
            digest.update(repr(list(trace.node_tx.items())).encode() + b"\n")
            digest.update(repr(list(trace.link_tx.items())).encode() + b"\n")
            plans += 1
    assert (plans, digest.hexdigest()) == (
        30, "868f860732c38a6d507f6e95b99b535d612838c33f2edc47acf487cba4d2b2d4")


# ----------------------------------------------------------------- matrices

def test_transmission_matrix_is_row_major():
    params = TopologyParams(grid_rows=3, grid_cols=3, spacing=100.0,
                            perturbation=0.0, tx_range=150.0,
                            qudg_factor=0.95, seed=2)
    topo = generate(params)
    plan = build_scenario(topo, 1, 9, ProtocolVariant("no_privacy"),
                          ScenarioSettings(packet_budget=5))
    trace = run(plan)
    matrix = transmission_matrix({n: trace.node_tx.get(n, 0) for n in topo.nodes},
                                 params)
    assert len(matrix) == 3 and all(len(r) == 3 for r in matrix)
    total = sum(cell for row in matrix for cell in row)
    assert total == trace.total_transmissions
    assert matrix[0][0] == trace.node_tx[1]
    assert matrix[2][2] == 0 and 9 not in trace.node_tx  # dest only receives


def test_transmission_matrix_needs_full_grid_coverage():
    trace = run(_baseline_plan(1))
    with pytest.raises(ValueError, match="matrix view unavailable"):
        transmission_matrix(trace.node_tx,
                            TopologyParams(grid_rows=2, grid_cols=2))


def test_mean_matrix_cellwise():
    # two runs of [[2, 4]] and [[4, 8]] sum to [[6, 12]]
    assert mean_matrix([[6, 12]], 2) == [[3.0, 6.0]]
    with pytest.raises(ValueError):
        mean_matrix([[6, 12]], 0)


# ------------------------------------------------------------- serialization

def test_matrix_csv_round_trip():
    matrix = [[0, 12, 5], [7, 0, 3]]
    back = matrix_from_csv(matrix_to_csv(matrix))
    assert back == [[0.0, 12.0, 5.0], [7.0, 0.0, 3.0]]
    fractional = [[0.5, 1.25]]
    assert matrix_from_csv(matrix_to_csv(fractional)) == fractional


def test_matrix_from_csv_skips_comments_and_blanks():
    text = "# header\n\n1,2\n# mid\n3,4\n"
    assert matrix_from_csv(text) == [[1.0, 2.0], [3.0, 4.0]]


def test_ascii_heatmap_glyph_scale():
    art = ascii_heatmap([[0, 9], [4, 18]])
    rows = art.splitlines()
    assert rows[0][0] == HEAT_GLYPHS[0]
    assert rows[0][1] == HEAT_GLYPHS[round(9 * 9 / 18)]
    assert rows[1][0] == HEAT_GLYPHS[2]
    assert rows[1][1] == HEAT_GLYPHS[9]


def test_ascii_heatmap_all_zero():
    assert ascii_heatmap([[0, 0], [0, 0]]) == "  \n  \n"
