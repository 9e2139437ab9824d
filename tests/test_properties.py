"""Property tests over random small Q-UDG topologies."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from extrout.protocols import PlacementError, ProtocolVariant, build_scenario
from extrout.routing import hop_distances
from extrout.topology import TopologyParams, generate


def _far_pair(topo, start: int) -> tuple[int, int]:
    """start and the farthest node it reaches (smallest id among ties)."""
    dist = hop_distances(topo, start)
    far = max(dist.values())
    return start, min(n for n, d in dist.items() if d == far)


def _outcomes(topo, pair, variants, seed: int) -> list:
    """One plan per variant, or the placement error's message."""
    results = []
    for variant in variants:
        try:
            results.append(build_scenario(topo, *pair, variant,
                                          rng=random.Random(seed)))
        except PlacementError as exc:
            results.append(str(exc))
    return results


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(3, 7), cols=st.integers(3, 7),
       perturbation=st.floats(0.0, 0.5), qudg_factor=st.floats(0.3, 1.0),
       topo_seed=st.integers(0, 2**16), plan_seed=st.integers(0, 2**16),
       starts=st.tuples(st.integers(1, 49), st.integers(1, 49)))
def test_cache_state_never_changes_a_plan(rows, cols, perturbation, qudg_factor,
                                          topo_seed, plan_seed, starts):
    params = TopologyParams(grid_rows=rows, grid_cols=cols,
                            perturbation=perturbation, tx_range=150.0,
                            qudg_factor=qudg_factor, seed=topo_seed)
    fresh, warmed = generate(params), generate(params)
    pair = _far_pair(fresh, 1 + (starts[0] - 1) % fresh.node_count)
    other = _far_pair(warmed, 1 + (starts[1] - 1) % warmed.node_count)
    variants = (ProtocolVariant("extrout_fake", 1), ProtocolVariant("nfake_pairs", 3))
    expected = _outcomes(fresh, pair, variants, plan_seed)
    if other[0] != other[1]:
        _outcomes(warmed, other, variants + (ProtocolVariant("extrout_duplicates", 1),),
                  plan_seed + 1)
    assert _outcomes(warmed, pair, variants, plan_seed) == expected
