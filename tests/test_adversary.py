"""Rate-monitoring attacker: observation, branch inference, guess laws."""

from __future__ import annotations

import hashlib
import random
import statistics

import pytest

from extrout import adversary
from extrout.adversary import (
    Branch,
    attack_trials,
    endpoint_candidates,
    guess_endpoints,
    observe,
    traffic_branches,
    unlinkability_score,
    verdicts_to_csv,
    wilson_interval,
)
from extrout.protocols import (
    PARAMETERISED_KINDS,
    VARIANT_KINDS,
    PlacementError,
    ProtocolVariant,
    ScenarioSettings,
    build_scenario,
)
from extrout.routing import UnreachableError, hop_distances
from extrout.simengine import TrafficTrace, run
from extrout.topology import TopologyParams, generate

from ladders import LINK_PROFILES, line_topology, parallel_paths
from oracles import reference_branches


def _baseline_obs(budget: int = 4):
    topo = line_topology(20)
    plan = build_scenario(topo, 5, 13, ProtocolVariant("extrout_baseline"),
                          ScenarioSettings(source_ext=3, dest_ext=4,
                                           packet_budget=budget),
                          random.Random(0))
    return plan, observe(run(plan))


def _theta_plan(interiors=(14, 14), n_dups: int = 1, budget: int = 5):
    topo, hub_a, hub_b, rows = parallel_paths(list(interiors))
    variant = ProtocolVariant("extrout_duplicates", n_dups)
    plan = build_scenario(topo, rows[0][2], rows[0][10], variant,
                          ScenarioSettings(source_ext=3, dest_ext=4,
                                           packet_budget=budget),
                          random.Random(0))
    return plan, hub_a, hub_b, rows


def _small_theta():
    """Two 3-hop chains sharing their anchors; real pair inside row 0."""
    topo, hub_a, hub_b, rows = parallel_paths([2, 2])
    plan = build_scenario(topo, rows[0][0], rows[0][1],
                          ProtocolVariant("extrout_duplicates", 1),
                          ScenarioSettings(source_ext=1, dest_ext=1,
                                           packet_budget=5),
                          random.Random(0))
    return plan, hub_a, hub_b, rows


def _manual_obs(node_tx, link_tx):
    return TrafficTrace(node_tx=dict(node_tx), link_tx=dict(link_tx))


# -------------------------------------------------------------- observation

def test_observe_is_a_detached_projection():
    plan, _ = _baseline_obs()
    trace = run(plan)
    obs = observe(trace)
    assert set(vars(obs)) == {"node_tx", "link_tx"}
    assert (obs.node_tx, obs.link_tx) == (trace.node_tx, trace.link_tx)
    obs.node_tx[5] += 1
    obs.link_tx[5, 6] += 1
    assert trace == run(plan)


# ------------------------------------------------------------------ branches

def test_single_chain_is_one_oriented_branch():
    _, obs = _baseline_obs()
    branches = traffic_branches(obs)
    assert len(branches) == 1
    b = branches[0]
    assert b.nodes == tuple(range(2, 18))
    assert b.head == 2 and b.tail == 17
    assert b.transmitters == tuple(range(2, 17))
    assert b.receivers == tuple(range(3, 18))


def test_theta_splits_at_the_anchors():
    # both anchors have active degree 2, but the source anchor transmits
    # at double rate and the sink anchor not at all, so both cut the cycle
    plan, hub_a, hub_b, rows = _theta_plan()
    obs = observe(run(plan))
    branches = traffic_branches(obs)
    assert len(branches) == 2
    for b in branches:
        assert b.head == hub_a and b.tail == hub_b
        assert len(b.nodes) == 16
    chains = {b.nodes[1:-1] for b in branches}
    assert chains == {tuple(rows[0]), tuple(rows[1])}


def test_three_chains_between_shared_anchors():
    plan, hub_a, hub_b, rows = _theta_plan(interiors=(14, 14, 14), n_dups=2,
                                           budget=3)
    obs = observe(run(plan))
    branches = traffic_branches(obs)
    assert len(branches) == 3
    assert all(b.head == hub_a and b.tail == hub_b for b in branches)


def test_uniform_cycle_falls_back_to_a_deterministic_cut():
    # a node that transmits but ends no active link starts no chain, so
    # it cannot stand in for the cut; the walk leaves the cut by its lower
    # neighbor whatever order the links come in
    uniform = {1: 7, 2: 7, 3: 7, 4: 7}
    cycle = {(1, 2): 7, (2, 3): 7, (3, 4): 7, (1, 4): 7}
    for node_tx, link_tx in ((uniform, cycle),
                             ({**uniform, 9: 3}, cycle),
                             (uniform, dict(reversed(cycle.items())))):
        branches = traffic_branches(_manual_obs(node_tx, link_tx))
        assert len(branches) == 1
        b = branches[0]
        assert b.head == b.tail == 1
        assert b.nodes == (1, 2, 3, 4, 1)
        assert set(b.transmitters) == {1, 2, 3, 4}
    # a cycle without a stop is cut even when another component has stops
    obs = _manual_obs({1: 7, 2: 7, 4: 7, 5: 7, 6: 7},
                      {(1, 2): 7, (2, 3): 7, (4, 5): 7, (5, 6): 7, (4, 6): 7})
    assert traffic_branches(obs) == (Branch((1, 2, 3)), Branch((4, 5, 6, 4)))
    assert endpoint_candidates(obs) == ({1, 2, 4, 5, 6}, {2, 3, 4, 5, 6})


def test_orientation_from_rates():
    # middle node matches one neighbor's rate, so the chain stays whole
    obs = _manual_obs({1: 10, 2: 10, 3: 0}, {(1, 2): 10, (2, 3): 5})
    b, = traffic_branches(obs)
    assert b.nodes == (1, 2, 3)
    assert b.head == 1
    flipped = _manual_obs({1: 0, 2: 10, 3: 10}, {(1, 2): 5, (2, 3): 10})
    assert traffic_branches(flipped)[0].head == 3


def test_branches_match_the_walk_that_marks_every_link():
    # Seeded plans of every variant on small Q-UDG grids, at counts 1-3,
    # strict and lenient extension.
    rng = random.Random(28)
    compared = 0
    for seed in range(24):
        side = rng.randint(5, 8)
        topo = generate(TopologyParams(side, side, perturbation=rng.random(),
                                       qudg_factor=rng.uniform(0.4, 1.0),
                                       seed=seed))
        source, dest = rng.sample(topo.nodes, 2)
        if hop_distances(topo, source).get(dest, 0) < 2:
            continue
        for kind in VARIANT_KINDS:
            for count in (1, 2, 3) if kind in PARAMETERISED_KINDS else (0,):
                for strict in (True, False):
                    try:
                        plan = build_scenario(
                            topo, source, dest, ProtocolVariant(kind, count),
                            ScenarioSettings(strict=strict, packet_budget=3),
                            random.Random(compared))
                    except PlacementError:
                        continue
                    obs = observe(run(plan))
                    assert traffic_branches(obs) == reference_branches(obs)
                    compared += 1
    assert compared > 300


@pytest.mark.parametrize("node_tx, link_tx", [
    # a uniform cycle
    ({1: 7, 2: 7, 3: 7, 4: 7}, {(1, 2): 7, (2, 3): 7, (3, 4): 7, (1, 4): 7}),
    # two chains between the same two stops, then one of them a single link
    ({1: 14, 2: 7, 3: 7, 4: 0}, {(1, 2): 7, (2, 4): 7, (1, 3): 7, (3, 4): 7}),
    ({1: 14, 2: 7, 4: 0}, {(1, 2): 7, (2, 4): 7, (1, 4): 7}),
    # a silent sink, absent from node_tx
    ({1: 7, 2: 7}, {(1, 2): 7, (2, 3): 7}),
    # a transmitter that ends no active link
    ({1: 7, 2: 7, 9: 3}, {(1, 2): 7, (2, 3): 7}),
    # a degree-1 stub off a chain
    ({1: 7, 2: 14, 3: 7, 5: 0}, {(1, 2): 7, (2, 3): 7, (3, 4): 7, (2, 5): 7}),
    # a chain with stops beside a uniform cycle and a cycle of two rates
    ({1: 7, 2: 7, 4: 7, 5: 7, 6: 7, 8: 3, 9: 3, 10: 5, 11: 5},
     {(1, 2): 7, (2, 3): 7, (4, 5): 7, (5, 6): 7, (4, 6): 7,
      (10, 11): 5, (9, 10): 3, (8, 9): 3, (8, 11): 5}),
])
def test_hand_built_branches_match_the_walk_that_marks_every_link(node_tx, link_tx):
    obs = _manual_obs(node_tx, link_tx)
    assert traffic_branches(obs) == reference_branches(obs)


@pytest.mark.parametrize("node_tx, link_tx, link", [
    ({1: 7, 2: 7}, {(1, 2): 7, (2, 1): 7}, r"\(2, 1\) in both"),
    ({1: 7, 2: 14, 3: 0}, {(1, 2): 7, (2, 1): 7, (2, 3): 7}, r"\(2, 1\) in both"),
    ({1: 7}, {(1, 1): 7}, r"self-link \(1, 1\)"),
    ({1: 7, 2: 7}, {(1, 2): 7, (2, 2): 3}, r"self-link \(2, 2\)"),
])
def test_malformed_traces_are_rejected(node_tx, link_tx, link):
    with pytest.raises(ValueError, match=link):
        traffic_branches(_manual_obs(node_tx, link_tx))


def test_an_idle_reverse_link_is_no_second_orientation():
    obs = _manual_obs({1: 7, 2: 0}, {(1, 2): 7, (2, 1): 0})
    assert [b.nodes for b in traffic_branches(obs)] == [(1, 2)]


# ---------------------------------------------------------------- candidates

def test_candidates_without_cover_are_the_chain_ends():
    topo = line_topology(12)
    plan = build_scenario(topo, 2, 10, ProtocolVariant("no_privacy"),
                          ScenarioSettings(packet_budget=6))
    obs = observe(run(plan))
    gs, gd = endpoint_candidates(obs, cover_traffic=False)
    assert gs == frozenset({2})
    assert gd == frozenset({10})


def test_candidates_with_cover_span_the_whole_chain():
    _, obs = _baseline_obs()
    gs, gd = endpoint_candidates(obs, cover_traffic=True)
    assert gs == frozenset(range(2, 17))
    assert gd == frozenset(range(3, 18))
    assert len(gs) == len(gd) == 15


def test_duplicate_candidates_union_counts_shared_anchor_once():
    plan, hub_a, hub_b, rows = _theta_plan()
    obs = observe(run(plan))
    gs, gd = endpoint_candidates(obs)
    assert gs == frozenset({hub_a, *rows[0], *rows[1]})
    assert len(gs) == 29  # two 15-transmitter chains sharing one anchor
    assert gd == frozenset({hub_b, *rows[0], *rows[1]})


# -------------------------------------------------------------------- guess

def test_guess_law_is_uniform_over_branch_then_node():
    # two 3-hop chains: picking branch then transmitter gives each of the
    # source anchor's appearances probability 1/2 * 1/3
    plan, hub_a, hub_b, rows = _small_theta()
    obs = observe(run(plan))
    assert tuple(map(len, endpoint_candidates(obs))) == (5, 5)
    hits = 0
    trials = 3000
    for s in range(trials):
        src, dst, pick = guess_endpoints(obs, random.Random(s))
        assert src in {hub_a, *rows[0], *rows[1]}
        hits += src == plan.source
    assert abs(hits / trials - 1 / 6) < 0.025


def test_guess_without_cover_hits_the_ends():
    topo = line_topology(12)
    plan = build_scenario(topo, 2, 10, ProtocolVariant("no_privacy"),
                          ScenarioSettings(packet_budget=6))
    obs = observe(run(plan))
    src, dst, pick = guess_endpoints(obs, random.Random(0),
                                     cover_traffic=False)
    assert (src, dst) == (2, 10)


def test_guess_is_seed_deterministic_and_needs_traffic():
    _, obs = _baseline_obs()
    a = guess_endpoints(obs, random.Random(9))
    b = guess_endpoints(obs, random.Random(9))
    assert a == b
    # zero counts are no evidence: only a count above 0 is active
    for empty in (_manual_obs({}, {}), _manual_obs({1: 0, 2: 0}, {(1, 2): 0})):
        with pytest.raises(adversary.NoTrafficError, match="no active traffic"):
            guess_endpoints(empty, random.Random(0))


def test_guess_builds_the_branches_once(monkeypatch):
    _, obs = _baseline_obs()
    calls = []

    def counting(*args):
        calls.append(args)
        return traffic_branches(*args)

    monkeypatch.setattr(adversary, "traffic_branches", counting)
    guess_endpoints(obs, random.Random(0))
    assert len(calls) == 1


def test_branches_and_guesses_are_pinned():
    # What the attacker reads off a simulated trace is an output: attack
    # files follow the chains, their order and the guesses drawn from
    # them. Seeded 12x12 plans of every variant on the dense and default
    # link profiles; recorded from the frozenset-and-sorted-links
    # decomposition.
    digest = hashlib.sha256()
    plans = 0
    for profile in LINK_PROFILES[:2]:
        topo = generate(TopologyParams(12, 12, seed=5, **profile))
        rng = random.Random(12)
        for _ in range(6):
            source, dest = rng.sample(topo.nodes, 2)
            while hop_distances(topo, source).get(dest, 0) < 3:
                source, dest = rng.sample(topo.nodes, 2)
            for kind in VARIANT_KINDS:
                count = rng.randint(1, 2) if kind in PARAMETERISED_KINDS else 0
                try:
                    plan = build_scenario(
                        topo, source, dest, ProtocolVariant(kind, count),
                        ScenarioSettings(packet_budget=3),
                        random.Random(plans))
                except (PlacementError, UnreachableError):
                    digest.update(b"no plan\n")
                    continue
                obs = observe(run(plan))
                digest.update(repr([b.nodes for b in traffic_branches(obs)])
                              .encode() + b"\n")
                for k in range(3):
                    guess = guess_endpoints(obs, random.Random(k),
                                            plan.variant.uses_cover)
                    digest.update(repr((guess[0], guess[1], guess[2].nodes))
                                  .encode() + b"\n")
                plans += 1
    assert (plans, digest.hexdigest()) == (
        60, "78bcd3b6a9181658426ac071ab03c869d56ac220be89ebd89109dff27589d9ac")


# ------------------------------------------------------------ attack trials

def test_attack_trials_summary_and_determinism():
    plan, hub_a, hub_b, rows = _small_theta()

    def factory(rng):
        return plan

    summary = attack_trials(factory, trials=400, seed=5)
    assert summary.trials == 400 and len(summary.verdicts) == 400
    source_hits = summary.hits[0]
    lo, hi = wilson_interval(source_hits, 400)
    assert lo <= 1 / 6 <= hi
    assert lo <= source_hits / 400 <= hi
    assert summary.empirical_anonymity == 1.0 - source_hits / 400
    alo, ahi = summary.empirical_anonymity_ci()
    assert alo == 1.0 - hi and ahi == 1.0 - lo
    again = attack_trials(factory, trials=400, seed=5)
    assert again.verdicts == summary.verdicts
    with pytest.raises(ValueError):
        attack_trials(factory, trials=0)


def test_attack_trials_no_privacy_always_wins():
    topo = line_topology(12)
    plan = build_scenario(topo, 2, 10, ProtocolVariant("no_privacy"),
                          ScenarioSettings(packet_budget=4))
    summary = attack_trials(lambda rng: plan, trials=50)
    assert summary.hits == (50, 50, 50)
    assert all(v.on_real_path for v in summary.verdicts)


# ------------------------------------------------------------------- scores

def test_wilson_interval_shape():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - 0.5 == pytest.approx(0.5 - lo, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    # the float formula misses 1.0 by an ulp at 100, 300 and 500 trials
    # and 0.0 by 1e-19 at 2000, so the ends are set exactly
    for trials in (300, 500, 2000):
        assert wilson_interval(trials, trials)[1] == 1.0
        assert wilson_interval(0, trials)[0] == 0.0


def test_unlinkability_perfect_for_uniform_cover():
    _, obs = _baseline_obs()
    assert unlinkability_score(obs) == 1.0


def test_unlinkability_drops_when_counts_vary():
    _, obs = _baseline_obs()
    obs.node_tx[9] += 1
    score = unlinkability_score(obs)
    counts = [obs.node_tx[n] for n in range(2, 17)]
    expected = 1.0 - statistics.pstdev(counts) / statistics.fmean(counts)
    assert score == pytest.approx(expected)
    assert score < 1.0


def test_unlinkability_clamps_and_rejects_empty():
    counts = {1: 1, 2: 1, 3: 1, 4: 100}
    assert statistics.pstdev(counts.values()) > statistics.fmean(counts.values())
    obs = _manual_obs(counts, {(1, 2): 1, (2, 3): 1, (3, 4): 1})
    assert unlinkability_score(obs) == 0.0  # cv above 1 clamps to the floor
    with pytest.raises(ValueError):
        unlinkability_score(_manual_obs({}, {}))


def test_verdicts_csv_layout():
    plan, *_ = _small_theta()
    summary = attack_trials(lambda rng: plan, trials=3)
    lines = verdicts_to_csv(summary).splitlines()
    assert lines[0] == "trial,source_guess,dest_guess,correct_source,correct_dest"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
