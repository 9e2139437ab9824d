"""Acceptance suite: one test per headline claim the package makes.

Each test prints a single verdict line, so `pytest -v` doubles as the
sign-off sheet.  Exact equalities are exact by construction (deterministic
scheduling, pinned extension lengths); Monte Carlo checks run on fixed
seeds inside three-sigma binomial bounds.
"""

import math
import random
import time
from pathlib import Path

import pytest

from extrout.adversary import attack_trials, observe, unlinkability_score
from extrout.expcli import main
from extrout.metrics import (REFERENCE_TOLERANCE, REFERENCES, reconcile,
                             report_from_run)
from extrout.protocols import (ProtocolVariant, ScenarioPlan,
                               ScenarioSettings, build_scenario)
from extrout.rng import substream
from extrout.routing import (ExtendedRoute, Route, disjoint_paths, extrapolate,
                             shortest_path)
from extrout.simengine import TrafficTrace, run
from extrout.topology import (Position, TopologyParams,
                              average_degree, build_qudg, generate,
                              link_probability, topology_to_text)

from ladders import line_topology, parallel_paths, random_topology
from oracles import adjacency, bfs_levels, link_pairs, max_node_disjoint_paths


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows minus provenance comments; row 0 is the header."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return [line.split(",") for line in lines]


def _baseline_plan(rng_seed: int = 0) -> ScenarioPlan:
    # 8-hop route on a 20-node line, extended 3 ahead and 4 behind
    topo = line_topology(20)
    return build_scenario(topo, 5, 13, ProtocolVariant("extrout_baseline"),
                          ScenarioSettings(source_ext=3, dest_ext=4),
                          random.Random(rng_seed))


def _theta_plan(interiors, n_dup: int, rng_seed: int = 0) -> ScenarioPlan:
    """Extended main path through row 0 of a multi-row theta graph, with
    n_dup duplicates routed over the remaining rows."""
    topo, _, _, rows = parallel_paths(interiors)
    return build_scenario(topo, rows[0][2], rows[0][10],
                          ProtocolVariant("extrout_duplicates", n_dup),
                          ScenarioSettings(source_ext=3, dest_ext=4),
                          random.Random(rng_seed))


def test_criterion_01_baseline_run_via_cli(tmp_path):
    topo_file = tmp_path / "line.txt"
    topo_file.write_text(topology_to_text(line_topology(20)),
                         encoding="utf-8")
    out = tmp_path / "out"
    started = time.perf_counter()
    rc = main(["run", "--topology-file", str(topo_file),
               "--source", "5", "--dest", "13",
               "--source-ext", "3", "--dest-ext", "4",
               "--reps", "20", "--budget", "7000",
               "--reference", "baseline_3_8_4",
               "--seed", "1", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "anonymity single   0.933333" in text
    assert "tof measured       1.875000" in text
    assert "tof measured mean  1.875000" in text
    assert round(1 - 1 / 15, 4) == 0.9333
    rows = _data_rows(out / "report.csv")
    header, reps = rows[0], rows[1:]
    assert len(reps) == 20
    tof_col = header.index("tof_measured")
    assert all(row[tof_col] == "1.875" for row in reps)
    _verdict(1, elapsed < 5.0,
             f"anonymity 1-1/15, tof 1.875 exact over 20 reps, {elapsed:.2f}s")


def test_criterion_02_duplicate_paths():
    plan1 = _theta_plan([14, 14], 1)
    report1 = report_from_run(plan1, run(plan1))
    assert report1.duplicate_hops == (15,)
    assert report1.anonymity_single == 1 - 1 / 30
    assert round(report1.anonymity_single, 4) == 0.9667
    assert report1.tof_measured == 3.75 == report1.tof_analytical

    plan2 = _theta_plan([14, 14, 14], 2)
    report2 = report_from_run(plan2, run(plan2))
    assert sum(report2.duplicate_hops) == 30
    assert report2.anonymity_single == 1 - 1 / 45
    assert round(report2.anonymity_single, 4) == 0.9778
    assert report2.tof_measured == 5.625 == report2.tof_analytical
    _verdict(2, True, "one duplicate 0.9667/3.75, two duplicates 0.9778/5.625")


def test_criterion_03_five_paths_totalling_80_hops():
    # rows of 15, 14, 16, 16 and 19 hops hub to hub; the main path takes
    # the 15-hop row and the other four become duplicates
    plan = _theta_plan([14, 13, 15, 15, 18], 4)
    assert plan.main.route.hops == 15
    assert sorted(r.hops for r in plan.duplicates) == [14, 16, 16, 19]
    report = report_from_run(plan, run(plan))
    assert report.tof_measured == 10.0 == report.tof_analytical
    assert report.anonymity_single == 1 - 1 / 80 == 0.9875
    five = REFERENCES["five_path_total_80"]
    record = reconcile(report, five)
    assert record.passed and not record.flags
    assert any("total chain set" in note for note in record.notes)
    _verdict(3, True, "0.9875/10.0 exact, 80 chain hops, interpretation noted")


def test_criterion_04_fake_extended_path_mismatch_is_flagged():
    topo = line_topology(40)
    real = shortest_path(topo, 5, 13)
    main = extrapolate(topo, real, 3, 4, random.Random(0))
    fake = Route(tuple(range(20, 38)))  # 17 hops, disjoint
    assert fake.hops == 17
    assert not set(fake.nodes) & set(main.route.nodes)
    plan = ScenarioPlan(topology=topo,
                        variant=ProtocolVariant("extrout_fake", 1), real_route=real,
                        main=main, fake_paths=(fake,),
                        requested_source_ext=3, requested_dest_ext=4)
    report = report_from_run(plan, run(plan))
    assert report.anonymity_single == 1 - 1 / 32 == 0.96875
    assert round(report.anonymity_single, 3) == 0.969
    assert report.tof_measured == 4.0 == report.tof_analytical

    fake_17 = REFERENCES["fake_extended_17"]
    quoted_anonymity, quoted_tof = fake_17.quoted
    assert abs(report.anonymity_single - quoted_anonymity) > REFERENCE_TOLERANCE
    assert abs(report.tof_analytical - quoted_tof) > REFERENCE_TOLERANCE
    record = reconcile(report, fake_17)
    assert record.passed  # quoted numbers may only flag, never fail
    assert len(record.flags) == 2
    assert any("0.983" in flag for flag in record.flags)
    assert any("4.25" in flag for flag in record.flags)
    _verdict(4, True, "computed 0.969/4.00 kept, quoted 0.983/4.25 flagged")


def test_criterion_05_single_fake_pair():
    topo = line_topology(30)
    real = shortest_path(topo, 2, 14)
    assert real.hops == 12
    fake = Route(tuple(range(16, 30)))  # 13 hops, clear of the real pair
    plan = ScenarioPlan(topology=topo,
                        variant=ProtocolVariant("nfake_pairs", 1), real_route=real,
                        main=ExtendedRoute(real, 0, 0), fake_paths=(fake,))
    report = report_from_run(plan, run(plan))
    assert report.anonymity_single == 0.5
    assert report.tof_measured == 25 / 12 == report.tof_analytical
    assert abs(report.tof_measured - 2.08) <= 0.01
    record = reconcile(report, REFERENCES["one_fake_pair_12_13"])
    assert record.passed and not record.flags
    _verdict(5, True, "anonymity 0.5 exact, tof 25/12 within 0.01 of 2.08")


def test_criterion_06_attack_success_rates():
    trials = 5000
    started = time.perf_counter()

    def baseline_factory(rng):
        topo = line_topology(20)
        return build_scenario(topo, 5, 13, ProtocolVariant("extrout_baseline"),
                              ScenarioSettings(source_ext=3, dest_ext=4), rng)

    summary = attack_trials(baseline_factory, trials, seed=11)
    expected = 1 / 15  # one chain of Ks + L + Kd = 15 transmitters
    bound = 3 * math.sqrt(expected * (1 - expected) / trials)
    rate = summary.hits[0] / trials
    assert abs(rate - expected) <= bound

    def duplicate_factory(rng):
        topo, _, _, rows = parallel_paths([14, 14])
        return build_scenario(topo, rows[0][2], rows[0][10],
                              ProtocolVariant("extrout_duplicates", 1),
                              ScenarioSettings(source_ext=3, dest_ext=4), rng)

    dup = attack_trials(duplicate_factory, trials, seed=12)
    # picking the true chain out of n+1, then the source out of its 15
    # transmitters: (1/(n+1)) * 1/(Ks + L + Kd)
    dup_expected = (1 / 2) * (1 / 15)
    dup_bound = 3 * math.sqrt(dup_expected * (1 - dup_expected) / trials)
    dup_rate = dup.hits[0] / trials
    assert abs(dup_rate - dup_expected) <= dup_bound
    elapsed = time.perf_counter() - started
    _verdict(6, elapsed < 60.0,
             f"baseline {rate:.4f}~1/15, duplicate "
             f"{dup_rate:.4f}~1/30 (pair rate {dup.hits[2] / trials:.4f}), "
             f"{trials} trials each, {elapsed:.1f}s")


def test_criterion_07_link_model_properties():
    # probabilistic band, 10^4 independent draws through the real builder
    for distance in (60.0, 100.0, 130.0):
        positions = {1: Position(0.0, 0.0), 2: Position(distance, 0.0)}
        hits = 0
        trials = 10_000
        for trial in range(trials):
            params = TopologyParams(grid_rows=1, grid_cols=2,
                                    perturbation=0.0, seed=trial)
            topo = build_qudg(positions, params, substream(trial, "links"))
            hits += 1 if link_pairs(topo) else 0
        expected = link_probability(distance, 145.0, 0.25)
        assert abs(hits / trials - expected) < 0.02

    # deterministic regime, exhaustively on a dense 3x3 grid: laterals and
    # diagonals sit below a*R = 142.5, everything else at or beyond R = 150
    dense = generate(TopologyParams(grid_rows=3, grid_cols=3, spacing=100.0,
                                    perturbation=0.0, tx_range=150.0,
                                    qudg_factor=0.95, seed=2))
    certain = dense.params.qudg_factor * dense.params.tx_range
    linked = link_pairs(dense)
    for i in dense.nodes:
        for j in dense.nodes:
            if j <= i:
                continue
            d = math.dist(dense.positions[i], dense.positions[j])
            if d < certain:
                assert (i, j) in linked
            if d >= dense.params.tx_range:
                assert (i, j) not in linked
    assert len(linked) == 20

    # default-parameter deployment: degree is measured and reported only,
    # the quoted 7 stays an open question
    deployed = generate(TopologyParams(grid_rows=20, grid_cols=20, seed=7))
    degree = average_degree(deployed)
    assert degree > 0
    _verdict(7, True,
             f"band within 0.02, small-grid links exact, default degree "
             f"{degree:.2f} measured (quoted 7 not asserted)")


def test_criterion_08_routing_matches_independent_oracles():
    rng = random.Random(17)
    for seed in range(100):
        topo = random_topology(24, 0.12, seed)
        graph = adjacency(topo)
        picks = 0
        while picks < 50:
            start = rng.choice(topo.nodes)
            levels = bfs_levels(graph, start)
            reachable = [n for n in levels if n != start]
            if not reachable:
                continue
            target = rng.choice(reachable)
            assert shortest_path(topo, start, target).hops == levels[target]
            picks += 1

    positive = 0
    for seed in range(50):
        topo = random_topology(20, 0.2, seed)
        a, b = rng.sample(topo.nodes, 2)
        expected = max_node_disjoint_paths(adjacency(topo), a, b)
        found = disjoint_paths(topo, a, b, 20, Route((a, b)))
        assert len(found) == expected
        positive += 1 if expected else 0
    assert positive >= 20  # the sweep exercised nontrivial cut sizes
    _verdict(8, True,
             f"5000 hop counts match BFS, 50 anchor pairs match max-flow "
             f"({positive} with positive cardinality)")


def test_criterion_09_uniform_traffic_and_tamper_detection():
    plan = _baseline_plan()
    trace = run(plan)
    active = {n: c for n, c in trace.node_tx.items() if c > 0}
    assert len(set(active.values())) == 1  # CV = 0 across the live chain
    assert unlinkability_score(observe(trace)) == 1.0

    bumped = dict(trace.node_tx)
    bumped[9] += 1
    tampered = TrafficTrace(node_tx=bumped, link_tx=dict(trace.link_tx))
    report = report_from_run(plan, tampered)
    assert report.tof_measured != report.tof_analytical
    record = reconcile(report)
    assert not record.passed
    assert any("tof_measured" in failure for failure in record.failures)
    assert unlinkability_score(observe(tampered)) < 1.0
    _verdict(9, True,
             "uniform counts score 1.0, a single extra transmission fails "
             "reconciliation")


def test_criterion_10_sweep_reproduces_tradeoff(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep",
               "--rows", "20", "--cols", "20", "--perturbation", "0",
               "--tx-range", "150", "--qudg-factor", "0.95",
               "--hop-targets", "3,4,5,6,7,8,9,10,11,12,13,14",
               "--pairs-per-target", "4",
               "--source-ext", "2", "--dest-ext", "2",
               "--frontier-hops", "12",
               "--duplicate-counts", "1,2,3", "--fake-counts", "1",
               "--nfake-counts", "1,3,5,7,9",
               "--reps", "3", "--budget", "60",
               "--seed", "6", "--out", str(out)])
    assert rc == 0

    rows = _data_rows(out / "anonymity_vs_L.csv")[1:]
    used_rows = [row for row in rows if int(row[1]) > 0]
    assert len(used_rows) >= 8
    for row in used_rows:
        hops = int(row[0])
        group = 2 + hops + 2
        assert row[2] == repr(1 - 1 / group)
        assert row[4] == row[5] == repr(group / hops)

    frontier = _data_rows(out / "anonymity_vs_tof.csv")[1:]
    extended = [row for row in frontier
                if row[0].startswith("extrout") and row[2]]
    fake_pairs = [row for row in frontier
                  if row[0] == "nfake_pairs" and row[2]]
    assert len(extended) >= 4 and fake_pairs
    for row in extended:
        anonymity, tof = float(row[2]), float(row[4])
        assert any(anonymity > float(nf[2]) and tof <= float(nf[4])
                   for nf in fake_pairs), row
    _verdict(10, True,
             f"{len(used_rows)} hop targets exact at 1-1/(L+4); every "
             f"extended variant beats a fake-pairs point on both axes")


def test_criterion_11_degree_7_profile_reaches_the_quoted_degree():
    # The defaults with tx_range 245: the paper's quoted average degree of
    # 7, within 0.5, on every one of ten random 20x20 deployments.
    degrees = [average_degree(generate(TopologyParams(20, 20, tx_range=245.0, seed=seed)))
               for seed in range(1, 11)]
    assert all(6.5 <= degree <= 7.5 for degree in degrees), degrees
    _verdict(11, True,
             f"degree-7 profile (tx_range 245) averages {min(degrees):.2f} to "
             f"{max(degrees):.2f} over topology seeds 1-10")
