"""Privacy formulas, report accounting, reconciliation rules."""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from extrout.metrics import (
    REFERENCE_TOLERANCE,
    REFERENCES,
    PrivacyReport,
    Reference,
    reconcile,
    reference_reconciliations,
    report_from_run,
    report_to_text,
    reports_to_csv,
)
from extrout.protocols import (
    COVER_KINDS,
    ProtocolVariant,
    ScenarioSettings,
    build_scenario,
)
from extrout.simengine import run

from ladders import line_topology, parallel_paths


# ----------------------------------------------------------------- formulas

def _with_group(group: int) -> PrivacyReport:
    """A report whose anonymity group is `group`: one chain of that many
    hops under cover."""
    return PrivacyReport("extrout_baseline", group)


def test_anonymity_single_values():
    assert _with_group(15).anonymity_single == 1.0 - 1.0 / 15
    assert _with_group(1).anonymity_single == 0.0
    assert _with_group(80).anonymity_single == 0.9875
    # without cover the group is the chain count, under the same formula
    assert PrivacyReport("nfake_pairs", 12, fake_hops=(12,) * 14
                         ).anonymity_single == 1.0 - 1.0 / 15


def test_anonymity_pair_values():
    assert _with_group(15).anonymity_pair == 1.0 - 1.0 / 225
    assert _with_group(15).anonymity_pair == pytest.approx(0.99556, abs=5e-6)
    assert _with_group(1).anonymity_pair == 0.0
    assert _with_group(2).anonymity_pair == 0.75


def _single(*args, **kw) -> float:
    return PrivacyReport(*args, **kw).anonymity_single


def _tof(*args, **kw) -> float:
    return PrivacyReport(*args, **kw).tof_analytical


def test_anonymity_extrout_values():
    # under cover the group is every transmitter of every chain
    assert _single("extrout_baseline", 8, 3, 4) == _with_group(15).anonymity_single
    assert _single("extrout_baseline", 8, 3, 4) == pytest.approx(
        0.9333, abs=5e-5)
    assert _single("extrout_duplicates", 8, 3, 4,
                   duplicate_hops=(15,)) == pytest.approx(0.9667, abs=5e-5)
    assert _single("extrout_duplicates", 8, 3, 4,
                   duplicate_hops=(15, 15)) == pytest.approx(0.9778, abs=5e-5)
    with pytest.raises(ValueError):
        PrivacyReport("extrout_baseline", 8, -1, 4)
    with pytest.raises(ValueError):
        PrivacyReport("extrout_baseline", 0, 3, 4)


def test_anonymity_nfake_values():
    # without cover the group is the chain count: n/(n+1) for n fake pairs
    assert _single("nfake_pairs", 12) == 0.0
    assert _single("nfake_pairs", 12, fake_hops=(13,)) == 0.5
    assert _single("nfake_pairs", 12, fake_hops=(12,) * 9) == 0.9
    assert PrivacyReport("nfake_pairs", 12, fake_hops=(12,) * 9
                         ).n_fakes == 9
    with pytest.raises(ValueError):
        PrivacyReport("nfake_pairs", 12, fake_hops=(0,))


def test_tof_per_variant():
    assert _tof("no_privacy", 8) == 1.0
    assert _tof("no_privacy", 44) == 1.0
    assert _tof("extrout_baseline", 8, 3, 4) == 1.875
    assert _tof("extrout_duplicates", 8, 3, 4, duplicate_hops=(15,)) == 3.75
    assert _tof("extrout_duplicates", 8, 3, 4,
                duplicate_hops=(15, 15)) == 5.625
    assert _tof("extrout_duplicates", 8, 3, 4,
                duplicate_hops=(14, 16, 16, 19)) == 10.0
    assert _tof("extrout_fake", 8, 3, 4, fake_hops=(17,)) == 4.0
    assert _tof("nfake_pairs", 12, fake_hops=(13,)) == 25 / 12
    assert _tof("nfake_pairs", 12, fake_hops=(13,)) == pytest.approx(
        2.08, abs=0.005)


def test_tof_validation():
    with pytest.raises(ValueError):
        PrivacyReport("warp_drive", 8)
    with pytest.raises(ValueError):
        PrivacyReport("extrout_baseline", 0, 3, 4)
    with pytest.raises(ValueError):
        PrivacyReport("extrout_baseline", 8, -1, 4)
    with pytest.raises(ValueError):
        PrivacyReport("nfake_pairs", 8, fake_hops=(0,))


def test_guess_success_duplicates():
    assert PrivacyReport("extrout_duplicates", 8, 3, 4,
                         duplicate_hops=(15,)).guess_success == 1 / 30
    assert PrivacyReport("extrout_baseline", 8, 3, 4).guess_success == 1 / 15
    assert PrivacyReport("extrout_duplicates", 8, 3, 4,
                         duplicate_hops=(15, 15)
                         ).guess_success == pytest.approx(1 / 45)
    # only the carrier's transmitters count, not the other chains' hops
    assert PrivacyReport("extrout_fake", 8, 3, 4,
                         fake_hops=(17,)).guess_success == 1 / 30
    # without cover (no_privacy, fake pairs) each chain's head is its source
    assert PrivacyReport("no_privacy", 8).guess_success == 1.0
    assert PrivacyReport("nfake_pairs", 8,
                         fake_hops=(8, 9, 10)).guess_success == 1 / 4


def test_formula_monotonicity():
    rng = random.Random(17)
    for _ in range(200):
        g = rng.randint(1, 500)
        assert (_with_group(g + 1).anonymity_single
                > _with_group(g).anonymity_single)
        ks, l, kd = rng.randint(0, 9), rng.randint(1, 30), rng.randint(0, 9)
        extra = rng.randint(1, 40)
        assert (_single("extrout_duplicates", l, ks, kd,
                        duplicate_hops=(extra + 1,))
                > _single("extrout_duplicates", l, ks, kd,
                          duplicate_hops=(extra,)))
        assert (_tof("extrout_duplicates", l, ks, kd,
                     duplicate_hops=(extra + l,))
                > _tof("extrout_duplicates", l, ks, kd,
                       duplicate_hops=(extra,)))
        assert _single("nfake_pairs", l,
                       fake_hops=(l,) * rng.randint(0, 50)) < 1.0


# ------------------------------------------------------------------ reports

def test_report_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        PrivacyReport("mystery", 8)
    with pytest.raises(ValueError, match="extension"):
        PrivacyReport("extrout_baseline", 8, 0, -1)
    with pytest.raises(ValueError, match="path lengths"):
        PrivacyReport("extrout_duplicates", 8, 3, 4, duplicate_hops=(15, 0))
    # the figures are derived, so no field can contradict them
    names = {f.name for f in fields(PrivacyReport)}
    assert names.isdisjoint({"anonymity_single", "anonymity_pair",
                             "tof_analytical", "n_fakes", "guess_success"})


def test_analytical_report_no_privacy():
    report = PrivacyReport("no_privacy", 8)
    assert report.anonymity_single == 0.0
    assert report.anonymity_pair == 0.0
    assert report.tof_analytical == 1.0


def test_analytical_report_extended_family():
    report = PrivacyReport("extrout_baseline", 8, 3, 4)
    assert report.anonymity_single == _with_group(15).anonymity_single
    assert report.anonymity_pair == _with_group(15).anonymity_pair
    assert report.tof_analytical == 1.875

    dup = PrivacyReport("extrout_duplicates", 8, 3, 4,
                            duplicate_hops=(15,))
    assert dup.anonymity_single == _with_group(30).anonymity_single
    assert dup.tof_analytical == 3.75

    fake = PrivacyReport("extrout_fake", 8, 3, 4, fake_hops=(17,))
    assert fake.anonymity_single == _with_group(32).anonymity_single == 0.96875
    assert fake.tof_analytical == 4.0
    assert fake.n_fakes == 0  # fake chains under cover are not fake pairs


def test_analytical_report_nfake():
    report = PrivacyReport("nfake_pairs", 12, fake_hops=(13,))
    assert report.n_fakes == 1
    assert report.anonymity_single == 0.5
    assert report.anonymity_pair == 0.75
    assert report.tof_analytical == 25 / 12


def test_report_from_baseline_run():
    topo = line_topology(20)
    plan = build_scenario(topo, 5, 13, ProtocolVariant("extrout_baseline"),
                          ScenarioSettings(source_ext=3, dest_ext=4,
                                           packet_budget=40),
                          random.Random(0))
    report = report_from_run(plan, run(plan))
    assert report.variant == "extrout_baseline"
    assert (report.real_hops, report.source_ext, report.dest_ext) == (8, 3, 4)
    assert report.anonymity_single == _with_group(15).anonymity_single
    assert report.tof_measured == report.tof_analytical == 1.875


def test_report_from_duplicates_run():
    topo, hub_a, hub_b, rows = parallel_paths([14, 14])
    plan = build_scenario(topo, rows[0][2], rows[0][10],
                          ProtocolVariant("extrout_duplicates", 1),
                          ScenarioSettings(source_ext=3, dest_ext=4,
                                           packet_budget=10),
                          random.Random(0))
    report = report_from_run(plan, run(plan))
    assert report.duplicate_hops == (15,)
    assert report.tof_measured == report.tof_analytical == 3.75
    assert report.anonymity_single == pytest.approx(0.9667, abs=5e-5)


def test_report_from_nfake_run():
    topo, _, _, rows = parallel_paths([14, 14, 14])
    plan = build_scenario(topo, rows[0][2], rows[0][10],
                          ProtocolVariant("nfake_pairs", 2),
                          ScenarioSettings(packet_budget=5), random.Random(3))
    report = report_from_run(plan, run(plan))
    assert report.n_fakes == 2
    assert report.fake_hops == tuple(r.hops for r in plan.fake_paths)
    assert report.anonymity_single == _with_group(3).anonymity_single
    assert report.tof_measured == report.tof_analytical


@pytest.mark.parametrize("variant", [
    ProtocolVariant("no_privacy"), ProtocolVariant("extrout_baseline"),
    ProtocolVariant("extrout_duplicates", 2), ProtocolVariant("extrout_fake", 1),
    ProtocolVariant("nfake_pairs", 2)], ids=lambda v: v.kind)
def test_report_from_run_follows_chain_hops_and_cover(variant):
    topo, _, _, rows = parallel_paths([14, 14, 14, 14])
    for seed in range(3):
        plan = build_scenario(topo, rows[0][2], rows[0][10], variant,
                              ScenarioSettings(packet_budget=3),
                              random.Random(seed))
        chains = plan.all_chains()
        total = sum(c.hops for c in chains)
        report = report_from_run(plan, run(plan))
        assert report.tof_analytical == total / plan.real_route.hops
        assert report.tof_measured == report.tof_analytical
        group = total if variant.kind in COVER_KINDS else len(chains)
        assert report.anonymity_single == _with_group(group).anonymity_single
        assert report.anonymity_pair == _with_group(group).anonymity_pair


def test_report_without_trace_has_no_measurement():
    topo = line_topology(12)
    plan = build_scenario(topo, 2, 10, ProtocolVariant("no_privacy"))
    assert report_from_run(plan).tof_measured is None


# ------------------------------------------------------------- reconcile

def _baseline_report(**overrides):
    base = PrivacyReport("extrout_baseline", 8, 3, 4)
    merged = {**vars(base), **overrides}
    return PrivacyReport(**merged)


def test_reconcile_passes_on_exact_match():
    record = reconcile(_baseline_report(tof_measured=1.875))
    assert record.passed and not record.failures and not record.flags


def test_reconcile_fails_on_tof_mismatch():
    record = reconcile(_baseline_report(tof_measured=1.9))
    assert not record.passed
    assert any("tof_measured" in f for f in record.failures)


def test_reconcile_checks_empirical_interval():
    good = _baseline_report(anonymity_empirical=0.94,
                            empirical_ci=(0.9, 0.96))
    assert reconcile(good).passed
    bad = _baseline_report(anonymity_empirical=0.4, empirical_ci=(0.3, 0.5))
    record = reconcile(bad)
    assert not record.passed
    assert any("outside empirical interval" in f for f in record.failures)


def test_reference_mismatch_flags_but_does_not_fail():
    report = PrivacyReport("extrout_fake", 8, 3, 4, fake_hops=(17,))
    record = reconcile(report, REFERENCES["fake_extended_17"])
    assert record.passed
    assert len(record.flags) == 2
    assert any("0.983" in f for f in record.flags)
    assert any("4.25" in f for f in record.flags)


def test_reference_within_rounding_raises_no_flag():
    report = PrivacyReport("extrout_duplicates", 8, 3, 4,
                               duplicate_hops=(15,))
    record = reconcile(report, Reference({}, (0.967, 3.75)))
    assert record.passed and not record.flags
    assert abs(report.anonymity_single - 0.967) < REFERENCE_TOLERANCE


def test_reconcile_keeps_notes():
    record = reconcile(_baseline_report(),
                       Reference({}, (None, 1.875), ("read as totals",)))
    assert record.notes == ("read as totals",)


def test_reference_table_reconciles_cleanly():
    results = reference_reconciliations()
    assert list(results) == list(REFERENCES)
    for name, (report, record) in results.items():
        assert record.passed, name
    fake_report, fake_record = results["fake_extended_17"]
    assert len(fake_record.flags) == 2
    assert fake_record.notes
    assert fake_report.anonymity_single == 0.96875
    assert fake_report.tof_analytical == 4.0
    _, five_record = results["five_path_total_80"]
    assert not five_record.flags and five_record.notes
    _, pair_record = results["one_fake_pair_12_13"]
    assert not pair_record.flags


# ---------------------------------------------------------- serialization

def test_csv_header_and_row():
    report = PrivacyReport("extrout_duplicates", 8, 3, 4,
                               duplicate_hops=(15, 15),
                               tof_measured=5.625)
    header, row = reports_to_csv([report]).splitlines()
    assert header.startswith("variant,real_hops,")
    assert header.endswith(",residual_rate")
    cells = row.split(",")
    assert len(cells) == len(header.split(","))
    assert cells[0] == "extrout_duplicates"
    assert cells[4] == "15+15"
    assert cells[9] == "" and cells[10] == ""  # no empirical columns
    assert cells[13] == "5.625"
    assert cells[15] == "0"  # the residual_rate column is a constant


def test_report_text_rendering():
    report = PrivacyReport("extrout_baseline", 8, 3, 4,
                               tof_measured=1.875)
    text = report_to_text(report, reconcile(report))
    assert "variant            extrout_baseline" in text
    assert "anonymity single   0.933333" in text
    assert "tof measured       1.875000" in text
    assert "reconciliation     pass" in text

    broken = _baseline_report(tof_measured=1.9)
    text = report_to_text(broken, reconcile(broken))
    assert "reconciliation     FAIL" in text
    assert "failure: tof_measured" in text
